import hashlib
import json

import pytest

from conftest import GOLDEN
from reflexpoly import from_json, is_weil, divisor_from_polytope, is_dual_integral
from reflexpoly.errors import ScaleExceeded
from reflexpoly.fuzz import (
    FuzzConfig,
    dual_integral_polytope,
    integral_support_polytope,
    random_polytope,
    reverify_counterexample,
    write_report,
)
from reflexpoly.fuzz import test_conjecture_dualfano as run_dualfano
from reflexpoly.fuzz import test_conjecture_quasilattice as run_quasilattice

SMALL = FuzzConfig(dim=2, samples=24, seed=42, max_coordinate=3, max_denominator=2,
                   normal_entry_bound=1)


class TestGenerators:
    def test_golden_uniform_dim2(self):
        p = random_polytope(FuzzConfig(dim=2, samples=1, seed=1, max_coordinate=4,
                                       max_denominator=3), 0)
        frozen = json.loads((GOLDEN / "uniform_seed1_stream0_dim2.json").read_text())
        assert p == from_json(frozen)

    def test_golden_uniform_dim1(self):
        p = random_polytope(FuzzConfig(dim=1, samples=1, seed=1, max_coordinate=4,
                                       max_denominator=3), 0)
        frozen = json.loads((GOLDEN / "uniform_seed1_stream0_dim1.json").read_text())
        assert p == from_json(frozen)

    def test_dim1_always_segment(self):
        cfg = FuzzConfig(dim=1, samples=1, seed=5, max_coordinate=3, max_denominator=4)
        for i in range(10):
            p = random_polytope(cfg, i)
            assert p.dim == 1 and len(p.vrep) == 2

    def test_streams_are_independent(self):
        assert random_polytope(SMALL, 0) != random_polytope(SMALL, 1)

    def test_integral_support_instances_are_weil(self):
        for i in range(10):
            p = integral_support_polytope(SMALL, i)
            assert is_weil(divisor_from_polytope(p))

    # sha256 of streams 0-19 in dims 1-3 (seed 3, default bounds) as compact,
    # key-sorted JSON: any change to a generator's draws or retries moves it
    @pytest.mark.parametrize("generator, digest", [
        (random_polytope, "1760bed075d76becc381f025a7694eccf5b71dac154f4ac50017b283882fa448"),
        (integral_support_polytope,
         "7fcd9314fa12b566452b95fd3827cd0742b81764965f0223957b5accad4f5da2"),
        (dual_integral_polytope,
         "776ef866f05b5224cd088f46ce7be7e0ff1e8fb53fc7657e5f8eb0ebb228fdef"),
    ], ids=["uniform", "weil", "dualint"])
    def test_streams_pinned(self, generator, digest):
        out = [generator(FuzzConfig(dim=d, seed=3), i).to_json()
               for d in (1, 2, 3) for i in range(20)]
        text = json.dumps(out, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_dual_integral_instances_pass(self):
        for i in range(10):
            p = dual_integral_polytope(SMALL, i)
            flag, _, _ = is_dual_integral(p)
            assert flag


class TestConjectureRuns:
    def test_quasilattice_report_shape(self):
        report = run_quasilattice(SMALL)
        obj = report.to_json()
        assert obj["conjecture"] == "quasilattice"
        assert obj["instances_tested"] + len(obj["skipped"]) == SMALL.samples
        assert obj["verdict"] in ("no counterexample", "counterexample found")
        assert "never asserted" in obj["note"]

    def test_dualfano_report_shape(self):
        report = run_dualfano(SMALL)
        obj = report.to_json()
        assert obj["conjecture"] == "dualfano"
        assert obj["hypothesis_held"] <= obj["instances_tested"]

    def test_reproducible_byte_identical(self):
        a = run_quasilattice(SMALL).dumps()
        b = run_quasilattice(SMALL).dumps()
        assert a == b
        c = run_dualfano(SMALL).dumps()
        d = run_dualfano(SMALL).dumps()
        assert c == d

    def test_counterexamples_reverify(self):
        report = run_quasilattice(SMALL)
        for entry in report.counterexamples:
            assert reverify_counterexample("quasilattice", entry)
        report2 = run_dualfano(SMALL)
        for entry in report2.counterexamples:
            assert reverify_counterexample("dualfano", entry)

    def test_budget_errors_logged_not_dropped(self):
        cfg = FuzzConfig(dim=2, samples=6, seed=9, max_coordinate=4,
                         max_denominator=12, budget=50)
        report = run_quasilattice(cfg)
        assert report.instances_tested + len(report.skipped) == cfg.samples
        assert report.skipped, "tiny budget must force logged skips"
        assert all(e["error"] == "ScaleExceeded" for e in report.skipped)

    def test_report_file_round_trip(self, tmp_path):
        report = run_dualfano(SMALL)
        path = write_report(report, tmp_path)
        assert path.name == "fuzz_dualfano_seed42.json"
        assert json.loads(path.read_text()) == report.to_json()

    def test_known_dualfano_counterexample_reverifies(self, dual_fano_triangle):
        # dual-Fano with all facet integers 1, yet its counting
        # quasi-polynomial has period 3: a concrete disagreement entry
        entry = {
            "polytope": dual_fano_triangle.to_json(),
            "is_dual_fano": True,
            "is_dual_integral": True,
            "is_quasi_lattice": False,
        }
        assert reverify_counterexample("dualfano", entry)

    def test_known_quasilattice_counterexample_reverifies(self):
        from reflexpoly import from_hrep

        p = from_hrep([((-1, 0), 0), ((0, -1), 0), ((2, 3), 5)], 2)
        entry = {"polytope": p.to_json(), "is_weil": True, "is_quasi_lattice": False}
        assert reverify_counterexample("quasilattice", entry)
