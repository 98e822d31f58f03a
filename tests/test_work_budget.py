"""Deterministic work counts: how many kernel calls and dilations a
reconstruction costs.  Unlike timings these do not drift between runs, so
they can gate."""

import json
import sys
from fractions import Fraction

import pytest

from conftest import triangle
from reflexpoly import _scan, classify, ehrhart_quasi_polynomial
from reflexpoly.cli import main as cli_main
from reflexpoly import polytope as polytope_module
from reflexpoly.ehrhart import count, count_sequence, vertex_denominator_lcm
from reflexpoly.errors import InvalidInput, ScaleExceeded
from reflexpoly.fuzz import FuzzConfig, dual_integral_polytope, random_polytope
from reflexpoly.polytope import (
    count_in_box,
    count_lattice_points,
    dilate,
    from_hrep,
    from_vrep,
    integer_bounding_box,
    lattice_points,
    normal_fan_rays,
    translate,
)
from reflexpoly.toric import euler_char_canonical_twist

# (dim, samples, max_coordinate, max_denominator) of each corpus200 stratum,
# and the streams of the slice taken from it
CORPUS200 = ((1, 60, 8, 12), (2, 80, 4, 3), (3, 60, 3, 2))
SLICE = {1: (0, 20, 40), 2: (0, 20, 40, 60), 3: (0, 20, 40)}


def corpus200_slice():
    out = []
    for dim, samples, coord, den in CORPUS200:
        cfg = FuzzConfig(dim=dim, samples=samples, seed=2024, max_coordinate=coord, max_denominator=den)
        out.extend(random_polytope(cfg, i) for i in SLICE[dim])
    return out


def gate_polytopes():
    """The five polytopes of test_classify's work counts, then ten of
    corpus250: five of the corpus200 slice and five dual-integral ones."""
    reflexive = triangle(2, 3)
    named = {
        "reflexive": reflexive,
        "dual-fano": triangle(1, 3),
        "unit-square": from_vrep([(0, 0), (1, 0), (0, 1), (1, 1)]),
        "reflexive-x2": dilate(reflexive, 2),
        "reflexive-x3-shifted": translate(dilate(reflexive, 3), (1, -2)),
    }
    for i, p in enumerate(corpus200_slice()[::2]):
        named[f"corpus200-{i}"] = p
    cfg = FuzzConfig(
        dim=2, samples=50, seed=77, max_coordinate=3, max_denominator=2,
        normal_entry_bound=1, max_facet_integer=3,
    )
    for i in range(0, 50, 10):
        named[f"dual-integral-{i}"] = dual_integral_polytope(cfg, i)
    return named


GATE = gate_polytopes()


def test_budget_counts_box_points():
    # the budget bounds box points, an empty box holding none: the
    # triangle's box [-1, 2] x [-1, 1] holds 12
    p = triangle(2, 3)
    assert count_lattice_points(p, budget=12) == 7
    with pytest.raises(ScaleExceeded) as exc:
        lattice_points(p, budget=11)
    assert exc.value.context == {"box": 12, "budget": 11}
    assert count_in_box([], (0, 0), (3, -1), budget=0) == 0


def test_zero_dilation_at_budget_zero():
    # n = 0 counts the origin without a scan, so no box is checked; scanning
    # it would raise on its one-point box before the reconstruction's n = 1
    segment = from_hrep([((-1,), 0), ((1,), 3)], 1)
    assert count(segment, 0, budget=0) == 1
    with pytest.raises(ScaleExceeded) as exc:
        ehrhart_quasi_polynomial(segment, budget=0)
    assert exc.value.context == {"box": 4, "budget": 0}


@pytest.mark.parametrize(
    "halfspaces, lo, hi, error",
    [
        ([((Fraction(1, 2),), 1)], (0,), (5,), InvalidInput),  # counted 6, not 3
        ([((0.5,), 1)], (0,), (5,), ValueError),  # the same, as a float
        ([((1,), 5)], (Fraction(1, 2),), (Fraction(5, 2),), InvalidInput),  # counted 3, not 2
        ([((1,), 5)], (0.5,), (2.5,), ValueError),
        ([((True,), 1)], (0,), (5,), ValueError),
        ([((1,), 5)], (False,), (2,), ValueError),
    ],
    ids=["half-normal", "float-normal", "half-box", "float-box", "bool-normal", "bool-box"],
)
def test_count_in_box_refuses_what_it_would_truncate(halfspaces, lo, hi, error):
    with pytest.raises(error):
        count_in_box(halfspaces, lo, hi)


class TestWorkCounts:
    """One reconstruction is one kernel call over all its dilations, and no
    dilated polytope is built."""

    @pytest.fixture
    def kernel_batches(self, monkeypatch):
        batches = []
        original = _scan._fibers

        def counted(batch, *args):
            batches.append(list(batch))
            return original(batch, *args)

        monkeypatch.setattr(_scan, "_fibers", counted)
        return batches

    @pytest.fixture
    def dilate_calls(self, monkeypatch):
        """Wrap polytope.dilate in every reflexpoly module that binds it."""
        calls = []
        original = polytope_module.dilate

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("reflexpoly"):
                if vars(module).get("dilate") is original:
                    monkeypatch.setattr(module, "dilate", counted)
        return calls

    @pytest.mark.parametrize("p", corpus200_slice(), ids=lambda p: f"{p.dim}d-{len(p.vrep)}v")
    def test_one_kernel_call_per_reconstruction(self, kernel_batches, dilate_calls, p):
        T = vertex_denominator_lcm(p)
        ehrhart_quasi_polynomial(p)
        assert len(kernel_batches) == 1
        # every node r + kT, k = 0..2d-1, but n = 0
        assert len(kernel_batches[0]) == 2 * p.dim * T - 1
        assert dilate_calls == []

    @pytest.mark.parametrize("name", GATE)
    def test_kernel_calls_per_operation(self, kernel_batches, name):
        # one kernel call per lattice query; the twist is an interior count
        # plus its explicit cross-check, and classify is the strict collect
        # of its anchor pass plus one reconstruction batch
        p = GATE[name]
        lo, hi = integer_bounding_box(p)
        ops = (
            lambda: lattice_points(p),
            lambda: lattice_points(p, strict=True),
            lambda: count_lattice_points(p),
            lambda: count_in_box(normal_fan_rays(p), lo, hi),
            lambda: euler_char_canonical_twist(p, 2),
            lambda: classify(p),
        )
        calls = []
        for op in ops:
            kernel_batches.clear()
            op()
            calls.append(len(kernel_batches))
        assert calls == [1, 1, 1, 1, 2, 2]

    def test_count_sequence_one_batch_per_sequence(self, kernel_batches):
        seq = count_sequence(triangle(2, 3), 6)
        assert [len(b) for b in kernel_batches] == [6, 6]
        assert list(seq.values.values()) == [1, 7, 19, 37, 61, 91, 127]  # 3n^2 + 3n + 1
        assert list(seq.interior_values.values()) == [1, 7, 19, 37, 61, 91]  # 3n^2 - 3n + 1
        # the boxes of n = 1..6 hold 12, 35, 70, 117, 176 and 247 points
        with pytest.raises(ScaleExceeded) as exc:
            count_sequence(triangle(2, 3), 6, budget=100)
        assert exc.value.context == {"box": 117, "budget": 100}

    def test_cli_nmax_one_batch(self, kernel_batches, capsys):
        blob = triangle(2, 3).to_json()
        argv = ["ehrhart", "--in", json.dumps(blob), "--nmax", "5", "--budget", "200"]
        assert cli_main(argv) == 0
        assert json.loads(capsys.readouterr().out)["counts"] == [1, 7, 19, 37, 61, 91]
        # one reconstruction batch, then one for n = 1..5
        assert [len(b) for b in kernel_batches] == [3, 5]
        assert cli_main(argv[:3] + ["--nmax", "8", "--budget", "200"]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ScaleExceeded",
            "message": "bounding box exceeds enumeration budget",
            "context": {"box": 247, "budget": 200},
        }
