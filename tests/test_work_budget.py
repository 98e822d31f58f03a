"""Deterministic work counts: how many kernel calls and dilations a
reconstruction costs.  Unlike timings these do not drift between runs, so
they can gate."""

import sys

import pytest

from reflexpoly import _scan, ehrhart_quasi_polynomial
from reflexpoly import polytope as polytope_module
from reflexpoly.ehrhart import vertex_denominator_lcm
from reflexpoly.fuzz import FuzzConfig, random_polytope

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
        # every node r + kT, k = 0..2d, but n = 0
        assert len(kernel_batches[0]) == T * (2 * p.dim + 1) - 1
        assert dilate_calls == []
