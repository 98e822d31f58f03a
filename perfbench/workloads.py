"""The four benchmark workloads: seeded inputs, the timed operation, and the
checks run on every output outside the timed region.

Every workload has a fixed base set per seed set: a stratified sample of a
corpus built with the package's own seeded generators.  Every ``stride``-th
item of each corpus stratum (dimension, generator family) is kept and the
strata are interleaved in proportion.  A run makes whole passes over the
base set, so every run times the same mix.

Each operation gets its own copy of a base item under a signed coordinate
permutation drawn from the run's ``--seed``, the pass number and the item.
A signed permutation is a lattice symmetry fixing the origin: it keeps every
classification flag, every lattice count, bounding-box volumes and hull
combinatorics.  So different seeds, and different passes, feed the program
different inputs of the same cost, and one pinned digest per base item
checks the output of every seed after mapping it back to the base frame.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction
from typing import Callable

import numpy as np

import reflexpoly as rp
from reflexpoly.ehrhart import vertex_denominator_lcm
from reflexpoly.errors import LowerDimensional
from reflexpoly.fuzz import FuzzConfig, dual_integral_polytope, random_polytope

SEED_SETS = ("default", "second")


# -- signed permutations -------------------------------------------------------


class Symmetry:
    """x -> y with y[i] = sign[i] * x[perm[i]]."""

    def __init__(self, perm, signs):
        self.perm = tuple(perm)
        self.signs = tuple(signs)

    @classmethod
    def draw(cls, dim: int, key: str) -> "Symmetry":
        rng = random.Random(key)
        return cls(rng.sample(range(dim), dim), [rng.choice((1, -1)) for _ in range(dim)])

    @classmethod
    def identity(cls, dim: int) -> "Symmetry":
        return cls(range(dim), [1] * dim)

    def apply(self, x):
        return tuple(s * x[j] for s, j in zip(self.signs, self.perm))

    def undo(self, y):
        x = [None] * len(y)
        for s, j, v in zip(self.signs, self.perm, y):
            x[j] = s * v
        return tuple(x)

    def undo_rows(self, arr: np.ndarray) -> np.ndarray:
        out = np.empty_like(arr)
        for i, (s, j) in enumerate(zip(self.signs, self.perm)):
            out[:, j] = s * arr[:, i]
        return out


def _mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, elementwise on uint64 (wrapping)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def point_hashes(rows: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of an int64 array."""
    h = np.full(len(rows), 0x9E3779B97F4A7C15, dtype=np.uint64)
    for col in rows.T:
        h = _mix64(h ^ col.astype(np.uint64))
    return h


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def polytope_json_in_base(poly_json: dict, sym: Symmetry) -> dict:
    """Canonical ``Polytope.to_json`` of sym^-1 applied to the polytope."""
    hrep = sorted(
        (sym.undo(tuple(h["normal"])), h["offset"]) for h in poly_json["hrep"]
    )
    vrep = sorted(sym.undo(tuple(Fraction(c) for c in v)) for v in poly_json["vrep"])
    return {
        "dim": poly_json["dim"],
        "hrep": [{"normal": list(u), "offset": b} for u, b in hrep],
        "vrep": [[str(c) for c in v] for v in vrep],
    }


def mapped_polytope(p: rp.Polytope, sym: Symmetry) -> rp.Polytope:
    return rp.from_vrep([sym.apply(v) for v in p.vrep])


def interleave(strata_sizes) -> list[tuple[int, int]]:
    """(stratum, index) pairs, each stratum spread evenly over the order."""
    keys = []
    for s, size in enumerate(strata_sizes):
        keys.extend(((j + 0.5) / size, s, j) for j in range(size))
    return [(s, j) for _, s, j in sorted(keys)]


# -- workloads -----------------------------------------------------------------


class Workload:
    """A base set in run order; subclasses define the op and its checks.

    ``strata`` returns (size, make) per stratum, where ``make(j)`` builds
    item j of the stratum; only the sampled items are built.  ``keys`` name
    the items for the pinned digests.
    """

    name = ""
    stride = 1
    tail_percentile = 90

    def __init__(self, seed_set: str):
        if seed_set not in SEED_SETS:
            raise ValueError(f"unknown seed set {seed_set!r}")
        self.seed_set = seed_set
        strata = self.strata(SEED_SETS.index(seed_set))
        picked = [range(self.stride // 2, size, self.stride) for size, _ in strata]
        order = [(s, picked[s][i]) for s, i in interleave([len(js) for js in picked])]
        self.items = [strata[s][1](j) for s, j in order]
        self.keys = [f"{s}.{j}" for s, j in order]

    def symmetry(self, seed: int, op_index: int) -> tuple[int, Symmetry]:
        pos = op_index % len(self.items)
        dim = self.dim_of(self.items[pos])
        key = f"{self.name}:{self.seed_set}:{seed}:{op_index // len(self.items)}:{pos}"
        return pos, Symmetry.draw(dim, key)

    def strata(self, set_index: int) -> list[tuple[int, Callable]]:
        raise NotImplementedError

    def dim_of(self, item) -> int:
        return item.dim

    def make_input(self, item, sym: Symmetry):
        return mapped_polytope(item, sym)

    def run(self, inp):
        raise NotImplementedError

    def expect(self, inp):
        """Values a correct output must match, computed by another code path
        outside the timed region, or None.  They must be the same for every
        signed permutation of the input."""
        return None

    def check(self, inp, out, sym: Symmetry, expected) -> tuple[str, list[str]]:
        """The digest of the output mapped back to the base frame, and the
        problems found by checks that hold for any seed."""
        raise NotImplementedError

    def corrupt(self, out):
        """A deliberately wrong copy of an output (benchmark self-test)."""
        raise NotImplementedError


def _generator(make, cfg):
    return lambda j: make(cfg, j)


def _acceptance_corpus(seed: int) -> list[tuple[int, Callable]]:
    """The acceptance suite's corpus200 recipe: dims 1-3 with per-dimension
    coordinate and denominator caps keeping every count in budget."""
    strata = []
    for dim, howmany, coord, den in ((1, 60, 8, 12), (2, 80, 4, 3), (3, 60, 3, 2)):
        cfg = FuzzConfig(dim=dim, samples=howmany, seed=seed, max_coordinate=coord, max_denominator=den)
        strata.append((howmany, _generator(random_polytope, cfg)))
    return strata


class Classify(Workload):
    """classify(p) over every 10th polytope of each stratum of the acceptance
    suite's 250-polytope corpus (corpus200 plus 50 dual-integral ones)."""

    name = "classify"
    stride = 10
    tail_percentile = 78

    def strata(self, set_index):
        cfg = FuzzConfig(
            dim=2, samples=50, seed=77 + set_index, max_coordinate=3, max_denominator=2,
            normal_entry_bound=1, max_facet_integer=3,
        )
        return _acceptance_corpus(2024 + set_index) + [(50, _generator(dual_integral_polytope, cfg))]

    def run(self, p):
        return rp.classify(p)

    def expect(self, p):
        return rp.count_lattice_points(p, strict=True)

    def check(self, p, report, sym, interior_count):
        obj = report.to_json()
        obj["interior_lattice_points"] = sorted(
            list(sym.undo(pt)) for pt in obj["interior_lattice_points"]
        )
        if obj["anchor"] is not None:
            obj["anchor"] = list(sym.undo(obj["anchor"]))
        if obj["facet_integers"] is not None:
            pairs = sorted(
                (sym.undo(h.normal), k) for h, k in zip(p.hrep, obj["facet_integers"])
            )
            obj["facet_integers"] = [k for _, k in pairs]
        problems = []
        if report.interior_lattice_points.count != interior_count:
            problems.append("interior lattice point count differs from count_lattice_points")
        return digest(obj), problems

    def corrupt(self, report):
        return dataclasses.replace(report, is_dual_integral=not report.is_dual_integral)


class Ehrhart(Workload):
    """ehrhart_quasi_polynomial(p) plus interior counts of nP, n = 1..5, over
    every 4th polytope of each stratum of corpus200."""

    name = "ehrhart"
    stride = 4
    tail_percentile = 89

    def strata(self, set_index):
        return _acceptance_corpus(2024 + set_index)

    def run(self, p):
        q = rp.ehrhart_quasi_polynomial(p)
        return q, [rp.count_interior(p, n) for n in range(1, 6)]

    @staticmethod
    def _beyond(p):
        # the reconstruction validates residues up to n = 2d*T + T - 1
        return (2 * p.dim + 1) * vertex_denominator_lcm(p)

    def expect(self, p):
        return rp.count(p, self._beyond(p))

    def check(self, p, out, sym, count_beyond):
        q, interior = out
        problems = []
        sign = (-1) ** p.dim
        if any(rp.evaluate(q, -n) != sign * c for n, c in zip(range(1, 6), interior)):
            problems.append("reciprocity fails for some n in 1..5")
        beyond = self._beyond(p)
        if rp.evaluate(q, beyond) != count_beyond:
            problems.append(f"q({beyond}) differs from the lattice count")
        if vertex_denominator_lcm(p) % q.period:
            problems.append("minimal period does not divide the vertex denominator lcm")
        return digest({"qp": q.to_json(), "interior": interior}), problems

    def corrupt(self, out):
        q, interior = out
        return q, [interior[0] + 1] + interior[1:]


class Hull(Workload):
    """from_vrep -> from_hrep -> polar_dual on point clouds near a sphere.

    The clouds are mid-sized, with 12 to 20 facets: an op on a 3D 12-point
    or a 4D 7-point cloud takes 0.4 to 1.1 s, so a run holds some 30 ops.
    Larger clouds cost seconds per op (3D 16 points about 3 s, 4D 8 points
    2 to 4 s) and leave too few ops for a tail.  The two kinds of cloud
    cost about the same, so the item latencies form one cluster and the
    median and tail percentile fall inside it; with two clusters they fell
    on the sparse edge of one and moved with machine noise.  The tail
    percentile leaves at least 10 of the run's ops beyond it."""

    name = "hull"
    tail_percentile = 58
    # (dimension, points per cloud, radius, clouds)
    SHAPES = ((3, 12, 6, 3), (4, 7, 4, 3))

    def strata(self, set_index):
        return [
            (count, lambda j, d=d, n=n, r=r: self._cloud(f"hull:{set_index}:{d}:{n}:{j}", d, n, r))
            for d, n, r, count in self.SHAPES
        ]

    @staticmethod
    def _cloud(key, d, n, radius):
        """n integer points within 1/2 of the radius-r sphere whose hull
        holds the origin strictly inside."""
        rng = random.Random(key)
        while True:
            pts = set()
            while len(pts) < n:
                v = tuple(rng.randint(-radius, radius) for _ in range(d))
                if abs(math.sqrt(sum(c * c for c in v)) - radius) <= 0.5:
                    pts.add(v)
            pts = sorted(pts)
            try:
                hull = rp.from_vrep(pts)
            except LowerDimensional:
                continue
            if all(h.offset > 0 for h in hull.hrep):
                return pts

    def dim_of(self, item):
        return len(item[0])

    def make_input(self, item, sym):
        return [sym.apply(v) for v in item]

    def run(self, points):
        p = rp.from_vrep(points)
        q = rp.from_hrep([(h.normal, h.offset) for h in p.hrep], p.dim)
        return p, q, rp.polar_dual(p)

    def check(self, points, out, sym, expected):
        p, q, dual = out
        problems = []
        if q != p:
            problems.append("from_hrep of the hull facets differs from the hull")
        if len(dual.vrep) != len(p.hrep) or len(dual.hrep) != len(p.vrep):
            problems.append("polar dual does not swap vertex and facet counts")
        base = {
            "hull": polytope_json_in_base(p.to_json(), sym),
            "dual": polytope_json_in_base(dual.to_json(), sym),
        }
        return digest(base), problems

    def corrupt(self, out):
        p, q, dual = out
        return p, q, rp.translate(dual, (1,) + (0,) * (dual.dim - 1))


class Lattice(Workload):
    """lattice_points(q), strict for every other polytope, on dilations of
    seeded 2D/3D polytopes with about 2*10^5 box points each."""

    name = "lattice"
    tail_percentile = 87
    BOX_POINTS = 200_000
    CHECK_ROWS = 4096
    # (dimension, max coordinate, max denominator, polytopes)
    STRATA = ((2, 4, 3, 11), (3, 3, 2, 10))

    def strata(self, set_index):
        return [
            (count, lambda j, cfg=FuzzConfig(
                dim=d, samples=count, seed=2024 + set_index, max_coordinate=coord, max_denominator=den,
            ): (self._dilate(random_polytope(cfg, j)), j % 2 == 1))
            for d, coord, den, count in self.STRATA
        ]

    def _dilate(self, p):
        box = 1
        for j in range(p.dim):
            box *= max(v[j] for v in p.vrep) - min(v[j] for v in p.vrep)
        return rp.dilate(p, max(1, round((self.BOX_POINTS / box) ** (1 / p.dim))))

    def dim_of(self, item):
        return item[0].dim

    def make_input(self, item, sym):
        q, strict = item
        return mapped_polytope(q, sym), strict

    def run(self, inp):
        q, strict = inp
        return rp.lattice_points(q, strict=strict)

    def expect(self, inp):
        q, strict = inp
        return rp.count_lattice_points(q, strict=strict)

    def check(self, inp, out, sym, count):
        """Works through the points in chunks, so that it holds little memory
        beyond the output itself and the op's peak memory sets peak_rss_mb.
        The digest covers the set of base-frame points: the sum of a 64-bit
        hash of each point, with the count.  Their order is checked apart."""
        q, strict = inp
        pts = out.points
        problems = []
        if out.count != len(pts) or len(pts) != count:
            problems.append("collect length differs from count_lattice_points")
        if not all(pts[k] < pts[k + 1] for k in range(len(pts) - 1)):
            problems.append("points are not in strict lex order")
        normals = np.array([h.normal for h in q.hrep], dtype=np.int64)
        offsets = [Fraction(h.offset) for h in q.hrep]
        nums = np.array([b.numerator for b in offsets], dtype=np.int64)
        dens = np.array([b.denominator for b in offsets], dtype=np.int64)
        outside, total = False, 0
        for start in range(0, len(pts), self.CHECK_ROWS):
            arr = np.array(pts[start:start + self.CHECK_ROWS], dtype=np.int64).reshape(-1, q.dim)
            lhs = (arr @ normals.T) * dens
            outside |= bool((lhs >= nums if strict else lhs > nums).any())
            total += int(point_hashes(sym.undo_rows(arr)).sum(dtype=np.uint64))
        if outside:
            problems.append("a point violates a facet")
        return digest([len(pts), total % 2**64]), problems

    def corrupt(self, out):
        return rp.LatticePointSet(points=out.points[:-1], count=out.count - 1)


WORKLOADS = {w.name: w for w in (Classify, Ehrhart, Hull, Lattice)}
