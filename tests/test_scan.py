import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_scan
from reflexpoly import _scan
from reflexpoly.polytope import count_lattice_points, lattice_points

BACKENDS = ("python", "numpy")


def _split(offsets):
    return [b.numerator for b in offsets], [b.denominator for b in offsets]


def count_on(name, lo, hi, normals, offsets, strict=False):
    # straight to the kernel at the named width, with no int64 guard
    return _scan._count([(1, lo, hi)], normals, *_split(offsets), strict, _scan._DTYPES[name])[0]


def collect_on(name, lo, hi, normals, offsets, strict=False):
    return _scan._collect(lo, hi, normals, *_split(offsets), strict, _scan._DTYPES[name])


CASES = [
    ((-5, -5), (5, 5), ((1, 1), (-1, 0), (0, -1)), (Fraction(1, 3), Fraction(1), Fraction(1))),
    ((0, 0, 0), (6, 6, 6), ((1, 2, 3), (-1, 0, 0)), (Fraction(15, 2), Fraction(0))),
    ((-4,), (9,), ((1,), (-1,)), (Fraction(17, 3), Fraction(2))),
    ((0, 0), (3, -1), ((1, 0),), (Fraction(2),)),  # empty box
    ((-2, -2, -2, -2), (2, 2, 2, 2), ((1, 1, 1, 1),), (Fraction(1),)),
]


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("case", CASES, ids=range(len(CASES)))
def test_backends_agree(case, strict):
    lo, hi, normals, offsets = case
    counts = {b: count_on(b, lo, hi, normals, offsets, strict) for b in BACKENDS}
    points = {b: collect_on(b, lo, hi, normals, offsets, strict) for b in BACKENDS}
    assert counts["python"] == counts["numpy"]
    assert points["python"] == points["numpy"]
    assert counts["python"] == len(points["python"])
    assert points["python"] == sorted(points["python"])
    assert points["python"] == brute_scan(lo, hi, normals, offsets, strict)


random_scans = given(
    st.integers(-6, 6),
    st.integers(0, 8),
    st.integers(-6, 6),
    st.integers(0, 8),
    st.lists(
        st.tuples(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            st.integers(-9, 9),
            st.integers(1, 4),
        ),
        min_size=0,
        max_size=4,
    ),
    st.booleans(),
)


def _random_scan(x0, wx, y0, wy, rows):
    lo, hi = (x0, y0), (x0 + wx, y0 + wy)
    normals = tuple(r[0] for r in rows)
    offsets = tuple(Fraction(r[1], r[2]) for r in rows)
    return lo, hi, normals, offsets


@settings(max_examples=60, deadline=None)
@random_scans
def test_backends_agree_random(x0, wx, y0, wy, rows, strict):
    scan = _random_scan(x0, wx, y0, wy, rows)
    ref = collect_on("python", *scan, strict)
    assert collect_on("numpy", *scan, strict) == ref


def _boundary_scan(draw_int):
    """A random scan in 1-4 dimensions whose facets pass through lattice
    points of the box, so strict and closed scans disagree often.

    Each offset is <u, x0> for a box point x0, or p/q with q dividing an entry
    of u.  A last-axis coefficient is often 0 and a last axis often has width
    1, the cases where the fiber solve filters a prefix or has one point."""
    d = draw_int(1, 4)
    lo = [draw_int(-4, 3) for _ in range(d)]
    hi = [a + draw_int(0, 5 - d if d > 1 else 6) for a in lo]
    if draw_int(0, 3) == 0:
        hi[-1] = lo[-1]
    elif draw_int(0, 15) == 0:
        hi[-1] = lo[-1] - 1  # empty box
    normals, offsets = [], []
    for _ in range(draw_int(0, 4)):
        u = [draw_int(-3, 3) for _ in range(d)]
        if draw_int(0, 3) == 0:
            u[-1] = 0
        entries = [abs(c) for c in u if c] or [1]
        if draw_int(0, 1):
            x0 = [draw_int(a, max(a, b)) for a, b in zip(lo, hi)]
            offset = Fraction(sum(c * x for c, x in zip(u, x0)))
        else:
            e = entries[draw_int(0, len(entries) - 1)]
            divisors = [k for k in range(1, e + 1) if e % k == 0]
            offset = Fraction(draw_int(-12, 12), divisors[draw_int(0, len(divisors) - 1)])
        normals.append(tuple(u))
        offsets.append(offset)
    return tuple(lo), tuple(hi), tuple(normals), tuple(offsets)


@st.composite
def boundary_scans(draw):
    return _boundary_scan(lambda a, b: draw(st.integers(a, b)))


@settings(max_examples=150, deadline=None)
@given(boundary_scans())
def test_fiber_scan_matches_brute_force(scan):
    for strict in (False, True):
        ref = brute_scan(*scan, strict)
        for b in BACKENDS:
            assert collect_on(b, *scan, strict) == ref
            assert count_on(b, *scan, strict) == len(ref)


@st.composite
def boundary_batches(draw):
    """One facet system and 1-4 (n, box) scans of it; each box is drawn as
    the boundary scans draw theirs, so boxes differ in width and position
    and often cut the facets' solution set."""
    draw_int = lambda a, b: draw(st.integers(a, b))  # noqa: E731
    _, _, normals, offsets = first = _boundary_scan(draw_int)
    d = len(first[0])
    boxes = [first[:2]]
    while len(boxes) < draw_int(1, 4):
        lo, hi, _, _ = _boundary_scan(draw_int)
        if len(lo) == d:
            boxes.append((lo, hi))
    return [(draw_int(1, 3), lo, hi) for lo, hi in boxes], normals, offsets


@settings(max_examples=100, deadline=None)
@given(boundary_batches())
def test_batched_counts_match_brute_force(batch_case):
    # one kernel call over several dilations and boxes counts each scan as
    # a scan of its own would: points of [lo, hi] with <x, u> <= n * b
    batch, normals, offsets = batch_case
    nums, dens = _split(offsets)
    for strict in (False, True):
        ref = [
            len(brute_scan(lo, hi, normals, [n * b for b in offsets], strict))
            for n, lo, hi in batch
        ]
        for dtype in _scan._DTYPES.values():
            assert _scan._count(batch, normals, nums, dens, strict, dtype) == ref


def test_batch_guard_reads_the_envelope():
    # in each batch only the second scan would overflow int64: the guard
    # must see the largest n * p_i, the largest and the smallest coordinate
    large_n = [(1, (0,), (3,)), (8, (0,), (3,))]
    assert _scan.scan_counts(large_n, ((1,),), (2**60,), (1,)) == [4, 4]
    far_up = [(1, (0, 0), (1, 1)), (1, (2**62, 0), (2**62, 1))]
    assert _scan.scan_counts(far_up, ((4, 1),), (5,), (1,)) == [4, 0]
    far_down = [(1, (0, 0), (1, 1)), (1, (-(2**62), 0), (-(2**62), 1))]
    assert _scan.scan_counts(far_down, ((-4, 1),), (5,), (1,)) == [4, 0]


def test_boundary_scans_separate_strict_from_closed():
    # the strategy above must keep putting lattice points on facets: a random
    # sample of it has to contain many scans whose strict and closed counts
    # differ, or the strict comparison goes untested
    rng = random.Random(0)
    scans = [_boundary_scan(rng.randint) for _ in range(200)]
    differ = sum(
        len(brute_scan(*scan, False)) != len(brute_scan(*scan, True)) for scan in scans
    )
    assert differ >= 50  # 64 of 200 at this seed


def test_env_flag_selection(monkeypatch, reflexive_triangle=None):
    from reflexpoly import from_hrep

    p = from_hrep([((-1, 0), 1), ((0, -1), 1), ((2, 3), 1)], 2)
    results, reported = {}, {}
    for name in ("python", "numpy"):
        monkeypatch.setenv("REFLEX_SCAN", name)
        results[name] = (
            count_lattice_points(p),
            lattice_points(p, strict=True).points,
        )
        reported[name] = _scan.default_backend_name()
    monkeypatch.delenv("REFLEX_SCAN")
    assert results["python"] == results["numpy"] == (7, ((0, 0),))
    assert reported == {"python": "python", "numpy": "numpy"}


def test_env_flag_validation(monkeypatch):
    for name in ("cuda", "numba"):
        monkeypatch.setenv("REFLEX_SCAN", name)
        with pytest.raises(ValueError, match="numpy[|]python"):
            _scan.scan_counts([(1, (0,), (1,))], ((1,),), (1,), (1,))


def test_overflow_guard_falls_back_to_python():
    batch = [(1, (-10, -10), (10, 10))]
    normals = ((2**40, 2**40),)
    nums, dens = _split((Fraction(10**30),))
    assert _scan.resolve_backend(batch, normals, nums, dens) == "python"
    # still exact: every point of the box satisfies the huge bound
    assert _scan.scan_counts(batch, normals, nums, dens) == [21 * 21]


# the last axis is fixed at [0, 0], so the coordinates do not bound q*c_d,
# the divisor of the fiber solve: here it is 3 * 2**63 and must not wrap
DIVISOR_SCAN = ((-3, 0), (3, 0), ((1, 3 * 2**40),), (-5,), (2**23,))
DIVISOR_POINTS = [(-3, 0), (-2, 0), (-1, 0)]


def test_overflow_guard_bounds_the_fiber_divisor():
    lo, hi, normals, nums, dens = DIVISOR_SCAN
    assert _scan.resolve_backend([(1, lo, hi)], normals, nums, dens) == "python"
    assert _scan.scan_collect(*DIVISOR_SCAN) == DIVISOR_POINTS


def test_numpy_flag_cannot_force_int64_onto_unsafe_scan(monkeypatch):
    lo, hi, normals, nums, dens = DIVISOR_SCAN
    # at int64 the divisor wraps and the scan answers wrongly
    assert _scan._collect(*DIVISOR_SCAN, False, np.int64) == [(0, 0), (1, 0), (2, 0), (3, 0)]
    monkeypatch.setenv("REFLEX_SCAN", "numpy")
    assert _scan.resolve_backend([(1, lo, hi)], normals, nums, dens) == "python"
    assert _scan.scan_collect(*DIVISOR_SCAN) == DIVISOR_POINTS
    assert _scan.scan_counts([(1, lo, hi)], normals, nums, dens) == [len(DIVISOR_POINTS)]


def test_int64_guard_bounds_are_strict_at_2_62():
    # each clause passes one below 2**62 and fails at it: the box volume,
    # a coordinate of either sign, B_i (its 1 on an axis fixed at [0, 0])
    # and |p_i|
    L, side = 2**62, 2**31

    def safe(lo, hi, normals=(), nums=(), dens=()):
        return _scan._int64_safe(lo, hi, normals, nums, dens)

    assert [safe((0, 0), (side - 1, side - 2)), safe((0, 0), (side - 1, side - 1))] == [True, False]
    assert [safe((L - 1,), (L - 1,)), safe((L,), (L,))] == [True, False]
    assert [safe((1 - L,), (1 - L,)), safe((-L,), (-L,))] == [True, False]
    assert [safe((0, 0), (0, 0), ((0, L - 1),), (0,), (1,)),
            safe((0, 0), (0, 0), ((0, L),), (0,), (1,))] == [True, False]
    assert [safe((0,), (0,), ((1,),), (0,), (L - 1,)),
            safe((0,), (0,), ((1,),), (0,), (L,))] == [True, False]
    assert [safe((0,), (0,), ((1,),), (1 - L,), (1,)),
            safe((0,), (0,), ((1,),), (-L,), (1,))] == [True, False]


@pytest.mark.parametrize("lo, hi", [((0, 0), (43690, 2)), ((0, 0), (2, 2**17))])
def test_chunks_bound_box_points(lo, hi):
    # a chunk holds _CHUNK // w prefixes, w the last-axis width, so at most
    # _CHUNK box points; one prefix when w alone exceeds _CHUNK
    w = hi[-1] - lo[-1] + 1
    step = max(1, _scan._CHUNK // w)
    chunks = [len(x) for _, x, _, _ in _scan._fibers([(1, lo, hi)], (), (), (), False, np.int64)]
    assert sum(chunks) == hi[0] - lo[0] + 1
    assert chunks == [step] * (len(chunks) - 1) + chunks[-1:]
    assert max(chunks) <= step


def test_count_chunks_have_a_prefix_floor(monkeypatch):
    # a count holds prefixes x facets, not box points: past a last-axis
    # width of 128 its chunks keep _CHUNK // 128 prefixes, where a collect's
    # would shrink to _CHUNK // w
    chunks = []
    original = _scan._fibers

    def recorded(*args):
        for chunk in original(*args):
            chunks.append(len(chunk[1]))
            yield chunk

    monkeypatch.setattr(_scan, "_fibers", recorded)
    floor = _scan._CHUNK // 128
    for w, prefixes in ((2**17, floor + 5), (1000, 3 * floor), (129, floor + 1)):
        chunks.clear()
        batch = [(1, (0, 0), (prefixes - 1, w - 1))]
        assert _scan.scan_counts(batch, (), (), ()) == [prefixes * w]
        assert chunks == [floor] * (prefixes // floor) + [prefixes % floor] * (prefixes % floor > 0)
    # below that width the box-point cap gives more prefixes than the floor
    chunks.clear()
    assert _scan.scan_counts([(1, (0, 0), (2999, 63))], (), (), ()) == [3000 * 64]
    assert chunks == [_scan._CHUNK // 64, 3000 - _scan._CHUNK // 64]


def test_collect_width_reads_its_own_offsets(monkeypatch):
    # a collect's guard sees p_i itself: 2**62 - 1 runs at int64, and
    # 2**63, which no int64 holds, at python width
    widths = []
    original = _scan._fibers

    def recorded(*args):
        widths.append(args[-1])
        return original(*args)

    monkeypatch.setattr(_scan, "_fibers", recorded)
    for p in (2**62 - 1, 2**63):
        assert _scan.scan_collect((0,), (3,), ((1,),), (p,), (1,)) == [(0,), (1,), (2,), (3,)]
    assert widths == [np.int64, object]


def test_no_constraints_counts_box():
    for b in BACKENDS:
        assert count_on(b, (0, 0), (2, 3), (), ()) == 12
