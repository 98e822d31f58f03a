"""Integer lattice scans: the hot loop behind every lattice-point count.

A scan finds the integer points x of a box [lo, hi] with
q_i * <x, u_i> <= n * p_i (strictly, when requested) for every facet
(u_i, p_i/q_i), so the integer points of the dilation nP.  It enumerates
only the first d-1 box coordinates.  Over each such prefix x' the facets cut
the last axis down to one interval, the fiber, solved exactly by floor
division, with c_i the last entry of u_i and u_i' the others:

    R_i = n * p_i - q_i * <u_i', x'>      (n * p_i - 1 for a strict scan)
    q_i c_i > 0:  x_d <= R_i // (q_i c_i)
    q_i c_i < 0:  x_d >= -(R_i // -(q_i c_i))
    c_i = 0:      the prefix is kept only when R_i >= 0

The solve is facet-major: R holds one row per facet over a chunk of
prefixes, each row is divided by its facet's scalar divisor, and the
results are folded in place into the fiber ends, which start at the box's
last-axis ends.

One call scans a batch of dilations of the same facets, each (n, box) in
turn: every prefix is tagged with the index of its dilation, and the chunks
of prefixes run across the whole batch, so the numpy set-up is paid once per
batch, not once per dilation.  A collect's chunk holds at most _CHUNK box
points; a count materializes no points, so its chunks hold at least
_CHUNK // 128 prefixes however wide the last axis is.  A count sums the fiber lengths of each
dilation; a collect (a batch of one) emits each fiber as one run, so points
come out in lexicographic order.  The one algorithm runs at two integer
widths, the backends:

  * "numpy"  - int64 arrays, the default;
  * "python" - arrays of Python big ints, always exact.

Both entry points, ``scan_counts`` (a batch) and ``scan_collect`` (one
box), take the facets as integer rows (u_i, p_i, q_i) and pick the width
once per call, in ``resolve_backend``: a conservative bound check
(``_int64_safe``) runs on the batch's envelope, the smallest box holding
every box, with the offsets of its largest dilation; if it fails, the whole
call runs at the python width.  REFLEX_SCAN=python forces the python width;
REFLEX_SCAN=numpy cannot force int64 onto a scan that fails the check.  The
enumeration budget that callers apply (``polytope.enumeration_budget``)
still counts box points, not fibers.
"""

from __future__ import annotations

import math
import os
from typing import Sequence

import numpy as np

_INT64_LIMIT = 2**62
_CHUNK = 1 << 17  # box points per chunk of prefixes, bounding transient memory
_DTYPES = {"numpy": np.int64, "python": object}


def _box_volume(lo: Sequence[int], hi: Sequence[int]) -> int:
    vol = 1
    for a, b in zip(lo, hi):
        if b < a:
            return 0
        vol *= b - a + 1
    return vol


def _int64_safe(lo, hi, normals, nums, dens) -> bool:
    """Whether the fiber solve of this scan stays inside int64.

    Let B_i = q_i * sum_j |c_ij| * max(|lo_j|, |hi_j|, 1).  The 1 matters on
    an axis fixed at [0, 0]: without it B_i would not bound q_i * c_ij, and
    the last-axis product q_i * c_id is the divisor of the fiber solve.  With
    B_i < 2**62, every q_i * c_ij * x_j, every partial dot product and every
    q_i * c_ij is at most B_i in size; with |p_i| < 2**62 as well,
    |R_i| <= |p_i| + 1 + B_i <= 2**63 - 1, and no floor quotient exceeds |R_i|.
    Coordinates and the box volume below 2**62 keep fiber ends, run starts
    and counts in range.
    """
    if _box_volume(lo, hi) >= _INT64_LIMIT:
        return False
    if any(max(abs(a), abs(b)) >= _INT64_LIMIT for a, b in zip(lo, hi)):
        return False
    for row, p, q in zip(normals, nums, dens):
        bound = q * sum(abs(c) * max(abs(a), abs(b), 1) for c, a, b in zip(row, lo, hi))
        if bound >= _INT64_LIMIT or abs(p) >= _INT64_LIMIT:
            return False
    return True


def resolve_backend(batch, normals, nums, dens) -> str:
    """The width of one scan call: python when REFLEX_SCAN=python or when
    the batch's envelope fails the int64 guard, else numpy (so
    REFLEX_SCAN=numpy cannot force int64 onto an unsafe scan)."""
    choice = os.environ.get("REFLEX_SCAN", "").strip().lower()
    if choice not in ("", "auto", "numpy", "python"):
        raise ValueError(f"REFLEX_SCAN must be numpy|python, got {choice!r}")
    lo = tuple(map(min, zip(*(lo for _, lo, _ in batch))))
    hi = tuple(map(max, zip(*(hi for _, _, hi in batch))))
    top = max((n for n, _, _ in batch), default=0)
    if choice == "python" or not _int64_safe(lo, hi, normals, [top * p for p in nums], dens):
        return "python"
    return "numpy"


def default_backend_name() -> str:
    """The backend resolve_backend picks for any scan that fits int64."""
    # an empty batch always passes the int64 guard
    return resolve_backend([], (), (), ())


# -- the fiber algorithm -----------------------------------------------------


def _fibers(batch, normals, nums, dens, strict, dtype, min_step=1):
    """Yield (index, prefixes, first, last) for each chunk of prefixes of a
    batch of (n, lo, hi) scans, scan after scan and each in C order: the
    prefixes whose fiber is non-empty, the batch index of the scan each
    belongs to, and the fiber's last-axis ends.  A chunk holds
    max(min_step, _CHUNK // w) prefixes, w the widest last axis of the
    batch, so at most _CHUNK box points when min_step is 1.  Row i of R
    holds facet i's R_i over the chunk."""
    live = [(i, n, lo, hi) for i, (n, lo, hi) in enumerate(batch) if _box_volume(lo, hi)]
    if not live:
        return
    index, n, lo, hi = zip(*live)
    index = np.array(index)
    n, lo, hi = (np.array(col, dtype=dtype) for col in (n, lo, hi))
    wid = hi - lo + 1
    d = lo.shape[1]
    A = np.array(normals, dtype=dtype).reshape(len(normals), d)
    q = np.array(dens, dtype=dtype)
    # column s holds each facet's n * p_i for scan s, less 1 when strict
    offsets = np.array(nums, dtype=dtype)[:, None] * n - int(strict)
    qc = q * A[:, -1]
    qA = A[:, :-1] * q[:, None]
    # x_d <= R_i // qc_i on an upper facet, -x_d <= R_i // -qc_i on a lower
    # one; the divisors are read out of arrays, so they keep the dtype
    neg = -qc
    upper = [(i, qc[i]) for i in np.flatnonzero(qc > 0)]
    lower = [(i, neg[i]) for i in np.flatnonzero(qc < 0)]
    flat = np.flatnonzero(qc == 0)
    # scan s owns the prefixes ends[s-1] <= t < ends[s] of the whole batch
    sizes = [math.prod(int(w) for w in row[:-1]) for row in wid]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # one row per axis, so a chunk gathers the values of its scans with take
    lo, hi, wid = lo.T.copy(), hi.T.copy(), wid.T.copy()
    step = max(min_step, _CHUNK // int(wid[-1].max()))
    for start in range(0, int(ends[-1]), step):
        t = np.arange(start, min(start + step, int(ends[-1])))
        s = np.searchsorted(ends, t, side="right")
        t = (t - starts.take(s)).astype(dtype)
        # each step writes into an existing array: a fresh chunk-sized array
        # costs more to fault in than the arithmetic that fills it
        x = np.empty((d - 1, len(t)), dtype=dtype)
        for j in range(d - 2, -1, -1):
            w = wid[j].take(s)
            np.remainder(t, w, out=x[j])
            x[j] += lo[j].take(s)
            t //= w
        R = qA @ x
        np.subtract(offsets.take(s, axis=1), R, out=R)
        last, neg_first = hi[-1].take(s), -lo[-1].take(s)
        for i, c in upper:
            np.minimum(last, R[i] // c, out=last)
        for i, c in lower:
            np.minimum(neg_first, R[i] // c, out=neg_first)
        first = -neg_first
        keep = first <= last
        if len(flat):
            keep &= (R[flat] >= 0).all(axis=0)
        yield index[s[keep]], x[:, keep].T, first[keep], last[keep]


def _count(batch, normals, nums, dens, strict, dtype) -> list[int]:
    counts = [0] * len(batch)
    # a count holds prefixes x facets, not box points, so a wide last axis
    # still gets chunks of at least _CHUNK // 128 prefixes
    for index, _, first, last in _fibers(batch, normals, nums, dens, strict, dtype, _CHUNK // 128):
        if not len(index):
            continue
        # running totals of fiber lengths, read where each scan's run ends
        total = np.cumsum(last - first + 1)
        stop = np.append(np.flatnonzero(index[1:] != index[:-1]), len(index) - 1)
        before = 0
        for i, t in zip(index[stop].tolist(), total[stop].tolist()):
            counts[i] += t - before
            before = t
    return counts


def _collect(lo, hi, normals, nums, dens, strict, dtype) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for _, x, first, last in _fibers([(1, lo, hi)], normals, nums, dens, strict, dtype):
        n = (last - first + 1).astype(np.int64)
        pts = np.empty((int(n.sum()), len(lo)), dtype=dtype)
        pts[:, :-1] = np.repeat(x, n, axis=0)
        # point k of the chunk lies in run r: x_d = first_r + k - (run r's offset)
        pts[:, -1] = np.repeat(first - (np.cumsum(n) - n), n) + np.arange(len(pts))
        out.extend(map(tuple, pts.tolist()))
    return out


# -- public entry points -----------------------------------------------------


def scan_counts(batch, normals, nums, dens, strict=False) -> list[int]:
    """The count of each (n, lo, hi) scan of the batch, in one kernel call:
    the integer points x of [lo, hi] with q_i <x, u_i> <= n p_i."""
    dtype = _DTYPES[resolve_backend(batch, normals, nums, dens)]
    return _count(batch, normals, nums, dens, strict, dtype)


def scan_collect(lo, hi, normals, nums, dens, strict=False) -> list[tuple[int, ...]]:
    """The integer points x of [lo, hi] with q_i <x, u_i> <= p_i, in lex order."""
    dtype = _DTYPES[resolve_backend([(1, lo, hi)], normals, nums, dens)]
    return _collect(lo, hi, normals, nums, dens, strict, dtype)
