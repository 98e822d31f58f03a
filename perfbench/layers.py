"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of ``reflexpoly.polytope``,
``reflexpoly.ehrhart`` and ``reflexpoly.classify`` with timing wrappers.
Modules bind these functions by name (``from .polytope import polar_dual``),
so the wrapper replaces every global in every loaded ``reflexpoly`` module
that refers to the original function, not only the defining one.  A name
that no longer exists is skipped and reads as 0 calls.

Spans nest through a stack: each span's parent is the span open when it
started, and its self time is its duration minus the time of its children.
Only aggregates are kept.  Spans are recorded only while ``active`` is set,
so input building between operations is not billed to the layers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

from reflexpoly.ehrhart import vertex_denominator_lcm
from reflexpoly.polytope import integer_bounding_box


def _box_points(lo, hi) -> int:
    """Integer points of the box [lo, hi], as computed, not as scanned."""
    vol = 1
    for a, b in zip(lo, hi):
        vol *= max(0, b - a + 1)
    return vol


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Each target: (module, function, span name, work counter).  A counter gets
# (stats, args, kwargs) before the call and may return a callback that gets
# the result after it.


def _count_points_in(stats, args, kwargs):
    try:
        stats["points_in"] += len(_arg(args, kwargs, 0, "points"))
    except TypeError:
        pass


def _count_halfspaces_in(stats, args, kwargs):
    try:
        stats["halfspaces_in"] += len(_arg(args, kwargs, 0, "halfspaces"))
    except TypeError:
        pass


def _scan_polytope(stats, args, kwargs):
    stats["box_points"] += _box_points(*integer_bounding_box(_arg(args, kwargs, 0, "p")))

    def done(result):
        stats["points"] += result if isinstance(result, int) else result.count

    return done


def _scan_box(stats, args, kwargs):
    stats["box_points"] += _box_points(_arg(args, kwargs, 1, "lo"), _arg(args, kwargs, 2, "hi"))

    def done(result):
        stats["points"] += result

    return done


def _reconstruct(stats, args, kwargs):
    stats["period_bound"] += vertex_denominator_lcm(_arg(args, kwargs, 0, "p"))

    def done(result):
        stats["period"] += result.period

    return done


TARGETS = (
    ("reflexpoly.polytope", "from_vrep", "polytope.from_vrep", _count_points_in),
    ("reflexpoly.polytope", "from_hrep", "polytope.from_hrep", _count_halfspaces_in),
    ("reflexpoly.polytope", "polar_dual", "polytope.polar_dual", None),
    ("reflexpoly.polytope", "translate", "polytope.translate", None),
    ("reflexpoly.polytope", "count_lattice_points", "scan.count", _scan_polytope),
    ("reflexpoly.polytope", "count_in_box", "scan.count", _scan_box),
    ("reflexpoly.polytope", "lattice_points", "scan.collect", _scan_polytope),
    ("reflexpoly.ehrhart", "ehrhart_quasi_polynomial", "ehrhart.reconstruct", _reconstruct),
    ("reflexpoly.classify", "classify", "classify", None),
    ("reflexpoly.classify", "is_dual_integral", "classify.is_dual_integral", None),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.stats = defaultdict(lambda: defaultdict(float))
        # (span, ancestor span) -> calls of span made inside the ancestor
        self.nested = defaultdict(int)
        self._stack = []  # open spans as [name, seconds spent in children]
        self._restore = []

    def install(self) -> None:
        for module_name, attr, span, counter in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            wrapper = self._wrap(original, span, counter)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("reflexpoly"):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()

    def _wrap(self, func, span, counter):
        stats = self.stats[span]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            done = counter(stats, args, kwargs) if counter else None
            for ancestor in {name for name, _ in self._stack}:
                self.nested[(span, ancestor)] += 1
            frame = [span, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame[1]
            if done:
                done(result)
            return result

        return wrapper

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); calls, seconds and work
        counts are per traced operation, so they do not grow with speed."""
        s = self.stats
        out = {}

        def per_op(name, value, unit):
            out[name] = (value / ops, f"{unit}/op")

        def ratio(name, num, den):
            out[name] = (num / den if den else 0.0, "ratio")

        for layer, extra in (
            ("polytope.from_vrep", "points_in"),
            ("polytope.from_hrep", "halfspaces_in"),
            ("polytope.polar_dual", None),
            ("polytope.translate", None),
        ):
            per_op(f"{layer}.calls", s[layer]["calls"], "count")
            per_op(f"{layer}.self_s", s[layer]["self_s"], "s")
            if extra:
                per_op(f"{layer}.{extra}", s[layer][extra], "count")
        for layer in ("scan.count", "scan.collect"):
            per_op(f"{layer}.calls", s[layer]["calls"], "count")
            per_op(f"{layer}.self_s", s[layer]["self_s"], "s")
            per_op(f"{layer}.box_points", s[layer]["box_points"], "count")
            per_op(f"{layer}.points", s[layer]["points"], "count")
            ratio(f"{layer}.hit_ratio", s[layer]["points"], s[layer]["box_points"])
        rec = s["ehrhart.reconstruct"]
        per_op("ehrhart.reconstruct.calls", rec["calls"], "count")
        per_op("ehrhart.reconstruct.self_s", rec["self_s"], "s")
        ratio(
            "ehrhart.counts_per_reconstruction",
            self.nested[("scan.count", "ehrhart.reconstruct")],
            rec["calls"],
        )
        ratio("ehrhart.period_bound_over_minimal", rec["period_bound"], rec["period"])
        cls = s["classify"]
        per_op("classify.calls", cls["calls"], "count")
        per_op("classify.self_s", cls["self_s"], "s")
        per_op("classify.is_dual_integral.calls", s["classify.is_dual_integral"]["calls"], "count")
        ratio("classify.interior_collects", self.nested[("scan.collect", "classify")], cls["calls"])
        return out
