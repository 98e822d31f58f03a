"""One workload in one fresh process: build the inputs, run a closed loop of
operations (one in flight) in whole passes over the base set for about the
given seconds of operation time, check every output outside the timed
region, and print one JSON line of results.

Run by ``run.py``; ``--setup-only`` stops after the first input is built,
which is what ``run.py`` times for ``setup_s``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import pickle
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import reflexpoly  # noqa: E402
from reflexpoly.errors import ScaleExceeded  # noqa: E402

from layers import Tracer  # noqa: E402
from workloads import WORKLOADS, Symmetry  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def environment() -> dict:
    try:
        from reflexpoly import _scan

        backend = _scan.default_backend_name()
    except (ImportError, AttributeError):
        backend = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "default_scan_backend": backend,
    }


def expectations(w) -> list:
    """``w.expect`` of every base item, computed in a forked child so that
    the memory of these reference scans does not count toward this
    process's peak_rss_mb.  The expected values are lattice counts, which
    every signed permutation keeps, so the base item's value holds for
    each of its copies."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        status = 1
        try:
            values = [w.expect(w.make_input(it, Symmetry.identity(w.dim_of(it)))) for it in w.items]
            with os.fdopen(write, "wb") as f:
                pickle.dump(values, f)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read, "rb") as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError("computing the expected values failed")
    return pickle.loads(data)


class Loop:
    """Runs operations in workload order and checks each output."""

    def __init__(self, workload, seed: int, pinned: dict, corrupt: bool):
        self.w = workload
        self.seed = seed
        self.pinned = pinned
        self.corrupt = corrupt
        self.expected = None  # per base item, from expectations()
        self.tracer = None  # when set, every op also runs once traced
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def input(self, i: int):
        pos, sym = self.w.symmetry(self.seed, i)
        return pos, sym, self.w.make_input(self.w.items[pos], sym)

    def run(self, seconds: float) -> tuple[list[float], list[float]]:
        """Run whole passes over the base set, as many as bring the untraced
        op time closest to `seconds` (at least one).  With a tracer, each op
        also runs traced, the two runs in alternating order.  Returns the
        untraced and the traced latencies."""
        plain, traced = [], []
        n = len(self.w.items)
        passes = 0
        while passes == 0 or sum(plain) * (1 + 0.5 / passes) < seconds:
            for i in range(passes * n, (passes + 1) * n):
                pos, sym, inp = self.input(i)
                modes = (False, True) if self.tracer else (False,)
                for traced_run in modes if i % 2 == 0 else modes[::-1]:
                    out, err, elapsed = self._timed(inp, traced_run)
                    (traced if traced_run else plain).append(elapsed)
                    self.check(i, pos, sym, inp, out, err)
                    # dropped before the next op, whose peak memory it would add to
                    del out
            passes += 1
        return plain, traced

    def _timed(self, inp, traced: bool):
        if traced:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            out, err = self.w.run(inp), None
        except ScaleExceeded:
            out, err = None, "scale"
        except Exception as exc:  # an unexpected error is a failed op
            out, err = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.active = False
        return out, err, elapsed

    def check(self, i, pos, sym, inp, out, err) -> None:
        self.attempted += 1
        if err == "scale":
            return
        if err is None:
            if self.corrupt and i == 0:
                out = self.w.corrupt(out)
            digest, problems = self.w.check(inp, out, sym, self.expected[pos])
            if digest != self.pinned.get(self.w.keys[pos]):
                problems.append("output digest differs from the pinned digest")
        else:
            problems = [err]
        if problems:
            self.failed += 1
            self.problems.append({"op": i, "item": self.w.keys[pos], "problems": problems})


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density.  Op
    latencies form a few clusters, one per kind of input, and the plain
    sample quantile jumps between neighbouring clusters with machine noise
    when it falls near a gap; this estimate moves smoothly instead."""
    x = np.sort(np.asarray(values, dtype=float))
    n, cells = len(x), 64
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = (np.arange(n * cells) + 0.5) / (n * cells)  # cell midpoints on (0, 1)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, cells).sum(axis=1)
    return float(weights @ x / weights.sum())


def item_medians(latencies: list[float], items: int) -> np.ndarray:
    """The median latency of each base item over the run's passes.

    The latency quantiles are taken over these, one value per base item, so
    their weights are the same in every run of a workload.  Over the pooled
    latencies the weights depend on the number of passes, which machine
    speed decides: at classify's tail, where neighbouring items differ
    twofold, a run of 2 passes read 133 ms and one of 4 passes 99 ms on the
    same item latencies."""
    return np.median(np.reshape(latencies, (-1, items)), axis=0)


def samples_beyond(n: int, percentile: int) -> int:
    return n - max(1, math.ceil(percentile * n / 100))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seed-set", default="default")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    if Path(reflexpoly.__file__).resolve().parent != ROOT / "src" / "reflexpoly":
        print(f"reflexpoly imported from {reflexpoly.__file__}, not this checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed_set)
    pinned = json.loads(DIGESTS.read_text()).get(args.workload, {}).get(args.seed_set, {})
    loop = Loop(workload, args.seed, pinned, args.corrupt)
    loop.input(0)
    if args.setup_only:
        return 0
    loop.expected = expectations(workload)

    result = {"env": environment(), "tail_percentile": workload.tail_percentile}
    if args.trace:
        loop.tracer = Tracer()
        loop.tracer.install()
        plain, traced = loop.run(args.seconds / 2)
        loop.tracer.uninstall()
        result["layers"] = loop.tracer.metrics(len(traced))
        result["ops"] = len(traced)
        result["overhead_ratio"] = sum(traced) / sum(plain)
    else:
        latencies, _ = loop.run(args.seconds)
        per_item = item_medians(latencies, len(workload.items))
        result.update(
            ops=len(latencies),
            op_seconds=sum(latencies),
            ops_per_s=len(latencies) / sum(latencies),
            op_p50_ms=quantile(per_item, 0.5) * 1000,
            op_tail_ms=quantile(per_item, workload.tail_percentile / 100) * 1000,
            tail_beyond=samples_beyond(len(latencies), workload.tail_percentile),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    result.update(attempted=loop.attempted, failed=loop.failed, problems=loop.problems[:5])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
