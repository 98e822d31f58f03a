#!/usr/bin/env python3
"""reflexpoly benchmark: one workload per invocation.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): classify, ehrhart, hull, lattice.  Each runs in
a fresh single process as a closed loop with one operation in flight, in
whole passes over its base set for about the given seconds of operation
time, with REFLEX_SCAN and REFLEX_BUDGET unset so the default program is
measured.

With ``--trace 0`` it reports the end-to-end metrics:
  setup_s      median wall time of several fresh interpreters that import
               reflexpoly and build the inputs up to the first operation;
  ops_per_s    operations per second of operation time;
  op_p50_ms    median operation latency;
  op_tail_ms   latency at the workload's fixed percentile (printed with the
               number of samples beyond it);
  peak_rss_mb  peak resident memory of the measuring process; the reference
               counts that outputs are checked against run in a forked child.
Both latency quantiles are Harrell-Davis estimates (worker.quantile) over
the median latency of each base item (worker.item_medians).
With ``--trace 1`` it runs every operation twice, untraced and with layer
wrappers installed (layers.py), in alternating order, for half the seconds
each, and reports per-layer calls, self time and work counts per operation,
the tracing overhead (traced over untraced op time), and failed_frac.

Every output is checked outside the timed region against digests pinned in
digests.json and against invariants that hold for any seed.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.

``--seed-set second`` switches every workload to its second base corpus, for
checking a claim on inputs not used while writing it.  This benchmark
supersedes benchmarks/scan_benchmark.py, which times only one private scan
function.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify", "ehrhart", "hull", "lattice")
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_RUNS = 5  # fresh set-ups timed per run; setup_s is their median
DEADLINE_S = 170.0


def worker_cmd(args, *extra) -> list[str]:
    return [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seed-set", args.seed_set, "--seconds", str(args.seconds),
        "--trace", str(args.trace), *extra,
    ]


def timed_setup(cmd: list[str], env: dict, timeout: float) -> float:
    """Wall time of one set-up process, from start to exit.

    It waits in a blocking wait, which returns as the process exits;
    subprocess.run with a timeout polls every 50 ms, which rounded set-up
    times of about 0.4 s to steps of 0.05 s.  A timer kills the process at
    the deadline."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL) as proc:
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed-set", choices=("default", "second"), default="default")
    ap.add_argument("--corrupt", action="store_true", help="self-test: corrupt the first output")
    args = ap.parse_args()

    if not (ROOT / "src" / "reflexpoly" / "__init__.py").is_file():
        print(f"no reflexpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k not in ("REFLEX_SCAN", "REFLEX_BUDGET")}
    started = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            setups.append(timed_setup(worker_cmd(args, "--setup-only"), env, remaining()))
    extra = ["--corrupt"] if args.corrupt else []
    proc = subprocess.run(
        worker_cmd(args, *extra), env=env, check=True,
        stdout=subprocess.PIPE, text=True, timeout=remaining(),
    )
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    print(f"perfbench {args.workload} seed={args.seed} seed_set={args.seed_set} trace={args.trace}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    failed_frac = res["failed"] / res["attempted"]
    if args.trace:
        layers = {
            **res["layers"],
            "trace.ops": (res["ops"], "count"),
            "trace.overhead_ratio": (res["overhead_ratio"], "ratio"),
            "failed_frac": (failed_frac, "ratio"),
        }
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        values = dict(res, setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        print(f"setup runs {len(setups)}: " + " ".join(f"{s:.3f}" for s in setups))
        print(
            f"op_tail_ms is p{res['tail_percentile']} of {res['ops']} ops "
            f"({res['tail_beyond']} beyond); {res['op_seconds']:.2f} s of op time"
        )
    print(f"failed_frac {failed_frac:.6g} ({res['failed']} of {res['attempted']})")
    for problem in res["problems"]:
        print("FAILED " + json.dumps(problem), file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
