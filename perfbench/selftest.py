#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size, one pass per run (a few
minutes):

  * every workload, traced and untraced and on both seed sets, prints every
    metric that BENCHMARK.json names, with its unit, and a correct result;
  * a deliberately corrupted output is counted in failed and failed_frac;
  * with only BENCHMARK.json and perfbench/ present, the benchmark exits
    non-zero without printing a result.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0.5",
           "--trace", str(trace), *extra]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(proc, declared) -> dict:
    res = result_of(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert set(res["metrics"]) == {m["name"] for m in declared}, res["metrics"].keys()
    printed = [line.split() for line in proc.stdout.splitlines()]
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), m["name"]
        assert any(w[0] == m["name"] and w[-1] == m["unit"] for w in printed if w), m["name"]
    return res


def main() -> int:
    for w in SPEC["workloads"]:
        name = w["name"]
        for seed_set in ("default", "second"):
            res = check_metrics(bench(ROOT, name, 0, "--seed-set", seed_set), SPEC["end_to_end"])
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
        res = check_metrics(bench(ROOT, name, 1), SPEC["per_layer"])
        assert res["correct"] and res["metrics"]["failed_frac"]["value"] == 0, res
        res = check_metrics(bench(ROOT, name, 1, "--corrupt"), SPEC["per_layer"])
        assert not res["correct"] and res["failed"] >= 1, res
        assert res["metrics"]["failed_frac"]["value"] > 0, res
        print(f"{name}: metrics and units ok, corrupted output counted as failed")

    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("bare directory: exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
