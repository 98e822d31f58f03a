#!/usr/bin/env python3
"""Pin the output digest of every base item of every workload, both seed
sets, into digests.json.  Each item runs once in its base frame (identity
symmetry) and must pass the workload's invariant checks first.

    python3 perfbench/pin_digests.py [workload ...]

Re-pin only when a change to the program is meant to change its outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import SEED_SETS, WORKLOADS, Symmetry  # noqa: E402

DIGESTS = HERE / "digests.json"


def pin(name: str, seed_set: str) -> dict[str, str]:
    w = WORKLOADS[name](seed_set)
    out = {}
    for key, item in zip(w.keys, w.items):
        sym = Symmetry.identity(w.dim_of(item))
        inp = w.make_input(item, sym)
        expected = w.expect(inp)
        out[key], problems = w.check(inp, w.run(inp), sym, expected)
        if problems:
            raise SystemExit(f"{name}/{seed_set} item {key}: {problems}")
    return out


def main() -> int:
    names = sys.argv[1:] or sorted(WORKLOADS)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name in names:
        digests[name] = {s: pin(name, s) for s in SEED_SETS}
        print(f"{name}: {sum(len(v) for v in digests[name].values())} digests", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
