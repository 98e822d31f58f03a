"""Selective mutation testing of reflexpoly modules, standard library only.

    python tools/mutate.py src/reflexpoly/_scan.py \
        --tests tests/test_scan.py tests/test_work_budget.py [--timeout 120]
    python tools/mutate.py src/reflexpoly/polytope.py \
        --function translate --function polar_dual --tests tests/test_polytope.py

The operators are the selective set of Offutt, Lee, Rothermel, Untch & Zapf
(ACM TOSEM 1996): < <-> <=, > <-> >=, == <-> !=, floor division to ceiling
division, integer constants +1 and -1, and <-> or, and a dropped `not`.
With ``--function NAME`` (repeatable) only the sites inside the named
top-level functions of the given modules are mutated.
Each mutant is applied alone to a temporary copy of src/ (with tests/ beside
it), never to the repository, and the named tests run on it with `-x -q`
under a per-mutant timeout.  A mutant is killed when the tests fail or time
out.  The tests must pass on the unmutated copy first.  Progress goes to
stderr; the result is one JSON object on stdout, with every killed and
surviving mutant as file:line and operator.  The run takes minutes, so it
is not part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SWAP = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
}


def _key(node):
    return (type(node), node.lineno, node.col_offset, node.end_lineno, node.end_col_offset)


def mutants(tree, functions=None):
    """Yield (node, variant, operator name) for every mutation site, only
    inside the top-level functions named in ``functions`` when given."""
    roots = [tree] if functions is None else [
        f for f in tree.body
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and f.name in functions
    ]
    for node in (n for root in roots for n in ast.walk(root)):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in _SWAP:
                    yield node, k, f"{type(op).__name__}->{_SWAP[type(op)].__name__}"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv):
            yield node, 0, "floordiv->ceildiv"
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, 1, f"{node.value}->{node.value + 1}"
            yield node, -1, f"{node.value}->{node.value - 1}"
        elif isinstance(node, ast.BoolOp):
            yield node, 0, "and->or" if isinstance(node.op, ast.And) else "or->and"
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, 0, "drop-not"


class _Apply(ast.NodeTransformer):
    def __init__(self, key, variant):
        self.key, self.variant = key, variant

    def visit(self, node):
        node = self.generic_visit(node)
        if not hasattr(node, "lineno") or _key(node) != self.key:
            return node
        if isinstance(node, ast.Compare):
            node.ops[self.variant] = _SWAP[type(node.ops[self.variant])]()
            return node
        if isinstance(node, ast.BinOp):  # a // b -> -(-a // b)
            neg = ast.UnaryOp(ast.USub(), node.left)
            return ast.UnaryOp(ast.USub(), ast.BinOp(neg, ast.FloorDiv(), node.right))
        if isinstance(node, ast.Constant):
            return ast.Constant(node.value + self.variant)
        if isinstance(node, ast.BoolOp):
            node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
            return node
        return node.operand  # not x -> x


def mutated_source(source, key, variant):
    tree = _Apply(key, variant).visit(ast.parse(source))
    return ast.unparse(ast.fix_missing_locations(tree))


def run_tests(workdir, tests, timeout):
    """'passed', 'failed' or 'timeout' for the tests on the copy in workdir."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    # any other exit, a collection error included, fails the mutant; the
    # unmutated run shows that the test paths themselves are sound
    return "passed" if proc.returncode == 0 else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="modules to mutate, relative to the repo root")
    parser.add_argument("--tests", nargs="+", required=True, help="pytest paths to run")
    parser.add_argument("--timeout", type=float, default=120.0, help="seconds per mutant")
    parser.add_argument(
        "--function", action="append", dest="functions", metavar="NAME",
        help="mutate only inside this top-level function (repeatable)",
    )
    args = parser.parse_args(argv)
    if args.functions:
        defined = {
            f.name for rel in args.files for f in ast.parse((ROOT / rel).read_text()).body
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        missing = sorted(set(args.functions) - defined)
        if missing:
            parser.error(f"no top-level function named {', '.join(missing)} in {' '.join(args.files)}")

    result = {"tests": args.tests, "functions": args.functions, "total": 0, "killed": [], "survived": []}
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        workdir = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, workdir / part, ignore=shutil.ignore_patterns("__pycache__"))
        if run_tests(workdir, args.tests, args.timeout) != "passed":
            print("the tests do not pass on the unmutated copy; run them with pytest", file=sys.stderr)
            return 2
        for rel in args.files:
            target = workdir / rel
            source = target.read_text()
            for node, variant, operator in list(mutants(ast.parse(source), args.functions)):
                mutant = {"where": f"{rel}:{node.lineno}", "operator": operator}
                target.write_text(mutated_source(source, _key(node), variant))
                start = time.perf_counter()
                outcome = run_tests(workdir, args.tests, args.timeout)
                target.write_text(source)
                result["total"] += 1
                if outcome == "passed":
                    result["survived"].append(mutant)
                else:
                    result["killed"].append(dict(mutant, outcome=outcome))
                seconds = time.perf_counter() - start
                print(f"{mutant['where']} {operator}: {outcome} ({seconds:.1f} s)", file=sys.stderr)
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
