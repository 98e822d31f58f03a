"""Command-line front end.

One subcommand per invocation; JSON on stdout is the contract (text mode is
cosmetic), machine-readable error JSON goes to stderr with exit code 1, and
usage errors exit 2.  No floating point ever appears in any output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import ehrhart as ehrhart_mod
from . import flag as flag_mod
from . import fuzz as fuzz_mod
from . import toric as toric_mod
from .classify import classify as classify_polytope
from .errors import InvalidInput, ReflexError
from .polytope import from_json as polytope_from_json
from .polytope import polar_dual


def _load_json_arg(path_or_inline: str) -> dict:
    if path_or_inline.strip().startswith(("{", "[")):
        text = path_or_inline
    elif path_or_inline == "-":
        text = sys.stdin.read()
    else:
        text = Path(path_or_inline).read_text()
    try:
        return json.loads(text)
    except RecursionError:
        raise InvalidInput("JSON input is nested too deeply") from None


def _emit(obj: dict, fmt: str, text_renderer=None) -> None:
    if fmt == "json" or text_renderer is None:
        print(json.dumps(obj, indent=2))
    else:
        print(text_renderer(obj))


def _add_common(sub, with_budget=True):
    sub.add_argument("--in", dest="infile", required=True, help="input file, inline JSON, or - for stdin")
    sub.add_argument("--format", choices=("json", "text"), default="json")
    if with_budget:
        sub.add_argument("--budget", type=int, default=None, help="enumeration budget override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflexpoly",
        description="Exact computations on rational convex polytopes.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("classify", help="full hierarchy report for a polytope"))

    p_ehr = subs.add_parser("ehrhart", help="counting quasi-polynomial of a polytope")
    _add_common(p_ehr)
    p_ehr.add_argument("--nmax", type=int, default=None, help="also list counts for 0..nmax")

    p_dual = subs.add_parser("dual", help="polar dual of a polytope")
    _add_common(p_dual, with_budget=False)

    p_count = subs.add_parser("count", help="lattice points of the n-th dilation")
    _add_common(p_count)
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--interior", action="store_true", help="count interior points")

    p_hibi = subs.add_parser("hibi", help="palindromic symmetry test")
    _add_common(p_hibi)
    p_hibi.add_argument("--nmax", type=int, default=5)

    p_toric = subs.add_parser("toric", help="polytope <-> divisor dictionary")
    _add_common(p_toric)
    p_toric.add_argument(
        "--from-divisor",
        action="store_true",
        help="input is divisor JSON; emit its polytope",
    )

    p_flag = subs.add_parser("flag", help="flag-variety Hilbert polynomial")
    p_flag.add_argument("--in", dest="infile", default=None, help="query JSON instead of flags")
    p_flag.add_argument("--type", dest="type_label", choices=("A", "B", "C", "D", "G2"))
    p_flag.add_argument("--rank", type=int)
    p_flag.add_argument("--parabolic", help="comma-separated excluded simple roots, 1-based")
    p_flag.add_argument("--lambda", dest="lam", help="comma-separated fundamental coefficients")
    p_flag.add_argument("--format", choices=("json", "text"), default="json")

    p_fuzz = subs.add_parser("fuzz", help="randomized conjecture search")
    p_fuzz.add_argument("--conjecture", choices=("quasilattice", "dualfano"), required=True)
    p_fuzz.add_argument("--samples", type=int, default=100)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--dim", type=int, default=2)
    p_fuzz.add_argument("--max-coordinate", type=int, default=4)
    p_fuzz.add_argument("--max-denominator", type=int, default=12)
    p_fuzz.add_argument("--budget", type=int, default=None)
    p_fuzz.add_argument("--out", default=None, help="directory for the report file")
    p_fuzz.add_argument("--format", choices=("json", "text"), default="json")

    return parser


def _quasi_polynomial_json(qp) -> dict:
    obj = qp.to_json()
    obj["degree"] = qp.degree
    obj["text"] = str(qp)
    return obj


def _cmd_classify(args) -> int:
    poly = polytope_from_json(_load_json_arg(args.infile))
    report = classify_polytope(poly, args.budget)
    _emit(
        report.to_json(),
        args.format,
        lambda o: "\n".join(f"{k}: {v}" for k, v in o.items()),
    )
    return 0


def _cmd_ehrhart(args) -> int:
    poly = polytope_from_json(_load_json_arg(args.infile))
    qp = ehrhart_mod.ehrhart_quasi_polynomial(poly, args.budget)
    out = _quasi_polynomial_json(qp)
    if args.nmax is not None:
        out["counts"] = ehrhart_mod.count_up_to(poly, args.nmax, args.budget)
    _emit(out, args.format, lambda o: o["text"])
    return 0


def _cmd_dual(args) -> int:
    poly = polytope_from_json(_load_json_arg(args.infile))
    _emit(polar_dual(poly).to_json(), args.format, lambda o: str(polytope_from_json(o)))
    return 0


def _cmd_count(args) -> int:
    poly = polytope_from_json(_load_json_arg(args.infile))
    if args.interior:
        value = ehrhart_mod.count_interior(poly, args.n, args.budget)
    else:
        value = ehrhart_mod.count(poly, args.n, args.budget)
    _emit(
        {"n": args.n, "interior": bool(args.interior), "count": value},
        args.format,
        lambda o: str(o["count"]),
    )
    return 0


def _cmd_hibi(args) -> int:
    poly = polytope_from_json(_load_json_arg(args.infile))
    ok = ehrhart_mod.hibi_symmetry_check(poly, args.nmax, args.budget)
    _emit(
        {"hibi_symmetric": ok, "nmax": args.nmax},
        args.format,
        lambda o: "symmetric" if o["hibi_symmetric"] else "not symmetric",
    )
    return 0


def _cmd_toric(args) -> int:
    obj = _load_json_arg(args.infile)
    if args.from_divisor:
        divisor = toric_mod.ToricDivisorData.from_json(obj)
        _emit(toric_mod.polytope_from_divisor(divisor).to_json(), args.format)
    else:
        poly = polytope_from_json(obj)
        _emit(toric_mod.divisor_from_polytope(poly).to_json(), args.format)
    return 0


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _cmd_flag(args) -> int:
    if args.infile:
        query = _load_json_arg(args.infile)
        if not isinstance(query, dict):
            raise InvalidInput("flag query JSON must be an object")
        type_label, rank = query["type"], query["rank"]
        excluded, lam = query["excluded_simples"], query["lambda"]
        if not isinstance(type_label, str):
            raise InvalidInput("flag query 'type' must be a string", type=type_label)
        if not _is_int(rank):
            raise InvalidInput("flag query 'rank' must be an integer", rank=rank)
        for key, val in (("excluded_simples", excluded), ("lambda", lam)):
            if not (isinstance(val, list) and all(map(_is_int, val))):
                raise InvalidInput(f"flag query {key!r} must be a list of integers", **{key: val})
        excluded, lam = tuple(excluded), tuple(lam)
    else:
        missing = [
            name
            for name, val in (
                ("--type", args.type_label),
                ("--rank", args.rank),
                ("--parabolic", args.parabolic),
                ("--lambda", args.lam),
            )
            if val is None
        ]
        if missing:
            print(f"flag: missing {', '.join(missing)} (or pass --in)", file=sys.stderr)
            raise SystemExit(2)
        type_label = args.type_label
        rank = args.rank
        excluded = tuple(int(i) for i in args.parabolic.split(","))
        lam = tuple(int(c) for c in args.lam.split(","))
    rs = flag_mod.build_root_system(type_label, rank)
    pc = flag_mod.ParabolicChoice(excluded)
    qp = flag_mod.hilbert_polynomial(rs, pc, lam)
    anti = flag_mod.detect_anticanonical(rs, pc, lam)
    lam_can = flag_mod.anticanonical_weight(rs, pc)
    out = {
        "type": rs.type_label,
        "rank": rs.rank,
        "excluded_simples": list(pc.excluded_simples),
        "lambda": list(lam),
        "moved_roots": len(flag_mod.parabolic_positive_roots(rs, pc)),
        "polynomial": _quasi_polynomial_json(qp),
        "anticanonical": anti,
        "anticanonical_weight": list(lam_can),
    }
    _emit(
        out,
        args.format,
        lambda o: f"{o['polynomial']['text']}  (anticanonical: {o['anticanonical']})",
    )
    return 0


def _cmd_fuzz(args) -> int:
    cfg = fuzz_mod.FuzzConfig(
        dim=args.dim,
        samples=args.samples,
        seed=args.seed,
        max_coordinate=args.max_coordinate,
        max_denominator=args.max_denominator,
        budget=args.budget,
    )
    runner = (
        fuzz_mod.test_conjecture_quasilattice
        if args.conjecture == "quasilattice"
        else fuzz_mod.test_conjecture_dualfano
    )
    report = runner(cfg)
    if args.out:
        path = fuzz_mod.write_report(report, args.out)
        print(f"report written to {path}", file=sys.stderr)
    _emit(
        report.to_json(),
        args.format,
        lambda o: f"{o['conjecture']}: {o['verdict']} "
        f"({o['instances_tested']} tested, {len(o['counterexamples'])} counterexamples)",
    )
    return 0


_DISPATCH = {
    "classify": _cmd_classify,
    "ehrhart": _cmd_ehrhart,
    "dual": _cmd_dual,
    "count": _cmd_count,
    "hibi": _cmd_hibi,
    "toric": _cmd_toric,
    "flag": _cmd_flag,
    "fuzz": _cmd_fuzz,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ReflexError as exc:
        print(json.dumps(exc.payload()), file=sys.stderr)
        return 1
    except (json.JSONDecodeError, OSError, KeyError, ValueError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc), "context": {}}),
            file=sys.stderr,
        )
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
