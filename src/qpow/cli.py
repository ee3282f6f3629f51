"""Command-line front end.

Exit codes: 0 success / all checks passed; 1 a check or bound was violated;
2 usage, parse, or applicability error; 3 numerical failure.  All numeric
output is printed with 12 significant digits.  The CLI performs no arithmetic
of its own - every number comes from the library.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import asdict

from .bounds import BOUNDS, FAMILY_ALIASES, bound_value, resolve_bound_id
from .graph6 import Graph6Error, emit_graph6, parse_graph6
from .graphs import complete, complete_bipartite, construct_gi
from .invariants import laplacian_power_sum, named_invariants, signless_power_sum
from .search import _round12, scan
from .spectra import EigensolverError, a_spectrum, l_spectrum, q_spectrum
from .verify import (
    check_bipartite_cospectral,
    check_bound,
    check_edge_monotonicity,
    check_identities,
    check_interlacing,
    tol_eq,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


@functools.cache  # built once per process; parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qpow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues of Q, L or A of a graph6 graph")
    p.add_argument("--graph6", required=True)
    p.add_argument("--matrix", choices=["Q", "L", "A"], required=True)

    p = sub.add_parser("invariant", help="one scalar invariant of a graph6 graph")
    p.add_argument("--graph6", required=True)
    p.add_argument("--name", required=True,
                   choices=["Salpha", "salpha", "IE", "LEL", "Kf", "EL", "E", "M1"])
    p.add_argument("--alpha", type=float)

    p = sub.add_parser("construct", help="build a named family graph")
    p.add_argument("family", choices=["complete", "bipartite", "gi"])
    p.add_argument("params", type=int, nargs="+")
    p.add_argument("--emit", choices=["graph6"])

    p = sub.add_parser("bounds", help="evaluate a closed-form bound")
    p.add_argument("--id", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--alpha", type=float, required=True)

    p = sub.add_parser("check", help="verify a bound or lemma on one graph")
    p.add_argument("--id", required=True,
                   help="bound id/alias, or interlacing | monotonicity | cospectral | identities")
    p.add_argument("--graph6", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--format", choices=["json", "table"], default="json")

    p = sub.add_parser("scan", help="exhaustive bound scan over small graphs or a stream")
    p.add_argument("--id", required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--min-n", type=int, default=2)
    p.add_argument("--alpha-grid", required=True, help="comma-separated alphas")
    p.add_argument("--k", type=int)
    p.add_argument("--input", help="graph6 file, or - for stdin")
    p.add_argument("--strict", action="store_true", help="abort on malformed stream lines")
    p.add_argument("--format", choices=["json", "csv", "table"], default="json")
    return parser


def _cmd_spectrum(args) -> int:
    g = parse_graph6(args.graph6)
    fn = {"Q": q_spectrum, "L": l_spectrum, "A": a_spectrum}[args.matrix]
    s = fn(g)
    # display follows the spectrum's own zero classification: sub-threshold
    # noise prints as a clean 0
    vals = [0.0 if abs(v) <= s.zero_threshold else float(v) for v in s.values]
    print(" ".join(_fmt(v) for v in vals))
    return EXIT_OK


def _cmd_invariant(args) -> int:
    g = parse_graph6(args.graph6)
    if args.name in ("Salpha", "salpha"):
        if args.alpha is None:
            print("error: --alpha is required for Salpha/salpha", file=sys.stderr)
            return EXIT_USAGE
        fn = signless_power_sum if args.name == "Salpha" else laplacian_power_sum
        print(_fmt(fn(g, args.alpha)))
        return EXIT_OK
    bundle = named_invariants(g)
    value = {"IE": bundle.IE, "LEL": bundle.LEL, "Kf": bundle.Kf,
             "EL": bundle.E_L, "E": bundle.E, "M1": bundle.M1}[args.name]
    print(_fmt(value))
    return EXIT_OK


def _cmd_construct(args) -> int:
    family, params = args.family, args.params
    if family == "complete":
        if len(params) != 1:
            raise ValueError("construct complete takes one parameter: N")
        g = complete(params[0])
    elif family == "bipartite":
        if len(params) != 2:
            raise ValueError("construct bipartite takes two parameters: R S")
        g = complete_bipartite(*params)
    else:
        if len(params) != 3:
            raise ValueError("construct gi takes three parameters: N K I")
        g = construct_gi(*params)
    if args.emit == "graph6":
        print(emit_graph6(g))
    else:
        print(f"n={g.n} m={g.m} degrees={' '.join(map(str, g.degree_sequence()))}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    bid = resolve_bound_id(args.id, args.alpha) if args.id in FAMILY_ALIASES else args.id
    if bid is None:
        print(f"error: no branch of {args.id} covers alpha={args.alpha:g}", file=sys.stderr)
        return EXIT_USAGE
    print(_fmt(bound_value(bid, args.alpha, n=args.n, k=args.k, r=args.r, s=args.s)))
    return EXIT_OK


def _check_result_lines(doc: dict, fmt: str) -> str:
    """One check result as a JSON object or as key = value lines.  A
    non-finite float is a value that does not apply, and prints as null
    (None)."""
    doc = {key: _round12(v) for key, v in doc.items()}
    if fmt == "json":
        return json.dumps(doc)
    return "\n".join(f"{key} = {v}" for key, v in doc.items())


def _cmd_check(args) -> int:
    g = parse_graph6(args.graph6)
    cid = args.id
    if cid in BOUNDS or cid in FAMILY_ALIASES:
        if args.alpha is None:
            print("error: --alpha is required for bound checks", file=sys.stderr)
            return EXIT_USAGE
        bid = cid
        if cid in FAMILY_ALIASES:
            bid = resolve_bound_id(cid, args.alpha)
            if bid is None:
                print(f"error: no branch of {cid} covers alpha={args.alpha:g}", file=sys.stderr)
                return EXIT_USAGE
        result = check_bound(g, bid, args.alpha, k=args.k)
        print(_check_result_lines(asdict(result), args.format))
        if not result.applicable:
            return EXIT_USAGE
        return EXIT_OK if result.slack >= -tol_eq(result.bound_value) else EXIT_VIOLATED
    if cid == "interlacing":
        results = [check_interlacing(g, e) for e in g.edges()]
        doc = {
            "check": "interlacing",
            "edges": g.m,
            "passed": all(r.passed for r in results),
            "max_violation": max((r.max_violation for r in results), default=0.0),
            "max_trace_gap_error": max((abs(r.trace_gap - 2.0) for r in results), default=0.0),
        }
    elif cid == "monotonicity":
        if args.alpha is None:
            print("error: --alpha is required for monotonicity", file=sys.stderr)
            return EXIT_USAGE
        result = check_edge_monotonicity(g, args.alpha)
        doc = {
            "check": "monotonicity",
            "alpha": args.alpha,
            "passed": result.passed,
            "asserted_edges": sum(1 for r in result.records if r.asserted),
            "recorded_edges": sum(1 for r in result.records if not r.asserted),
        }
    elif cid == "cospectral":
        result = check_bipartite_cospectral(g)
        doc = {"check": "cospectral", "applicable": result.applicable,
               "passed": result.passed, "max_diff": result.max_diff}
    elif cid == "identities":
        result = check_identities(g)
        doc = {"check": "identities", "passed": result.passed, "failures": result.failures}
    else:
        print(f"error: unknown check id {cid!r}", file=sys.stderr)
        return EXIT_USAGE
    print(_check_result_lines(doc, args.format))
    if not doc.get("applicable", True):
        return EXIT_USAGE
    return EXIT_OK if doc["passed"] else EXIT_VIOLATED


def _cmd_scan(args) -> int:
    try:
        alphas = [float(x) for x in args.alpha_grid.split(",") if x.strip()]
    except ValueError:
        print(f"error: bad --alpha-grid {args.alpha_grid!r}", file=sys.stderr)
        return EXIT_USAGE
    if not alphas:
        print("error: empty --alpha-grid", file=sys.stderr)
        return EXIT_USAGE
    source = None
    close_me = None
    if args.input == "-":
        source = sys.stdin
    elif args.input:
        try:
            # a byte outside ASCII becomes U+FFFD, so its line fails to parse
            # like any other malformed line instead of aborting the stream
            close_me = open(args.input, "r", encoding="ascii", errors="replace")
        except OSError as exc:
            print(f"error: cannot read --input {args.input!r}: {exc.strerror}", file=sys.stderr)
            return EXIT_USAGE
        source = close_me

    def surface(err: Graph6Error) -> None:
        print(f"warning: {err}", file=sys.stderr)

    try:
        report = scan(
            args.id,
            range(args.min_n, args.max_n + 1),
            alphas,
            k=args.k,
            source=source,
            strict=args.strict,
            on_error=surface,
        )
    finally:
        if close_me is not None:
            close_me.close()
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        sys.stdout.write(report.violations_csv())
    else:
        print(f"bound {report.bound_id}: scanned {report.graphs_scanned} graphs, "
              f"{len(report.violations)} violations, {report.wall_time:.2f}s")
        for w in report.extremal_witnesses:
            kpart = "" if w.k is None else f" k={w.k}"
            print(f"  n={w.n}{kpart} alpha={w.alpha:g}: {w.graph6} -> {_fmt(w.value)}")
    return EXIT_VIOLATED if report.violations else EXIT_OK


def _glue_alpha_grid(argv: list[str]) -> list[str]:
    """argparse takes a token such as -1,-0.5,0.5 for an option, so a grid that
    starts with a negative number is glued to its flag: --alpha-grid=-1,..."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--alpha-grid" and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_alpha_grid(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handlers = {
        "spectrum": _cmd_spectrum,
        "invariant": _cmd_invariant,
        "construct": _cmd_construct,
        "bounds": _cmd_bounds,
        "check": _cmd_check,
        "scan": _cmd_scan,
    }
    try:
        return handlers[args.command](args)
    except EigensolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (Graph6Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
