"""The ``bfc`` command line.

Subcommands: ``measures`` (one function, all measures), ``verify``
(inequality sweeps), ``witness`` (the spectral lower-bound vector for
a full-degree restriction), ``graphprops`` (monotone graph property
chains), ``families`` (named constructions).

Exit codes: 0 = success, 2 = a verified violation or failed assertion,
1 = usage or engine error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import graphprops, report, sweep
from .spectral import WITNESS_SLACK, full_degree_witness, restrict_to_top_monomial, vector_to_csv
from .tables import FAMILY_NAMES, TruthTable, format_table, named_family, parse_table

_JSON_ARGS = {"indent": 2, "sort_keys": True}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for
    verified violations, so route usage problems to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_function_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("table", nargs="?", help="truth table as n:HEX (e.g. 2:E)")
    p.add_argument("--family", help=f"named family ({', '.join(FAMILY_NAMES)})")
    p.add_argument("--n", type=int, help="arity for --family")
    p.add_argument("--l", type=int, help="inner block size for --family AND-OR")


def _resolve_function(args) -> tuple[TruthTable, str | None]:
    if args.table and args.family:
        raise ValueError("give either a table or --family, not both")
    if not args.family and (args.n is not None or args.l is not None):
        raise ValueError("--n and --l apply only to --family")
    if args.table:
        return parse_table(args.table), None
    if args.family:
        if args.n is None:
            raise ValueError("--family needs --n")
        if args.family.strip().upper() == "AND-OR":
            if args.l is None:
                raise ValueError("AND-OR needs --n (outer) and --l (inner)")
            return named_family("AND-OR", (args.n, args.l)), f"AND-OR({args.n},{args.l})"
        if args.l is not None:
            raise ValueError("--l applies only to --family AND-OR")
        return named_family(args.family, args.n), args.family.strip().upper()
    raise ValueError("no function given; pass n:HEX or --family NAME --n K")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="bfc", description=__doc__.split("\n\n")[1])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", parents=[], help="all measures of one function")
    _add_function_args(p)
    p.add_argument("--certificates", action="store_true", help="include adversary certificates")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("verify", help="inequality sweep over a function universe")
    p.add_argument("--max-n", type=int, default=3, help="arity (exhaustive <= 4, sampled <= 8)")
    p.add_argument("--sample", type=int, help="sample this many tables instead of all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=sweep.DEFAULT_TOLERANCE)
    threads_help = "0 = one per CPU; BFC_THREADS overrides; exhaustive sweeps ignore it"
    p.add_argument("--threads", type=int, default=1, help=threads_help)
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("witness", help="spectral lower-bound vector for the top monomial")
    _add_function_args(p)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")

    p = sub.add_parser("graphprops", help="monotone graph property measure chains")
    p.add_argument("--n-vertices", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--enumerate", action="store_true", dest="enumerate_all")
    group.add_argument("--name", help="has-edge, connectivity, contains-triangle, contains-clique, min-degree-1")
    p.add_argument("--clique-size", type=int)
    p.add_argument("--assert-evasive", action="store_true", help="require depth = C(n,2) on every row")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("families", help="list named families or print one table")
    _add_function_args(p)
    return top


def _cmd_measures(args) -> int:
    if args.certificates and args.format == "csv":
        raise ValueError("--certificates has no csv form; use --format json or text")
    f, family = _resolve_function(args)
    body = report.measure_report(f, family=family, include_certificates=args.certificates)
    if args.format == "json":
        print(json.dumps(body, **_JSON_ARGS))
    elif args.format == "csv":
        print("measure,value,exactness")
        for name, entry in body["measures"].items():
            if "skipped" in entry:
                print(f"{name},,skipped: {entry['skipped']}")
            else:
                print(f"{name},{entry['value']!r},{entry['exactness']}")
    else:
        print(report.render_text(body), end="")
    return 0


def _cmd_verify(args) -> int:
    threads = sweep.resolve_threads(args.threads)
    if args.format == "csv":
        ok = True
        for row in sweep.iter_csv_rows(
            args.max_n,
            sample=args.sample,
            seed=args.seed,
            tolerance=args.tolerance,
            threads=threads,
        ):
            print(row)
            ok = ok and not row.endswith(",false")
        return 0 if ok else 2
    result = sweep.run_sweep(
        max_n=args.max_n,
        sample=args.sample,
        seed=args.seed,
        tolerance=args.tolerance,
        threads=threads,
    )
    body = result.to_dict()
    if args.format == "json":
        print(json.dumps(body, **_JSON_ARGS))
    else:
        u = result.universe
        mode = f"{u['mode']} arity {u['arity']}, {u['function_count']} functions"
        print(f"universe: {mode}")
        print(f"violations: {result.violation_count}")
        for c in result.checks:
            state = "ok" if c["failures"] == 0 else f"FAILED x{c['failures']}"
            print(
                f"  {c['name']:<22} {state}  min margin {c['min_margin']:.3g}"
                f" at {c['witness']}"
            )
        for r in result.ratios:
            print(
                f"  ratio {r['name']:<14} max {r['max_ratio']:.9g} at {r['witness']}"
                " (reported, not asserted)"
            )
        print(f"report hash: {result.report_hash}")
    return 0 if result.violation_count == 0 else 2


def _cmd_witness(args) -> int:
    f, _family = _resolve_function(args)
    if f.is_constant():
        raise ValueError("constant functions have no witness")
    g = restrict_to_top_monomial(f)
    w = full_degree_witness(g)
    if args.format == "json":
        body = {
            "restricted_table": format_table(g),
            "arity": g.arity,
            "ratio": w.ratio,
            "majority_size": w.majority_size,
            "minority_size": w.minority_size,
            "vector": [float(x) for x in w.vector],
        }
        print(json.dumps(body, **_JSON_ARGS))
    elif args.format == "csv":
        print(vector_to_csv(w.vector), end="")
    else:
        print(f"restricted to {format_table(g)} (arity {g.arity})")
        print(f"certified ratio {w.ratio!r} >= sqrt({g.arity}) - {WITNESS_SLACK}")
        print(f"support split {w.majority_size}/{w.minority_size}")
        print(vector_to_csv(w.vector), end="")
    return 0


def _cmd_graphprops(args) -> int:
    n = args.n_vertices
    if args.enumerate_all:
        if args.clique_size is not None:
            raise ValueError("--clique-size applies only to --name contains-clique")
        props = graphprops.enumerate_monotone_properties(n)
    else:
        props = [graphprops.named_property(args.name, n, clique_size=args.clique_size)]
    rows = [graphprops.property_chain_report(p) for p in props]
    want_depth = graphprops.edge_arity(n)
    evasive_ok = all(r.depth == want_depth for r in rows)
    chain_ok = all(r.chain_ok for r in rows)
    if args.format == "json":
        body = {
            "n_vertices": n,
            "property_count": len(rows),
            "rows": [
                {
                    "property": r.property_id,
                    "deg2": r.deg2,
                    "deg": r.deg,
                    "lambda": r.spectral,
                    "depth": r.depth,
                    "chain_ok": r.chain_ok,
                }
                for r in rows
            ],
            "all_chain_ok": chain_ok,
            "all_evasive": evasive_ok,
        }
        print(json.dumps(body, **_JSON_ARGS))
    elif args.format == "csv":
        print(graphprops.CSV_HEADER)
        for r in rows:
            print(r.to_csv_row())
    else:
        for r in rows:
            state = "ok" if r.chain_ok else "CHAIN FAILED"
            print(
                f"{r.property_id:<24} deg2={r.deg2} deg={r.deg}"
                f" lambda={r.spectral:.6f} depth={r.depth} {state}"
            )
        print(f"{len(rows)} properties, chain {'ok' if chain_ok else 'FAILED'}")
    failed = not chain_ok or (args.assert_evasive and not evasive_ok)
    if args.assert_evasive and not evasive_ok:
        print(f"evasiveness violated: some depth != {want_depth}", file=sys.stderr)
    return 2 if failed else 0


def _cmd_families(args) -> int:
    if not (args.table or args.family or args.n is not None or args.l is not None):
        for name in FAMILY_NAMES:
            print(name)
        return 0
    f, family = _resolve_function(args)
    label = family or "table"
    print(f"{label}: {format_table(f)}")
    return 0


_COMMANDS = {
    "measures": _cmd_measures,
    "verify": _cmd_verify,
    "witness": _cmd_witness,
    "graphprops": _cmd_graphprops,
    "families": _cmd_families,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except (ValueError, ArithmeticError, RuntimeError, OverflowError) as exc:
        print(f"bfc: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left (``bfc ... | head``), mid-command or at the flush
        # above; stdout goes to devnull so that the exit flush cannot raise
        # again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
