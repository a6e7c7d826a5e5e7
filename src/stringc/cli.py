"""Command-line front end: instantiate, verify, search, convert, render.

Exit status: 0 success, 1 verification failure, 2 usage or domain error,
or a runtime error such as a --jobs worker process dying (reported as
"stringc: error: ..." on stderr, never as a traceback) or stdout closed by
its reader (reported by the status alone).
All output is deterministic; verify output is byte-identical across runs
under --no-timing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .ambients import ambient_names, named_ambient
from .classify import (
    catalog_skips,
    reports_to_json,
    exhaustive_search,
    verify_catalog,
    verify_instance,
)
from .families import (
    FamilyDomainError,
    duality_partner,
    family_catalog,
    instantiate_family,
)
from .prgraph import emit_dot, emit_dsl, graph_to_sggi, sggi_to_graph
from .sggi import dual as dual_sggi
from .sggi import schlafli

USAGE_ERROR = 2
VERIFY_FAIL = 1


def _family_params(args):
    params = {"n": args.n}
    if args.i is not None:
        params["i"] = args.i
    if args.x is not None:
        params["x"] = args.x
    return params


def _emit_graph(graph, fmt, family_id, params):
    if fmt == "dot":
        return emit_dot(graph)
    if fmt == "json":
        payload = {
            "instance": family_id,
            "params": params,
            "vertices": graph.vertices,
            "rank": graph.rank,
            "edges": [list(e) for e in graph.edges],
        }
        return json.dumps(payload, indent=2) + "\n"
    return emit_dsl(graph)


def _cmd_instantiate(args, out):
    graph = instantiate_family(args.family, _family_params(args))
    out.write(_emit_graph(graph, args.format, args.family, _family_params(args)))
    return 0


def _cmd_catalog(args, out):
    skipped = {fid for fid, _ in catalog_skips(14)}
    rows = []
    for desc in family_catalog():
        rows.append(
            {
                "id": desc.id,
                "case": desc.case_tags,
                "params": [p.name for p in desc.params],
                "rank_at_n14": None if desc.id in skipped
                else desc.rank_for(14 // desc.points_per_n),
            }
        )
    if args.format == "json":
        out.write(json.dumps(rows, indent=2) + "\n")
    else:
        for row in rows:
            extra = f" params={','.join(row['params'])}" if row["params"] else ""
            out.write(f"{row['id']:9s} {row['case']}{extra}\n")
        numbered = sum(
            1 for r in rows if r["id"].split("#")[0].startswith("T")
        )
        out.write(
            f"# {numbered} numbered table graphs; duals are listed up to "
            f"duality (duality_partner marks SELF/partner/unlisted)\n"
        )
    return 0


def _cmd_schlafli(args, out):
    graph = instantiate_family(args.family, _family_params(args))
    out.write(str(schlafli(graph_to_sggi(graph))) + "\n")
    return 0


def _cmd_dual(args, out):
    params = _family_params(args)
    graph = instantiate_family(args.family, params)
    dual_graph = sggi_to_graph(dual_sggi(graph_to_sggi(graph)))
    partner = duality_partner(args.family, args.n)
    if args.format == "json":
        payload = {
            "instance": args.family,
            "params": params,
            "partner": partner if partner else "unlisted",
            "dual_edges": [list(e) for e in dual_graph.edges],
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        out.write(f"# dual of {args.family}, partner: {partner or 'unlisted'}\n")
        out.write(_emit_graph(dual_graph, args.format, args.family, params))
    return 0


def _cmd_verify(args, out):
    if args.all and args.family:
        raise FamilyDomainError("verify takes a family id or --all, not both")
    if args.all and (args.i is not None or args.x is not None):
        raise FamilyDomainError("verify --all takes no --i or --x")
    if args.all:
        reports = verify_catalog(args.n, jobs=args.jobs)
    elif args.family:
        reports = [verify_instance(args.family, _family_params(args))]
    else:
        raise FamilyDomainError("verify needs a family id or --all")
    if args.format == "json":
        out.write(reports_to_json(reports, no_timing=args.no_timing))
    else:
        for rep in reports:
            bad = [k for k, v in rep.checks.items() if v["status"] == "fail"]
            skipped = [k for k, v in rep.checks.items() if v["status"] == "skip"]
            line = (
                f"{rep.status} {rep.instance} {json.dumps(rep.params, sort_keys=True)}"
                f" order={rep.order}"
                f" schlafli={{{','.join(map(str, rep.schlafli))}}}"
            )
            if bad:
                line += f" failed={','.join(sorted(bad))}"
            if skipped:
                line += f" skipped={','.join(sorted(skipped))}"
            if not args.no_timing:
                line += f" ({rep.timing_ms:.0f} ms)"
            out.write(line + "\n")
        if args.all:
            for fid, reason in catalog_skips(args.n):
                out.write(f"# skipped {fid}: {reason}\n")
        statuses = [r.status for r in reports]
        summary = f"# {statuses.count('PASS')}/{len(reports)} instances pass"
        if "UNDECIDED" in statuses:
            summary += f", {statuses.count('UNDECIDED')} undecided"
        out.write(summary + "\n")
    return VERIFY_FAIL if any(r.status != "PASS" for r in reports) else 0


def _cmd_search(args, out):
    ambient = named_ambient(args.ambient)
    max_rank = ambient.degree - 1 if args.max_rank is None else args.max_rank
    outcome = exhaustive_search(
        ambient,
        args.min_rank,
        max_rank,
        subgroup_order=args.subgroup_order,
        budget_sec=args.budget_sec,
        jobs=args.jobs,
        transitive_only=args.transitive_only,
    )
    if args.format == "json":
        payload = {
            "ambient": args.ambient,
            "completed": outcome.completed,
            "merged_duplicates": outcome.merged_duplicates,
            "results": [
                {
                    "schlafli": list(sig.schlafli),
                    "order": sig.order,
                    "rank": sig.rank,
                    "generators": [str(g) for g in s.gens],
                }
                for s, sig in outcome.items
            ],
        }
        if not args.no_timing:
            payload["elapsed_sec"] = round(outcome.elapsed_sec, 1)
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        for s, sig in outcome.items:
            gens = " ".join(str(g) for g in s.gens)
            out.write(
                "{" + ",".join(map(str, sig.schlafli)) + "}"
                + f" order={sig.order} rank={sig.rank} gens: {gens}\n"
            )
        note = "complete" if outcome.completed else "budget exhausted"
        if outcome.merged_duplicates:
            note += (
                f"; {outcome.merged_duplicates} tuples merged as conjugate"
                f" or dual, multiplicity unknown"
            )
        out.write(f"# {len(outcome.items)} string C-groups ({note})\n")
    return 0 if outcome.completed else VERIFY_FAIL


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stringc",
        description="String C-groups over permutation groups: instantiate "
        "the graph catalog, verify its claims, and search small ambients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_opts(p, family_required=True):
        if family_required:
            p.add_argument("family", help="family id like T8#1 or REP2N#2")
        else:
            p.add_argument("family", nargs="?", help="family id like T8#1")
        p.add_argument("--n", type=int, required=True, help="degree parameter")
        p.add_argument("--i", type=int, help="interior index (T6#17-20, T8#4)")
        p.add_argument("--x", type=int, help="delta window start (T7)")

    p = sub.add_parser("instantiate", help="build a catalog graph")
    add_family_opts(p)
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p.set_defaults(func=_cmd_instantiate)

    p = sub.add_parser("catalog", help="list the family catalog")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("schlafli", help="Schlafli symbol of an instance")
    add_family_opts(p)
    p.set_defaults(func=_cmd_schlafli)

    p = sub.add_parser("dual", help="dual graph and duality partner")
    add_family_opts(p)
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("verify", help="run the verification suite")
    add_family_opts(p, family_required=False)
    p.add_argument("--all", action="store_true", help="verify every instance")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="exhaustive involution-tuple search")
    p.add_argument("--ambient", required=True, choices=ambient_names())
    p.add_argument("--min-rank", type=positive_int, required=True)
    p.add_argument("--max-rank", type=positive_int)
    p.add_argument("--subgroup-order", type=positive_int)
    p.add_argument("--transitive-only", action="store_true")
    p.add_argument("--budget-sec", type=float, default=120.0)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=_cmd_search)

    return parser


def run_cli(argv, out=None):
    """Parse and execute; returns the exit status."""
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args, out)
    except (FamilyDomainError, KeyError, ValueError, RuntimeError) as exc:
        print(f"stringc: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main():
    try:
        status = run_cli(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (as `| head` does).  Point stdout at
        # os.devnull so that the flush at interpreter exit is quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = USAGE_ERROR
    sys.exit(status)


if __name__ == "__main__":
    main()
