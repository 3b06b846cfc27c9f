"""Command-line surface: construct, invariants, enumerate, bound, verify.

Graphs travel as graph6 lines on stdin/stdout so the tool composes with
standard graph toolchains.  Exit codes: 0 all must-match cells pass, 1 a
must-match cell failed, 2 usage error, crash or interrupt.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import bounds
from .coloring import chromatic_number
from .connectivity import edge_connectivity, vertex_connectivity
from .enumeration import all_graphs, connected_graphs
from .graphs import (
    bridge_cliques_graph,
    complete_graph,
    cycle_graph,
    decode_graph6,
    encode_graph6,
    kn_k_graph,
    path_graph,
    star_graph,
    turan_graph,
)
from .invariants import abc_index
from .verifier import (
    run_campaign,
    run_full_battery,
    verify_bridge_rewrite,
    verify_monotonicity,
)

DEFAULT_PRECISION = 9


class UsageError(Exception):
    pass


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}f}"


def _precision(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo < 1 or hi < lo:
        raise UsageError(f"bad range {text!r}")
    return lo, hi


_FAMILIES = {
    "complete": lambda a: complete_graph(a.n),
    "knk": lambda a: kn_k_graph(a.n, a.k),
    "turan": lambda a: turan_graph(a.n, a.l),
    "bridge": lambda a: bridge_cliques_graph(a.x, a.y),
    "cycle": lambda a: cycle_graph(a.n),
    "path": lambda a: path_graph(a.n),
    "star": lambda a: star_graph(a.n),
}


def _cmd_construct(args) -> int:
    try:
        g = _FAMILIES[args.family](args)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc
    print(encode_graph6(g))
    return 0


def _graphs_from_args(args):
    if args.g6 is not None:
        yield decode_graph6(args.g6)
        return
    for line in sys.stdin:
        line = line.strip()
        if line:
            yield decode_graph6(line)


def _cmd_invariants(args) -> int:
    prec = args.precision
    for g in _graphs_from_args(args):
        info = {
            "abc": round(abc_index(g), prec),
            "m": g.edge_count(),
            "degree_sequence": sorted(g.degrees(), reverse=True),
            "edge_connectivity": edge_connectivity(g),
            "vertex_connectivity": vertex_connectivity(g),
            "chromatic_number": chromatic_number(g).chi,
        }
        print(json.dumps(info, sort_keys=True))
    return 0


def _cmd_enumerate(args) -> int:
    stream = connected_graphs(args.n, args.allow_long) if args.connected \
        else all_graphs(args.n, args.allow_long)
    for g in stream:
        print(encode_graph6(g))
    return 0


def _parse_parts(text: str) -> bounds.PartitionProfile:
    try:
        parts = tuple(int(t) for t in text.split(","))
        return bounds.PartitionProfile(parts)
    except ValueError as exc:
        raise UsageError(f"bad --parts {text!r}: {exc}") from exc


def _cmd_bound(args) -> int:
    prec = args.precision
    try:
        if args.which == "thm1":
            if args.n is None or args.k is None:
                raise UsageError("thm1 needs --n and --k")
            print(_fmt(bounds.edge_connectivity_bound(args.n, args.k), prec))
        elif args.which == "thm2":
            if args.n is None:
                raise UsageError("thm2 needs --n")
            print(_fmt(bounds.bipartite_bound(args.n), prec))
        elif args.which == "cor3":
            if args.n is None or args.chi is None:
                raise UsageError("cor3 needs --n and --chi")
            print(_fmt(bounds.chromatic_bound(args.n, args.chi), prec))
        else:  # cs
            if args.parts is None:
                raise UsageError("cs needs --parts t1,t2,...")
            profile = _parse_parts(args.parts)
            cs = bounds.cauchy_schwarz_bound(profile)
            print(_fmt(cs.inner_sum, prec), _fmt(cs.norm_product, prec))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return 0


def _cmd_verify(args) -> int:
    lo, hi = _parse_range(args.n_range)
    if args.jobs is not None and args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    campaign = args.campaign
    if args.k is not None and campaign not in ("edge-conn", "vertex-conn"):
        raise UsageError(f"--k applies only to edge-conn and vertex-conn, not {campaign}")
    if args.chi is not None and campaign != "chromatic":
        raise UsageError(f"--chi applies only to chromatic, not {campaign}")
    if campaign in ("edge-conn", "vertex-conn", "chromatic"):
        value = args.chi if campaign == "chromatic" else args.k
        report = run_campaign(campaign, range(lo, hi + 1), None if value is None else [value],
                              jobs=jobs, allow_long=args.allow_long)
    elif campaign == "monotonicity":
        report = verify_monotonicity(args.trials, hi, args.seed)
    elif campaign == "bridge":
        report = verify_bridge_rewrite(hi)
    else:  # all
        report = run_full_battery(lo, hi, jobs=jobs, seed=args.seed, trials=args.trials,
                                  allow_long=args.allow_long)
    payload = report.to_csv() if args.format == "csv" else report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload if payload.endswith("\n") else payload + "\n")
    else:
        print(payload, end="" if payload.endswith("\n") else "\n")
    failures = report.must_match_failures()
    for cell in report.cells:
        if cell.get("cell_class") == "evidence":
            status = f"evidence:{cell.get('verdict')}"
        elif cell.get("matches") is True:
            status = "ok"
        else:
            status = "FAIL"
        label = cell.get("campaign", report.campaign)
        n = cell.get("n", "-")
        value = cell.get("value", "")
        print(f"[{status}] {label} n={n}" + (f" value={value}" if value != "" else ""),
              file=sys.stderr)
    if failures:
        print(f"{len(failures)} must-match cell(s) failed:", file=sys.stderr)
        for cell in failures:
            print(json.dumps(cell, sort_keys=True), file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abcmax",
        description="ABC-index extremal constructions, bounds, and exhaustive verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a named family member as graph6")
    p.add_argument("--family", required=True,
                   choices=list(_FAMILIES))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--x", type=int)
    p.add_argument("--y", type=int)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("invariants", help="JSON invariants for graph6 input")
    p.add_argument("--g6", help="single graph6 text (default: read lines from stdin)")
    p.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("enumerate", help="stream graphs of order n up to isomorphism")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--connected", action="store_true", help="connected classes only")
    p.add_argument("--allow-long", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("bound", help="evaluate a closed-form bound")
    p.add_argument("--which", required=True, choices=["thm1", "thm2", "cor3", "cs"],
                   help="thm1: edge-connectivity bound (--n --k); thm2: two-colourable "
                        "bound (--n); cor3: chromatic bound (--n --chi); cs: "
                        "multipartite sum and Cauchy-Schwarz cap (--parts)")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--chi", type=int)
    p.add_argument("--parts", help="comma-separated part sizes, e.g. 2,2,2")
    p.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("campaign",
                   choices=["edge-conn", "vertex-conn", "chromatic", "monotonicity",
                            "bridge", "all"])
    p.add_argument("--n-range", default="4..8",
                   help="A..B or a single order; monotonicity and bridge read only B")
    p.add_argument("--k", type=int, help="connectivity value (default: all valid)")
    p.add_argument("--chi", type=int, help="chromatic value (default: all valid)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker count (default: available parallelism)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--allow-long", action="store_true",
                   help="permit orders 9 and 10 (long runs)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except (Exception, KeyboardInterrupt) as exc:
        # a crash or an interrupt must not pass for a failed cell (exit 1);
        # repr keeps the message on one line
        print(f"error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
