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


def _precision(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _order_range(text: str) -> range:
    """A..B or a single order A, with 1 <= A <= B."""
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if dots else lo_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}") from None
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    return range(lo, hi + 1)


def _parts(text: str) -> bounds.PartitionProfile:
    try:
        return bounds.PartitionProfile(tuple(int(t) for t in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# the flags of the construct and bound entries, each declared once
_PARAMS = {
    "--n": dict(type=int, required=True, help="order"),
    "--k": dict(type=int, required=True, help="connectivity"),
    "--l": dict(type=int, required=True, help="number of parts"),
    "--x": dict(type=int, required=True, help="order of the first clique"),
    "--y": dict(type=int, required=True, help="order of the second clique"),
    "--chi": dict(type=int, required=True, help="chromatic number"),
    "--parts": dict(type=_parts, required=True, help="comma-separated part sizes, e.g. 2,2,2"),
    "--precision": dict(type=_precision, default=DEFAULT_PRECISION),
}

# entry: (help, function, the flags passed to it in order)
_FAMILIES = {
    "complete": ("the complete graph K_n", complete_graph, "--n"),
    "knk": ("K_n(k): one vertex joined to k vertices of K_{n-1}", kn_k_graph, "--n", "--k"),
    "turan": ("the balanced complete l-partite graph T_{n,l}", turan_graph, "--n", "--l"),
    "bridge": ("K_x and K_y joined by one edge", bridge_cliques_graph, "--x", "--y"),
    "cycle": ("the cycle C_n", cycle_graph, "--n"),
    "path": ("the path P_n", path_graph, "--n"),
    "star": ("the star K_{1,n-1}", star_graph, "--n"),
}

_BOUNDS = {
    "thm1": ("edge-connectivity bound", bounds.edge_connectivity_bound, "--n", "--k"),
    "thm2": ("two-colourable bound", bounds.bipartite_bound, "--n"),
    "cor3": ("chromatic bound", bounds.chromatic_bound, "--n", "--chi"),
    "cs": ("multipartite sum and Cauchy-Schwarz cap", bounds.cauchy_schwarz_bound, "--parts"),
}


def _invoke(args):
    return args.entry(*(getattr(args, flag[2:]) for flag in args.reads))


def _cmd_construct(args) -> int:
    print(encode_graph6(_invoke(args)))
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


def _cmd_bound(args) -> int:
    value = _invoke(args)
    values = value if isinstance(value, tuple) else (value,)  # cs gives a pair
    print(*(f"{v:.{args.precision}f}" for v in values))
    return 0


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scan(args):
    return run_campaign(args.campaign, args.n_range, None if args.value is None else [args.value],
                        jobs=args.jobs, allow_long=args.allow_long)


# campaign: (help, runner, the flags it reads besides --out and --format)
_CAMPAIGNS = {
    "edge-conn": ("edge connectivity = k", _scan, "--n-range", "--k", "--jobs", "--allow-long"),
    "vertex-conn": ("vertex connectivity = k", _scan, "--n-range", "--k", "--jobs", "--allow-long"),
    "chromatic": ("chromatic number = chi", _scan, "--n-range", "--chi", "--jobs", "--allow-long"),
    "all": ("every scan and property run",
            lambda a: run_full_battery(a.n_range[0], a.n_range[-1], jobs=a.jobs, seed=a.seed,
                                       trials=a.trials, allow_long=a.allow_long),
            "--n-range", "--jobs", "--allow-long", "--seed", "--trials"),
    "monotonicity": ("edges raise ABC", lambda a: verify_monotonicity(a.trials, a.n_max, a.seed),
                     "--n-max", "--seed", "--trials"),
    "bridge": ("bridge rewrites raise ABC", lambda a: verify_bridge_rewrite(a.n_max), "--n-max"),
}


def _cmd_verify(args) -> int:
    report = args.entry(args)
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


def _add_entries(parser, dest, table, flags, func, *shared) -> None:
    """One subcommand per table entry, taking exactly the flags it reads."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, entry, *reads) in table.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        for flag in (*reads, *shared):
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func, entry=entry, reads=reads, parser=p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abcmax",
        description="ABC-index extremal constructions, bounds, and exhaustive verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a named family member as graph6")
    _add_entries(p, "family", _FAMILIES, _PARAMS, _cmd_construct)

    p = sub.add_parser("invariants", help="JSON invariants for graph6 input")
    p.add_argument("--g6", help="single graph6 text (default: read lines from stdin)")
    p.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION)
    p.set_defaults(func=_cmd_invariants, parser=p)

    p = sub.add_parser("enumerate", help="stream graphs of order n up to isomorphism")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--connected", action="store_true", help="connected classes only")
    p.add_argument("--allow-long", action="store_true")
    p.set_defaults(func=_cmd_enumerate, parser=p)

    p = sub.add_parser("bound", help="evaluate a closed-form bound")
    _add_entries(p, "which", _BOUNDS, _PARAMS, _cmd_bound, "--precision")

    # the flags of the campaigns, each declared once; --jobs's default is read now
    flags = {
        "--n-range": dict(type=_order_range, default="4..8", help="A..B or a single order"),
        "--n-max": dict(type=int, default=8, help="largest order (default: %(default)s)"),
        "--k": dict(type=int, dest="value", help="connectivity value (default: all valid)"),
        "--chi": dict(type=int, dest="value", help="chromatic value (default: all valid)"),
        "--jobs": dict(type=int, default=_usable_cpus(),
                       help="worker count (default: %(default)s, the CPUs this process may use)"),
        "--allow-long": dict(action="store_true", help="permit orders 9 and 10 (long runs)"),
        "--seed": dict(type=int, default=0),
        "--trials": dict(type=int, default=10000),
        "--out": dict(help="write the report here instead of stdout"),
        "--format": dict(choices=["json", "csv"], default="json"),
    }
    p = sub.add_parser("verify", help="run a verification campaign")
    _add_entries(p, "campaign", _CAMPAIGNS, flags, _cmd_verify, "--out", "--format")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # name them in the usage of the leaf that was chosen
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
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
