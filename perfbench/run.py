"""Campaign benchmark for `abcmax verify`.

    python3 perfbench/run.py --workload battery-4-8 --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout: the program under test is the
checkout's `src/abcmax`, started as a user starts it, `python3 -m abcmax`,
in a fresh interpreter per campaign.  Campaigns run one after another, a
closed loop of one client, until `--seconds` have passed (at least one).
Every report is checked against the workload's golden cells; a campaign
that exits non-zero or whose report differs counts as failed.

With `--trace 0` the result holds the end-to-end metrics.  With `--trace 1`
it holds the per-layer metrics instead, taken from one extra campaign run
in-process with the verifier's layer entry points wrapped (layer_trace.py),
next to an untraced campaign whose report it must reproduce.

Human-readable lines come first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

from check import Checker, load_golden
from layer_trace import GRAPH_LISTS, GRAPH_STREAMS, LAYERS

HERE = Path(__file__).resolve().parent
CAMPAIGN_TIMEOUT_S = 170  # keeps a hung campaign within the 180 s a run may take
SETUP_SAMPLES = 4  # before each campaign and after the last


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    golden: str
    jobs: int
    seeded: bool = False
    twin: Optional[str] = None  # serial workload the fan-out's CPU is compared with

    def cli_args(self, seed: int) -> list[str]:
        return [*self.argv, *(("--seed", str(seed)) if self.seeded else ())]


WORKLOADS = {
    "battery-4-8": Workload(
        ("verify", "all", "--n-range", "4..8", "--jobs", "1"), "battery-4-8", 1, seeded=True),
    "battery-4-8-jobs2": Workload(
        ("verify", "all", "--n-range", "4..8", "--jobs", "2"), "battery-4-8", 2, seeded=True,
        twin="battery-4-8"),
    "chi3-order8": Workload(
        ("verify", "chromatic", "--n-range", "8..8", "--chi", "3", "--jobs", "1"), "chi3-order8", 1),
    # about 80 s a campaign on two cores: run by hand, it does not fit the timed loop
    "chi3-order9": Workload(
        ("verify", "chromatic", "--n-range", "9..9", "--chi", "3", "--jobs", "1", "--allow-long"),
        "chi3-order9", 1),
}


@dataclass
class Proc:
    code: int
    out: str
    err: str
    wall_s: float
    cpu_s: float  # user + sys of the process and every descendant it reaped


def run_proc(cmd: list[str], env: dict) -> Proc:
    """Run `cmd` to completion in its own process group and account for it."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=CAMPAIGN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out, err = "", f"killed after {CAMPAIGN_TIMEOUT_S} s"
        finally:
            # also stops any pool worker the command left behind
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        wall = perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Proc(proc.returncode, out, err, wall, cpu)


class Bench:
    def __init__(self, root: Path, seed: int):
        src = root / "src"
        sys.path.insert(0, str(src))
        # campaigns read cached bytecode, as an installed program's do
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(src)
        self.seed = seed
        self.checker = Checker()
        self.attempted = 0
        self.failed = 0

    def cli(self, w: Workload) -> list[str]:
        return [sys.executable, "-m", "abcmax", *w.cli_args(self.seed)]

    def accounted(self, w: Workload, trace: bool) -> list[str]:
        flag = ["--trace"] if trace else []
        return [sys.executable, str(HERE / "layer_trace.py"), *flag, *w.cli_args(self.seed)]

    def check(self, w: Workload, code: int, err: str, report_text: str) -> Optional[dict]:
        """Count one attempt; return the parsed report, or None if it failed."""
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {(err.strip().splitlines() or [''])[-1]}"]
        else:
            try:
                report = json.loads(report_text)
            except ValueError:
                report, problems = None, ["report is not JSON"]
            else:
                problems = self.checker.problems(
                    report, load_golden(w.golden), jobs=w.jobs,
                    seed=self.seed if w.seeded else None)
        if not problems:
            return report
        self.failed += 1
        for p in problems[:10]:
            print(f"  CHECK FAILED: {p}")
        return None

    def setup_s(self, samples: int) -> list[float]:
        """Wall times of fresh interpreters importing abcmax."""
        cmd = [sys.executable, "-c", "import abcmax"]
        walls = []
        for _ in range(samples):
            p = run_proc(cmd, self.env)
            if p.code != 0:
                raise SystemExit(f"import abcmax failed:\n{p.err}")
            walls.append(p.wall_s)
        return walls

    def timed(self, name: str, seconds: float) -> dict:
        w = WORKLOADS[name]
        self.setup_s(1)  # the first start also writes bytecode
        golden_scanned = load_golden(w.golden)["graphs_scanned"]
        walls, cpus, setups = [], [], []
        start = perf_counter()
        # start a campaign only while it is expected to end within `seconds`
        while not walls or perf_counter() - start + statistics.median(walls) <= seconds:
            # set-up samples spread over the run, so that they see the same load
            setups += self.setup_s(SETUP_SAMPLES)
            p = run_proc(self.cli(w), self.env)
            ok = self.check(w, p.code, p.err, p.out) is not None
            walls.append(p.wall_s)
            cpus.append(p.cpu_s)
            print(f"campaign {len(walls)}: {p.wall_s:.3f} s wall, {p.cpu_s:.3f} s cpu, "
                  f"{'ok' if ok else 'FAILED'}")
        setups += self.setup_s(SETUP_SAMPLES)
        wall = statistics.median(walls)
        # Linux reports the largest resident set of any reaped descendant, in KiB
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(f"medians of {len(walls)} campaigns and {len(setups)} set-ups")
        return {
            "wall_s": (wall, "s"),
            "graphs_per_s": (golden_scanned / wall, "1/s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (peak_kib / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }

    def account(self, w: Workload, trace: bool) -> tuple[Proc, Optional[dict], Optional[dict]]:
        """One in-process campaign: (process, accounting, checked report)."""
        p = run_proc(self.accounted(w, trace), self.env)
        acct = None
        if p.code == 0:
            with contextlib.suppress(ValueError, IndexError):
                acct = json.loads(p.out.splitlines()[-1])
        if acct is None:
            self.check(w, p.code, p.err, "")  # counts the exit code or unreadable output
            return p, None, None
        return p, acct, self.check(w, acct["exit_code"], p.err, acct["report"])

    def traced(self, name: str) -> dict:
        w = WORKLOADS[name]
        self.setup_s(1)  # writes bytecode before the first accounted campaign
        base_p, base, base_report = self.account(w, trace=False)
        twin = base
        if w.twin is not None:
            _, twin, _ = self.account(WORKLOADS[w.twin], trace=False)
        tr_p, tr, tr_report = self.account(w, trace=True)
        if base_report is not None and tr_report is not None and \
                (tr_report["cells"], tr_report["parameters"]) != \
                (base_report["cells"], base_report["parameters"]):
            self.failed += 1
            print("  CHECK FAILED: traced report differs from the untraced one")
        if base is None or twin is None or tr is None:
            return {}
        for name in tr["missing"]:
            print(f"missing layer entry point: {name}")
        metrics = layer_metrics(tr["trace"], tr["wall_s"], base_report or tr_report)
        base_cpu = base["parent_cpu_s"] + base["worker_cpu_s"]
        metrics.update({
            "verifier.fanout.parent_cpu_s": base["parent_cpu_s"],
            "verifier.fanout.worker_cpu_s": base["worker_cpu_s"],
            "verifier.fanout.cpu_amplification":
                base_cpu / (twin["parent_cpu_s"] + twin["worker_cpu_s"]),
            "trace.wall_s": tr["wall_s"],
            "trace.overhead_frac": tr_p.wall_s / base_p.wall_s - 1,
        })
        return {k: (v, unit_of(k)) for k, v in metrics.items()}


def layer_metrics(rec: dict, wall: float, report: Optional[dict]) -> dict:
    """Per-layer counts and times from one traced campaign."""
    m = {}
    for layer, names in LAYERS.items():
        present = [n for n in names if n in rec]
        if present:
            m[f"{layer}.s"] = sum(rec[n]["s"] for n in present)
        sources = [rec[n] for n in present if n in GRAPH_LISTS or n in GRAPH_STREAMS]
        if sources:
            graphs = sum(r["graphs"] for r in sources)
            m[f"{layer}.graphs"] = graphs
            m[f"{layer}.us_per_graph"] = \
                sum(r["s"] for r in sources) / graphs * 1e6 if graphs else 0.0
        for n in present:
            if n in GRAPH_LISTS or n in GRAPH_STREAMS:
                continue
            calls, s = rec[n]["calls"], rec[n]["s"]
            m[f"{layer}.{n}.calls"] = calls
            m[f"{layer}.{n}.s"] = s
            m[f"{layer}.{n}.us_per_call"] = s / calls * 1e6 if calls else 0.0
    m["verifier.self_s"] = wall - sum(r["s"] for r in rec.values())
    conn = [rec[n]["calls"] for n in LAYERS["connectivity"] if n in rec]
    if conn and report is not None:
        m["verifier.prefilter_pass"] = sum(conn) / report["totals"]["graphs_scanned"]
    return m


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "graphs"):
        return "count"
    if last.startswith("us_per_"):
        return "us"
    if last == "s" or last.endswith("_s"):
        return "s"
    return "ratio"


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "abcmax" / "__init__.py").is_file():
        print(f"error: no src/abcmax under {root}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.seed)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()}")
    if args.trace:
        metrics = bench.traced(args.workload)
    else:
        metrics = bench.timed(args.workload, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    print(f"{'fail_rate':<44} {bench.failed / bench.attempted:>14.6g} ratio "
          f"({bench.failed} of {bench.attempted} campaigns failed the check)")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
