import argparse
import io
import json
import os
import re
import resource
import shlex
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from abcmax import cli
from abcmax.cli import main
from abcmax.graphs import (
    bridge_cliques_graph,
    complete_graph,
    cycle_graph,
    decode_graph6,
    kn_k_graph,
    path_graph,
    star_graph,
    turan_graph,
)
from abcmax.verifier import Report

ROOT = Path(__file__).resolve().parents[1]

# the flags each leaf command reads, held here apart from the parser
READS = {
    "construct": {
        "complete": {"--n"},
        "knk": {"--n", "--k"},
        "turan": {"--n", "--l"},
        "bridge": {"--x", "--y"},
        "cycle": {"--n"},
        "path": {"--n"},
        "star": {"--n"},
    },
    "bound": {
        "thm1": {"--n", "--k", "--precision"},
        "thm2": {"--n", "--precision"},
        "cor3": {"--n", "--chi", "--precision"},
        "cs": {"--parts", "--precision"},
    },
    "verify": {
        "edge-conn": {"--n-range", "--k", "--jobs", "--allow-long", "--out", "--format"},
        "vertex-conn": {"--n-range", "--k", "--jobs", "--allow-long", "--out", "--format"},
        "chromatic": {"--n-range", "--chi", "--jobs", "--allow-long", "--out", "--format"},
        "all": {"--n-range", "--jobs", "--allow-long", "--seed", "--trials", "--out", "--format"},
        "monotonicity": {"--n-max", "--seed", "--trials", "--out", "--format"},
        "bridge": {"--n-max", "--out", "--format"},
    },
}


def unread(command):
    """(leaf, flag) for every flag that a sibling leaf reads and this one does not."""
    leaves = READS[command]
    every = set().union(*leaves.values())
    return [(leaf, flag) for leaf, reads in leaves.items() for flag in sorted(every - reads)]


def leaves(parser, path=()):
    """The argv prefix of every leaf command under `parser`."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path
    for action in subs:
        for name, child in action.choices.items():
            yield from leaves(child, (*path, name))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def commands_run(monkeypatch):
    """Stubs every construct, bound and verify command; lists the ones that ran."""
    ran = []
    for name in ("_cmd_construct", "_cmd_bound", "_cmd_verify"):
        monkeypatch.setattr(cli, name, lambda args, name=name: ran.append(name) or 0)
    return ran


class TestConstruct:
    def test_knk(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "knk", "--n", "6", "--k", "3")
        assert code == 0
        assert decode_graph6(out.strip()) == kn_k_graph(6, 3)

    def test_each_family(self, capsys):
        for argv, expected in (
            (["complete", "--n", "5"], complete_graph(5)),
            (["knk", "--n", "7", "--k", "2"], kn_k_graph(7, 2)),
            (["turan", "--n", "6", "--l", "3"], turan_graph(6, 3)),
            (["bridge", "--x", "2", "--y", "3"], bridge_cliques_graph(2, 3)),
            (["cycle", "--n", "5"], cycle_graph(5)),
            (["path", "--n", "4"], path_graph(4)),
            (["star", "--n", "5"], star_graph(5)),
        ):
            code, out, _ = run_cli(capsys, "construct", *argv)
            assert code == 0
            assert decode_graph6(out.strip()) == expected

    def test_bad_parameters_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "construct", "turan", "--n", "5", "--l", "9")
        assert code == 2 and out == ""
        assert err == "error: turan needs 1 <= l <= n, got n=5, l=9\n"

    @pytest.mark.parametrize("argv", [
        ("cycle", "--n", "1000000"),
        ("complete", "--n", "1000000"),
        ("turan", "--n", "1000000", "--l", "1000000"),
        ("knk", "--n", "1000000", "--k", "1"),
        ("bridge", "--x", "1", "--y", "999999"),
    ], ids=lambda argv: argv[0])
    def test_order_above_cap_refused_before_building(self, argv):
        # one family per order check; under 1 GiB of address space a family
        # built before its check fails with MemoryError, not the usage error
        cap = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "abcmax", "construct", *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: vertex count 1000000 outside 1..4096\n"


class TestInvariants:
    def test_knk63(self, capsys):
        from abcmax.graphs import encode_graph6
        g6 = encode_graph6(kn_k_graph(6, 3))
        code, out, _ = run_cli(capsys, "invariants", "--g6", g6)
        assert code == 0
        info = json.loads(out.strip())
        assert info["abc"] == pytest.approx(7.756443177, abs=1e-9)
        assert info["m"] == 13
        assert info["degree_sequence"] == [5, 5, 5, 4, 4, 3]
        assert info["edge_connectivity"] == 3
        assert info["vertex_connectivity"] == 3
        assert info["chromatic_number"] == 5

    def test_stdin_stream(self, capsys, monkeypatch):
        from abcmax.graphs import encode_graph6, cycle_graph
        text = encode_graph6(cycle_graph(5)) + "\n" + encode_graph6(kn_k_graph(5, 1)) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run_cli(capsys, "invariants")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert json.loads(lines[0])["chromatic_number"] == 3

    def test_long_cycle(self, capsys, monkeypatch):
        # C_1501 needs more colouring steps than the default recursion
        # limit; its two flows take about 20 s (2 cores, Python 3.11), so
        # lambda and kappa, both 2 on a cycle, are stubbed
        monkeypatch.setattr(cli, "edge_connectivity", lambda g: 2)
        monkeypatch.setattr(cli, "vertex_connectivity", lambda g: 2)
        code, out, _ = run_cli(capsys, "construct", "cycle", "--n", "1501")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out, err = run_cli(capsys, "invariants")
        assert code == 0, err
        info = json.loads(out)
        assert info["chromatic_number"] == 3 and info["m"] == 1501

    def test_negative_precision_rejected(self, capsys):
        code, out, err = run_cli(capsys, "invariants", "--g6", "C~", "--precision", "-1")
        assert code == 2 and out == ""
        assert "--precision" in err


class TestEnumerate:
    def test_connected_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "5", "--connected")
        assert code == 0
        assert len(out.strip().split("\n")) == 21

    def test_all_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4")
        assert code == 0
        assert len(out.strip().split("\n")) == 11

    def test_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--connected")
        from abcmax.graphs import encode_graph6
        for line in out.strip().split("\n"):
            assert encode_graph6(decode_graph6(line)) == line


class TestBound:
    def test_cor3(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "cor3", "--n", "6", "--chi", "3")
        assert code == 0
        assert out.strip() == "7.348469228"

    def test_thm1(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "thm1", "--n", "6", "--k", "3")
        assert code == 0
        assert out.strip() == "7.756443177"

    def test_thm2_precision(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "thm2", "--n", "5", "--precision", "12")
        assert code == 0
        assert out.strip() == "4.242640687119"

    def test_negative_precision_rejected(self, capsys):
        code, out, err = run_cli(capsys, "bound", "thm2", "--n", "5", "--precision", "-1")
        assert code == 2 and out == ""
        assert "argument --precision: must be >= 0, got -1" in err

    def test_cs(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "cs", "--parts", "1,2,3")
        assert code == 0
        assert out.split() == ["6.953565899", "8.270429251"]

    def test_missing_argument(self, capsys):
        code, out, err = run_cli(capsys, "bound", "thm1", "--n", "6")
        assert code == 2 and out == ""
        assert "the following arguments are required: --k" in err

    def test_out_of_range(self, capsys):
        code, out, err = run_cli(capsys, "bound", "thm1", "--n", "5", "--k", "2")
        assert code == 2 and out == ""
        assert err == "error: need n >= 6 and 1 <= k <= n-2, got n=5, k=2\n"

    def test_bad_parts(self, capsys):
        code, out, err = run_cli(capsys, "bound", "cs", "--parts", "1,0")
        assert code == 2 and out == ""
        assert "argument --parts: parts must be >= 1, got (1, 0)" in err


class TestVerify:
    def test_chromatic_cell_writes_report(self, capsys, tmp_path):
        out_file = tmp_path / "r.json"
        code, _, err = run_cli(capsys, "verify", "chromatic", "--n-range", "6..6",
                               "--chi", "3", "--jobs", "1", "--out", str(out_file))
        assert code == 0
        rep = Report.from_json(out_file.read_text())
        assert rep.cells[0]["matches"] is True
        assert "[ok] chromatic n=6" in err

    def test_edge_conn_stdout_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "edge-conn", "--n-range", "5..5",
                               "--k", "1", "--jobs", "1")
        assert code == 0
        rep = Report.from_json(out)
        assert rep.cells[0]["max_value"] == pytest.approx(4.802517076888147, abs=1e-12)

    def test_csv_format(self, capsys, tmp_path):
        out_file = tmp_path / "r.csv"
        code, _, _ = run_cli(capsys, "verify", "edge-conn", "--n-range", "5..5",
                             "--jobs", "1", "--format", "csv", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0].startswith("campaign,")
        assert len(lines) == 4  # header + cells k=1..3

    def test_long_range_needs_flag(self, capsys):
        code, _, err = run_cli(capsys, "verify", "chromatic", "--n-range", "6..9")
        assert code == 2
        assert "allow-long" in err

    def test_monotonicity(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "monotonicity", "--n-max", "8",
                               "--trials", "50", "--seed", "5")
        assert code == 0
        rep = Report.from_json(out)
        assert rep.cells[0]["trials"] == 50

    def test_bridge(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "bridge", "--n-max", "10")
        assert code == 0
        rep = Report.from_json(out)
        assert len(rep.cells) == 5

    def test_jobs_default_is_the_cpu_affinity(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        code, out, _ = run_cli(capsys, "verify", "chromatic", "--n-range", "5..5", "--chi", "3")
        assert code == 0
        assert Report.from_json(out).parameters["jobs"] == 1

    def test_benchmark_command_lines_parse(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from run import WORKLOADS

        parser = cli.build_parser()
        assert "chi3-order9" in WORKLOADS  # run by hand, so parsed only here
        for workload in WORKLOADS.values():
            argv = workload.cli_args(1)
            args = parser.parse_args(argv)

            def value(flag):
                return argv[argv.index(flag) + 1]

            lo, _, hi = value("--n-range").partition("..")
            assert argv[:2] == ["verify", args.campaign]
            assert args.n_range == range(int(lo), int(hi) + 1)
            assert args.jobs == int(value("--jobs")) == workload.jobs
            assert args.allow_long == ("--allow-long" in argv)
            if args.campaign == "chromatic":
                assert args.value == int(value("--chi"))
            if workload.seeded:
                assert args.seed == 1


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "bogus")[0] == 2

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "edge-conn", "--n-range", "8..4")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("edge-conn", "--k", "99", "--n-range", "4..5"),
        ("edge-conn", "--k", "0", "--n-range", "4..5"),
        ("chromatic", "--chi", "0", "--n-range", "4..5"),
        ("edge-conn", "--jobs", "0", "--n-range", "4..5"),
        ("edge-conn", "--jobs", "-3", "--n-range", "4..5"),
        ("edge-conn", "--n-range", "1..2"),
        ("vertex-conn", "--n-range", "1..2"),
        ("chromatic", "--n-range", "11..11", "--chi", "3", "--allow-long", "--jobs", "2"),
        ("all", "--n-range", "1..2", "--trials", "10"),
        ("bridge", "--n-max", "4"),
        ("monotonicity", "--n-max", "100", "--trials", "10"),
    ])
    def test_bad_selection(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @staticmethod
    def assert_rejected(capsys, ran, command, leaf, flag):
        argv = [command, leaf]
        if command != "verify":  # every flag but --precision is required
            for name in sorted(READS[command][leaf] - {"--precision"}):
                argv += [name, "2,2" if name == "--parts" else "6"]
        code, out, err = run_cli(capsys, *argv, flag, "3")
        assert code == 2 and out == ""
        assert err.startswith(f"usage: abcmax {command} {leaf} [-h]")  # the leaf's usage
        assert f"unrecognized arguments: {flag} 3" in err
        assert ran == []

    @pytest.mark.parametrize("campaign, flag", unread("verify"))
    def test_flag_the_campaign_does_not_read(self, capsys, commands_run, campaign, flag):
        self.assert_rejected(capsys, commands_run, "verify", campaign, flag)

    @pytest.mark.parametrize("command, entry, flag",
                             [(c, *row) for c in ("construct", "bound") for row in unread(c)])
    def test_flag_the_entry_does_not_read(self, capsys, commands_run, command, entry, flag):
        self.assert_rejected(capsys, commands_run, command, entry, flag)

    @pytest.mark.parametrize("argv", [
        ("invariants", "--g6", "C~", "--jobs", "3"),
        ("enumerate", "--n", "3", "--precision", "3"),
    ])
    def test_flag_the_command_does_not_read(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"usage: abcmax {argv[0]} [-h]")
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    @pytest.mark.parametrize("argv, flag", [
        (("construct", "knk", "--n", "6"), "--k"),
        (("bound", "cor3", "--n", "6"), "--chi"),
    ])
    def test_missing_flag_is_named(self, capsys, commands_run, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"the following arguments are required: {flag}" in err
        assert "NoneType" not in err
        assert commands_run == []

    @pytest.mark.parametrize("text", ["4..", "..4", "8..4", "0..3", "x"])
    def test_malformed_range_names_the_flag(self, capsys, commands_run, text):
        code, out, err = run_cli(capsys, "verify", "chromatic", "--n-range", text)
        assert code == 2 and out == ""
        assert "argument --n-range:" in err
        assert "_order_range" not in err  # not the private type function
        assert commands_run == []

    @pytest.mark.parametrize("argv", [
        ("bound", "thm1", "--n", "6", "--k", "3", "--precision", "x"),
        ("invariants", "--precision", "x"),
    ])
    def test_malformed_precision_names_the_flag(self, capsys, commands_run, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "argument --precision: not an integer: 'x'" in err
        assert "_precision" not in err
        assert commands_run == []

    def test_every_leaf_help(self, capsys):
        found = list(leaves(cli.build_parser()))
        assert len(found) == 19
        assert {(c, leaf) for c in READS for leaf in READS[c]} <= set(found)
        for leaf in found:
            assert main([*leaf, "--help"]) == 0
            usage = capsys.readouterr().out
            assert usage.startswith(f"usage: abcmax {' '.join(leaf)} [-h]")
            for flag in READS.get(leaf[0], {}).get(leaf[-1], ()):
                assert flag in usage

    def test_enumerate_above_cap_needs_flag(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--n", "9", "--connected")
        assert code == 2
        assert out == ""
        assert "allow-long" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_crash_exits_2_without_report(self, capsys, monkeypatch, tmp_path, jobs):
        def crash(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr("abcmax.verifier.SEED_DEPTH", 4)  # n=5 has 6 tasks
        out_file = tmp_path / "r.json"
        real_fork = os.fork
        for target, argv in (
            ("abcmax.verifier._scan_kernel", ("edge-conn", "--n-range", "5..5")),
            # at --jobs 2 the monotonicity run, and so the crash, is in a forked worker
            ("abcmax.verifier._random_connected", ("all", "--n-range", "4..5", "--trials", "5")),
        ):
            forked = []

            def recording_fork():
                forked.append(real_fork())
                return forked[-1]

            with monkeypatch.context() as patch:
                patch.setattr(target, crash)
                patch.setattr("abcmax.verifier.os.fork", recording_fork)
                code, _, err = run_cli(capsys, "verify", *argv, "--jobs", jobs,
                                       "--out", str(out_file))
            assert code == 2
            assert err.strip().splitlines() == ["error: RuntimeError('boom')"]
            assert not out_file.exists()
            # every worker forked is already reaped
            assert len(forked) == (0 if jobs == "1" else 2)
            for pid in forked:
                with pytest.raises(ChildProcessError):
                    os.waitpid(pid, os.WNOHANG)


def group_members(pgid: int) -> dict[int, str]:
    """The state letter of every process in process group `pgid`, by pid."""
    members = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, group = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except OSError:  # the process has gone
            continue
        if int(group) == pgid:
            members[int(stat.parent.name)] = state
    return members


def wait_for(condition, timeout: float) -> bool:
    """Whether `condition()` holds within `timeout` seconds."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process groups from /proc")
class TestWorkerFaults:
    """A `verify all --n-range 4..8 --jobs 2` run meets a fault, under a time
    limit: it ends with exit 2 and no worker outlives it."""

    @pytest.fixture
    def run(self, tmp_path):
        """Start the run, `patch` applied first, in a process group of its own;
        whatever is left in that group is killed afterwards."""
        procs = []

        def start(patch: str = "") -> subprocess.Popen:
            script = tmp_path / "run.py"
            script.write_text(textwrap.dedent("""
                import os
                import signal
                import sys
                from abcmax import cli, verifier
            """) + textwrap.dedent(patch) + textwrap.dedent(f"""
                sys.exit(cli.main(["verify", "all", "--n-range", "4..8", "--jobs", "2",
                                   "--out", {str(tmp_path / "r.json")!r}]))
            """))
            procs.append(subprocess.Popen(
                [sys.executable, str(script)], start_new_session=True,
                env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True))
            return procs[-1]

        yield start
        for proc in procs:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()

    @staticmethod
    def workers(proc) -> list[int]:
        """The pids of `proc`'s two workers, once both are forked."""
        assert wait_for(lambda: len(group_members(proc.pid)) == 3, timeout=20)
        return sorted(set(group_members(proc.pid)) - {proc.pid})

    def test_dead_worker_exits_2(self, run, tmp_path):
        # a worker killed by SIGKILL at one order-8 task sends no result for
        # it; a pool waited for that result for ever
        proc = run("""
            doomed = verifier.connected_graph_list(7)[100].rows
            real_scan_subtree = verifier._scan_subtree

            def dying(rows, n, constraints):
                if n == 8 and rows == doomed:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real_scan_subtree(rows, n, constraints)

            verifier._scan_subtree = dying
        """)
        _, err = proc.communicate(timeout=30)
        assert proc.returncode == 2
        assert re.fullmatch(r"error: RuntimeError\('worker \d+ ended before task \d+'\)\n", err)
        assert not (tmp_path / "r.json").exists()
        assert group_members(proc.pid) == {}

    def test_interrupt_exits_2(self, run, tmp_path):
        # SIGINT to the whole group, as a terminal's Ctrl-C sends it
        proc = run()
        self.workers(proc)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=5)
        assert proc.returncode == 2
        assert err.startswith("error: ")
        assert not (tmp_path / "r.json").exists()
        assert wait_for(lambda: group_members(proc.pid) == {}, timeout=5)

    def test_main_process_death_ends_the_workers(self, run):
        # with no read end of its pipe open in any process, a worker's next
        # write fails once the main process is gone, and the worker leaves
        proc = run()
        workers = self.workers(proc)
        proc.kill()
        proc.wait(timeout=5)
        assert wait_for(lambda: all(group_members(proc.pid).get(pid, "Z") == "Z"
                                    for pid in workers), timeout=5)


class TestReadme:
    """README's examples run against the CLI and the library as they are."""

    def blocks(self, lang):
        return re.findall(rf"^```{lang}\n(.*?)^```$", (ROOT / "README.md").read_text(),
                          re.DOTALL | re.MULTILINE)

    def test_every_command_parses(self):
        commands = [
            part.strip()
            for block in self.blocks("")
            for line in block.splitlines()
            for part in line.split("#")[0].split("|")
            if part.strip().startswith("abcmax ")
        ]
        assert len(commands) == 15
        for command in commands:
            cli.build_parser().parse_args(shlex.split(command)[1:])

    def test_library_snippet_runs(self):
        snippet, = self.blocks("python")
        namespace = {}
        exec(snippet, namespace)
        assert namespace["cell"]["matches"] is True
