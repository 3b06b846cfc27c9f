import io
import json
import multiprocessing

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


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_knk(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--family", "knk", "--n", "6", "--k", "3")
        assert code == 0
        assert decode_graph6(out.strip()) == kn_k_graph(6, 3)

    def test_each_family(self, capsys):
        for argv, expected in (
            (["--family", "complete", "--n", "5"], complete_graph(5)),
            (["--family", "knk", "--n", "7", "--k", "2"], kn_k_graph(7, 2)),
            (["--family", "turan", "--n", "6", "--l", "3"], turan_graph(6, 3)),
            (["--family", "bridge", "--x", "2", "--y", "3"], bridge_cliques_graph(2, 3)),
            (["--family", "cycle", "--n", "5"], cycle_graph(5)),
            (["--family", "path", "--n", "4"], path_graph(4)),
            (["--family", "star", "--n", "5"], star_graph(5)),
        ):
            code, out, _ = run_cli(capsys, "construct", *argv)
            assert code == 0
            assert decode_graph6(out.strip()) == expected

    def test_bad_parameters_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--family", "turan", "--n", "5", "--l", "9")
        assert code == 2
        assert "error" in err.lower()


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
        code, out, _ = run_cli(capsys, "construct", "--family", "cycle", "--n", "1501")
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
        code, out, _ = run_cli(capsys, "bound", "--which", "cor3", "--n", "6", "--chi", "3")
        assert code == 0
        assert out.strip() == "7.348469228"

    def test_thm1(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--which", "thm1", "--n", "6", "--k", "3")
        assert code == 0
        assert out.strip() == "7.756443177"

    def test_thm2_precision(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--which", "thm2", "--n", "5",
                               "--precision", "12")
        assert code == 0
        assert out.strip() == "4.242640687119"

    def test_negative_precision_rejected(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--which", "thm2", "--n", "5",
                                 "--precision", "-1")
        assert code == 2 and out == ""
        assert "--precision" in err

    def test_cs(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--which", "cs", "--parts", "1,2,3")
        assert code == 0
        assert out.split() == ["6.953565899", "8.270429251"]

    def test_missing_argument(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--which", "thm1", "--n", "6")
        assert code == 2

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--which", "thm1", "--n", "5", "--k", "2")
        assert code == 2


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
        code, out, _ = run_cli(capsys, "verify", "monotonicity", "--n-range", "3..8",
                               "--trials", "50", "--seed", "5")
        assert code == 0
        rep = Report.from_json(out)
        assert rep.cells[0]["trials"] == 50

    def test_bridge(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "bridge", "--n-range", "6..10")
        assert code == 0
        rep = Report.from_json(out)
        assert len(rep.cells) == 5


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
        ("bridge", "--n-range", "3..4"),
        ("monotonicity", "--n-range", "3..100", "--trials", "10"),
    ])
    def test_bad_selection(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("campaign, flag", [
        ("edge-conn", "--chi"),
        ("vertex-conn", "--chi"),
        ("chromatic", "--k"),
        ("monotonicity", "--k"),
        ("bridge", "--chi"),
        ("all", "--k"),
    ])
    def test_flag_the_campaign_does_not_read(self, capsys, campaign, flag):
        code, out, err = run_cli(capsys, "verify", campaign, "--n-range", "5..6", flag, "3")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} applies only to")

    def test_enumerate_above_cap_needs_flag(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--n", "9", "--connected")
        assert code == 2
        assert out == ""
        assert "allow-long" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_crash_exits_2_without_report(self, capsys, monkeypatch, tmp_path, jobs):
        def crash(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr("abcmax.verifier.SEED_DEPTH", 4)  # n=5 goes through the pool
        out_file = tmp_path / "r.json"
        for target, argv in (
            ("abcmax.verifier._scan_kernel", ("edge-conn", "--n-range", "5..5")),
            # at --jobs 2 the monotonicity run, and so the crash, is in a pool worker
            ("abcmax.verifier._random_connected", ("all", "--n-range", "4..5", "--trials", "5")),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(target, crash)
                code, _, err = run_cli(capsys, "verify", *argv, "--jobs", jobs,
                                       "--out", str(out_file))
            assert code == 2
            assert err.strip().splitlines() == ["error: RuntimeError('boom')"]
            assert not out_file.exists()
            assert multiprocessing.active_children() == []
