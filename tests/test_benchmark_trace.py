"""A traced campaign ends in a line that yields every per-layer metric.

`perfbench/run.py --trace 1` runs a campaign through `perfbench/layer_trace.py
--trace` and turns the JSON line it ends with into the per-layer metrics
that `BENCHMARK.json` lists.  A traced run that exits 0 without that line,
or with a layer missing from it, measures nothing.  This runs a small traced
campaign the same way and feeds its last line to `run.py`'s `layer_metrics`;
it reads `perfbench/` and changes nothing there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# added by run.py's `traced` from the untraced campaigns, not from the trace
ADDED_BESIDE_THE_TRACE = {
    "verifier.fanout.parent_cpu_s",
    "verifier.fanout.worker_cpu_s",
    "verifier.fanout.cpu_amplification",
    "trace.wall_s",
    "trace.overhead_frac",
}


def test_traced_campaign_yields_every_per_layer_metric(monkeypatch):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "layer_trace.py"), "--trace",
         "verify", "all", "--n-range", "4..5", "--jobs", "1", "--trials", "10"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["exit_code"] == 0
    report = json.loads(last["report"])

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from run import layer_metrics

    metrics = layer_metrics(last["trace"], last["wall_s"], report)
    listed = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert ADDED_BESIDE_THE_TRACE <= listed
    assert sorted(listed - ADDED_BESIDE_THE_TRACE - set(metrics)) == []
