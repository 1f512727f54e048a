"""Smoke test of the benchmark at sf0.001: every workload, untraced and
traced, launched from a cwd outside the repository, emits every metric
BENCHMARK.json names, with its unit, and no op fails.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_emits_every_metric(workload, trace, tmp_path):
    p = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--sf", "0.001"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stderr[-4000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = res["metrics"]
    assert set(got) == {m["name"] for m in want}
    for m in want:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], float), m["name"]
        if not trace:
            assert got[m["name"]]["value"] > 0, m["name"]
