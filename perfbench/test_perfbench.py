"""Self-test of the benchmark at tiny scale.

    python -m pytest perfbench -q

Runs every workload through ``run.py`` as the benchmark's users do,
checks the printed contract, that a seed repeats its simulated results
and program-made counts exactly, that a corrupted output is caught, and
that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TINY = "0.0625"


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", TINY],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _line(stdout: str, key: str) -> str:
    return re.search(rf"^{re.escape(key)}: (.*)$", stdout, re.M).group(1)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_metric_and_repeats_per_seed(workload, trace):
    first, second = _run(workload, trace), _run(workload, trace)
    assert first.returncode == 0, first.stderr
    result = json.loads(first.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"{metric['name']} = " in first.stdout
    # Same seed, same simulated results and program-made counts.
    key = "counts_digest" if trace else "determinism"
    assert _line(first.stdout, key) == _line(second.stdout, key)


@pytest.mark.parametrize("workload", ["join_mix", "serve_writes"])
def test_corrupted_output_is_counted(workload):
    bench = run.Run(workload, seed=3, scale=float(TINY))
    first = bench.params.get("warmup_arrivals") or len(bench.params["rotation"])
    result = bench.measure(seconds=0.2, corrupt_step=first)
    assert result["failed"] >= 1 and result["correct"] is False
    assert result["info"]["error_frac"] > 0
    assert any("differs from the oracle" in e for e in bench.errors)


def test_missing_wrap_target_fails_loudly(monkeypatch):
    import repro.joins.phj

    monkeypatch.delattr(repro.joins.phj, "match_positions")
    tracer = spans.Tracer()
    with pytest.raises(spans.WrapError):
        tracer.install()
    tracer.uninstall()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("join_mix", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
