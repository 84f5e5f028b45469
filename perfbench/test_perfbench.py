"""The benchmark's own test, at tiny market sizes (``--smoke``).

Kept out of the project's test suite (pytest collects only ``tests/``):

    python3 -m pytest perfbench

It checks that every declared metric is printed with its unit, that no
operation fails, that every per-layer metric reads non-zero on each workload
it is meant for, and that the output checks and the missing-sources guard
actually fire.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def smoke(workload: str, traced: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return bench("--workload", workload, "--seed", "21", "--seconds", "1",
                 "--trace", str(traced), "--smoke", cwd=cwd)


@pytest.mark.parametrize("traced", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_metric_and_fails_nothing(workload, traced):
    proc = smoke(workload, traced)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1

    declared = BENCH["per_layer" if traced else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    printed = {line.split()[0]: line.split()[1:] for line in lines[:-1]}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]][1] == m["unit"]
    assert printed["ops"] == [str(result["attempted"]), "count"]
    assert printed["failed_ops"] == ["0", "count"]

    if traced:
        zero = [name for name, (_, _, owners) in PER_LAYER.items()
                if workload in owners and result["metrics"][name]["value"] == 0]
        assert zero == [], f"layers not reached on {workload}: {zero}"
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_declarations_agree():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in PER_LAYER.items()
    ]
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for name, (_, _, owners) in PER_LAYER.items():
        assert owners and set(owners) <= set(WORKLOADS), name


def _copy_benchmark(dest: Path, with_sources: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def test_refuses_to_run_without_sources(tmp_path):
    _copy_benchmark(tmp_path, with_sources=False)
    proc = bench("--workload", "market-run", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_counts_an_output_that_differs_from_the_recording(tmp_path):
    _copy_benchmark(tmp_path, with_sources=True)
    path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    variant = expected["market-trace"]["smoke"]["5"]  # seed 21 is variant 5
    variant["run-trace-M0"]["steps"] = "0" * 20
    variant["theorem5-M1"]["verdict"] = "no-such-verdict"
    path.write_text(json.dumps(expected), encoding="utf-8")

    proc = smoke("market-trace", 0, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    passes = result["attempted"] // 9
    assert result["correct"] is False
    assert result["failed"] == 2 * passes
    assert "run-trace-M0: differs from the recorded output in steps" in proc.stderr
