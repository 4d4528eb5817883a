"""Smoke test of the benchmark: every workload at its tiny size.

Run from the root of a checkout::

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYER_MAP = json.loads((ROOT / "bench" / "layer_map.json").read_text(encoding="utf-8"))


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))


def test_every_layer_metric_is_mapped():
    mapped = set(LAYER_MAP["layers"])
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        base = name.rsplit(".", 1)[0] if name.endswith((".p50", ".p99", ".n")) else name
        assert base in mapped or base.split(".")[0] in mapped, name


def test_refuses_to_run_without_the_package():
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        copy = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", copy)
        shutil.copytree(ROOT / "bench", copy / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(copy, "--workload", "replay", "--seed", "0", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
