"""Tests of the benchmark itself, at ``ScenarioConfig.small()`` scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  Each
workload runs once, untraced and traced, in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
SEED = 20061001


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"),
         "--scale", "small", "--seed", str(SEED), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(*args: str) -> dict:
    proc = _run(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_reference_pins_the_small_default_seed():
    reference = json.loads((HERE / "reference.json").read_text())
    assert set(reference[f"small/{SEED}"]) == set(WORKLOADS)
    assert set(reference[f"full/{SEED}"]) == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    result = _result("--workload", workload, "--repeats", "1", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in BENCHMARK["end_to_end"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    # correct=True also means every wrapper the workload serves fired.
    result = _result("--workload", workload, "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_corrupted_reference_digest_fails(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    key = f"small/{SEED}"
    corrupted = {key: dict(reference[key], **{"fleet-pooled": "0" * 64})}
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(corrupted))
    result = _result("--workload", "fleet-pooled", "--repeats", "1",
                     "--reference", str(path))
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def _owners():
    """Every (owner, name) -> object a hook replaces."""
    import importlib

    bound = {}
    for hook in layers.HOOKS:
        module_name, _, path = hook.target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, name = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        if isinstance(owner, type):
            bound[(owner, name)] = owner.__dict__[name]
            continue
        original = getattr(owner, name)
        for module, alias in layers.import_sites(original):
            bound[(module, alias)] = original
    return bound


def test_wrappers_restore_the_original_callables():
    import repro.api  # noqa: F401 - load every import site first
    from repro.core import density

    before = _owners()
    trace = layers.LayerTrace()
    with layers.installed(trace):
        assert density.block_counts_2d is not before[(density, "block_counts_2d")]
        matrix = np.sort(np.arange(12, dtype=np.uint32).reshape(3, 4), axis=1)
        density.block_counts_2d(matrix, (24, 32))
    assert trace.get("ipspace.kernels").calls == 1
    after = _owners()
    assert after.keys() == before.keys()
    for key, original in before.items():
        current = key[0].__dict__[key[1]] if isinstance(key[0], type) \
            else getattr(key[0], key[1])
        assert current is original, key


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it refuses to run."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
