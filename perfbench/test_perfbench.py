"""The benchmark's own checks: spans fire, counts repeat, the contract holds.

Each workload is traced twice at the same seed on a few requests; every
span the README maps to a workload must fire on it, and every count must
repeat exactly.  Run with ``PYTHONPATH=src python -m pytest perfbench``.
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

import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 2
#: requests per traced test run
REQUESTS = {"ppo-train": 2, "policy-infer": 8, "beam-ops": 1}
#: spans that must fire on each workload (the layers it measures)
EXPECTED_SPANS = {
    "ppo-train": {
        "rl.act", "rl.collect", "rl.update", "rl.evaluate", "nn.backward",
        "nn.adam", "env.reset", "env.step", "machine.run",
        "transforms.lower", "machine.nest_time",
    },
    "policy-infer": {
        "rl.act", "env.reset", "env.step", "machine.run",
        "transforms.lower", "machine.nest_time", "datasets.generate",
    },
    "beam-ops": {
        "search.optimize", "transforms.lower", "transforms.clone",
        "transforms.schedule_key", "machine.nest_time", "machine.run",
    },
}
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _counts(values: dict) -> dict:
    return {
        name: value
        for name, value in values.items()
        if name.endswith(".calls")
        or name.startswith("machine.cache.")
        or name in ("search.candidates", "speedup_geomean")
    }


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_twice(request):
    workload = WORKLOADS[request.param]
    runs = []
    for _ in range(2):
        tracer, served, session, overhead = run.traced_run(
            workload, SEED, REQUESTS[workload.name]
        )
        runs.append(
            (tracer, served, run.layer_values(tracer, served, session, overhead))
        )
    return workload.name, runs


def test_expected_spans_fire(traced_twice):
    name, runs = traced_twice
    tracer, served, values = runs[0]
    assert served.failed == 0, served.errors
    silent = {s for s in EXPECTED_SPANS[name] if tracer.calls[s] == 0}
    assert not silent, f"{name}: spans never fired: {sorted(silent)}"
    for entry in CONTRACT["per_layer"]:
        assert entry["name"] in values


def test_counts_repeat_exactly(traced_twice):
    name, runs = traced_twice
    first, second = (_counts(values) for _, _, values in runs)
    assert first == second, name


def test_spans_are_well_formed(traced_twice):
    _, runs = traced_twice
    tracer = runs[0][0]
    requests = set()
    for index, (name, start, end, parent, request) in enumerate(tracer.spans):
        assert start <= end
        if parent is not None:
            assert parent < index
            parent_span = tracer.spans[parent]
            assert parent_span[1] <= start and end <= parent_span[2]
            assert parent_span[4] == request
        requests.add(request)
    assert "setup" in requests and 0 in requests


def test_patches_are_removed():
    from repro.baselines import reference_agent
    from repro.machine import timing

    run.traced_run(WORKLOADS["policy-infer"], SEED, 1)
    assert reference_agent.nest_time is timing.nest_time
    assert not hasattr(timing.nest_time, "__wrapped__")
    for _, module, path in tracer_module.TARGETS:
        owner = sys.modules[module]
        for part in path.split("."):
            owner = getattr(owner, part)
        assert not hasattr(owner, "__wrapped__"), path


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_command_prints_contract_metrics():
    result = _run(
        ROOT, "--workload", "beam-ops", "--seed", "3", "--seconds", "1",
        "--trace", "0",
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    expected = {e["name"]: e["unit"] for e in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "traces"),
    )
    result = _run(
        tmp_path, "--workload", "beam-ops", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
