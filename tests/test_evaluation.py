"""Tests for the evaluation harness: runners, drivers and reporting."""

import json

import numpy as np
import pytest

from repro.baselines import MlirBaseline, PyTorchEager
from repro.datasets import make_add, make_matmul
from repro.evaluation import (
    geomean,
    render_fig5,
    render_tab3,
    render_tab4,
    render_training_curves,
    run_fig5,
    run_function,
    run_interchange_ablation,
    run_operator_suite,
    run_overhead,
    run_tab2,
    run_tab4,
    run_tab5,
    write_json,
)
from repro.datasets.dnn_ops import EvaluationCase


class TestGeomean:
    def test_basic(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_ignores_nonpositive(self):
        assert geomean([2.0, 0.0, -1.0]) == pytest.approx(2.0)


class TestRunner:
    def test_run_function_speedups(self):
        func = make_matmul(64, 64, 64)
        result = run_function(func, [MlirBaseline(), PyTorchEager()])
        assert result.speedups["mlir-baseline"] == pytest.approx(1.0)
        assert result.speedups["pytorch"] > 0

    def test_suite_aggregation(self):
        cases = [
            EvaluationCase("add", "a1", lambda: make_add(128, 128)),
            EvaluationCase("add", "a2", lambda: make_add(256, 256)),
            EvaluationCase("matmul", "m1", lambda: make_matmul(64, 64, 64)),
        ]
        suite = run_operator_suite(cases, [PyTorchEager()])
        by_op = suite.by_operator()
        assert set(by_op) == {"add", "matmul"}
        assert "pytorch" in suite.overall()

    def test_method_filter_skips(self):
        cases = [
            EvaluationCase("matmul", "m1", lambda: make_matmul(64, 64, 64)),
        ]
        suite = run_operator_suite(
            cases, [PyTorchEager()], {"pytorch": {"add"}}
        )
        assert suite.cases[0].speedups == {}

    def test_to_json_structure(self):
        cases = [
            EvaluationCase("add", "a", lambda: make_add(64, 64)),
        ]
        suite = run_operator_suite(cases, [PyTorchEager()])
        data = suite.to_json()
        assert "cases" in data and "by_operator" in data and "overall" in data


class TestDrivers:
    def test_fig5_fast_has_all_operators(self):
        suite = run_fig5(fast=True)
        by_op = suite.by_operator()
        assert set(by_op) == {"matmul", "conv_2d", "maxpooling", "add", "relu"}
        # Halide RL skipped on conv (not supported by their system)
        assert "halide-rl" not in by_op["conv_2d"]

    def test_fig5_orderings(self):
        suite = run_fig5(fast=True)
        by_op = suite.by_operator()
        assert by_op["matmul"]["pytorch"] > by_op["matmul"]["mlir-rl"]
        assert by_op["conv_2d"]["pytorch"] > by_op["conv_2d"]["mlir-rl"]
        assert (
            by_op["maxpooling"]["mlir-rl"] > by_op["maxpooling"]["pytorch"]
        )
        assert by_op["matmul"]["mlir-rl"] > by_op["matmul"]["halide-rl"]

    def test_tab4_winners_match_paper(self):
        rows = run_tab4()
        hexa = rows["hexaquark-hexaquark (S = 12)"]
        dd = rows["dibaryon-dibaryon (S = 24)"]
        dh = rows["dibaryon-hexaquark (S = 32)"]
        assert hexa["mlir-rl-greedy"] > hexa["halide-autoscheduler"]
        assert dd["mlir-rl-greedy"] > dd["halide-autoscheduler"]
        # the paper's flip on the largest input:
        assert dh["halide-autoscheduler"] > dh["mlir-rl-greedy"]

    def test_tab2_counts(self):
        counts = run_tab2(scale=0.05)
        assert counts["full_scale_total"] == 1135
        assert counts["matmul"] == round(187 * 0.05)

    def test_tab5_structure(self):
        rows = run_tab5()
        assert set(rows) == {"ResNet-18", "MobileNetV2", "VGG"}
        assert rows["VGG"]["conv2d"] == 13

    def test_overhead_driver(self):
        result = run_overhead(samples=2)
        assert "inference_seconds_per_sample" not in result
        assert result["policy_seconds_per_sample"] > 0
        assert result["env_seconds_per_sample"] > 0
        # act and env calls are disjoint intervals inside the episode
        assert (
            result["policy_seconds_per_sample"]
            + result["env_seconds_per_sample"]
            <= result["episode_seconds_per_sample"]
        )
        assert result["transform_seconds_per_sample"] >= 0

    def test_interchange_ablation_runs(self):
        result = run_interchange_ablation(iterations=1)
        assert set(result) == {"level_pointers", "enumerated"}
        assert len(result["level_pointers"]) == 1


class TestReporting:
    def test_render_fig5(self):
        suite = run_fig5(fast=True)
        text = render_fig5(suite)
        assert "matmul" in text and "mlir-rl" in text

    def test_render_tab3(self):
        rows = {"ResNet-18": {"mlir-rl-greedy": 20.0, "pytorch": 300.0}}
        text = render_tab3(rows)
        assert "ResNet-18" in text

    def test_render_tab4(self):
        rows = {"hexaquark-hexaquark (S = 12)": {"mlir-rl-greedy": 50.0}}
        assert "hexaquark" in render_tab4(rows)

    def test_render_curves(self):
        text = render_training_curves(
            {"flat": [1.0, 2.0], "multi": [1.5, 2.5]}, "Figure 6"
        )
        assert "flat" in text and "Figure 6" in text

    def test_write_json(self, tmp_path):
        path = write_json({"a": 1}, tmp_path / "out" / "x.json")
        assert json.loads(path.read_text()) == {"a": 1}
