"""Learned cost model: persistence, export determinism, guided search.

Covers the cache→dataset pipeline end to end: the JSON codec for cache
entries round-trips every persistable value (hypothesis), a saved cache
reloads with bit-identical timings and working spec-keyed lookups, the
exporter emits a byte-identical dataset across runs and fork workers,
beam search dedups identical candidate schedules before scoring, a
trained model predicts identically after save/load, model-guided
greedy/beam search runs end to end, the environment swaps to (and
restores from) cost-model rewards, and the CLI verbs chain together.
"""

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import BeamSearchAgent, GreedyAgent, MlirBaseline
from repro.cli import main
from repro.env import EnvAction, MlirRlEnv, small_config
from repro.ir import FuncOp, add, empty, matmul, relu, tensor
from repro.machine import (
    FEATURE_SIZE,
    FEATURE_VERSION,
    CachingExecutor,
    CostModelExecutor,
    ExecutionCache,
    Executor,
    ScheduleCostEvaluator,
    XEON_E5_2680_V4,
    build_corpus,
    export_dataset,
)
from repro.machine.dataset import check_model_compatible, sample_features
from repro.machine.service import func_fingerprint
from repro.machine.persist import (
    PersistError,
    decode_value,
    encode_value,
)
from repro.machine.timing import TimingBreakdown
from repro.nn import (
    CostModel,
    load_cost_model,
    save_cost_model,
    train_cost_model,
)
from repro.transforms import TransformKind


def _mm():
    a, b, c = tensor([64, 48]), tensor([48, 32]), tensor([64, 32])
    func = FuncOp("mm", [a, b, c])
    op = func.append(matmul(a, b, c))
    func.returns = [op.result()]
    return func


def _chain():
    x, y = tensor([64, 64]), tensor([64, 64])
    func = FuncOp("chain", [x, y])
    first = func.append(add(x, y, empty([64, 64])))
    second = func.append(relu(first.result(), empty([64, 64])))
    func.returns = [second.result()]
    return func


def _small_corpus(seed=3):
    return build_corpus(
        num_programs=3,
        schedules_per_program=2,
        seed=seed,
        extra_programs=[_mm(), _chain()],
    )


def _export_bytes(seed):
    """Module-level so a fork worker can run it (pool.apply pickles)."""
    dataset = export_dataset(_small_corpus(seed))
    return dataset.features.tobytes() + dataset.targets.tobytes()


@pytest.fixture(scope="module")
def corpus_cache():
    return _small_corpus()


@pytest.fixture(scope="module")
def trained(corpus_cache):
    dataset = export_dataset(corpus_cache)
    model, metrics = train_cost_model(dataset, seed=0, epochs=10)
    return model, metrics, dataset


# ---------------------------------------------------------------------------
# Persistence codec
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.integers(0, 100), max_size=4).map(frozenset),
    ),
    max_leaves=12,
)


class TestPersistCodec:
    @settings(max_examples=100, deadline=None)
    @given(value=_values)
    def test_round_trip(self, value):
        """decode∘encode is the identity over the persistable space —
        including through an actual JSON serialization."""
        import json

        encoded = json.loads(json.dumps(encode_value(value)))
        assert decode_value(encoded) == value

    def test_spec_and_breakdown_round_trip(self):
        spec = decode_value(encode_value(XEON_E5_2680_V4))
        assert spec == XEON_E5_2680_V4
        assert hash(spec) == hash(XEON_E5_2680_V4)
        breakdown = TimingBreakdown(1.5, 1.0, 0.4, 0.1, 14)
        assert decode_value(encode_value(breakdown)) == breakdown

    def test_unencodable_raises(self):
        with pytest.raises(PersistError):
            encode_value(object())
        with pytest.raises(PersistError):
            decode_value({"unknown-tag": 1})


class TestCachePersistence:
    def test_save_load_round_trip(self, corpus_cache, tmp_path):
        path = tmp_path / "cache.json"
        written = corpus_cache.save(path)
        assert written > 0
        loaded = ExecutionCache()
        assert loaded.load(path) == written
        original = dict(corpus_cache.schedule_items())
        restored = dict(loaded.schedule_items())
        assert set(restored) == set(original)
        for key, breakdown in original.items():
            assert restored[key] == breakdown  # bit-identical timings

    def test_save_is_deterministic(self, corpus_cache, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        corpus_cache.save(first)
        corpus_cache.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_cache_serves_spec_keyed_lookups(
        self, corpus_cache, tmp_path
    ):
        path = tmp_path / "cache.json"
        corpus_cache.save(path)
        loaded = ExecutionCache()
        loaded.load(path)
        executor = CachingExecutor(XEON_E5_2680_V4, cache=loaded)
        executor.run_baseline(_mm())  # corpus extra program: warm
        assert executor.stats.hits == 1
        assert executor.stats.evaluations == 0

    def test_load_rejects_bad_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(ValueError, match="version"):
            ExecutionCache().load(path)


# ---------------------------------------------------------------------------
# Exporter determinism
# ---------------------------------------------------------------------------


class TestExporter:
    def test_layout(self, trained):
        _model, _metrics, dataset = trained
        assert dataset.feature_version == FEATURE_VERSION
        assert dataset.features.shape[1] == FEATURE_SIZE
        assert dataset.features.dtype == np.float32
        assert len(dataset) == dataset.targets.shape[0] > 0

    def test_same_cache_exports_identical_bytes(self):
        assert _export_bytes(7) == _export_bytes(7)

    def test_fork_worker_exports_identical_bytes(self):
        """The property corpus collection across workers relies on."""
        context = multiprocessing.get_context("fork")
        with context.Pool(1) as pool:
            child = pool.apply(_export_bytes, (7,))
        assert child == _export_bytes(7)

    def test_dataset_npz_round_trip(self, trained, tmp_path):
        from repro.machine import CostDataset

        _model, _metrics, dataset = trained
        path = tmp_path / "ds.npz"
        dataset.save(path)
        loaded = CostDataset.load(path)
        assert np.array_equal(loaded.features, dataset.features)
        assert np.array_equal(loaded.targets, dataset.targets)
        assert loaded.feature_version == dataset.feature_version

    def test_corpus_cache_never_capacity_bound(self, corpus_cache):
        """Baseline entries are the *oldest* in a corpus cache; LRU
        eviction severs the exporter's baseline join (a full-size
        corpus once overflowed the 8192-entry service default and
        exported zero samples).  The corpus cache must have headroom,
        and every schedule-level entry must export."""
        assert corpus_cache.schedule_maxsize >= 1 << 20
        exported = len(export_dataset(corpus_cache))
        assert exported == len(corpus_cache.schedule_items())

    def test_empty_cache_exports_empty_dataset(self):
        dataset = export_dataset(ExecutionCache())
        assert len(dataset) == 0
        assert dataset.features.shape == (0, FEATURE_SIZE)


# ---------------------------------------------------------------------------
# Model training + persistence
# ---------------------------------------------------------------------------


class TestCostModel:
    def test_training_fits_corpus(self, trained):
        _model, metrics, _dataset = trained
        assert metrics["train_samples"] + metrics["holdout_samples"] == (
            metrics["samples"]
        )
        assert np.isfinite(metrics["final_loss"])
        assert metrics["train_mape"] < 2.0

    def test_save_load_identical_predictions(self, trained, tmp_path):
        model, _metrics, dataset = trained
        path = tmp_path / "model.npz"
        save_cost_model(model, path)
        loaded = load_cost_model(path)
        assert loaded.feature_version == model.feature_version
        original = model.predict_seconds(dataset.features)
        restored = loaded.predict_seconds(dataset.features)
        assert np.array_equal(original, restored)

    def test_version_check(self):
        stale = CostModel(feature_size=4, feature_version=FEATURE_VERSION + 1)
        with pytest.raises(ValueError, match="feature layout"):
            check_model_compatible(stale)
        with pytest.raises(ValueError, match="feature layout"):
            ScheduleCostEvaluator(stale, XEON_E5_2680_V4)
        with pytest.raises(ValueError, match="feature layout"):
            CostModelExecutor(stale)

    def test_predictions_are_finite_positive(self, trained):
        model, _metrics, dataset = trained
        predicted = model.predict_seconds(dataset.features)
        assert np.all(np.isfinite(predicted))
        assert np.all(predicted > 0)


# ---------------------------------------------------------------------------
# Model-guided search
# ---------------------------------------------------------------------------


class _SpyEvaluator:
    """Scores everything 1.0 and records the key batches it was given."""

    def __init__(self):
        self.key_batches = []

    def score_batch(self, candidates, keys=None):
        self.key_batches.append(
            list(keys) if keys is not None else [None] * len(candidates)
        )
        return [1.0] * len(candidates)


class _RecordingModel:
    """A stand-in cost model that records the batches it is given."""

    feature_version = FEATURE_VERSION

    def __init__(self):
        self.batches = []

    def predict_seconds(self, features):
        self.batches.append(np.array(features))
        return np.ones(len(features))


class TestEvaluatorFeatures:
    def test_batch_rows_equal_sample_features(self):
        """Every batch row the evaluator assembles from its memoized
        prefixes and block table equals the row ``sample_features``
        builds from scratch, also after the block table has grown."""
        model = _RecordingModel()
        evaluator = ScheduleCostEvaluator(model, XEON_E5_2680_V4)
        # Start from a one-row table so the search grows it.
        evaluator._block_table = evaluator._block_table[:1].copy()
        executor = Executor(XEON_E5_2680_V4)
        expected_batches = []
        score_batch = evaluator.score_batch

        def recording_score_batch(candidates, keys=None):
            # Rows are built now: the search goes on to edit the
            # schedules of some candidates it was given.
            expected_batches.append(
                [
                    sample_features(
                        XEON_E5_2680_V4,
                        func_fingerprint(scheduled.func),
                        keys[index]
                        if keys is not None and keys[index] is not None
                        else scheduled.schedule_key(),
                        executor.run_baseline(scheduled.func).seconds,
                    )
                    for index, scheduled in enumerate(candidates)
                ]
            )
            return score_batch(candidates, keys=keys)

        evaluator.score_batch = recording_score_batch
        BeamSearchAgent(beam_width=2, evaluator=evaluator).optimize(_chain())
        assert len(evaluator._block_rows) > 2
        assert len(model.batches) == len(expected_batches)
        for batch, expected in zip(model.batches, expected_batches):
            assert batch.shape == (len(expected), FEATURE_SIZE)
            assert np.array_equal(batch, np.stack(expected))

    def test_unkeyable_candidates_fall_back(self):
        model = _RecordingModel()
        evaluator = ScheduleCostEvaluator(model, XEON_E5_2680_V4)

        class Unkeyable:
            func = _mm()

            def schedule_key(self):
                return None

        from repro.transforms.pipeline import ScheduledFunction

        keyed = ScheduledFunction(_mm())
        scores = evaluator.score_batch([Unkeyable(), keyed, Unkeyable()])
        assert scores == [None, 1.0, None]
        assert evaluator.stats.fallbacks == 2
        assert [len(batch) for batch in model.batches] == [1]


class TestGuidedSearch:
    def test_beam_dedups_candidates_before_scoring(self):
        """Identical schedules reached via different action orders are
        scored once per expansion round."""
        spy = _SpyEvaluator()
        agent = BeamSearchAgent(beam_width=4, evaluator=spy)
        agent.optimize(_mm())
        expansion_batches = [
            batch for batch in spy.key_batches if len(batch) > 1
        ]
        assert expansion_batches, "beam search never expanded a round"
        for batch in expansion_batches:
            keyed = [key for key in batch if key is not None]
            assert len(keyed) == len(set(keyed))

    def test_cost_guided_greedy_end_to_end(self, trained):
        model, _metrics, _dataset = trained
        executor = CachingExecutor(XEON_E5_2680_V4, cache=ExecutionCache())
        evaluator = ScheduleCostEvaluator(
            model, XEON_E5_2680_V4, executor=executor
        )
        agent = GreedyAgent(executor=executor, evaluator=evaluator)
        func = _mm()
        baseline = MlirBaseline(executor=executor).seconds(func)
        result = agent.run(func)
        assert evaluator.stats.scored > 0
        assert agent.candidates_scored >= evaluator.stats.scored
        # Finalist selection real-evaluates the initial state too, so a
        # cost-guided search never returns a schedule the machine model
        # rates worse than leaving the function untouched.
        assert result.seconds <= baseline * 1.001
        assert result.schedule is not None

    def test_scoring_agrees_with_executor_predictions(self, trained):
        """The evaluator's batched path and CostModelExecutor's one-off
        path featurize identically."""
        model, _metrics, _dataset = trained
        func = _mm()
        from repro.transforms.pipeline import ScheduledFunction

        scheduled = ScheduledFunction(func)
        evaluator = ScheduleCostEvaluator(model, XEON_E5_2680_V4)
        executor = CostModelExecutor(model)
        score = evaluator.score_batch([scheduled])[0]
        predicted = executor.run_scheduled(scheduled).seconds
        assert score == pytest.approx(predicted, rel=1e-6)


# ---------------------------------------------------------------------------
# Environment integration
# ---------------------------------------------------------------------------


def _policy_action(env, observation, rng):
    mask = observation.mask
    legal = mask.legal_transformations()
    kind = legal[rng.integers(len(legal))]
    if kind in (
        TransformKind.TILING,
        TransformKind.TILED_PARALLELIZATION,
        TransformKind.TILED_FUSION,
    ):
        indices = tuple(
            int(rng.integers(env.config.num_tile_sizes))
            for _ in range(env.config.max_loops)
        )
        return EnvAction(kind, tile_indices=indices)
    if kind is TransformKind.INTERCHANGE:
        choices = np.flatnonzero(mask.interchange)
        return EnvAction(kind, pointer_loop=int(rng.choice(choices)))
    return EnvAction(kind)


class TestEnvCostModel:
    def test_set_cost_model_swaps_and_restores(self, trained):
        model, _metrics, _dataset = trained
        env = MlirRlEnv(config=small_config())
        real = env.executor
        env.set_cost_model(model)
        assert isinstance(env.executor, CostModelExecutor)
        assert env.executor.fallback is real
        env.set_cost_model(None)
        assert env.executor is real

    def test_rollout_uses_predictions(self, trained):
        model, _metrics, _dataset = trained
        env = MlirRlEnv(config=small_config())
        env.set_cost_model(model)
        rng = np.random.default_rng(5)
        observation = env.reset(_chain())
        done = False
        while not done:
            result = env.step(_policy_action(env, observation, rng))
            done = result.done
            observation = result.observation
        assert env.executor.predictions > 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_export_train_chain(self, tmp_path, capsys):
        data = tmp_path / "ds.npz"
        cache = tmp_path / "cache.json"
        model = tmp_path / "model.npz"
        assert (
            main(
                [
                    "cost-export",
                    "--programs",
                    "3",
                    "--schedules",
                    "1",
                    "--seed",
                    "2",
                    "--output",
                    str(data),
                    "--save-cache",
                    str(cache),
                ]
            )
            == 0
        )
        assert data.exists() and cache.exists()
        # Re-export from the saved cache: identical dataset, no re-timing.
        second = tmp_path / "ds2.npz"
        assert (
            main(
                [
                    "cost-export",
                    "--from-cache",
                    str(cache),
                    "--output",
                    str(second),
                ]
            )
            == 0
        )
        with np.load(data) as a, np.load(second) as b:
            assert np.array_equal(a["features"], b["features"])
            assert np.array_equal(a["targets"], b["targets"])
        assert (
            main(
                [
                    "cost-train",
                    "--data",
                    str(data),
                    "--output",
                    str(model),
                    "--epochs",
                    "3",
                ]
            )
            == 0
        )
        assert model.exists()
        out = capsys.readouterr().out
        assert "holdout MAPE" in out
        loaded = load_cost_model(model)
        check_model_compatible(loaded)

    def test_eval_cost_requires_model(self, capsys):
        assert main(["evaluate", "--eval", "cost"]) == 1
        assert "--cost-model" in capsys.readouterr().out

    def test_eval_cost_rejects_missing_model(self, tmp_path, capsys):
        missing = tmp_path / "nope.npz"
        assert (
            main(
                [
                    "evaluate",
                    "--eval",
                    "cost",
                    "--cost-model",
                    str(missing),
                ]
            )
            == 1
        )
        assert "cannot load cost model" in capsys.readouterr().out

    def test_cost_export_rejects_bad_cache(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert (
            main(
                [
                    "cost-export",
                    "--from-cache",
                    str(bad),
                    "--output",
                    str(tmp_path / "ds.npz"),
                ]
            )
            == 1
        )
        assert "cannot load cache" in capsys.readouterr().out
