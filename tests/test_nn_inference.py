"""Graph-free inference, in-place Adam and graph release at backward.

Acting runs the networks' numpy ``infer`` forward; these tests pin it
bit-for-bit to the autograd forward, check that acting builds no
:class:`Tensor`, replay a seeded PPO run against an acting path built
from the autograd modules, and cover the optimizer and the autograd
graph lifetime.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.datasets import GeneratedDataset, training_sampler
from repro.env import MlirRlEnv, VecMlirRlEnv, small_config
from repro.env.features import feature_size
from repro.nn import Adam, CostModel, LSTMEncoder, MaskedCategorical, Tensor
from repro.nn.blas import _thread_setter, single_threaded_blas
from repro.rl import (
    ActorCritic,
    FlatActorCritic,
    PPOConfig,
    PPOTrainer,
    SampledStep,
    collect_episode,
    collect_episodes_batched,
)
from repro.rl.policy import FlatPolicyNetwork, PolicyNetwork, ValueNetwork
from repro.rl.rollout import collect_flat_episode

CONFIGS = [small_config(), small_config(machine_features=True)]


def _inputs(config, batch, zero_producer):
    """Feature rows; ``zero_producer`` blanks none, the first or all
    producer rows, as for an operation without a producer."""
    rng = np.random.default_rng(0)
    size = feature_size(config)
    producer, consumer = rng.normal(size=(2, batch, size))
    if zero_producer == "first":
        producer[0] = 0.0
    elif zero_producer == "all":
        producer[:] = 0.0
    return producer, consumer


def _network(kind, config, random_bias):
    rng = np.random.default_rng(1)
    if kind == "policy":
        net = PolicyNetwork(config, rng, hidden_size=16)
    elif kind == "value":
        net = ValueNetwork(config, rng, hidden_size=16)
    else:
        net = FlatPolicyNetwork(config, 11, rng, hidden_size=16)
    if random_bias:  # biases start at zero; training moves them
        for parameter in net.parameters():
            if parameter.ndim == 1:
                parameter.data = rng.normal(size=parameter.shape)
    return net


class TestInferMatchesAutograd:
    @pytest.mark.parametrize("kind", ["policy", "value", "flat"])
    @pytest.mark.parametrize("config", CONFIGS, ids=["small", "machine"])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("zero_producer", ["none", "first", "all"])
    @pytest.mark.parametrize("random_bias", [False, True])
    def test_bit_identical(
        self, kind, config, batch, zero_producer, random_bias
    ):
        net = _network(kind, config, random_bias)
        producer, consumer = _inputs(config, batch, zero_producer)
        graph = net(Tensor(producer), Tensor(consumer))
        plain = net.infer(producer, consumer)
        if kind != "policy":
            graph, plain = {"out": graph}, {"out": plain}
        assert set(plain) == set(graph)
        for name, logits in graph.items():
            assert plain[name].dtype == np.float64
            assert plain[name].shape == logits.shape
            assert plain[name].tobytes() == logits.data.tobytes()

    def test_infer_keeps_input_dtype(self):
        encoder = LSTMEncoder(5, 4, np.random.default_rng(0))
        steps = [np.ones((2, 5), dtype=np.float32)] * 2
        assert encoder.infer(steps).dtype == np.float32

    def test_encoder_needs_a_step(self):
        encoder = LSTMEncoder(5, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            encoder.infer([])


def _forbidden(self, *args, **kwargs):
    raise AssertionError("acting constructed a Tensor")


class TestActingBuildsNoTensor:
    @pytest.mark.parametrize("greedy", [True, False])
    def test_episode(self, monkeypatch, greedy):
        config = small_config()
        agent = ActorCritic(config, np.random.default_rng(0), hidden_size=16)
        env = MlirRlEnv(config=config)
        func = GeneratedDataset(seed=1).take(1)[0]
        monkeypatch.setattr(Tensor, "__init__", _forbidden)
        trajectory = collect_episode(
            env, agent, func, np.random.default_rng(0), greedy=greedy
        )
        assert len(trajectory) > 0

    def test_act_batch(self, monkeypatch):
        config = small_config()
        agent = ActorCritic(config, np.random.default_rng(0), hidden_size=16)
        funcs = GeneratedDataset(seed=2).take(3)
        rngs = [np.random.default_rng(i) for i in range(3)]
        vec_env = VecMlirRlEnv(3, config=config)
        monkeypatch.setattr(Tensor, "__init__", _forbidden)
        trajectories = collect_episodes_batched(vec_env, agent, funcs, rngs)
        assert all(len(t) > 0 for t in trajectories)

    def test_flat_act(self, monkeypatch):
        config = small_config()
        agent = FlatActorCritic(config, np.random.default_rng(0), hidden_size=16)
        env = MlirRlEnv(config=config)
        func = GeneratedDataset(seed=3).take(1)[0]
        monkeypatch.setattr(Tensor, "__init__", _forbidden)
        trajectory = collect_flat_episode(
            env, agent, func, np.random.default_rng(0)
        )
        assert len(trajectory) > 0


def _reference_act(agent, observation, rng, greedy=False):
    """Acting through the autograd modules and :class:`MaskedCategorical`."""
    producer = Tensor(observation.producer[None, :])
    consumer = Tensor(observation.consumer[None, :])
    heads = agent.policy(producer, consumer)
    value = float(agent.value(producer, consumer).data[0])
    mask = observation.mask

    def draw(dist):
        return dist.mode()[0] if greedy else dist.sample(rng)[0]

    trans_dist = MaskedCategorical(
        heads["transformation"], mask.transformation[None, :]
    )
    trans = int(draw(trans_dist))
    log_prob = float(trans_dist.log_prob(np.array([trans])).data[0])
    spec, kind = agent.view.item(trans)
    head = spec.head(agent.config)
    tiles, choice, head_name, param_mask = None, -1, "", None
    if head is not None:
        head_name = head.name
        param_mask = mask.params[head.mask_key]
        dist = MaskedCategorical(heads[head.name], param_mask[None])
        if head.rows:
            tiles = draw(dist).astype(np.int64)
            log_prob += float(dist.log_prob(tiles[None, :]).sum().data)
        else:
            choice = int(draw(dist))
            log_prob += float(dist.log_prob(np.array([choice])).data[0])
    action = spec.to_env_action(
        kind, agent.config, tile_indices=tiles, choice=choice
    )
    step = SampledStep(
        consumer=observation.consumer,
        producer=observation.producer,
        transformation=trans,
        tile_indices=tiles,
        choice_index=choice,
        head_name=head_name,
        mask_transformation=mask.transformation.copy(),
        mask_param=param_mask.copy() if param_mask is not None else None,
        log_prob=log_prob,
        value=value,
    )
    return action, step


def _trainer(reference: bool) -> PPOTrainer:
    config = small_config()
    agent = ActorCritic(config, np.random.default_rng(0), hidden_size=16)
    if reference:
        agent.act = lambda obs, rng, greedy=False: _reference_act(  # type: ignore[method-assign]
            agent, obs, rng, greedy
        )
    return PPOTrainer(
        MlirRlEnv(config=config),
        agent,
        training_sampler(scale=0.01, seed=0),
        PPOConfig(samples_per_iteration=4, minibatch_size=8),
        seed=0,
    )


def _step_record(step: SampledStep) -> tuple:
    tiles = () if step.tile_indices is None else tuple(step.tile_indices)
    return (
        step.transformation,
        tiles,
        step.choice_index,
        step.head_name,
        step.log_prob,
        step.value,
    )


def test_ppo_run_matches_autograd_acting_step_for_step():
    plain, reference = _trainer(False), _trainer(True)
    for _ in range(3):
        ours, theirs = plain.collect(), reference.collect()
        assert [len(t) for t in ours] == [len(t) for t in theirs]
        for mine, ref in zip(ours, theirs):
            assert [_step_record(s) for s in mine.steps] == [
                _step_record(s) for s in ref.steps
            ]
            assert mine.rewards == ref.rewards
            assert mine.speedup == ref.speedup
        assert plain.update(ours) == reference.update(theirs)
    for mine, ref in zip(
        plain.optimizer.parameters, reference.optimizer.parameters
    ):
        np.testing.assert_array_equal(mine.data, ref.data)


def test_adam_matches_textbook_bit_for_bit():
    rng = np.random.default_rng(0)
    shapes = [(7, 5), (5,), (3, 4, 2)]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    lr, beta1, beta2, eps = 1e-2, 0.9, 0.999, 1e-8
    optimizer = Adam(params, lr=lr, betas=(beta1, beta2), eps=eps)
    expected = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    for t in range(1, 6):
        grads = [rng.normal(size=s) for s in shapes]
        grads[1] = None if t == 3 else grads[1]  # skipped parameter
        snapshots = [None if g is None else g.copy() for g in grads]
        for param, grad in zip(params, grads):
            param.grad = grad
        optimizer.step()
        for index, grad in enumerate(grads):
            assert params[index].grad is grad
            if grad is None:
                continue
            np.testing.assert_array_equal(grad, snapshots[index])
            m[index] = beta1 * m[index] + (1.0 - beta1) * grad
            v[index] = beta2 * v[index] + (1.0 - beta2) * grad**2
            m_hat = m[index] / (1.0 - beta1**t)
            v_hat = v[index] / (1.0 - beta2**t)
            expected[index] = expected[index] - (lr * m_hat) / (
                np.sqrt(v_hat) + eps
            )
            np.testing.assert_array_equal(params[index].data, expected[index])


class TestGraphRelease:
    def _graph(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        hidden = (x @ w).tanh()
        return x, hidden, (hidden * hidden).sum()

    def test_intermediate_dies_with_loss_after_backward(self):
        gc.disable()
        try:
            _, hidden, loss = self._graph()
            ref = weakref.ref(hidden)
            del hidden
            loss.backward()
            del loss
            assert ref() is None
        finally:
            gc.enable()

    def test_second_backward_raises(self):
        x, _, loss = self._graph()
        loss.backward()
        grad = x.grad.copy()
        with pytest.raises(RuntimeError):
            loss.backward()
        np.testing.assert_array_equal(x.grad, grad)

    def test_backward_through_released_interior_raises(self):
        x, hidden, loss = self._graph()
        loss.backward()
        grad = x.grad.copy()
        with pytest.raises(RuntimeError):
            (hidden * 3.0).sum().backward()
        np.testing.assert_array_equal(x.grad, grad)

    def test_leaf_gradient_is_not_aliased(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        (x + y).sum().backward()
        x.grad += 1.0
        np.testing.assert_array_equal(y.grad, np.ones(3))


def test_cost_model_predictions_unchanged():
    """Predictions recorded from the per-layer float32 loop that
    ``predict_log`` ran before it moved onto ``MLP.infer``."""
    model = CostModel(feature_size=6, hidden=8, seed=3)
    model.x_mean = np.linspace(-1, 1, 6)
    model.x_std = np.linspace(0.5, 2, 6)
    model.y_mean, model.y_std = 0.3, 1.7
    for layer in model.mlp.layers:
        layer.bias.data = np.linspace(-0.5, 0.5, layer.out_features)
    features = np.random.default_rng(0).normal(size=(4, 6))
    recorded = np.array(
        [
            float.fromhex("0x1.773d3c0000000p+0"),
            float.fromhex("0x1.ed6ea40000000p+0"),
            float.fromhex("-0x1.99450c0000000p+1"),
            float.fromhex("0x1.044d2c0000000p+0"),
        ],
        dtype=np.float32,
    )
    predicted = model.predict_log(features)
    assert predicted.dtype == np.float32
    np.testing.assert_array_equal(predicted, recorded)


def test_single_threaded_blas_restores_thread_count():
    """The block runs on one BLAS thread and the caller's own count
    comes back afterwards; without OpenBLAS the block just runs."""
    setter = _thread_setter()
    data = np.random.default_rng(0).normal(size=(96, 754))
    weight = np.random.default_rng(1).normal(size=(754, 64))
    with single_threaded_blas():
        inside = None if setter is None else setter(1)
        product = data @ weight
    np.testing.assert_allclose(product, data @ weight, rtol=0, atol=1e-10)
    if setter is not None:
        assert inside == 1
        outside = setter(1)
        setter(outside)
        assert outside == setter(outside)
