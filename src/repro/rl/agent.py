"""Actor-critic agent: sampling and differentiable re-evaluation.

The agent samples the transformation head first, then the parameter
head of the chosen transformation (paper §V-A): per-level rows for
tile-style heads, one categorical for choice heads (enumerated
interchange candidates, level pointers, plugin factors).  Which head a
transformation samples — and how the result becomes an
:class:`~repro.env.actions.EnvAction` — comes from the transform
registry, so the agent contains no per-transform code.  The per-step
log-probability is the sum over the heads actually sampled; PPO's
importance ratios recompute the same sum differentiably.

Acting is graph-free: it runs the networks' numpy ``infer`` forward and
the sampling helpers of :mod:`repro.nn.distributions` and constructs no
:class:`~repro.nn.tensor.Tensor`.  Only :meth:`ActorCritic.evaluate`
builds autograd graphs.  Both paths compute in float64 with the same
operations, so the log-probs and values recorded while acting equal,
bit for bit, what re-evaluation computes for the old policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..env.actions import EnvAction, flat_action_table
from ..env.config import EnvConfig
from ..env.environment import Observation
from ..env.masking import ActionMask
from ..nn.distributions import (
    MaskedCategorical,
    categorical_mode,
    categorical_sample,
    masked_log_softmax,
)
from ..nn.tensor import Tensor
from ..transforms.registry import view_for
from .policy import FlatPolicyNetwork, PolicyNetwork, ValueNetwork


def _batch(features: "Sequence[np.ndarray]") -> np.ndarray:
    """Stack per-row feature vectors into one float64 (B, feature) array."""
    return np.array(features, dtype=np.float64)


def _pick(
    log_probs: np.ndarray, rng: np.random.Generator, greedy: bool
) -> np.ndarray:
    if greedy:
        return categorical_mode(log_probs)
    return categorical_sample(log_probs, rng)


@dataclass
class SampledStep:
    """Everything PPO needs to replay one decision.

    ``head_name`` is the parameter head sampled for this step ("" when
    the chosen transformation has none); ``tile_indices`` holds the
    per-level samples of a row-style head, ``choice_index`` the sample
    of a choice-style head (-1 when unused), ``mask_param`` the
    sub-action mask the sample was drawn under.
    """

    consumer: np.ndarray
    producer: np.ndarray
    transformation: int
    tile_indices: np.ndarray | None
    choice_index: int
    head_name: str
    mask_transformation: np.ndarray
    mask_param: np.ndarray | None
    log_prob: float
    value: float

    @property
    def interchange_index(self) -> int:
        """Seed-compat alias for the choice-head sample."""
        return self.choice_index


class ActorCritic:
    """Multi-discrete actor + critic over the MLIR RL environment."""

    def __init__(
        self,
        config: EnvConfig,
        rng: np.random.Generator,
        hidden_size: int = 512,
    ):
        self.config = config
        self.view = view_for(config)
        self.policy = PolicyNetwork(config, rng, hidden_size)
        self.value = ValueNetwork(config, rng, hidden_size)

    # -- acting -----------------------------------------------------------------

    def act(
        self, observation: Observation, rng: np.random.Generator,
        greedy: bool = False,
    ) -> tuple[EnvAction, SampledStep]:
        return self.act_batch([observation], [rng], greedy)[0]

    def act_batch(
        self,
        observations: "Sequence[Observation]",
        rngs: "Sequence[np.random.Generator]",
        greedy: bool = False,
    ) -> list[tuple[EnvAction, SampledStep]]:
        """Act on a batch of observations with ONE network forward pass.

        Each row samples from its own generator (``rngs[i]``), consuming
        it exactly as a single-observation :meth:`act` call would — so a
        vectorized rollout with per-env generators reproduces N
        sequential single-env rollouts.
        """
        if len(observations) != len(rngs):
            raise ValueError("need one rng per observation")
        if not observations:
            return []
        producer = _batch([o.producer for o in observations])
        consumer = _batch([o.consumer for o in observations])
        heads = self.policy.infer(producer, consumer)
        values = self.value.infer(producer, consumer)
        return [
            self._sample_row(
                {name: data[index] for name, data in heads.items()},
                float(values[index]),
                observation,
                rng,
                greedy,
            )
            for index, (observation, rng) in enumerate(zip(observations, rngs))
        ]

    def _sample_row(
        self,
        heads: dict[str, np.ndarray],
        value: float,
        observation: Observation,
        rng: np.random.Generator,
        greedy: bool,
    ) -> tuple[EnvAction, SampledStep]:
        """Sample one decision from per-row head logits (no batch axis)."""
        mask = observation.mask

        trans_log_probs = masked_log_softmax(
            heads["transformation"], mask.transformation
        )
        trans = int(_pick(trans_log_probs, rng, greedy))
        log_prob = float(trans_log_probs[trans])
        spec, kind = self.view.item(trans)
        head = spec.head(self.config)

        tile_indices: np.ndarray | None = None
        choice = -1
        head_name = ""
        param_mask: np.ndarray | None = None
        if head is not None:
            head_name = head.name
            param_mask = mask.params[head.mask_key]
            log_probs = masked_log_softmax(heads[head.name], param_mask)
            if head.rows:
                tile_indices = _pick(log_probs, rng, greedy).astype(np.int64)
                log_prob += float(
                    log_probs[np.arange(head.rows), tile_indices].sum()
                )
            else:
                choice = int(_pick(log_probs, rng, greedy))
                log_prob += float(log_probs[choice])

        action = spec.to_env_action(
            kind, self.config, tile_indices=tile_indices, choice=choice
        )
        step = SampledStep(
            consumer=observation.consumer,
            producer=observation.producer,
            transformation=trans,
            tile_indices=tile_indices,
            choice_index=choice,
            head_name=head_name,
            mask_transformation=mask.transformation.copy(),
            mask_param=param_mask.copy() if param_mask is not None else None,
            log_prob=log_prob,
            value=value,
        )
        return action, step

    # -- PPO re-evaluation ---------------------------------------------------------

    def evaluate(
        self, steps: list[SampledStep]
    ) -> tuple[Tensor, Tensor, Tensor]:
        """(log_probs, entropies, values) for a minibatch, differentiable.

        For each registered head, rows that sampled it contribute their
        re-evaluated log-prob/entropy; the other rows enter the batched
        distribution under a trivial single-option mask and are zeroed
        by the indicator, leaving values and gradients untouched.
        """
        producer = Tensor(_batch([s.producer for s in steps]))
        consumer = Tensor(_batch([s.consumer for s in steps]))
        heads = self.policy(producer, consumer)
        values = self.value(producer, consumer)

        trans_actions = np.array([s.transformation for s in steps])
        trans_mask = np.stack([s.mask_transformation for s in steps])
        trans_dist = MaskedCategorical(heads["transformation"], trans_mask)
        log_probs = trans_dist.log_prob(trans_actions)
        entropies = trans_dist.entropy()

        for index, spec in enumerate(self.view.specs):
            head = spec.head(self.config)
            if head is None:
                continue
            used = np.array(
                [
                    1.0
                    if s.transformation == index and s.head_name == head.name
                    else 0.0
                    for s in steps
                ]
            )
            if not used.any():
                continue
            if head.rows:
                trivial = np.zeros((head.rows, head.cols), dtype=bool)
                trivial[:, 0] = True
                masks = np.stack(
                    [
                        s.mask_param if u else trivial
                        for s, u in zip(steps, used)
                    ]
                )
                actions = np.stack(
                    [
                        s.tile_indices
                        if u
                        else np.zeros(head.rows, dtype=np.int64)
                        for s, u in zip(steps, used)
                    ]
                )
                dist = MaskedCategorical(heads[head.name], masks)
                per_level = dist.log_prob(actions)      # (B, rows)
                indicator = Tensor(used)
                log_probs = log_probs + per_level.sum(axis=1) * indicator
                entropies = entropies + dist.entropy().sum(
                    axis=1
                ) * indicator
            else:
                trivial = np.zeros(head.cols, dtype=bool)
                trivial[0] = True
                masks = np.stack(
                    [
                        s.mask_param if u else trivial
                        for s, u in zip(steps, used)
                    ]
                )
                actions = np.array(
                    [
                        s.choice_index if u else 0
                        for s, u in zip(steps, used)
                    ]
                )
                dist = MaskedCategorical(heads[head.name], masks)
                indicator = Tensor(used)
                log_probs = log_probs + dist.log_prob(actions) * indicator
                entropies = entropies + dist.entropy() * indicator

        return log_probs, entropies, values


class FlatActorCritic:
    """Ablation agent over the flat action space (§VII-D2)."""

    def __init__(
        self,
        config: EnvConfig,
        rng: np.random.Generator,
        hidden_size: int = 512,
    ):
        self.config = config
        self.view = view_for(config)
        self.table = flat_action_table(config)
        self.policy = FlatPolicyNetwork(config, len(self.table), rng, hidden_size)
        self.value = ValueNetwork(config, rng, hidden_size)
        #: flat-mask fallback: the stop spec's (single) entry
        stop_indices = [
            i
            for i, flat in enumerate(self.table)
            if self.view.spec_at(int(flat.kind)).is_stop
        ]
        self._fallback = stop_indices[-1] if stop_indices else len(self.table) - 1

    def flat_mask(self, mask: ActionMask, num_loops: int) -> np.ndarray:
        """Legality of each flat table entry under the current masks."""
        legal = np.zeros(len(self.table), dtype=bool)
        for index, flat in enumerate(self.table):
            kind = int(flat.kind)
            if not mask.transformation[kind]:
                continue
            spec = self.view.spec_at(kind)
            legal[index] = spec.flat_legal(
                flat, mask, num_loops, self.config
            )
        if not legal.any():
            legal[self._fallback] = True  # no-transformation fallback
        return legal

    def act(
        self,
        observation: Observation,
        num_loops: int,
        rng: np.random.Generator,
    ) -> tuple["FlatSampledStep", int]:
        producer = _batch([observation.producer])
        consumer = _batch([observation.consumer])
        logits = self.policy.infer(producer, consumer)[0]
        value = float(self.value.infer(producer, consumer)[0])
        legal = self.flat_mask(observation.mask, num_loops)
        log_probs = masked_log_softmax(logits, legal)
        choice = int(categorical_sample(log_probs, rng))
        log_prob = float(log_probs[choice])
        step = FlatSampledStep(
            consumer=observation.consumer,
            producer=observation.producer,
            action=choice,
            mask=legal,
            log_prob=log_prob,
            value=value,
        )
        return step, choice

    def evaluate(
        self, steps: list["FlatSampledStep"]
    ) -> tuple[Tensor, Tensor, Tensor]:
        producer = Tensor(_batch([s.producer for s in steps]))
        consumer = Tensor(_batch([s.consumer for s in steps]))
        logits = self.policy(producer, consumer)
        values = self.value(producer, consumer)
        masks = np.stack([s.mask for s in steps])
        dist = MaskedCategorical(logits, masks)
        actions = np.array([s.action for s in steps])
        return dist.log_prob(actions), dist.entropy(), values


@dataclass
class FlatSampledStep:
    """Replay record for the flat agent."""

    consumer: np.ndarray
    producer: np.ndarray
    action: int
    mask: np.ndarray
    log_prob: float
    value: float
