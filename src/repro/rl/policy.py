"""The multi-discrete policy network (paper §V-A, Figs. 3–4).

Three components:

1. **producer-consumer embedding** — the representation vectors of the
   producer and the consumer are fed sequentially through an LSTM; the
   final hidden state is the embedding (§V-A1);
2. **backbone** — three 512-unit fully connected ReLU layers (§V-A2);
3. **action heads** (§V-A3) — sized from the transform registry view of
   the config: a softmax over the active transformations, plus one head
   per registered :class:`~repro.transforms.registry.HeadSpec` —
   row-softmax (N x M) heads for the per-level tile distributions,
   single categoricals for choice heads (interchange's ``3N - 6``
   enumerated candidates or ``N`` level pointers, a plugin's factor
   head, ...).  The default view reproduces the paper's five heads with
   identical shapes and initialization order, so seed checkpoints load
   unchanged; registering a transform grows the heads with zero edits
   here.

Each network has two forwards with the same numbers: ``__call__`` on
:class:`~repro.nn.tensor.Tensor` inputs builds the autograd graph PPO
re-evaluation trains through, and ``infer`` on plain (B, feature)
arrays is the graph-free path acting uses.
"""

from __future__ import annotations

import numpy as np

from ..env.config import EnvConfig
from ..env.features import feature_size
from ..nn.layers import LSTMEncoder, Linear, MLP, Module
from ..nn.tensor import Tensor
from ..transforms.registry import view_for


class PolicyNetwork(Module):
    """Actor: maps (producer, consumer) features to head logits."""

    def __init__(
        self,
        config: EnvConfig,
        rng: np.random.Generator,
        hidden_size: int = 512,
    ):
        self.config = config
        self.hidden_size = hidden_size
        self.input_size = feature_size(config)
        view = view_for(config)
        self.encoder = LSTMEncoder(self.input_size, hidden_size, rng)
        self.backbone = MLP(
            [hidden_size, hidden_size, hidden_size, hidden_size], rng
        )
        self.head_transformation = Linear(hidden_size, len(view), rng)
        #: one Linear per registered head, in view order (this is also
        #: the parameter/checkpoint order — the seed's five heads for
        #: the default view)
        self.param_heads: dict[str, Linear] = {}
        self._head_specs = {}
        for head in view.heads(config):
            rows = head.rows if head.rows else 1
            self.param_heads[head.name] = Linear(
                hidden_size, rows * head.cols, rng
            )
            self._head_specs[head.name] = head

    def embed(self, producer: Tensor, consumer: Tensor) -> Tensor:
        """Producer-consumer embedding -> backbone feature vector."""
        hidden = self.encoder([producer, consumer])
        return self.backbone(hidden)

    def __call__(
        self, producer: Tensor, consumer: Tensor
    ) -> dict[str, Tensor]:
        """All head logits for a batch.

        Inputs are (B, feature) tensors; per-level heads are reshaped to
        (B, rows, cols) so each loop level has its own distribution.
        """
        return self._heads(self.embed(producer, consumer), Linear.__call__)

    def infer(
        self, producer: np.ndarray, consumer: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Graph-free :meth:`__call__` on (B, feature) arrays."""
        features = self.backbone.infer(self.encoder.infer([producer, consumer]))
        return self._heads(features, Linear.infer)

    def _heads(self, features, apply) -> dict:
        """Head logits from backbone ``features`` via ``apply(layer, x)``."""
        batch = features.shape[0]
        out = {"transformation": apply(self.head_transformation, features)}
        for name, layer in self.param_heads.items():
            head = self._head_specs[name]
            logits = apply(layer, features)
            if head.rows:
                logits = logits.reshape(batch, head.rows, head.cols)
            out[name] = logits
        return out


class FlatPolicyNetwork(Module):
    """Ablation actor: one softmax over the flat action table (§VII-D)."""

    def __init__(
        self,
        config: EnvConfig,
        num_actions: int,
        rng: np.random.Generator,
        hidden_size: int = 512,
    ):
        self.config = config
        self.input_size = feature_size(config)
        self.encoder = LSTMEncoder(self.input_size, hidden_size, rng)
        self.backbone = MLP(
            [hidden_size, hidden_size, hidden_size, hidden_size], rng
        )
        self.head = Linear(hidden_size, num_actions, rng)

    def __call__(self, producer: Tensor, consumer: Tensor) -> Tensor:
        hidden = self.encoder([producer, consumer])
        return self.head(self.backbone(hidden))

    def infer(self, producer: np.ndarray, consumer: np.ndarray) -> np.ndarray:
        """Graph-free :meth:`__call__` on (B, feature) arrays."""
        hidden = self.encoder.infer([producer, consumer])
        return self.head.infer(self.backbone.infer(hidden))


class ValueNetwork(Module):
    """Critic (§V-B): same embedding + backbone shape, scalar output."""

    def __init__(
        self,
        config: EnvConfig,
        rng: np.random.Generator,
        hidden_size: int = 512,
    ):
        self.input_size = feature_size(config)
        self.encoder = LSTMEncoder(self.input_size, hidden_size, rng)
        self.backbone = MLP(
            [hidden_size, hidden_size, hidden_size, hidden_size], rng
        )
        self.head = Linear(hidden_size, 1, rng)

    def __call__(self, producer: Tensor, consumer: Tensor) -> Tensor:
        hidden = self.encoder([producer, consumer])
        return self.head(self.backbone(hidden)).reshape(-1)

    def infer(self, producer: np.ndarray, consumer: np.ndarray) -> np.ndarray:
        """Graph-free :meth:`__call__` on (B, feature) arrays."""
        hidden = self.encoder.infer([producer, consumer])
        return self.head.infer(self.backbone.infer(hidden)).reshape(-1)
