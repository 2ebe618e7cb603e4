"""A learned cost model over the machine/dataset feature layout.

A small MLP regressing **log-runtime** from the structural feature rows
produced by :mod:`repro.machine.dataset`.  Inputs and targets are
z-normalized with statistics frozen at training time (stored on the
model, saved with it), so prediction is a pure-numpy forward pass —
``predict_seconds`` on a stacked batch is what model-guided search calls
per beam expansion.

Training is the plain supervised loop over cache-exported datasets:
Adam on MSE in normalized log space with gradient clipping and a
held-out split, reporting MAPE on *seconds* (the metric
``paper/results/cost_model.json`` tracks).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .blas import single_threaded_blas
from .layers import MLP, Module
from .optim import Adam, clip_grad_norm
from .tensor import Tensor


class CostModel(Module):
    """MLP log-runtime regressor with frozen normalization statistics."""

    def __init__(
        self,
        feature_size: int,
        hidden: int = 64,
        seed: int = 0,
        feature_version: int = 0,
    ):
        rng = np.random.default_rng(seed)
        self.feature_size = feature_size
        self.hidden = hidden
        self.feature_version = feature_version
        self.mlp = MLP(
            [feature_size, hidden, hidden, 1], rng, final_activation=False
        )
        # Normalization buffers (not parameters: no grad, saved separately).
        self.x_mean = np.zeros(feature_size, dtype=np.float64)
        self.x_std = np.ones(feature_size, dtype=np.float64)
        self.y_mean = 0.0
        self.y_std = 1.0

    def fit_normalization(self, features: np.ndarray, targets: np.ndarray) -> None:
        self.x_mean = features.mean(axis=0).astype(np.float64)
        # Features are ~unit-scaled; a generous std floor keeps
        # near-constant columns from being amplified into huge inputs.
        self.x_std = np.maximum(features.std(axis=0).astype(np.float64), 1e-2)
        self.y_mean = float(targets.mean())
        self.y_std = max(float(targets.std()), 1e-6)

    def _normalize(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.x_mean) / self.x_std

    def forward(self, features: np.ndarray) -> Tensor:
        """Differentiable forward on raw features → normalized log-time."""
        return self.mlp(Tensor(self._normalize(features)))

    def predict_log(self, features: np.ndarray) -> np.ndarray:
        """Pure-numpy forward: raw features → predicted log(seconds).

        Runs in float32 (inputs come from the float32 feature pipeline;
        prediction throughput is the point of the model) and on one
        BLAS thread (see :mod:`repro.nn.blas`) — training stays float64
        through the autograd path.
        """
        x = np.asarray(features, dtype=np.float32) - self.x_mean.astype(
            np.float32
        )
        x /= self.x_std.astype(np.float32)
        with single_threaded_blas():
            log_seconds = self.mlp.infer(x)
        return log_seconds[:, 0] * self.y_std + self.y_mean

    def predict_seconds(self, features: np.ndarray) -> np.ndarray:
        # Clip before exp: an extrapolating early-training model must
        # not overflow to inf (ranking only needs relative order).
        return np.exp(np.clip(self.predict_log(features), -80.0, 40.0))


def train_cost_model(
    dataset,
    seed: int = 0,
    hidden: int = 64,
    epochs: int = 60,
    lr: float = 1e-3,
    batch_size: int = 64,
    holdout: float = 0.2,
    max_grad_norm: float = 5.0,
) -> tuple[CostModel, dict]:
    """Fit a :class:`CostModel` on a
    :class:`~repro.machine.dataset.CostDataset`; returns (model, metrics).

    Deterministic in ``seed`` (init, split, and shuffles all derive from
    one generator).  ``metrics`` reports train/holdout MAPE on seconds
    and the final normalized-MSE loss.
    """
    features = np.asarray(dataset.features, dtype=np.float64)
    targets = np.asarray(dataset.targets, dtype=np.float64)
    count = features.shape[0]
    if count < 4:
        raise ValueError(f"dataset too small to train on ({count} samples)")
    model = CostModel(
        feature_size=features.shape[1],
        hidden=hidden,
        seed=seed,
        feature_version=int(getattr(dataset, "feature_version", 0)),
    )
    rng = np.random.default_rng(seed)
    order = rng.permutation(count)
    num_holdout = max(1, int(count * holdout)) if holdout > 0 else 0
    eval_idx = order[:num_holdout]
    train_idx = order[num_holdout:]
    if train_idx.size == 0:
        train_idx, eval_idx = eval_idx, train_idx
    model.fit_normalization(features[train_idx], targets[train_idx])
    target_norm = (targets - model.y_mean) / model.y_std

    optimizer = Adam(model.parameters(), lr=lr)
    last_loss = math.nan
    for _ in range(epochs):
        epoch_order = train_idx[rng.permutation(train_idx.size)]
        for start in range(0, epoch_order.size, batch_size):
            batch = epoch_order[start : start + batch_size]
            prediction = model.forward(features[batch])
            error = prediction - Tensor(target_norm[batch][:, None])
            loss = (error * error).mean()
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(model.parameters(), max_grad_norm)
            optimizer.step()
            last_loss = float(loss.data)

    def mape(indices: np.ndarray) -> float:
        if indices.size == 0:
            return math.nan
        predicted = model.predict_seconds(features[indices])
        actual = np.exp(targets[indices])
        return float(np.mean(np.abs(predicted - actual) / actual))

    metrics = {
        "samples": int(count),
        "train_samples": int(train_idx.size),
        "holdout_samples": int(eval_idx.size),
        "final_loss": last_loss,
        "train_mape": mape(train_idx),
        "holdout_mape": mape(eval_idx),
    }
    return model, metrics


def save_cost_model(model: CostModel, path: str | Path) -> None:
    """Persist a model (parameters + normalization + layout) to ``.npz``."""
    arrays = {
        f"param_{index}": array
        for index, array in enumerate(model.state_dict())
    }
    arrays["x_mean"] = model.x_mean
    arrays["x_std"] = model.x_std
    arrays["scalars"] = np.asarray(
        [
            model.feature_size,
            model.hidden,
            model.feature_version,
            model.y_mean,
            model.y_std,
        ],
        dtype=np.float64,
    )
    np.savez(path, **arrays)


def load_cost_model(path: str | Path) -> CostModel:
    """Inverse of :func:`save_cost_model` — predictions are identical."""
    with np.load(path) as data:
        scalars = data["scalars"]
        model = CostModel(
            feature_size=int(scalars[0]),
            hidden=int(scalars[1]),
            feature_version=int(scalars[2]),
        )
        model.y_mean = float(scalars[3])
        model.y_std = float(scalars[4])
        model.x_mean = data["x_mean"]
        model.x_std = data["x_std"]
        count = sum(1 for name in data.files if name.startswith("param_"))
        model.load_state_dict(
            [data[f"param_{index}"] for index in range(count)]
        )
    return model
