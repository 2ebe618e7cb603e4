"""Masked categorical distributions.

The policy's heads are categorical distributions over transformation
options, tile-size candidates, interchange candidates or level pointers.
Action masks (paper §IV-A2) zero out illegal choices: masked logits are
driven to -inf before the softmax, so probability mass renormalizes over
the legal subset and log-probs/entropy are computed on the masked
distribution.

The module-level helpers are the one sampling implementation: acting
calls them on plain arrays, and :class:`MaskedCategorical` delegates
its ``mode``/``sample`` to them.  :func:`masked_log_softmax` repeats the
autograd log-softmax's operations, so both give the same bits.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, log_softmax

_MASK_VALUE = -1.0e9


def _mask_penalty(mask: np.ndarray) -> np.ndarray:
    """Additive logit penalty: 0 where legal, ~-1e9 where not."""
    if not mask.any(axis=-1).all():
        raise ValueError("mask leaves a row with no legal action")
    return np.where(mask, 0.0, _MASK_VALUE)


def masked_log_softmax(
    logits: np.ndarray, mask: np.ndarray | None = None
) -> np.ndarray:
    """Log-probabilities over the last axis, illegal entries at ~-1e9.

    Raises ``ValueError`` when a row has no legal choice.
    """
    if mask is not None:
        if mask.shape != logits.shape:
            mask = np.broadcast_to(mask, logits.shape)
        logits = logits + _mask_penalty(mask)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return np.subtract(shifted, log_norm, out=shifted)


def categorical_mode(log_probs: np.ndarray) -> np.ndarray:
    """Most likely index per distribution; shape = log_probs.shape[:-1]."""
    return log_probs.argmax(axis=-1)


def categorical_sample(
    log_probs: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One index per distribution, drawn row by row from ``rng``."""
    probs = np.exp(log_probs)
    flat = probs.reshape(-1, probs.shape[-1])
    choices = np.array(
        [rng.choice(flat.shape[-1], p=row / row.sum()) for row in flat]
    )
    return choices.reshape(probs.shape[:-1])


class MaskedCategorical:
    """A categorical distribution over the last axis with a legality mask.

    ``logits``: Tensor of shape (..., K).  ``mask``: boolean ndarray of
    the same shape (or broadcastable); True marks legal choices.  A row
    with no legal choice raises ``ValueError``.
    """

    def __init__(self, logits: Tensor, mask: np.ndarray | None = None):
        if mask is not None:
            mask = np.broadcast_to(mask, logits.shape)
            logits = logits + Tensor(_mask_penalty(mask))
        self.logits = logits
        self.mask = mask
        self.log_probs = log_softmax(logits, axis=-1)

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs.data)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Sample indices; shape = logits.shape[:-1]."""
        return categorical_sample(self.log_probs.data, rng)

    def mode(self) -> np.ndarray:
        return categorical_mode(self.log_probs.data)

    def log_prob(self, actions: np.ndarray) -> Tensor:
        """Log-probability of the given indices (differentiable)."""
        actions = np.asarray(actions)
        flat_lp = self.log_probs.reshape(-1, self.logits.shape[-1])
        rows = np.arange(flat_lp.shape[0])
        picked = flat_lp[rows, actions.reshape(-1)]
        return picked.reshape(actions.shape)

    def entropy(self) -> Tensor:
        """Shannon entropy per distribution (differentiable).

        Masked entries contribute 0 (p log p -> 0 in the limit; the huge
        negative logit makes p exactly 0 up to float rounding).
        """
        probs = self.log_probs.exp()
        plogp = probs * self.log_probs
        return -plogp.sum(axis=-1)
