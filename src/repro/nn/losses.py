"""Loss functions used by the ATNN framework.

The paper defines three CTR-side losses and two regression losses:

* ``L_i`` — binary cross-entropy of the encoder-path CTR prediction,
* ``L_g`` — binary cross-entropy of the generator-path CTR prediction,
* ``L_s`` — the adversarial similarity loss ``mean((1 - s)^2)`` where ``s``
  is the similarity between generated and encoded item vectors,
* squared-error losses for the multi-task VpPV / GMV heads (Section V).

All functions take and return :class:`~repro.nn.tensor.Tensor` so they can
sit inside the autograd graph.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = [
    "binary_cross_entropy",
    "binary_cross_entropy_with_logits",
    "mean_squared_error",
    "mean_absolute_error",
    "cosine_similarity",
    "similarity_loss",
    "log_softmax",
    "in_batch_softmax_loss",
]

_EPS = 1e-12
# float32 cannot represent 1 - 1e-12 (it rounds to 1.0, sending log(1-p) to
# -inf), so the probability clip must be wider in single precision.
_EPS_F32 = 1e-7


def _clip_eps(dtype: np.dtype) -> float:
    return _EPS_F32 if np.dtype(dtype) == np.float32 else _EPS


def binary_cross_entropy(predictions: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of probabilities against {0,1} targets.

    Implements the paper's ``L_i`` / ``L_g``::

        L = -(1/N) * sum(y * log(p) + (1 - y) * log(1 - p))
    """
    targets = np.asarray(targets, dtype=predictions.data.dtype).reshape(
        predictions.shape
    )
    eps = _clip_eps(predictions.data.dtype)
    clipped = predictions.clip(eps, 1.0 - eps)
    y = Tensor(targets, dtype=targets.dtype)
    loss = -(y * clipped.log() + (1.0 - y) * (1.0 - clipped).log())
    return loss.mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Numerically stable BCE taking raw logits.

    Uses ``max(z, 0) - z*y + log(1 + exp(-|z|))`` which avoids overflow for
    large-magnitude logits.  Runs as a single fused tape node
    (``Tensor._fused_bce_logits``): the forward applies the identical
    elementwise sequence the previous composed chain did, so loss values
    are unchanged, and the backward is the closed-form ``sigmoid(z) - y``
    in one pass instead of nine node closures.
    """
    targets = np.asarray(targets, dtype=logits.data.dtype).reshape(logits.shape)
    return Tensor._fused_bce_logits(logits, targets)


def mean_squared_error(predictions: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error — the multi-task GMV / VpPV training loss."""
    targets = np.asarray(targets, dtype=predictions.data.dtype).reshape(
        predictions.shape
    )
    diff = predictions - targets
    return (diff * diff).mean()


def mean_absolute_error(predictions: Tensor, targets: np.ndarray) -> Tensor:
    """Mean absolute error (the paper's offline evaluation metric)."""
    targets = np.asarray(targets, dtype=predictions.data.dtype).reshape(
        predictions.shape
    )
    return (predictions - targets).abs().mean()


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``.

    Uses the max-shift trick; the shift is detached (its gradient is a
    constant offset that cancels in the softmax).
    """
    shifted = logits - logits.data.max(axis=axis, keepdims=True)
    log_normaliser = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_normaliser


def in_batch_softmax_loss(
    user_vectors: Tensor,
    item_vectors: Tensor,
    temperature: float = 1.0,
    log_sampling_prob: "np.ndarray" = None,
) -> Tensor:
    """Sampled-softmax retrieval loss with in-batch negatives.

    Standard two-tower retrieval training (Yi et al., RecSys 2019 — the
    paper's reference [15]): within a batch of matched (user, item) pairs,
    every other item serves as a negative; the loss is the cross-entropy
    of picking the matched item under a softmax over scaled dot products.

    Parameters
    ----------
    user_vectors / item_vectors:
        Row-aligned ``(batch, dim)`` tensors of positive pairs.
    temperature:
        Softmax temperature (smaller = sharper).
    log_sampling_prob:
        Optional per-row log sampling probability of each batch item.
        When given, it is subtracted from that item's column of logits —
        the sampling-bias correction of Yi et al.: popular items appear
        as in-batch negatives more often, which otherwise unfairly
        suppresses their scores.
    """
    if user_vectors.shape != item_vectors.shape:
        raise ValueError(
            f"user and item vectors must match, got "
            f"{user_vectors.shape} vs {item_vectors.shape}"
        )
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    scores = (user_vectors @ item_vectors.T) * (1.0 / temperature)
    if log_sampling_prob is not None:
        correction = np.asarray(log_sampling_prob, dtype=user_vectors.data.dtype)
        if correction.shape != (user_vectors.shape[0],):
            raise ValueError(
                f"log_sampling_prob must have shape ({user_vectors.shape[0]},), "
                f"got {correction.shape}"
            )
        scores = scores - correction[None, :]
    log_probabilities = log_softmax(scores, axis=-1)
    batch_size = user_vectors.shape[0]
    diagonal = log_probabilities[np.arange(batch_size), np.arange(batch_size)]
    return -diagonal.mean()


def cosine_similarity(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """Row-wise cosine similarity of two ``(batch, dim)`` tensors."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    dot = (a * b).sum(axis=-1)
    norm_a = ((a * a).sum(axis=-1) + eps).sqrt()
    norm_b = ((b * b).sum(axis=-1) + eps).sqrt()
    return dot / (norm_a * norm_b)


def similarity_loss(generated: Tensor, encoded: Tensor) -> Tensor:
    """The paper's ``L_s = mean((1 - s)^2)`` adversarial similarity loss.

    ``s`` is the cosine similarity between the generator's item vector and
    the item encoder's item vector.  Minimising ``L_s`` pulls the generated
    vector toward the encoder's vector; the encoder path (trained on the CTR
    objective) plays the discriminating role of keeping the target vectors
    informative.

    The encoder output is treated as the *target*: gradients do not flow
    into the encoder through this loss (mirroring the alternating
    optimisation of Algorithm 1, where the ``L_g + λ·L_s`` step updates the
    generator while the encoder was updated in the preceding ``L_i`` step).
    """
    similarity = cosine_similarity(generated, encoded.detach())
    deviation = 1.0 - similarity
    return (deviation * deviation).mean()
