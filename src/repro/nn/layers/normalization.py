"""Normalisation layers."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor

__all__ = ["LayerNorm", "BatchNorm1d"]


class LayerNorm(Module):
    """Layer normalisation over the last dimension.

    ``y = gain * (x - mean) / sqrt(var + eps) + bias``
    """

    def __init__(self, normalized_dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        if normalized_dim <= 0:
            raise ValueError(f"normalized_dim must be positive, got {normalized_dim}")
        self.normalized_dim = normalized_dim
        self.eps = eps
        self.gain = Parameter(init.ones((normalized_dim,)), name="gain")
        self.bias = Parameter(init.zeros((normalized_dim,)), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.normalized_dim:
            raise ValueError(
                f"LayerNorm expected trailing dimension {self.normalized_dim}, "
                f"got shape {x.shape}"
            )
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered * (var + self.eps) ** -0.5
        return normed * self.gain + self.bias


class BatchNorm1d(Module):
    """Batch normalisation over the batch dimension of a 2-D input.

    Tracks running statistics for inference mode with momentum-based
    exponential averaging, matching the standard deep-learning-framework
    semantics.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gain = Parameter(init.ones((num_features,)), name="gain")
        self.bias = Parameter(init.zeros((num_features,)), name="bias")
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm1d expected (batch, {self.num_features}), got {x.shape}"
            )
        if self.training:
            mean = x.mean(axis=0, keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=0, keepdims=True)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean
                + self.momentum * mean.data.reshape(-1)
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var
                + self.momentum * var.data.reshape(-1)
            )
            normed = centered * (var + self.eps) ** -0.5
        else:
            centered = x - self.running_mean[None, :]
            normed = centered * (1.0 / np.sqrt(self.running_var[None, :] + self.eps))
        return normed * self.gain + self.bias
