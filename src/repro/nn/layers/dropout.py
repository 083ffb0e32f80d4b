"""Inverted dropout layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = ["Dropout"]


class Dropout(Module):
    """Randomly zero activations during training.

    Uses the "inverted" convention: surviving activations are scaled by
    ``1 / (1 - p)`` so no rescaling is needed at inference time.

    Parameters
    ----------
    p:
        Drop probability in ``[0, 1)``.
    rng:
        Generator used to sample masks; required for reproducibility.
    """

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep) / keep
        return x * mask

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"
