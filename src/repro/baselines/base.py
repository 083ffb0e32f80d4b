"""Common machinery for the flat CTR baselines.

The paper's related-work section traces CTR prediction from logistic
regression through factorization machines to deep models (Wide & Deep,
DeepFM).  This package implements that lineage on the repo's autograd
engine so Table I can be extended beyond the paper's four rows.

All baselines consume the same feature dict as the towers: categorical
columns (integer ids) and numeric columns, selected by schema groups.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.data.schema import FeatureSchema
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.module import Module
from repro.nn.optim import FTRL, Adam
from repro.nn.tensor import Tensor, no_grad

__all__ = ["FlatCTRModel"]


class FlatCTRModel(Module):
    """Base class: a logit model over (categorical ids, numeric values).

    Subclasses implement :meth:`logits`.  Training and batched inference
    are shared.

    Parameters
    ----------
    schema:
        Dataset schema.
    groups:
        Feature groups the model consumes (defaults to all three).
    """

    def __init__(
        self,
        schema: FeatureSchema,
        groups: Sequence[str] = ("user", "item_profile", "item_stat"),
    ) -> None:
        super().__init__()
        self.schema = schema
        self.groups = tuple(groups)
        self.categorical_features = schema.categorical_in(*self.groups)
        self.numeric_names: List[str] = schema.numeric_names(*self.groups)

    # ------------------------------------------------------------------
    def _numeric_matrix(self, features: Dict[str, np.ndarray]) -> np.ndarray:
        """Numeric columns as one matrix in the parameters' dtype."""
        dtype = self.parameters()[0].data.dtype
        if not self.numeric_names:
            n = len(next(iter(features.values())))
            return np.zeros((n, 0), dtype=dtype)
        missing = [n for n in self.numeric_names if n not in features]
        if missing:
            raise KeyError(f"missing numeric features: {missing}")
        return np.column_stack(
            [np.asarray(features[name], dtype=dtype) for name in self.numeric_names]
        )

    def logits(self, features: Dict[str, np.ndarray]) -> Tensor:
        raise NotImplementedError

    def forward(self, features: Dict[str, np.ndarray]) -> Tensor:
        return self.logits(features).sigmoid()

    # ------------------------------------------------------------------
    def fit(
        self,
        train: InteractionDataset,
        epochs: int = 3,
        batch_size: int = 512,
        lr: float = 1e-2,
        label: str = "ctr",
        seed: int = 0,
        optimizer: str = "adam",
        l1: float = 0.0,
        l2: float = 0.0,
    ) -> List[float]:
        """Train on BCE; returns the mean loss per epoch.

        Parameters
        ----------
        optimizer:
            ``"adam"`` (default) or ``"ftrl"`` — the FTRL-Proximal update
            of the paper's related-work lineage, with ``l1``/``l2``
            regularisation (L1 drives exact weight sparsity).
        """
        if optimizer == "adam":
            opt = Adam(self.parameters(), lr=lr)
        elif optimizer == "ftrl":
            opt = FTRL(self.parameters(), lr=lr, l1=l1, l2=l2)
        else:
            raise ValueError(
                f"optimizer must be 'adam' or 'ftrl', got {optimizer!r}"
            )
        rng = np.random.default_rng(seed)
        epoch_losses: List[float] = []
        self.train()
        for _ in range(epochs):
            losses = []
            for batch in train.iter_batches(batch_size, rng=rng):
                opt.zero_grad()
                loss = binary_cross_entropy_with_logits(
                    self.logits(batch.features), batch.label(label)
                )
                loss.backward()
                opt.step()
                losses.append(loss.item())
            epoch_losses.append(float(np.mean(losses)))
        self.eval()
        return epoch_losses

    def predict_proba(
        self, features: Dict[str, np.ndarray], batch_size: int = 4096
    ) -> np.ndarray:
        """Inference-mode click probabilities."""
        was_training = self.training
        self.eval()
        try:
            n_rows = len(next(iter(features.values())))
            chunks = []
            with no_grad():
                for start in range(0, n_rows, batch_size):
                    chunk = {
                        name: col[start : start + batch_size]
                        for name, col in features.items()
                    }
                    chunks.append(self.forward(chunk).data)
            return np.concatenate(chunks)
        finally:
            self.train(was_training)
