"""Logistic regression CTR baseline (Richardson et al., WWW 2007 lineage).

One learned weight per categorical *id* (a 1-dimensional embedding) plus a
linear term per numeric feature and a global bias — the classic sparse LR
used for ad click prediction, here trained with Adam (an FTRL variant is
available through :class:`repro.nn.optim.FTRL` for the linear weights).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.baselines.base import FlatCTRModel
from repro.data.schema import FeatureSchema
from repro.nn import init
from repro.nn.layers import Embedding
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor

__all__ = ["LogisticRegressionCTR"]


class LogisticRegressionCTR(FlatCTRModel):
    """Sparse logistic regression over ids and numerics."""

    def __init__(
        self,
        schema: FeatureSchema,
        groups: Sequence[str] = ("user", "item_profile", "item_stat"),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(schema, groups)
        rng = rng if rng is not None else np.random.default_rng()
        for feature in self.categorical_features:
            table = Embedding(feature.vocab_size, 1, rng=rng)
            # Near-zero start (LR convention), via the version-tracked channel.
            table.weight.assign_(table.weight.data * 0.01)
            self.register_module(f"w_{feature.name}", table)
        n_numeric = len(self.numeric_names)
        self.numeric_weight = Parameter(
            init.normal(rng, (n_numeric, 1), std=0.01) if n_numeric else np.zeros((0, 1)),
            name="numeric_weight",
        )
        self.bias = Parameter(init.zeros((1,)), name="bias")

    def logits(self, features: Dict[str, np.ndarray]) -> Tensor:
        total: Optional[Tensor] = None
        for feature in self.categorical_features:
            table: Embedding = getattr(self, f"w_{feature.name}")
            contribution = table(features[feature.name]).reshape(-1)
            total = contribution if total is None else total + contribution
        numeric = self._numeric_matrix(features)
        if numeric.shape[1]:
            numeric_term = (
                Tensor(numeric, dtype=numeric.dtype) @ self.numeric_weight
            ).reshape(-1)
            total = numeric_term if total is None else total + numeric_term
        if total is None:
            raise ValueError("model has no input features")
        return total + self.bias
