"""Factorization Machine (Rendle, ICDM 2010) over fielded features.

Each categorical field contributes the factor vector of its active id;
each numeric field contributes a learned factor vector scaled by the
feature value.  The second-order interaction term uses the standard
``0.5 * ((sum v)^2 - sum v^2)`` identity over the field vectors, so the
cost is linear in the number of fields.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.base import FlatCTRModel
from repro.baselines.logistic import LogisticRegressionCTR
from repro.data.schema import FeatureSchema
from repro.nn import init
from repro.nn.layers import Embedding
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor, stack

__all__ = ["FactorizationMachine"]


class FactorizationMachine(FlatCTRModel):
    """Second-order FM: linear part + pairwise factor interactions.

    Parameters
    ----------
    schema:
        Dataset schema.
    factor_dim:
        Dimension of the factor vectors.
    groups:
        Feature groups consumed.
    rng:
        Generator for initialisation.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        factor_dim: int = 8,
        groups: Sequence[str] = ("user", "item_profile", "item_stat"),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(schema, groups)
        if factor_dim <= 0:
            raise ValueError(f"factor_dim must be positive, got {factor_dim}")
        rng = rng if rng is not None else np.random.default_rng()
        self.factor_dim = factor_dim
        self.linear = LogisticRegressionCTR(schema, groups, rng=rng)
        for feature in self.categorical_features:
            table = Embedding(feature.vocab_size, factor_dim, rng=rng)
            # Small factors stabilise early epochs; assign_ keeps the
            # rescale on the engine's version-tracked mutation channel.
            table.weight.assign_(table.weight.data * 0.2)
            self.register_module(f"v_{feature.name}", table)
        n_numeric = len(self.numeric_names)
        self.numeric_factors = Parameter(
            init.normal(rng, (n_numeric, factor_dim), std=0.01)
            if n_numeric
            else np.zeros((0, factor_dim)),
            name="numeric_factors",
        )

    def _field_vectors(self, features: Dict[str, np.ndarray]) -> List[Tensor]:
        """One (batch, factor_dim) tensor per active field."""
        fields: List[Tensor] = []
        for feature in self.categorical_features:
            table: Embedding = getattr(self, f"v_{feature.name}")
            fields.append(table(features[feature.name]))
        numeric = self._numeric_matrix(features)
        for column in range(numeric.shape[1]):
            value = Tensor(numeric[:, column : column + 1], dtype=numeric.dtype)
            fields.append(value * self.numeric_factors[column : column + 1])
        return fields

    def interaction_term(self, features: Dict[str, np.ndarray]) -> Tensor:
        """The ``0.5 * ((sum v)^2 - sum v^2)`` pairwise term, per row."""
        fields = self._field_vectors(features)
        if len(fields) < 2:
            raise ValueError("FM needs at least two fields to interact")
        stacked = stack(fields, axis=0)  # (fields, batch, dim)
        sum_of_vectors = stacked.sum(axis=0)
        square_of_sum = sum_of_vectors * sum_of_vectors
        sum_of_squares = (stacked * stacked).sum(axis=0)
        return 0.5 * (square_of_sum - sum_of_squares).sum(axis=-1)

    def logits(self, features: Dict[str, np.ndarray]) -> Tensor:
        return self.linear.logits(features) + self.interaction_term(features)
