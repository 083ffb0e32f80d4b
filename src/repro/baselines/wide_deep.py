"""Wide & Deep network (Cheng et al., DLRS 2016).

The wide part is the sparse logistic regression over raw ids and
numerics (memorisation); the deep part embeds every categorical feature
and runs an MLP over the concatenation with the numerics
(generalisation).  The two logits are summed before the sigmoid, and both
parts train jointly, as in the original paper.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.baselines.base import FlatCTRModel
from repro.baselines.logistic import LogisticRegressionCTR
from repro.data.schema import FeatureSchema
from repro.nn.layers import MLP, FeatureEmbeddings
from repro.nn.tensor import Tensor, concat

__all__ = ["WideAndDeep"]


class WideAndDeep(FlatCTRModel):
    """Jointly trained wide (linear) and deep (embedding MLP) parts.

    Parameters
    ----------
    schema:
        Dataset schema.
    hidden_dims:
        Deep-part MLP widths (a scalar output layer is appended).
    embedding_dim:
        Embedding width used for every categorical feature in the deep
        part (the wide part uses raw ids).
    groups:
        Feature groups consumed.
    rng:
        Generator for initialisation.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        hidden_dims: Sequence[int] = (64, 32),
        embedding_dim: int = 8,
        groups: Sequence[str] = ("user", "item_profile", "item_stat"),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(schema, groups)
        rng = rng if rng is not None else np.random.default_rng()
        self.wide = LogisticRegressionCTR(schema, groups, rng=rng)
        vocab = {f.name: f.vocab_size for f in self.categorical_features}
        dims = {f.name: embedding_dim for f in self.categorical_features}
        self.embeddings = FeatureEmbeddings(vocab, dims, rng=rng)
        deep_in = self.embeddings.output_dim + len(self.numeric_names)
        self.deep = MLP(
            deep_in, list(hidden_dims) + [1], output_activation="identity", rng=rng
        )

    def _deep_logits(self, features: Dict[str, np.ndarray]) -> Tensor:
        parts = []
        if self.categorical_features:
            parts.append(self.embeddings(features))
        numeric = self._numeric_matrix(features)
        if numeric.shape[1]:
            parts.append(Tensor(numeric, dtype=numeric.dtype))
        joined = parts[0] if len(parts) == 1 else concat(parts, axis=-1)
        return self.deep(joined).reshape(-1)

    def logits(self, features: Dict[str, np.ndarray]) -> Tensor:
        return self.wide.logits(features) + self._deep_logits(features)
