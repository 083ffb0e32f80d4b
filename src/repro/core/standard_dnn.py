"""The paper's Figure 2 baseline: a standard monolithic CTR DNN.

Figure 2 shows the classical architecture that concatenates the item
embedding block and the user embedding block and feeds everything through
one MLP.  The paper's point is that this model yields *no explicit item or
user vectors* — which is precisely why it cannot support the mean-user-
vector popularity trick or the adversarial generator.  It is included so
the repository covers every architecture the paper discusses.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.data.schema import (
    GROUP_ITEM_PROFILE,
    GROUP_ITEM_STAT,
    GROUP_USER,
    FeatureSchema,
)
from repro.nn.layers import MLP, FeatureEmbeddings
from repro.nn.module import Module
from repro.nn.tensor import Tensor, concat, no_grad

__all__ = ["StandardDNN"]


class StandardDNN(Module):
    """Monolithic concat-everything CTR network (no tower structure).

    Parameters
    ----------
    schema:
        Dataset feature schema.
    hidden_dims:
        MLP widths; a scalar sigmoid output layer is appended.
    groups:
        Feature groups consumed (defaults to all three).
    rng:
        Generator for weight initialisation.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        hidden_dims: Sequence[int] = (128, 64),
        groups: Sequence[str] = (GROUP_USER, GROUP_ITEM_PROFILE, GROUP_ITEM_STAT),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.schema = schema
        self.groups = tuple(groups)
        self.embeddings = FeatureEmbeddings(
            schema.vocab_sizes(*self.groups),
            schema.embedding_dims(*self.groups),
            rng=rng,
        )
        self.numeric_names = schema.numeric_names(*self.groups)
        in_width = self.embeddings.output_dim + len(self.numeric_names)
        self.mlp = MLP(
            in_width,
            list(hidden_dims) + [1],
            output_activation="sigmoid",
            rng=rng,
        )

    def forward(self, features: Dict[str, np.ndarray]) -> Tensor:
        """Click probabilities for each row."""
        parts = [self.embeddings(features)]
        if self.numeric_names:
            missing = [n for n in self.numeric_names if n not in features]
            if missing:
                raise KeyError(f"missing numeric features: {missing}")
            dtype = self.mlp.layers[0].weight.data.dtype
            numeric = np.column_stack(
                [np.asarray(features[n], dtype=dtype) for n in self.numeric_names]
            )
            parts.append(Tensor(numeric, dtype=dtype))
        joined = parts[0] if len(parts) == 1 else concat(parts, axis=-1)
        return self.mlp(joined).reshape(-1)

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
