"""Encoder towers mapping raw features to dense vectors.

A :class:`Tower` is the reusable building block of every model in the
paper's Figures 3-6: it embeds the categorical features of its feature
groups, concatenates the numeric features, runs the result through a DCN
(or a plain MLP for the TNN-FC baseline) and projects to the shared vector
space.  The generator of ATNN is itself just a Tower over the item-profile
group, optionally *sharing* its embedding bank with the item encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.schema import FeatureSchema
from repro.nn.layers import DCN, MLP, EmbeddingBag, FeatureEmbeddings
from repro.nn.module import Module
from repro.nn.tensor import Tensor, concat

__all__ = ["TowerConfig", "Tower"]


@dataclass(frozen=True)
class TowerConfig:
    """Architecture of one tower.

    Attributes
    ----------
    vector_dim:
        Dimension of the output vector (128 in the paper; towers in a model
        must agree so the scoring head can combine them).
    deep_dims:
        Widths of the deep branch inside the DCN (paper: 512-256-128).
    head_dims:
        Widths of the fully connected stack after the DCN (paper:
        256-256-256-128); the last width is overridden by ``vector_dim``.
    num_cross_layers:
        Cross-network depth; 0 yields the fully connected (TNN-FC) tower.
    dropout:
        Dropout probability inside the deep branches.
    """

    vector_dim: int = 32
    deep_dims: Tuple[int, ...] = (64, 32)
    head_dims: Tuple[int, ...] = (64,)
    num_cross_layers: int = 2
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.vector_dim <= 0:
            raise ValueError(f"vector_dim must be positive, got {self.vector_dim}")
        if not self.deep_dims:
            raise ValueError("deep_dims must contain at least one width")
        if self.num_cross_layers < 0:
            raise ValueError(
                f"num_cross_layers must be >= 0, got {self.num_cross_layers}"
            )

    @staticmethod
    def paper() -> "TowerConfig":
        """The exact dimensions reported in the paper (Section IV-A3)."""
        return TowerConfig(
            vector_dim=128,
            deep_dims=(512, 256, 128),
            head_dims=(256, 256, 256),
            num_cross_layers=2,
        )


class Tower(Module):
    """Feature-group encoder producing a fixed-width vector.

    Parameters
    ----------
    schema:
        The dataset's feature schema.
    groups:
        Which feature groups this tower consumes (e.g. ``("user",)`` for
        the user tower, ``("item_profile", "item_stat")`` for the item
        encoder, ``("item_profile",)`` for the generator).
    config:
        Architecture hyper-parameters.
    embeddings:
        Optional pre-built embedding bank to *share* with another tower
        (the ATNN shared-embedding strategy).  Must cover exactly the
        categorical features of ``groups``.
    rng:
        Generator for weight initialisation.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        groups: Sequence[str],
        config: TowerConfig,
        embeddings: Optional[FeatureEmbeddings] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.groups = tuple(groups)
        self.config = config
        self.numeric_names: List[str] = schema.numeric_names(*self.groups)

        expected_vocab = schema.vocab_sizes(*self.groups)
        if embeddings is None:
            embeddings = FeatureEmbeddings(
                expected_vocab, schema.embedding_dims(*self.groups), rng=rng
            )
        else:
            if set(embeddings.feature_names) != set(expected_vocab):
                raise ValueError(
                    "shared embedding bank covers features "
                    f"{sorted(embeddings.feature_names)} but tower groups "
                    f"{self.groups} need {sorted(expected_vocab)}"
                )
        self.embeddings = embeddings

        # Multi-valued categorical features get mean-pooled embedding bags.
        self.sequence_features = schema.sequence_in(*self.groups)
        self._sequence_bags: Dict[str, EmbeddingBag] = {}
        for feature in self.sequence_features:
            bag = EmbeddingBag(feature.vocab_size, feature.embedding_dim, rng=rng)
            self._sequence_bags[feature.name] = bag
            self.register_module(f"bag_{feature.name}", bag)

        in_width = (
            embeddings.output_dim
            + sum(f.embedding_dim for f in self.sequence_features)
            + len(self.numeric_names)
        )
        if in_width == 0:
            raise ValueError(f"tower over groups {self.groups} has no input features")
        self.in_width = in_width

        if config.num_cross_layers > 0:
            self.encoder = DCN(
                in_width,
                list(config.deep_dims),
                num_cross_layers=config.num_cross_layers,
                dropout=config.dropout,
                rng=rng,
            )
            encoder_out = self.encoder.out_features
        else:
            self.encoder = MLP(
                in_width, list(config.deep_dims), dropout=config.dropout, rng=rng
            )
            encoder_out = self.encoder.out_features

        head_dims = list(config.head_dims) + [config.vector_dim]
        self.head = MLP(
            encoder_out,
            head_dims,
            output_activation="identity",
            dropout=config.dropout,
            rng=rng,
        )
        self.vector_dim = config.vector_dim

    # ------------------------------------------------------------------
    def _assemble_input(self, features: Dict[str, np.ndarray]) -> Tensor:
        """Concatenate embedded categoricals, pooled bags and numerics."""
        parts: List[Tensor] = []
        if self.embeddings.feature_names:
            parts.append(self.embeddings(features))
        for feature in self.sequence_features:
            if feature.name not in features or feature.mask_name not in features:
                raise KeyError(
                    f"sequence feature {feature.name!r} needs both "
                    f"{feature.name!r} and {feature.mask_name!r} columns"
                )
            bag = self._sequence_bags[feature.name]
            parts.append(bag(features[feature.name], features[feature.mask_name]))
        if self.numeric_names:
            missing = [n for n in self.numeric_names if n not in features]
            if missing:
                raise KeyError(f"missing numeric features: {missing}")
            # Assemble numerics in the parameters' dtype: any other dtype
            # would promote the whole concatenated input, and every GEMM
            # after it, of a float32 model.
            dtype = self.head.layers[0].weight.data.dtype
            numeric = np.column_stack(
                [np.asarray(features[name], dtype=dtype) for name in self.numeric_names]
            )
            parts.append(Tensor(numeric, dtype=dtype))
        if len(parts) == 1:
            return parts[0]
        return concat(parts, axis=-1)

    def forward(self, features: Dict[str, np.ndarray]) -> Tensor:
        """Encode a feature dict into ``(batch, vector_dim)`` vectors."""
        x = self._assemble_input(features)
        return self.head(self.encoder(x))
