"""O(1) per-item popularity prediction via a stored mean user vector.

Section III-D of the paper: ranking all new arrivals against all users
would cost ``O(N_U * N_NA)`` pairwise scores.  Instead, ATNN selects a
user group (the most active new-arrival-loving users), pre-computes and
*stores the mean of their user vectors* at training time, and scores each
new item against that single vector — ``O(1)`` per item at serving time.

:class:`PopularityPredictor` implements both the fast path and the exact
pairwise baseline (used to quantify the approximation and the speedup).
The approximation is exact at the logit level for the
:class:`~repro.core.heads.WeightedDotHead`, whose logit is linear in the
user vector; only the final sigmoid makes the mean-of-scores differ from
the score-of-mean, and both induce the *same item ranking* for a fixed
mean direction.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from repro.core.atnn import ATNN
from repro.core.two_tower import TwoTowerModel
from repro.data.dataset import FeatureTable
from repro.core.numeric import sigmoid
from repro.nn.tensor import Tensor, no_grad

__all__ = ["PopularityPredictor"]

ModelType = Union[ATNN, TwoTowerModel]


class PopularityPredictor:
    """Serving-side popularity scorer with a pre-learned mean user vector.

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.atnn.ATNN` (new arrivals are scored
        with the generator path) or :class:`~repro.core.two_tower.TwoTowerModel`.
    batch_size:
        Chunk size for the tower forward passes.
    """

    def __init__(self, model: ModelType, batch_size: int = 4096) -> None:
        self.model = model
        self.batch_size = batch_size
        self.mean_user_vector: Optional[np.ndarray] = None
        self._user_vectors: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Training-time precomputation
    # ------------------------------------------------------------------
    def fit_user_group(self, users: FeatureTable, keep_individual: bool = False) -> np.ndarray:
        """Encode the user group and store its mean vector.

        Parameters
        ----------
        users:
            Feature table of the selected user group (the paper uses the
            top active users who prefer new arrivals).
        keep_individual:
            Also keep every individual user vector, enabling the exact
            pairwise baseline :meth:`score_items_exact`.

        Returns
        -------
        numpy.ndarray
            The stored mean user vector of shape ``(vector_dim,)``.
        """
        vectors = self._encode_users(users)
        self.mean_user_vector = vectors.mean(axis=0)
        self._user_vectors = vectors if keep_individual else None
        return self.mean_user_vector

    def _encode_users(self, users: FeatureTable) -> np.ndarray:
        was_training = self.model.training
        self.model.eval()
        try:
            chunks = []
            with no_grad():
                for start in range(0, len(users), self.batch_size):
                    chunk = {
                        name: col[start : start + self.batch_size]
                        for name, col in users.columns.items()
                    }
                    chunks.append(self.model.user_vectors(chunk).data)
            return np.concatenate(chunks, axis=0)
        finally:
            self.model.train(was_training)

    def _encode_items(self, items: FeatureTable) -> np.ndarray:
        was_training = self.model.training
        self.model.eval()
        encode = (
            self.model.generated_item_vectors
            if isinstance(self.model, ATNN)
            else self.model.item_vectors
        )
        try:
            chunks = []
            with no_grad():
                for start in range(0, len(items), self.batch_size):
                    chunk = {
                        name: col[start : start + self.batch_size]
                        for name, col in items.columns.items()
                    }
                    chunks.append(encode(chunk).data)
            return np.concatenate(chunks, axis=0)
        finally:
            self.model.train(was_training)

    # ------------------------------------------------------------------
    # Serving-time scoring
    # ------------------------------------------------------------------
    def score_items(self, items: FeatureTable) -> np.ndarray:
        """Popularity scores against the stored mean user vector.

        Cost per item is one tower forward plus a ``vector_dim`` dot
        product — independent of the user count (the paper's O(1) claim).

        Raises
        ------
        RuntimeError
            If :meth:`fit_user_group` has not been called.
        """
        if self.mean_user_vector is None:
            raise RuntimeError(
                "call fit_user_group() before scoring items"
            )
        item_vectors = self._encode_items(items)
        return self._head_scores(item_vectors, self.mean_user_vector[None, :])

    def score_item_vectors(self, item_vectors: np.ndarray) -> np.ndarray:
        """Score pre-encoded item vectors — the pure O(1) serving kernel."""
        if self.mean_user_vector is None:
            raise RuntimeError("call fit_user_group() before scoring items")
        return self._head_scores(item_vectors, self.mean_user_vector[None, :])

    def score_items_exact(self, items: FeatureTable) -> np.ndarray:
        """Exact mean pairwise score over every user in the group.

        The O(N_U)-per-item baseline the paper's trick replaces; requires
        ``fit_user_group(..., keep_individual=True)``.
        """
        if self._user_vectors is None:
            raise RuntimeError(
                "exact scoring needs fit_user_group(keep_individual=True)"
            )
        item_vectors = self._encode_items(items)
        scores = np.empty(item_vectors.shape[0], dtype=item_vectors.dtype)
        for index in range(item_vectors.shape[0]):
            pairwise = self._head_scores(
                np.broadcast_to(
                    item_vectors[index], self._user_vectors.shape
                ).copy(),
                self._user_vectors,
            )
            scores[index] = pairwise.mean()
        return scores

    def _head_scores(
        self, item_vectors: np.ndarray, user_vectors: np.ndarray
    ) -> np.ndarray:
        head = self.model.scoring_head
        weight = head.weight.data
        bias = head.bias.data[0]
        if user_vectors.shape[0] == 1:
            logits = item_vectors @ (weight * user_vectors[0]) + bias
        else:
            logits = np.einsum(
                "nd,nd->n", item_vectors * weight, user_vectors
            ) + bias
        return sigmoid(logits)
