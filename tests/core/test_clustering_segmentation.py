"""K-means and segmented-popularity tests."""

import numpy as np
import pytest

from repro.core import ATNN, SegmentedPopularityPredictor, TowerConfig, kmeans


def _reference_sq_distances(a, b):
    """The expansion ``|a|^2 - 2ab + |b|^2`` recomputed per call, clamped at 0."""
    distances = (
        (a ** 2).sum(axis=1)[:, None]
        - 2.0 * a @ b.T
        + (b ** 2).sum(axis=1)[None, :]
    )
    return np.maximum(distances, 0.0)


def _reference_kmeans(points, k, rng, max_iterations=100, tolerance=1e-6):
    """Textbook k-means++ and Lloyd: full distance matrices, masked means.

    The straightforward formulation ``kmeans`` must reproduce: same RNG
    draws, same float64 arithmetic, one boolean mask per cluster.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(0, n)]
    closest = _reference_sq_distances(points, centroids[:1]).reshape(-1)
    for index in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[index:] = points[rng.integers(0, n, size=k - index)]
            break
        choice = rng.choice(n, p=closest / total)
        centroids[index] = points[choice]
        new_distance = _reference_sq_distances(
            points, centroids[index : index + 1]
        ).reshape(-1)
        closest = np.minimum(closest, new_distance)

    iteration = 0
    for iteration in range(1, max_iterations + 1):
        assignments = _reference_sq_distances(points, centroids).argmin(axis=1)
        new_centroids = centroids.copy()
        for cluster in range(k):
            members = points[assignments == cluster]
            if members.size:
                new_centroids[cluster] = members.mean(axis=0)
        movement = float(np.abs(new_centroids - centroids).sum())
        centroids = new_centroids
        if movement < tolerance:
            break

    distances = _reference_sq_distances(points, centroids)
    assignments = distances.argmin(axis=1)
    inertia = float(distances[np.arange(n), assignments].sum())
    return centroids, assignments, max(inertia, 0.0), iteration


def _clustered(seed, n, dim, n_clusters, spread=0.3, dtype=np.float64):
    rng = np.random.default_rng(seed)
    centres = rng.normal(0.0, 3.0, size=(n_clusters, dim))
    labels = rng.integers(0, n_clusters, size=n)
    return (centres[labels] + rng.normal(0.0, spread, size=(n, dim))).astype(dtype)


class TestKMeans:
    def test_recovers_separated_clusters(self, rng):
        centres = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
        points = np.concatenate(
            [centre + rng.normal(0, 0.3, size=(50, 2)) for centre in centres]
        )
        result = kmeans(points, 3, rng=rng)
        # Each true cluster maps to exactly one fitted cluster.
        for block in range(3):
            block_assignments = result.assignments[block * 50 : (block + 1) * 50]
            assert len(set(block_assignments)) == 1
        assert len(set(result.assignments)) == 3

    def test_centroids_near_true_centres(self, rng):
        centres = np.array([[0.0, 0.0], [8.0, 8.0]])
        points = np.concatenate(
            [centre + rng.normal(0, 0.2, size=(100, 2)) for centre in centres]
        )
        result = kmeans(points, 2, rng=rng)
        fitted = result.centroids[np.argsort(result.centroids[:, 0])]
        np.testing.assert_allclose(fitted, centres, atol=0.2)

    def test_inertia_decreases_with_k(self, rng):
        points = rng.normal(size=(200, 3))
        inertia_2 = kmeans(points, 2, rng=np.random.default_rng(0)).inertia
        inertia_8 = kmeans(points, 8, rng=np.random.default_rng(0)).inertia
        assert inertia_8 < inertia_2

    def test_k_equals_one_gives_mean(self, rng):
        points = rng.normal(size=(50, 2))
        result = kmeans(points, 1, rng=rng)
        np.testing.assert_allclose(result.centroids[0], points.mean(axis=0))

    def test_k_equals_n(self, rng):
        points = rng.normal(size=(5, 2))
        result = kmeans(points, 5, rng=rng)
        assert result.inertia == pytest.approx(0.0, abs=1e-9)

    def test_identical_points_safe(self, rng):
        points = np.ones((20, 3))
        result = kmeans(points, 3, rng=rng)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_predict_assigns_nearest(self, rng):
        points = np.array([[0.0, 0.0], [10.0, 10.0]]).repeat(10, axis=0)
        result = kmeans(points, 2, rng=rng)
        assignments = result.predict(np.array([[0.5, 0.5], [9.0, 9.5]]))
        assert assignments[0] != assignments[1]

    def test_predict_shape_checked(self, rng):
        result = kmeans(rng.normal(size=(10, 2)), 2, rng=rng)
        with pytest.raises(ValueError):
            result.predict(np.zeros((3, 5)))

    def test_invalid_args_rejected(self, rng):
        points = rng.normal(size=(10, 2))
        with pytest.raises(ValueError):
            kmeans(points, 0, rng=rng)
        with pytest.raises(ValueError):
            kmeans(points, 11, rng=rng)
        with pytest.raises(ValueError):
            kmeans(points.reshape(-1), 2, rng=rng)

    def test_deterministic_under_seed(self, rng):
        points = rng.normal(size=(60, 2))
        a = kmeans(points, 3, rng=np.random.default_rng(7))
        b = kmeans(points, 3, rng=np.random.default_rng(7))
        np.testing.assert_allclose(a.centroids, b.centroids)


    def test_predict_matches_fit_assignments(self, rng):
        points = _clustered(3, 400, 6, 8)
        result = kmeans(points, 8, rng=rng)
        np.testing.assert_array_equal(result.predict(points), result.assignments)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_rejected(self, rng, bad):
        points = rng.normal(size=(30, 4))
        points[11, 2] = bad
        with pytest.raises(ValueError, match="1 non-finite row"):
            kmeans(points, 3, rng=rng)


class TestKMeansParity:
    """``kmeans`` reproduces the textbook formulation: same seeds, same
    assignments and iteration count, bit-identical centroids."""

    @staticmethod
    def _assert_parity(points, k, seed, **kwargs):
        result = kmeans(points, k, rng=np.random.default_rng(seed), **kwargs)
        centroids, assignments, inertia, n_iterations = _reference_kmeans(
            points, k, np.random.default_rng(seed), **kwargs
        )
        np.testing.assert_array_equal(result.assignments, assignments)
        assert result.n_iterations == n_iterations
        # Each mean sums the same rows in the same order: exact, no tolerance.
        np.testing.assert_array_equal(result.centroids, centroids)
        assert result.inertia == pytest.approx(inertia, rel=1e-12, abs=1e-12)
        return result

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_clustered_data(self, seed):
        points = _clustered(seed, 1500, 16, 12)
        self._assert_parity(points, 20, seed, max_iterations=15)

    def test_float32_input_converged(self):
        points = _clustered(9, 800, 8, 5, dtype=np.float32)
        result = self._assert_parity(points, 5, 9)
        assert result.n_iterations < 100

    def test_k_equals_one(self):
        self._assert_parity(_clustered(5, 200, 3, 4), 1, 5)

    def test_k_equals_n(self):
        self._assert_parity(_clustered(6, 40, 3, 4), 40, 6)

    def test_all_duplicate_points_fill_branch(self):
        points = np.tile([1.5, -2.0, 0.25], (25, 1))
        result = self._assert_parity(points, 4, 7)
        assert result.inertia == 0.0

    def test_empty_cluster_keeps_its_centroid(self):
        # Two distinct locations and k=4: seeding exhausts D^2 after two
        # picks and fills the rest with duplicates of chosen points, so
        # duplicate centroids leave clusters empty in every Lloyd pass.
        points = np.repeat([[0.0, 0.0], [5.0, 1.0]], 30, axis=0)
        result = self._assert_parity(points, 4, 8)
        counts = np.bincount(result.assignments, minlength=4)
        assert (counts == 0).any()


class TestSegmentedPredictor:
    @pytest.fixture(scope="class")
    def predictor(self, tiny_tmall_world):
        model = ATNN(
            tiny_tmall_world.schema,
            TowerConfig(vector_dim=8, deep_dims=(16, 8), head_dims=(16,),
                        num_cross_layers=1),
            rng=np.random.default_rng(3),
        )
        predictor = SegmentedPopularityPredictor(model, n_segments=3)
        predictor.fit_user_group(
            tiny_tmall_world.active_user_group(0.3),
            rng=np.random.default_rng(0),
        )
        return predictor

    def test_scoring_before_fit_rejected(self, tiny_tmall_world):
        model = ATNN(
            tiny_tmall_world.schema,
            TowerConfig(vector_dim=8, deep_dims=(16,), head_dims=(8,)),
            rng=np.random.default_rng(3),
        )
        predictor = SegmentedPopularityPredictor(model, n_segments=2)
        with pytest.raises(RuntimeError):
            predictor.segment_scores(tiny_tmall_world.new_items)

    def test_segment_matrix_shape(self, predictor, tiny_tmall_world):
        matrix = predictor.segment_scores(tiny_tmall_world.new_items)
        assert matrix.shape == (len(tiny_tmall_world.new_items), 3)
        assert matrix.min() > 0 and matrix.max() < 1

    def test_mean_aggregation_is_weighted_average(self, predictor, tiny_tmall_world):
        matrix = predictor.segment_scores(tiny_tmall_world.new_items)
        expected = matrix @ predictor.segment_weights
        np.testing.assert_allclose(
            predictor.score_items(tiny_tmall_world.new_items, "mean"), expected
        )

    def test_max_aggregation_dominates_mean(self, predictor, tiny_tmall_world):
        mean_scores = predictor.score_items(tiny_tmall_world.new_items, "mean")
        max_scores = predictor.score_items(tiny_tmall_world.new_items, "max")
        assert np.all(max_scores >= mean_scores - 1e-12)

    def test_unknown_aggregation_rejected(self, predictor, tiny_tmall_world):
        with pytest.raises(ValueError):
            predictor.score_items(tiny_tmall_world.new_items, "median")

    def test_niche_items_have_large_gaps(self, predictor, tiny_tmall_world):
        matrix = predictor.segment_scores(tiny_tmall_world.new_items)
        gap = matrix.max(axis=1) - matrix @ predictor.segment_weights
        niche = predictor.niche_items(tiny_tmall_world.new_items, top_k=5)
        threshold = np.sort(gap)[::-1][4]
        assert np.all(gap[niche] >= threshold - 1e-12)

    def test_segment_weights_sum_to_one(self, predictor):
        assert predictor.segment_weights.sum() == pytest.approx(1.0)

    def test_invalid_segments_rejected(self, tiny_tmall_world):
        model = ATNN(
            tiny_tmall_world.schema,
            TowerConfig(vector_dim=8, deep_dims=(16,), head_dims=(8,)),
            rng=np.random.default_rng(3),
        )
        with pytest.raises(ValueError):
            SegmentedPopularityPredictor(model, n_segments=0)
