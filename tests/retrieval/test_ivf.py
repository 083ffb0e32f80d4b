"""IVF index tests: exactness envelope, recall floor, inserts, maintenance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.retrieval import BruteForceIndex, IVFIndex, recall_at_k


def _clustered(rng, n, dim, n_clusters=10, spread=0.15):
    """Gaussian-mixture vectors — the shape two-tower embeddings take."""
    centers = rng.normal(size=(n_clusters, dim))
    assignment = rng.integers(0, n_clusters, size=n)
    return centers[assignment] + spread * rng.normal(size=(n, dim))


class TestExactnessEnvelope:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nlist=st.integers(1, 12))
    def test_full_probe_matches_brute_force(self, seed, nlist):
        """Property: nprobe == nlist recovers the exact top-k set."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(120, 6))
        queries = rng.normal(size=(4, 6))

        brute = BruteForceIndex(6)
        brute.add(data)
        ivf = IVFIndex(6, nlist=nlist, nprobe=nlist, train_floor=2, seed=seed)
        ivf.rebuild(data)

        bid, _ = brute.search(queries, 9)
        iid, _ = ivf.search(queries, 9)
        for row in range(queries.shape[0]):
            assert set(bid[row].tolist()) == set(iid[row].tolist())

    def test_untrained_index_is_exact(self, rng):
        data = rng.normal(size=(60, 5))
        ivf = IVFIndex(5, nlist=8, nprobe=1, train_floor=1_000)
        ivf.add(data)
        assert not ivf.trained
        brute = BruteForceIndex(5)
        brute.add(data)
        queries = rng.normal(size=(3, 5))
        np.testing.assert_array_equal(
            ivf.search(queries, 10)[0], brute.search(queries, 10)[0]
        )

    def test_single_partition_nlist_1(self, rng):
        data = rng.normal(size=(50, 5))
        ivf = IVFIndex(5, nlist=1, nprobe=1, train_floor=2)
        ivf.rebuild(data)
        brute = BruteForceIndex(5)
        brute.add(data)
        q = rng.normal(size=5)
        assert set(ivf.search(q, 8)[0]) == set(brute.search(q, 8)[0])


class TestRecallFloor:
    def test_recall_at_fixed_nprobe(self, rng):
        """On clustered data, nprobe = nlist/4 keeps recall@10 high."""
        data = _clustered(rng, 4_000, 16)
        queries = _clustered(rng, 50, 16)
        brute = BruteForceIndex(16)
        brute.add(data)
        ivf = IVFIndex(16, nlist=32, nprobe=8, seed=0)
        ivf.rebuild(data)
        assert ivf.trained

        reference, _ = brute.search(queries, 10)
        candidates, _ = ivf.search(queries, 10)
        recall = recall_at_k(reference, candidates)
        assert recall >= 0.8, f"recall@10 collapsed to {recall:.3f}"

    def test_more_probes_never_lower_measured_recall_much(self, rng):
        data = _clustered(rng, 2_000, 8)
        queries = _clustered(rng, 30, 8)
        brute = BruteForceIndex(8)
        brute.add(data)
        ivf = IVFIndex(8, nlist=16, nprobe=2, seed=0)
        ivf.rebuild(data)
        reference, _ = brute.search(queries, 10)
        low = recall_at_k(reference, ivf.search(queries, 10)[0])
        ivf.nprobe = 16
        high = recall_at_k(reference, ivf.search(queries, 10)[0])
        assert high == 1.0 and high >= low


class TestIncrementalInserts:
    def test_inserted_vector_retrievable_before_any_rebuild(self, rng):
        """The cold-start contract: insert → immediately searchable.

        The inserted vectors are mutually orthogonal spikes with norms far
        above the corpus, so each is provably its own top-1 by inner
        product (a vector is NOT its own MIPS neighbour in general).
        """
        data = _clustered(rng, 1_000, 8)
        ivf = IVFIndex(8, nlist=8, nprobe=8, seed=0)
        ivf.rebuild(data)
        builds_before = ivf.repartitions

        fresh = 50.0 * np.eye(8, dtype=np.float64)[:5]
        ids = ivf.add(fresh)
        np.testing.assert_array_equal(ids, np.arange(1_000, 1_005))
        for row in range(5):
            found, _ = ivf.search(fresh[row], 1)
            assert found[0] == ids[row]
        assert ivf.repartitions == builds_before  # no rebuild happened

    def test_inserts_preserve_existing_ids(self, rng):
        data = rng.normal(size=(200, 4))
        spike = np.zeros(4)
        spike[0] = 40.0
        data[17] = spike  # dominant along e0: top-1 for query e0
        ivf = IVFIndex(4, nlist=4, nprobe=4, seed=1)
        ivf.rebuild(data)
        probe = np.eye(4)[0]
        before, _ = ivf.search(probe, 1)
        ivf.add(rng.normal(size=(50, 4)))
        after, _ = ivf.search(probe, 1)
        assert before[0] == after[0] == 17

    def test_add_crossing_train_floor_trains_quantizer(self, rng):
        ivf = IVFIndex(4, nlist=4, nprobe=4, train_floor=64, seed=0)
        ivf.add(rng.normal(size=(32, 4)))
        assert not ivf.trained
        ivf.add(rng.normal(size=(40, 4)))
        assert ivf.trained
        assert ivf.partition_sizes.sum() == 72

    def test_crossing_train_floor_starts_the_repartition_cooldown(self, rng):
        """Graduating to a trained quantizer is a build: a skewed insert
        under 10% of it right afterwards must not repartition."""
        ivf = IVFIndex(
            2, nlist=32, nprobe=32, imbalance_factor=2.0, train_floor=400, seed=0
        )
        ivf.add(rng.normal(size=(300, 2)))
        ivf.add(rng.normal(size=(100, 2)))
        assert ivf.trained
        ivf.add(0.01 * rng.normal(size=(39, 2)) + 50.0)
        assert ivf.imbalance() > 2.0
        assert ivf.repartitions == 0

    def test_update_migrates_partitions(self, rng):
        data = _clustered(rng, 500, 6)
        ivf = IVFIndex(6, nlist=8, nprobe=1, seed=0)
        ivf.rebuild(data)
        # Move row 3 into a distant region; with nprobe=1 it is only
        # findable if it physically migrated to the right partition.
        target = rng.normal(size=6) + 12.0
        ivf.update(np.array([3]), target[None, :])
        found, _ = ivf.search(target, 1)
        assert found[0] == 3
        assert ivf.partition_sizes.sum() == 500  # nothing lost

    def test_update_in_place_without_migration(self, rng):
        """A tiny nudge keeps the same nearest centroid: no migration,
        the partition row is overwritten where it sits."""
        data = rng.normal(size=(100, 4))
        ivf = IVFIndex(4, nlist=2, nprobe=2, seed=0)
        ivf.rebuild(data)
        part = int(ivf._id_part[5])
        pos = int(ivf._id_pos[5])
        nudged = (data[5] + 1e-6).astype(ivf.dtype)
        ivf.update(np.array([5]), nudged[None, :])
        assert int(ivf._id_part[5]) == part and int(ivf._id_pos[5]) == pos
        np.testing.assert_allclose(
            ivf._part_vectors[part][pos], nudged, rtol=0, atol=1e-12
        )


class TestRepartition:
    def test_imbalance_triggers_repartition(self, rng):
        ivf = IVFIndex(
            2, nlist=8, nprobe=8, imbalance_factor=2.0, train_floor=16, seed=0
        )
        ivf.rebuild(rng.normal(size=(200, 2)))
        assert ivf.trained and ivf.repartitions == 0
        corner = 0.01 * rng.normal(size=(400, 2)) + 50.0
        registry = MetricsRegistry()
        with use_registry(registry):
            ivf.add(corner)
        assert ivf.repartitions >= 1
        assert registry.counter("index.repartitions").value >= 1
        # All 600 vectors still present and exactly retrievable.
        assert ivf.partition_sizes.sum() == 600
        q = rng.normal(size=(3, 2))
        brute = BruteForceIndex(2)
        ids, vectors = ivf._gather_all()
        brute.add(vectors[np.argsort(ids)])
        for row in range(3):
            assert set(ivf.search(q[row], 15)[0]) == set(
                brute.search(q[row], 15)[0]
            )

    def test_build_starts_the_repartition_cooldown(self, rng):
        """Inserts under 10% of a fresh build never repartition, however
        skewed: the build itself is the last (re)partitioning."""
        ivf = IVFIndex(
            2, nlist=32, nprobe=32, imbalance_factor=2.0, train_floor=16, seed=0
        )
        ivf.rebuild(rng.normal(size=(400, 2)))
        ivf.add(0.01 * rng.normal(size=(39, 2)) + 50.0)
        assert ivf.imbalance() > 2.0
        assert ivf.repartitions == 0

    def test_retrain_that_cannot_flatten_is_not_repeated(self, rng):
        """A duplicated off-mixture vector fills one partition that no
        quantizer can split.  Once a retrain has failed to flatten it,
        further 10% growth at no worse a skew retrains nothing; a skew
        that keeps growing past what the retrain left still does."""
        ivf = IVFIndex(
            4, nlist=16, nprobe=16, imbalance_factor=4.0, train_floor=16, seed=0
        )
        ivf.rebuild(rng.normal(size=(1_000, 4)))
        spike = np.full(4, 20.0)

        def grow(n_rows, spike_share):
            n_spike = int(round(n_rows * spike_share))
            batch = np.vstack(
                [np.tile(spike, (n_spike, 1)), rng.normal(size=(n_rows - n_spike, 4))]
            )
            ivf.add(batch)

        grow(400, 1.0)
        assert ivf.repartitions == 1
        left_behind = ivf.imbalance()
        assert left_behind > 4.0
        for _ in range(5):
            grow(int(0.11 * len(ivf)) + 1, 0.27)  # past the 10% cooldown
            assert 4.0 < ivf.imbalance() <= left_behind
        assert ivf.repartitions == 1
        grow(int(0.11 * len(ivf)) + 1, 1.0)
        assert ivf.repartitions == 2

    def test_disabled_maintenance_never_repartitions(self, rng):
        ivf = IVFIndex(
            2, nlist=8, nprobe=8, imbalance_factor=None, train_floor=16, seed=0
        )
        ivf.rebuild(rng.normal(size=(200, 2)))
        ivf.add(0.01 * rng.normal(size=(400, 2)) + 50.0)
        assert ivf.repartitions == 0
        assert ivf.imbalance() > 2.0

    def test_manual_repartition_preserves_ids(self, rng):
        data = rng.normal(size=(300, 4))
        spike = np.zeros(4)
        spike[2] = 30.0
        data[42] = spike
        ivf = IVFIndex(4, nlist=6, nprobe=6, seed=0)
        ivf.rebuild(data)
        probe = np.eye(4)[2]
        before, _ = ivf.search(probe, 1)
        ivf.repartition()
        after, _ = ivf.search(probe, 1)
        assert before[0] == after[0] == 42
        assert ivf.repartitions == 1


class TestObservability:
    def test_search_and_insert_counters(self, rng):
        data = _clustered(rng, 1_000, 8)
        registry = MetricsRegistry()
        ivf = IVFIndex(8, nlist=10, nprobe=3, seed=0)
        ivf.rebuild(data)
        with use_registry(registry):
            ivf.search(rng.normal(size=(4, 8)), 5)
            ivf.add(rng.normal(size=(7, 8)))
        assert registry.counter("index.searches").value == 4
        # Each query probes >= nprobe partitions (more only if it must
        # widen to find k candidates).
        assert registry.counter("index.probe_partitions").value >= 4 * 3
        assert registry.counter("index.inserts").value == 7

    def test_probe_widening_guarantees_k_results(self, rng):
        """A tiny probe set over tiny partitions must widen, not truncate."""
        data = rng.normal(size=(64, 4))
        ivf = IVFIndex(4, nlist=16, nprobe=1, train_floor=2, seed=0)
        ivf.rebuild(data)
        ids, _ = ivf.search(rng.normal(size=4), 32)
        assert np.unique(ids).size == 32


class TestValidation:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            IVFIndex(4, nlist=0)
        with pytest.raises(ValueError):
            IVFIndex(4, nprobe=0)
        with pytest.raises(ValueError):
            IVFIndex(4, imbalance_factor=1.0)
        with pytest.raises(ValueError):
            IVFIndex(4, nlist=100, train_sample=50)

    def test_empty_index_rejects_search(self, rng):
        with pytest.raises(ValueError):
            IVFIndex(4).search(rng.normal(size=4), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rebuild_rejects_non_finite_rows(self, rng, bad):
        data = _clustered(rng, 200, 6)
        data[42, 3] = bad
        ivf = IVFIndex(6, nlist=8, seed=0)
        with pytest.raises(ValueError, match="1 non-finite row"):
            ivf.rebuild(data)
