"""PacTrain core: Mask Tracker, adaptive compressor, config and trainer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.comm import NetworkModel, ProcessGroup
from repro.comm.network import MBPS
from repro.compression import NoCompression
from repro.compression.base import exact_average
from repro.ddp.bucket import Bucket, BucketSlice, GradBucket
from repro.pactrain import MaskTracker, PacTrainCompressor, PacTrainConfig, PacTrainTrainer
from repro.simulation import ClusterSpec


def make_bucket(buffers, index=0):
    numel = buffers[0].size
    layout = Bucket(index=index, slices=[BucketSlice("w", 0, numel, (numel,))])
    return GradBucket(layout, buffers)


def masked_buffers(rng, world_size=4, numel=400, density=0.3):
    """Per-rank gradients sharing one sparsity pattern (what GSE produces)."""
    mask = rng.random(numel) < density
    return [rng.standard_normal(numel) * mask for _ in range(world_size)], mask


class TestMaskTracker:
    def test_first_update_is_not_stable(self, rng):
        tracker = MaskTracker(stability_threshold=2)
        state = tracker.update(0, rng.random(50) < 0.3)
        assert not state.stable
        assert state.consecutive_stable == 1

    def test_becomes_stable_after_threshold(self, rng):
        tracker = MaskTracker(stability_threshold=3)
        pattern = rng.random(100) < 0.3
        verdicts = [tracker.update(0, pattern).stable for _ in range(4)]
        assert verdicts == [False, False, True, True]

    def test_new_nonzero_coordinate_resets_streak(self, rng):
        tracker = MaskTracker(stability_threshold=2)
        pattern = np.zeros(20, dtype=bool)
        pattern[:5] = True
        tracker.update(0, pattern)
        tracker.update(0, pattern)
        assert tracker.is_stable(0)
        grown = pattern.copy()
        grown[10] = True
        state = tracker.update(0, grown)
        assert state.changed
        assert not state.stable
        # Tracked mask widens to include the new coordinate.
        assert state.mask[10]

    def test_subset_pattern_does_not_reset(self, rng):
        """A coordinate that happens to be zero one iteration must not reset
        stability — compacting with the superset mask stays lossless."""
        tracker = MaskTracker(stability_threshold=2)
        pattern = np.zeros(20, dtype=bool)
        pattern[:8] = True
        tracker.update(0, pattern)
        subset = pattern.copy()
        subset[3] = False
        state = tracker.update(0, subset)
        assert not state.changed
        assert state.consecutive_stable == 2
        assert state.mask[3]  # superset retained

    def test_dense_pattern_never_stable(self):
        tracker = MaskTracker(stability_threshold=1, min_sparsity=0.05)
        dense = np.ones(100, dtype=bool)
        assert not tracker.update(0, dense).stable

    def test_buckets_tracked_independently(self, rng):
        tracker = MaskTracker(stability_threshold=2)
        a = rng.random(30) < 0.4
        b = rng.random(30) < 0.4
        tracker.update(0, a)
        tracker.update(1, b)
        tracker.update(0, a)
        assert tracker.is_stable(0)
        assert not tracker.is_stable(1)
        assert tracker.tracked_buckets == 2

    def test_update_from_rank_gradients_takes_union(self):
        tracker = MaskTracker(stability_threshold=1)
        g1 = np.array([1.0, 0.0, 0.0, 2.0])
        g2 = np.array([0.0, 0.0, 3.0, 1.0])
        state = tracker.update_from_rank_gradients(0, [g1, g2])
        np.testing.assert_array_equal(state.mask, [True, False, True, True])

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            st.sampled_from([np.float64, np.float32]),
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
            elements=st.one_of(
                st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-3, -1e-3]),
                st.floats(-2.0, 2.0, width=32),
            ),
        ),
        st.sampled_from([0.0, 1e-3, 0.5, -1.0, np.nan]),
    )
    def test_rank_gradient_union_matches_whole_matrix_expression(self, matrix, atol):
        # Row blocks OR-ed into one vector == the whole-matrix temporary, NaN
        # included (it compares false, so it stays inactive).
        state = MaskTracker(stability_threshold=1).update_from_rank_gradients(0, matrix, atol)
        expected = (np.abs(matrix) > atol).any(axis=0)
        assert state.mask.dtype == expected.dtype
        np.testing.assert_array_equal(state.mask, expected)

    def test_reset(self, rng):
        tracker = MaskTracker(stability_threshold=1)
        tracker.update(0, rng.random(10) < 0.5)
        tracker.reset(0)
        assert tracker.streak(0) == 0
        tracker.update(1, rng.random(10) < 0.5)
        tracker.reset()
        assert tracker.tracked_buckets == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MaskTracker(stability_threshold=0)
        with pytest.raises(ValueError):
            MaskTracker(min_sparsity=1.0)
        with pytest.raises(ValueError):
            MaskTracker().update_from_rank_gradients(0, [])


class TestPacTrainCompressor:
    def test_falls_back_to_full_sync_before_stability(self, rng):
        compressor = PacTrainCompressor(stability_threshold=3)
        buffers, _ = masked_buffers(rng)
        group = ProcessGroup(4)
        result = compressor.aggregate(make_bucket(buffers), group)
        np.testing.assert_allclose(result, exact_average(buffers), atol=1e-12)
        assert compressor.full_iterations == 1
        assert compressor.compact_iterations == 0

    def test_compact_path_is_lossless_on_masked_gradients(self, rng):
        """The paper's central claim: with a stable shared mask, compression is
        exact — no information about the (masked) gradient is lost."""
        compressor = PacTrainCompressor(stability_threshold=2, quantize=False)
        group = ProcessGroup(4)
        mask = rng.random(300) < 0.25
        for _ in range(5):
            buffers = [rng.standard_normal(300) * mask for _ in range(4)]
            result = compressor.aggregate(make_bucket(buffers), group)
            np.testing.assert_allclose(result, exact_average(buffers), atol=1e-12)
        assert compressor.compact_iterations >= 3

    def test_compact_path_reduces_wire_bytes(self, rng):
        compressor = PacTrainCompressor(stability_threshold=1)
        group = ProcessGroup(4, NetworkModel.from_bandwidth(4, 100 * MBPS, latency=0.0))
        mask = rng.random(1000) < 0.2
        for _ in range(3):
            buffers = [rng.standard_normal(1000) * mask for _ in range(4)]
            compressor.aggregate(make_bucket(buffers), group)
        # After the first (full) sync, only ~20% of elements travel.
        assert compressor.stats.compression_ratio > 2.0

    def test_compact_comm_time_is_lower_than_full(self, rng):
        network = NetworkModel.from_bandwidth(4, 100 * MBPS, latency=0.0)
        mask = rng.random(4000) < 0.1
        buffers = [rng.standard_normal(4000) * mask for _ in range(4)]

        baseline_group = ProcessGroup(4, network)
        NoCompression().aggregate(make_bucket(buffers), baseline_group)

        compressor = PacTrainCompressor(stability_threshold=1)
        pac_group = ProcessGroup(4, network)
        compressor.aggregate(make_bucket(buffers), pac_group)   # full sync
        pac_group.pop_events()
        compressor.aggregate(make_bucket(buffers), pac_group)   # compact sync
        compact_time = sum(e.time_seconds for e in pac_group.events)
        assert compact_time < baseline_group.total_time * 0.5

    def test_quantized_variant_keeps_masked_support(self, rng):
        compressor = PacTrainCompressor(stability_threshold=1, quantize=True, seed=0)
        group = ProcessGroup(4)
        mask = rng.random(500) < 0.3
        result = None
        buffers = None
        for _ in range(3):
            buffers = [rng.standard_normal(500) * mask + mask * 0.5 for _ in range(4)]
            result = compressor.aggregate(make_bucket(buffers), group)
        assert result is not None
        np.testing.assert_array_equal(result[~mask], 0.0)
        # Quantisation is lossy but directionally correct w.r.t. the gradients
        # that were actually aggregated.
        exact = exact_average(buffers)
        cosine = np.dot(result, exact) / (np.linalg.norm(result) * np.linalg.norm(exact))
        assert cosine > 0.5

    def test_pattern_change_forces_full_sync_again(self, rng):
        compressor = PacTrainCompressor(stability_threshold=2)
        group = ProcessGroup(2)
        mask_a = rng.random(200) < 0.2
        for _ in range(3):
            buffers = [rng.standard_normal(200) * mask_a for _ in range(2)]
            compressor.aggregate(make_bucket(buffers), group)
        compact_before = compressor.compact_iterations
        assert compact_before > 0
        # New sparsity pattern: previously-pruned coordinates become active.
        mask_b = rng.random(200) < 0.6
        buffers = [rng.standard_normal(200) * mask_b for _ in range(2)]
        result = compressor.aggregate(make_bucket(buffers), group)
        np.testing.assert_allclose(result, exact_average(buffers), atol=1e-12)
        assert compressor.full_iterations >= 2

    def test_bitmask_synced_once_per_stable_mask(self, rng):
        compressor = PacTrainCompressor(stability_threshold=1)
        group = ProcessGroup(4)
        mask = rng.random(100) < 0.3
        for _ in range(4):
            buffers = [rng.standard_normal(100) * mask for _ in range(4)]
            compressor.aggregate(make_bucket(buffers), group)
        assert compressor.stats.extra.get("bitmask_syncs", 0) == 1.0

    def test_reset(self, rng):
        compressor = PacTrainCompressor(stability_threshold=1)
        group = ProcessGroup(2)
        buffers, _ = masked_buffers(rng, world_size=2)
        compressor.aggregate(make_bucket(buffers), group)
        compressor.reset()
        assert compressor.compact_iterations == 0
        assert compressor.full_iterations == 0
        assert compressor.tracker.tracked_buckets == 0

    def test_dense_gradients_never_use_compact_path(self, rng):
        compressor = PacTrainCompressor(stability_threshold=1, min_sparsity=0.05)
        group = ProcessGroup(2)
        for _ in range(4):
            buffers = [rng.standard_normal(100) for _ in range(2)]  # fully dense
            compressor.aggregate(make_bucket(buffers), group)
        assert compressor.compact_iterations == 0

    def test_allreduce_compatible_flag(self):
        assert PacTrainCompressor().allreduce_compatible
        assert PacTrainCompressor(quantize=False).lossless
        assert not PacTrainCompressor(quantize=True).lossless


class TestPacTrainConfig:
    def test_defaults_match_paper(self):
        config = PacTrainConfig()
        assert config.pruning_ratio == pytest.approx(0.5)
        assert config.pruning_method == "magnitude"
        assert config.gse_every_iteration

    def test_validation(self):
        with pytest.raises(ValueError):
            PacTrainConfig(pruning_ratio=1.0)
        with pytest.raises(ValueError):
            PacTrainConfig(pruning_method="l1-norm")
        with pytest.raises(ValueError):
            PacTrainConfig(stability_threshold=0)
        with pytest.raises(ValueError):
            PacTrainConfig(warmup_iterations=-1)


class TestPacTrainTrainer:
    @pytest.fixture
    def trainer(self):
        return PacTrainTrainer(
            model="mlp",
            dataset="cifar10",
            cluster=ClusterSpec(world_size=2, bandwidth="100Mbps"),
            config=PacTrainConfig(pruning_ratio=0.5, stability_threshold=2),
            epochs=2,
            batch_size=16,
            dataset_samples=96,
            seed=0,
        )

    def test_run_produces_sparse_model_and_positive_accuracy(self, trainer):
        result = trainer.run()
        assert result.weight_sparsity > 0.2
        assert result.final_accuracy > 0.2
        assert result.simulated_time > 0
        assert result.comm_time > 0
        assert result.extra["compact_iterations"] > 0

    def test_method_spec_mirrors_config(self, trainer):
        spec = trainer.method_spec()
        assert spec.compressor == "pactrain"
        assert spec.pruning_ratio == pytest.approx(0.5)
        assert spec.gse

    def test_baseline_run_is_dense_and_slower(self, trainer):
        pac = trainer.run()
        base = trainer.run_baseline("allreduce")
        assert base.weight_sparsity < 0.05
        assert base.comm_time > pac.comm_time

    def test_summary_keys(self, trainer):
        result = trainer.run()
        summary = trainer.summary(result)
        assert {"final_accuracy", "simulated_time_s", "compression_ratio"} <= set(summary)
