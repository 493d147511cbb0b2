"""The training driver: up-front regime checks and the one DDP step path.

* Every unsupported regime combination is rejected by
  :func:`~repro.simulation.experiment.check_regime_support` *before* the
  dataset is built — the tests make ``make_dataset`` fail, so a check that
  ran any later would surface that error instead.
* A synchronous cell trains through
  :meth:`~repro.ddp.DistributedDataParallel.train_step` exactly once per
  iteration, so the perf suite's ``train_step/*`` rows time the production
  step.
* ``train_step`` itself: degraded memberships skip dead ranks, GSE masks the
  gradients before staging.
* The benchmark's span-stack self-check stays clean, so a refactor that
  drops a method the per-layer attribution wraps fails here.
"""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro import golden
from repro.compression import Compressor, exact_average, register_compressor
from repro.data import DataLoader, DistributedSampler, synthetic_cifar10
from repro.ddp import DistributedDataParallel
from repro.nn.models import mlp_tiny
from repro.pruning import magnitude_prune
from repro.simulation import experiment
from repro.simulation.cluster import ClusterSpec
from repro.simulation.experiment import MethodSpec, run_experiment, train_distributed
from repro.tensorlib import functional as F

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _PlainMean(Compressor):
    """Minimal non-codec compressor: exact dense averaging, no pipeline."""

    name = "driver-plain-mean"
    lossless = True

    def __init__(self, seed=None):
        super().__init__()

    def aggregate(self, bucket, group, iteration=0):
        flats = [np.asarray(row) for row in bucket.buffers]
        group.all_reduce(flats, average=True)
        return exact_average(flats)


FAULTY = ClusterSpec(world_size=4, bandwidth="100Mbps", faults="crash:3@0.002,rejoin:3@0.008")

#: (case id, method, cluster or None for the golden one, message pattern).
REJECTED = [
    ("ps-non-codec", MethodSpec(name="p", compressor="driver-plain-mean", sync_schedule="ps:2"),
     None, "'ps:2'.*codec"),
    ("ps-pruning", MethodSpec(name="p", compressor="topk-0.01", pruning_ratio=0.5,
                              sync_schedule="ps:2"), None, "'ps:2'.*pruning"),
    ("ps-gse", MethodSpec(name="p", compressor="topk-0.01", gse=True, sync_schedule="ps"),
     None, "'ps'.*pruning/GSE"),
    ("ps-pactrain-unpruned", MethodSpec(name="p", compressor="pactrain", sync_schedule="ps:2"),
     None, "'ps:2'.*PacTrain"),
    ("ps-faults", MethodSpec(name="p", compressor="topk-0.01", sync_schedule="ps:2"),
     FAULTY, "parameter-server"),
    ("delta-non-codec", MethodSpec(name="p", compressor="driver-plain-mean",
                                   sync_schedule="localsgd:4:delta"),
     None, "'localsgd:4:delta'.*delta mode"),
]


@pytest.fixture(autouse=True)
def _plain_mean_registered():
    register_compressor("driver-plain-mean", _PlainMean)


class TestRegimeChecksRunFirst:
    @pytest.mark.parametrize(
        "method, cluster, pattern",
        [case[1:] for case in REJECTED],
        ids=[case[0] for case in REJECTED],
    )
    def test_rejected_before_the_dataset_is_built(self, monkeypatch, method, cluster, pattern):
        def no_dataset(*args, **kwargs):
            raise AssertionError("the dataset was built before the regime check")

        monkeypatch.setattr(experiment, "make_dataset", no_dataset)
        config = golden.GOLDEN_CONFIG
        if cluster is not None:
            config = dataclasses.replace(config, cluster=cluster)
        with pytest.raises(ValueError, match=pattern):
            run_experiment(config, method)

    @pytest.mark.parametrize("schedule", ["localsgd:4", "localsgd:4:delta", "ps:2"])
    def test_checkpoint_on_a_non_synchronous_schedule(self, schedule):
        # Placeholders for the model and data: the check runs before either
        # is touched.
        with pytest.raises(ValueError, match="synchronous"):
            train_distributed(
                model=None, train_dataset=None, test_loader=None,
                method=MethodSpec(name="p", compressor="topk-0.01", sync_schedule=schedule),
                cluster=golden.GOLDEN_CONFIG.cluster, epochs=1, batch_size=8, lr=0.05,
                checkpoint_at=1, checkpoint_box=[],
            )

    def test_supported_cells_still_run_with_zero_iterations(self):
        config = dataclasses.replace(golden.GOLDEN_CONFIG, max_iterations_per_epoch=0)
        for schedule in ("sync", "localsgd:3:delta", "ps:2"):
            method = MethodSpec(name="p", compressor="topk-0.01", sync_schedule=schedule)
            result = run_experiment(config, method)
            assert result.iterations_run == 0
            assert result.epochs_run == config.epochs
            assert result.simulated_time == 0.0


class TestOneStepPath:
    @pytest.mark.parametrize("schedule", ["sync", "localsgd:1"])
    def test_sync_cell_calls_train_step_once_per_iteration(self, monkeypatch, schedule):
        calls = []
        original = DistributedDataParallel.train_step

        def counting(self, *args, **kwargs):
            calls.append(self.hook_state.iteration)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(DistributedDataParallel, "train_step", counting)
        method = dataclasses.replace(golden.GOLDEN_METHODS["pactrain"], sync_schedule=schedule)
        result = run_experiment(golden.GOLDEN_CONFIG, method)
        assert result.iterations_run > 0
        assert calls == list(range(result.iterations_run))

    def test_local_sgd_windows_do_not_take_the_sync_step(self, monkeypatch):
        def forbidden(self, *args, **kwargs):
            raise AssertionError("local SGD must step its replicas, not the shared model")

        monkeypatch.setattr(DistributedDataParallel, "train_step", forbidden)
        method = MethodSpec(name="p", compressor="topk-0.01", sync_schedule="localsgd:3")
        assert run_experiment(golden.GOLDEN_CONFIG, method).sync_rounds > 0


def _batches(world: int):
    dataset = synthetic_cifar10(num_samples=32, image_size=8, seed=0)
    return [
        next(iter(DataLoader(dataset, batch_size=4,
                             sampler=DistributedSampler(len(dataset), world, rank, seed=0))))
        for rank in range(world)
    ]


class TestTrainStep:
    def test_degraded_step_skips_dead_ranks(self):
        ddp = DistributedDataParallel(mlp_tiny(num_classes=10, seed=0), world_size=4)
        batches = _batches(4)
        ddp.set_active_ranks([0, 2])
        result = ddp.train_step(batches, F.cross_entropy, execution="batched")
        assert len(result.per_rank_loss) == 2

        reference = DistributedDataParallel(mlp_tiny(num_classes=10, seed=0), world_size=2)
        expected = reference.train_step([batches[0], batches[2]], F.cross_entropy)
        assert result.per_rank_loss == expected.per_rank_loss
        for (_, a), (_, b) in zip(ddp.model.named_parameters(), reference.model.named_parameters()):
            np.testing.assert_array_equal(a.grad, b.grad)

    @pytest.mark.parametrize("execution", ["batched", "looped"])
    def test_gse_mask_zeroes_pruned_gradients(self, execution):
        model = mlp_tiny(num_classes=10, seed=0)
        mask = magnitude_prune(model, 0.5)
        ddp = DistributedDataParallel(model, world_size=2)
        ddp.train_step(_batches(2), F.cross_entropy, execution=execution, gse_mask=mask)
        pruned = 0
        for name, param in model.named_parameters():
            keep = mask.get(name)
            if keep is not None:
                assert np.all(param.grad[~keep] == 0.0), name
                pruned += int(np.sum(~keep))
        assert pruned > 0

    def test_gse_step_is_identical_batched_and_looped(self):
        grads = {}
        for execution in ("batched", "looped"):
            model = mlp_tiny(num_classes=10, seed=0)
            mask = magnitude_prune(model, 0.5)
            ddp = DistributedDataParallel(model, world_size=2)
            ddp.train_step(_batches(2), F.cross_entropy, execution=execution, gse_mask=mask)
            grads[execution] = {name: p.grad.copy() for name, p in model.named_parameters()}
        for name, value in grads["batched"].items():
            np.testing.assert_array_equal(value, grads["looped"][name])


class TestBenchmarkSelfCheck:
    def test_span_stack_and_layer_wrappers_are_clean(self, monkeypatch):
        # selfcheck.py imports its sibling ``spans`` module by plain name.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_selfcheck", PERFBENCH / "selfcheck.py")
        selfcheck = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(selfcheck)
        assert selfcheck.problems() == []
