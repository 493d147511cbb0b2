"""One-copy gradient staging: bit identity, in-place error feedback, allocations.

Staging copies each gradient straight into a view of its arena slice, with
gradient sparsity enforcement (GSE) folded into that copy as the masking
multiply.  These tests pin it against the recipe it replaced — ``grad * keep``,
then ``reshape(world, -1)``, then ``copyto`` — byte for byte, over every
memory layout a gradient stack arrives in and over the IEEE special values.
They also pin that error feedback compensates in the residual's own buffer,
that checkpoints still own their residuals, and that staging a GSE-masked
world-batched step allocates less than one bucket matrix.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import golden
from repro.compression import build_compressor
from repro.ddp import DistributedDataParallel
from repro.ddp.arena import GradientArena
from repro.ddp.bucket import build_buckets
from repro.nn.models import MLP, build_model
from repro.pruning import PruningMask, apply_gse
from repro.simulation.experiment import MethodSpec
from repro.simulation.regimes import TrainingCheckpoint
from repro.tensorlib import functional as F
from test_checkpoint import _assert_identical, _run

# ``inf * 0`` under a GSE mask is NaN, as it always was.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")

WORLD = 3
SPECIAL = np.array([-0.0, np.nan, np.inf, -np.inf, 0.0, -1.5])


def _model():
    return build_model("mlp", num_classes=5, seed=1)


def _arena(model, dtype=np.float64):
    buckets = build_buckets(model, bucket_cap_bytes=1 << 14)
    return GradientArena(buckets, WORLD, dtype=dtype), buckets


def _shapes(buckets):
    return {piece.param_name: piece.shape for bucket in buckets for piece in bucket.slices}


def _values(rng, shape, dtype):
    values = rng.standard_normal(shape)
    flat = values.reshape(-1)
    # Scatter the IEEE special values over every stack.
    flat[rng.choice(flat.size, size=min(flat.size, 4 * SPECIAL.size), replace=False)] = np.resize(
        SPECIAL, min(flat.size, 4 * SPECIAL.size)
    )
    return values.astype(dtype)


def _layout(values: np.ndarray, layout: str, broadcast_axis: int = 0) -> np.ndarray:
    """The same logical values in a C-contiguous, transposed or stride-0 layout."""
    if layout == "contiguous":
        return np.ascontiguousarray(values)
    if layout == "transposed":
        if values.ndim < 2:
            return np.ascontiguousarray(values[::-1])[::-1]  # negative stride
        # What the autograd hands over for a Linear weight: the (world, in,
        # out) GEMM output seen through swapaxes.
        return np.swapaxes(np.ascontiguousarray(np.swapaxes(values, -1, -2)), -1, -2)
    if layout == "broadcast":
        # Stride 0 along ``broadcast_axis``: the world axis of a replica view.
        first = np.take(values, [0], axis=broadcast_axis)
        return np.broadcast_to(first, values.shape)
    raise ValueError(layout)


def _keep(rng, shapes):
    """A GSE mask over the weights; biases stay unmasked."""
    return PruningMask(
        {name: rng.random(shape) < 0.5 for name, shape in shapes.items() if name.endswith("weight")}
    )


def _previous_write_world(arena, buckets, stacks, mask):
    """The recipe staging replaced: ``grad * keep``, ``reshape(world, -1)``, ``copyto``."""
    for bucket in buckets:
        matrix = arena.matrix(bucket.index)
        for piece in bucket.slices:
            grad = stacks[piece.param_name]
            keep = None if mask is None else mask.get(piece.param_name)
            if keep is not None:
                grad = grad * keep
            np.copyto(
                matrix[:, piece.offset : piece.end], grad.reshape(WORLD, -1), casting="unsafe"
            )


def _previous_write_rank(arena, buckets, rank, grads):
    for bucket in buckets:
        row = arena.matrix(bucket.index)[rank]
        for piece in bucket.slices:
            np.copyto(
                row[piece.offset : piece.end],
                grads[piece.param_name].reshape(-1),
                casting="unsafe",
            )


def _assert_arenas_equal(actual, expected, buckets):
    for bucket in buckets:
        assert actual.matrix(bucket.index).tobytes() == expected.matrix(bucket.index).tobytes()


@pytest.mark.parametrize("layout", ["contiguous", "transposed", "broadcast"])
@pytest.mark.parametrize("masked", [False, True], ids=["plain", "gse"])
@pytest.mark.parametrize(
    "grad_dtype,arena_dtype",
    [(np.float64, np.float64), (np.float32, np.float32), (np.float32, np.float64)],
    ids=["f64", "f32", "f32-into-f64"],
)
class TestOneCopyStaging:
    def test_write_world_matches_previous_recipe(self, layout, masked, grad_dtype, arena_dtype):
        model = _model()
        arena, buckets = _arena(model, arena_dtype)
        expected, _ = _arena(model, arena_dtype)
        rng = np.random.default_rng(0)
        shapes = _shapes(buckets)
        stacks = {
            name: _layout(_values(rng, (WORLD,) + shape, grad_dtype), layout)
            for name, shape in shapes.items()
        }
        mask = _keep(rng, shapes) if masked else None
        arena.write_world(stacks, None if mask is None else mask.masks)
        _previous_write_world(expected, buckets, stacks, mask)
        _assert_arenas_equal(arena, expected, buckets)

    def test_write_rank_matches_apply_gse(self, layout, masked, grad_dtype, arena_dtype):
        model = _model()
        arena, buckets = _arena(model, arena_dtype)
        expected, _ = _arena(model, arena_dtype)
        rng = np.random.default_rng(1)
        shapes = _shapes(buckets)
        mask = _keep(rng, shapes) if masked else None
        for rank in range(WORLD):
            grads = {
                name: _layout(_values(rng, shape, grad_dtype), layout, broadcast_axis=-1)
                for name, shape in shapes.items()
            }
            arena.write_rank(rank, grads, None if mask is None else mask.masks)
            if mask is not None:
                grads = apply_gse(model, mask, grads=grads)
            _previous_write_rank(expected, buckets, rank, grads)
        _assert_arenas_equal(arena, expected, buckets)


def test_ddp_staging_folds_gse_like_apply_gse():
    model = _model()
    rng = np.random.default_rng(2)
    ddp = DistributedDataParallel(model, WORLD, bucket_cap_bytes=1 << 14)
    expected, buckets = _arena(model)
    shapes = _shapes(buckets)
    mask = _keep(rng, shapes)
    stacks = {name: _values(rng, (WORLD,) + shape, np.float64) for name, shape in shapes.items()}
    ddp.stage_world_gradients(stacks, mask)
    _previous_write_world(expected, buckets, apply_gse(model, mask, grads=stacks), None)
    _assert_arenas_equal(ddp.arena, expected, buckets)


# --------------------------------------------------------------------------- #
# Error feedback compensates in the residual's own buffer
# --------------------------------------------------------------------------- #
EF_METHOD = MethodSpec(name="ef+topk0.01", compressor="ef+topk0.01")


def _batches(rng, world, count, features=3 * 8 * 8, samples=2):
    return [
        [
            (rng.standard_normal((samples, features)), rng.integers(0, 10, size=samples))
            for _ in range(world)
        ]
        for _ in range(count)
    ]


def test_error_feedback_residual_is_one_buffer_per_bucket():
    model = MLP(input_dim=3 * 8 * 8, hidden_dims=(32,), num_classes=10, seed=0)
    compressor = build_compressor("ef+topk0.01")
    ddp = DistributedDataParallel(model, 4, bucket_cap_bytes=1 << 12, comm_hook=compressor)
    assert len(ddp.buckets) > 1
    rng = np.random.default_rng(3)
    steps = _batches(rng, 4, 3)
    ddp.train_step(steps[0], F.cross_entropy)
    buffers = {b.index: compressor.residual(b.index) for b in ddp.buckets}
    previous = {index: residual.copy() for index, residual in buffers.items()}
    for batches in steps[1:]:
        ddp.train_step(batches, F.cross_entropy)
        for bucket in ddp.buckets:
            residual = compressor.residual(bucket.index)
            assert residual is buffers[bucket.index]
            assert not ddp.arena.shares_memory_with(residual)
    assert any(
        not np.array_equal(previous[index], residual) for index, residual in buffers.items()
    )


class _Capturing(list):
    """A checkpoint box that records each checkpoint's residual bytes at capture."""

    def __init__(self):
        super().__init__()
        self.captured_bytes = None

    def append(self, checkpoint: TrainingCheckpoint) -> None:
        self.captured_bytes = checkpoint.compressor.residual(0).tobytes()
        super().append(checkpoint)


def test_checkpoint_keeps_residual_bytes_through_later_steps_and_resumes():
    baseline = _run(golden.GOLDEN_CONFIG, EF_METHOD)
    box = _Capturing()
    _, _, live = _run(golden.GOLDEN_CONFIG, EF_METHOD, checkpoint_at=3, checkpoint_box=box)
    (checkpoint,) = box
    # The live residual kept changing in place after the capture; the
    # checkpoint's copy did not.
    assert live.residual(0).tobytes() != box.captured_bytes
    assert checkpoint.compressor.residual(0).tobytes() == box.captured_bytes
    resumed = _run(golden.GOLDEN_CONFIG, EF_METHOD, resume_from=checkpoint)
    _assert_identical(baseline, resumed)
    # Resuming compensates in a copy, never in the checkpoint's buffer.
    assert checkpoint.compressor.residual(0).tobytes() == box.captured_bytes


# --------------------------------------------------------------------------- #
# Allocation guard
# --------------------------------------------------------------------------- #
def test_gse_staging_allocates_less_than_one_bucket_matrix():
    """Masking and staging a 64-rank step allocate no gradient-sized temporaries.

    The window runs from the end of the world-batched backward to the start of
    the synchronisation; ``tracemalloc`` sees numpy's allocations.  The one
    bucket's ``fc0.weight`` slice is 95 % of it, so any temporary copy of that
    gradient stack breaks the bound.
    """
    world = 64
    model = MLP(input_dim=192, hidden_dims=(64,), num_classes=10, seed=0)
    ddp = DistributedDataParallel(model, world)
    assert len(ddp.buckets) == 1
    bucket_nbytes = ddp.arena.matrix(0).nbytes
    rng = np.random.default_rng(4)
    mask = PruningMask(
        {name: rng.random(p.shape) < 0.5 for name, p in model.named_parameters()}
    )
    (batches,) = _batches(rng, world, 1, features=192, samples=1)

    peaks = []
    backward, synchronize = ddp.compute_batched_gradients, ddp.synchronize_staged

    def backward_then_mark(*args, **kwargs):
        out = backward(*args, **kwargs)
        tracemalloc.reset_peak()
        peaks.append(tracemalloc.get_traced_memory()[0])
        return out

    def read_peak_then_synchronize():
        peaks[-1] = tracemalloc.get_traced_memory()[1] - peaks[-1]
        return synchronize()

    ddp.compute_batched_gradients = backward_then_mark
    ddp.synchronize_staged = read_peak_then_synchronize
    tracemalloc.start()
    try:
        ddp.train_step(batches, F.cross_entropy, gse_mask=mask)
        ddp.train_step(batches, F.cross_entropy, gse_mask=mask)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2
    # Copying the masked stacks first peaked just above one bucket matrix;
    # what is left is numpy's fixed-size cast buffers.
    assert max(peaks) < bucket_nbytes // 10, (peaks, bucket_nbytes)
