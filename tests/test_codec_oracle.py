"""The world-level codec is bit-identical to the per-rank oracle.

``tests/codec_oracle.py`` keeps the per-rank codec path (per-rank payloads,
``prepare`` + ``encode(payload, ctx, rank)``, rank-by-rank payload
collectives, per-rank dense decodes of gathered payloads).  Every registry
compressor, composed codec specs and PacTrain (with and without ternary
quantisation) run side by side with it over world sizes 1–33 in float32 and
float64, on matrices with exact zeros, ``-0.0``, tied magnitudes and all-zero
rows.  Over three iterations the aggregated gradient, the driver residuals,
the stage state, the compressor statistics and every logged collective event
must match bit for bit, and every payload a collective hands back must be
read-only.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codec_oracle import (
    OPipeline,
    OracleCompressor,
    OracleGroup,
    OraclePacTrain,
    oracle_stage,
)
from repro.comm import NetworkModel, ProcessGroup
from repro.comm.network import MBPS
from repro.compression import WirePayload, build_compressor
from repro.compression.codec import DGCSelect, LowRank, MaskCompact, Ternarize, TopK
from repro.ddp.bucket import Bucket, BucketSlice, GradBucket
from repro.pactrain import PacTrainCompressor
from repro.tensorlib.dtypes import default_dtype

SPECS = [
    # Every registered name.
    "allreduce", "all-reduce", "fp16", "topk-0.1", "topk-0.01", "topk", "randomk",
    "terngrad", "dgc", "dgc-0.01", "none", "identity",
    # Codec specs covering every stage, alone, composed and under driver EF.
    "topk0.1", "randomk0.1", "signsgd", "powersgd-rank2",
    "topk0.01+terngrad", "randomk0.1+fp16", "topk0.2+fp16", "fp16+terngrad",
    "ef+topk0.1", "ef+randomk0.3", "ef+signsgd", "ef+powersgd-rank2",
    "ef+terngrad", "ef+fp16", "ef+topk0.2+terngrad",
]
PACTRAIN = ["pactrain", "pactrain-terngrad"]
ITERATIONS = 3


class RecordingGroup(ProcessGroup):
    """A process group that keeps every payload its collectives hand back."""

    def __init__(self, world_size, network):
        super().__init__(world_size, network)
        self.results = []

    def all_reduce(self, buffers, *args, **kwargs):
        result = super().all_reduce(buffers, *args, **kwargs)
        self.results.append(result)
        return result

    def all_gather(self, buffers, *args, **kwargs):
        result = super().all_gather(buffers, *args, **kwargs)
        self.results.append(result)
        return result

    def broadcast(self, buffer, *args, **kwargs):
        replicas = super().broadcast(buffer, *args, **kwargs)
        self.results.extend(replicas)
        return replicas


def _matrices(seed: int, world: int, numel: int, dtype: str, mask=None):
    """Gradient matrices with zeros, -0.0, tied magnitudes and zero rows."""
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5])
    out = []
    for _ in range(ITERATIONS):
        matrix = rng.standard_normal((world, numel))
        special = rng.random((world, numel)) < 0.3
        matrix[special] = rng.choice(pool, size=int(special.sum()))
        matrix[rng.random(world) < 0.15] = 0.0
        if mask is not None:
            matrix = matrix * mask
        out.append(matrix.astype(dtype))
    return out


def _oracle_for(compressor) -> OracleCompressor:
    if isinstance(compressor, PacTrainCompressor):
        return OraclePacTrain(
            compressor.tracker.stability_threshold,
            compressor.tracker.min_sparsity,
            compressor.quantize,
            compressor.seed,
        )
    stages = [oracle_stage(stage) for stage in compressor.pipeline.stages]
    return OracleCompressor(OPipeline(stages), compressor.error_feedback)


def _assert_bits(actual, expected, what):
    actual = np.ascontiguousarray(actual)
    expected = np.ascontiguousarray(expected)
    assert actual.dtype == expected.dtype, what
    assert actual.shape == expected.shape, what
    assert np.array_equal(actual.view(np.uint8), expected.view(np.uint8)), what


def _assert_state_dicts(actual, expected, what):
    assert sorted(actual) == sorted(expected), what
    for key in actual:
        _assert_bits(actual[key], expected[key], f"{what}[{key}]")


def _assert_stage_state(stage, twin):
    if isinstance(stage, TopK):
        _assert_state_dicts(stage._residuals, twin._residuals, "TopK residuals")
    elif isinstance(stage, DGCSelect):
        _assert_state_dicts(stage._momentum, twin._momentum, "DGC momentum")
        _assert_state_dicts(stage._accum, twin._accum, "DGC accumulation")
    elif isinstance(stage, LowRank):
        _assert_state_dicts(stage._q_prev, twin._q_prev, "LowRank q_prev")
    elif isinstance(stage, Ternarize):
        assert stage._rng.bit_generator.state == twin._rng.bit_generator.state
    elif isinstance(stage, MaskCompact):
        _assert_state_dicts(stage._indices, twin._indices, "MaskCompact indices")


def _assert_read_only(payload):
    assert isinstance(payload, WirePayload)
    for item in dataclasses.fields(payload):
        value = getattr(payload, item.name)
        if isinstance(value, np.ndarray) and value.size:
            assert not value.flags.writeable
            first = (0,) * value.ndim
            with pytest.raises(ValueError):
                value[first] = value[first]


def _run(spec, world, numel, dtype, seed):
    with default_dtype(dtype):
        compressor = build_compressor(spec, seed=seed % 7)
        mask = None
        if isinstance(compressor, PacTrainCompressor):
            compressor = PacTrainCompressor(
                stability_threshold=2, quantize=compressor.quantize, seed=compressor.seed
            )
            mask = np.random.default_rng(seed + 1).random(numel) < 0.4
        oracle = _oracle_for(compressor)
        network = NetworkModel.from_bandwidth(world, 100 * MBPS)
        group = RecordingGroup(world, network)
        oracle_group = OracleGroup(world, network)
        layout = Bucket(index=1, slices=[BucketSlice("w", 0, numel, (numel,))])
        for iteration, matrix in enumerate(_matrices(seed, world, numel, dtype, mask)):
            result = compressor.aggregate(
                GradBucket(layout, matrix=matrix.copy()), group, iteration=iteration
            )
            expected = oracle.aggregate(matrix.copy(), 1, oracle_group, iteration)
            _assert_bits(result, expected, f"{spec} result @ {iteration}")
            assert result.flags.writeable
            assert group.events == oracle_group.events
            assert compressor.stats == oracle.stats
            if compressor.error_feedback:
                _assert_bits(compressor.residual(1), oracle._residuals[1], f"{spec} residual")
            stages = compressor.pipeline.stages
            twins = oracle.pipeline.stages
            assert len(stages) == len(twins)
            for stage, twin in zip(stages, twins):
                _assert_stage_state(stage, twin)
        if isinstance(compressor, PacTrainCompressor):
            assert compressor.compact_iterations == oracle.compact_iterations
            assert compressor.full_iterations == oracle.full_iterations
        for payload in group.results:
            _assert_read_only(payload)


@given(
    spec=st.sampled_from(SPECS + PACTRAIN),
    world=st.integers(1, 33),
    numel=st.integers(1, 70),
    dtype=st.sampled_from(["float32", "float64"]),
    seed=st.integers(0, 2**20),
)
@settings(max_examples=300, deadline=None)
def test_world_level_codec_matches_per_rank_oracle(spec, world, numel, dtype, seed):
    _run(spec, world, numel, dtype, seed)


@pytest.mark.parametrize("spec", SPECS + PACTRAIN)
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_every_spec_matches_oracle_at_a_wide_world(spec, dtype):
    _run(spec, 33, 257, dtype, seed=11)
