"""Per-rank codec path kept as a test oracle for the world-level codec.

This module preserves, in trimmed form, the aggregation path the codec used
before it was batched over ranks: per-rank payload objects, a per-stage
``prepare`` over all ranks followed by one ``encode(payload, ctx, rank)`` per
rank, payload collectives that accumulate rank by rank and deep-copy gathered
payloads, and a driver that decodes every gathered rank into a dense vector.
``tests/test_codec_oracle.py`` runs it side by side with the production code
and requires bit-identical results, residuals, stage state, statistics and
collective events.  It is test-only and deliberately independent of the
production payload, stage, pipeline and collective code.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.comm.collectives import CollectiveEvent
from repro.compression.base import CompressionStats
from repro.compression.codec import (
    DGCSelect,
    Half,
    Identity,
    LowRank,
    MaskCompact,
    RandomK,
    Sign,
    Ternarize,
    TopK,
)
from repro.compression.codec.stages import batched_top_k_indices, orthonormalize
from repro.pactrain.mask_tracker import MaskTracker
from repro.tensorlib.dtypes import get_default_dtype

FP32_BYTES = 4.0
FP16_BYTES = 2.0
INDEX_BYTES = 4.0
TERNARY_BYTES = 0.25


def _supported(dtype: np.dtype) -> bool:
    return dtype.name in ("float32", "float64")


def float_dtype_of(array: np.ndarray) -> np.dtype:
    return array.dtype if _supported(array.dtype) else get_default_dtype()


def as_compute_array(value) -> np.ndarray:
    if isinstance(value, np.ndarray):
        target = float_dtype_of(value)
        return value if value.dtype == target else value.astype(target)
    return np.asarray(value, dtype=get_default_dtype())


# --------------------------------------------------------------------------- #
# Per-rank payloads
# --------------------------------------------------------------------------- #
class Payload:
    def reducible_with(self, other) -> bool:
        return False


@dataclass(frozen=True)
class Dense(Payload):
    values: np.ndarray
    element_bytes: float = FP32_BYTES

    @property
    def nbytes(self) -> float:
        return self.values.size * self.element_bytes

    @property
    def transmitted_elements(self) -> int:
        return int(self.values.size)

    def reducible_with(self, other) -> bool:
        return isinstance(other, Dense) and other.values.shape == self.values.shape

    def reduce_values(self) -> np.ndarray:
        return as_compute_array(self.values)

    def with_reduced(self, values):
        return Dense(values, element_bytes=self.element_bytes)


@dataclass(frozen=True)
class HalfP(Payload):
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float16))

    @property
    def nbytes(self) -> float:
        return self.values.size * FP16_BYTES

    @property
    def transmitted_elements(self) -> int:
        return int(self.values.size)

    def reducible_with(self, other) -> bool:
        return isinstance(other, HalfP) and other.values.shape == self.values.shape

    def reduce_values(self) -> np.ndarray:
        return self.values.astype(get_default_dtype())

    def with_reduced(self, values):
        return Dense(values)


@dataclass(frozen=True)
class Sparse(Payload):
    indices: np.ndarray
    values: np.ndarray
    numel: int
    value_bytes: float = FP32_BYTES
    indices_on_wire: bool = True
    shared_selection: bool = False

    @property
    def nbytes(self) -> float:
        per_element = self.value_bytes + (INDEX_BYTES if self.indices_on_wire else 0.0)
        return self.values.size * per_element

    @property
    def transmitted_elements(self) -> int:
        return int(self.values.size)

    def reducible_with(self, other) -> bool:
        return (
            isinstance(other, Sparse)
            and self.shared_selection
            and other.shared_selection
            and other.numel == self.numel
            and (other.indices is self.indices or np.array_equal(other.indices, self.indices))
        )

    def reduce_values(self) -> np.ndarray:
        return as_compute_array(self.values)

    def with_reduced(self, values):
        return replace(self, values=values)

    def densify(self) -> np.ndarray:
        dense = np.zeros(self.numel, dtype=float_dtype_of(np.asarray(self.values)))
        dense[self.indices] = self.values
        return dense


def pack_ternary(codes: np.ndarray) -> np.ndarray:
    symbols = np.zeros(codes.size, dtype=np.uint8)
    symbols[codes > 0] = 1
    symbols[codes < 0] = 2
    pad = (-symbols.size) % 4
    if pad:
        symbols = np.concatenate([symbols, np.zeros(pad, dtype=np.uint8)])
    quads = symbols.reshape(-1, 4)
    return (quads[:, 0] | (quads[:, 1] << 2) | (quads[:, 2] << 4) | (quads[:, 3] << 6)).astype(np.uint8)


def unpack_ternary(packed: np.ndarray, size: int) -> np.ndarray:
    packed = np.asarray(packed, dtype=np.uint8)
    quads = np.empty((packed.size, 4), dtype=np.uint8)
    quads[:, 0] = packed & 0b11
    quads[:, 1] = (packed >> 2) & 0b11
    quads[:, 2] = (packed >> 4) & 0b11
    quads[:, 3] = (packed >> 6) & 0b11
    symbols = quads.reshape(-1)[:size]
    codes = np.zeros(size, dtype=np.int8)
    codes[symbols == 1] = 1
    codes[symbols == 2] = -1
    return codes


@dataclass(frozen=True)
class Ternary(Payload):
    packed: np.ndarray
    scale: float
    size: int

    @property
    def nbytes(self) -> float:
        return self.size * TERNARY_BYTES

    @property
    def transmitted_elements(self) -> int:
        return self.size

    def reducible_with(self, other) -> bool:
        return isinstance(other, Ternary) and other.size == self.size

    def reduce_values(self) -> np.ndarray:
        return self.scale * unpack_ternary(self.packed, self.size).astype(get_default_dtype())

    def with_reduced(self, values):
        return Dense(values)


@dataclass(frozen=True)
class SignP(Payload):
    packed: np.ndarray
    scale: float
    size: int

    @classmethod
    def from_values(cls, values: np.ndarray) -> "SignP":
        values = np.asarray(values)
        scale = float(np.mean(np.abs(values))) if values.size else 0.0
        return cls(packed=np.packbits(values >= 0.0), scale=scale, size=int(values.size))

    @property
    def nbytes(self) -> float:
        return float(self.packed.size) + FP32_BYTES

    @property
    def transmitted_elements(self) -> int:
        return self.size

    def codes(self) -> np.ndarray:
        bits = np.unpackbits(self.packed, count=self.size)
        return (2.0 * bits - 1.0).astype(get_default_dtype())

    def reducible_with(self, other) -> bool:
        return isinstance(other, SignP) and other.size == self.size

    def reduce_values(self) -> np.ndarray:
        return np.concatenate([self.codes(), np.asarray([self.scale], dtype=get_default_dtype())])

    def with_reduced(self, values):
        codes, scale = values[: self.size], float(values[self.size])
        return Dense(scale * np.sign(codes))

    def densify(self) -> np.ndarray:
        return self.scale * self.codes()


@dataclass(frozen=True)
class LowRankP(Payload):
    p: np.ndarray
    q: np.ndarray
    numel: int

    @property
    def nbytes(self) -> float:
        return (self.p.shape[0] + self.q.shape[0]) * self.p.shape[1] * FP32_BYTES

    @property
    def transmitted_elements(self) -> int:
        return int((self.p.shape[0] + self.q.shape[0]) * self.p.shape[1])

    def reducible_with(self, other) -> bool:
        return (
            isinstance(other, LowRankP)
            and other.numel == self.numel
            and other.p.shape == self.p.shape
            and other.q.shape == self.q.shape
            and (other.p is self.p or np.array_equal(other.p, self.p))
        )

    def reduce_values(self) -> np.ndarray:
        return as_compute_array(self.q).reshape(-1)

    def with_reduced(self, values):
        return replace(self, q=values.reshape(self.q.shape))

    def densify(self) -> np.ndarray:
        return (self.p @ self.q.T).reshape(-1)[: self.numel]


@dataclass(frozen=True)
class Bitmask(Payload):
    packed: np.ndarray
    size: int

    @property
    def nbytes(self) -> float:
        return float(self.packed.size)


# --------------------------------------------------------------------------- #
# Payload collectives (rank-by-rank accumulation, deep-copied gathers)
# --------------------------------------------------------------------------- #
def accumulate_sum(arrays) -> np.ndarray:
    total: Optional[np.ndarray] = None
    for array in arrays:
        if total is None:
            array = np.asarray(array)
            total = np.zeros(array.shape, dtype=float_dtype_of(array))
        np.add(total, array, out=total, casting="unsafe")
    return total


class OracleGroup:
    """A process group over per-rank payload lists with the same event log."""

    def __init__(self, world_size: int, network=None) -> None:
        self.world_size = world_size
        self.network = network
        self.events: List[CollectiveEvent] = []

    def all_reduce(self, payloads, average: bool = True):
        head = payloads[0]
        for payload in payloads[1:]:
            if not head.reducible_with(payload):
                raise ValueError("payloads are not element-wise reducible")
        world = len(payloads)
        total = accumulate_sum(payload.reduce_values() for payload in payloads)
        if average:
            total /= world
        num_bytes = max(payload.nbytes for payload in payloads)
        self.events.append(CollectiveEvent(
            op="all_reduce",
            bytes_per_worker=2.0 * (world - 1) / world * num_bytes if world > 1 else 0.0,
            time_seconds=self.network.ring_all_reduce_time(num_bytes) if self.network else 0.0,
            world_size=world,
            payload_elements=int(head.transmitted_elements),
            metadata={"payload": _production_name(head)},
        ))
        return head.with_reduced(total)

    def all_gather(self, payloads):
        world = len(payloads)
        num_bytes = max(payload.nbytes for payload in payloads)
        self.events.append(CollectiveEvent(
            op="all_gather",
            bytes_per_worker=(world - 1) * num_bytes if world > 1 else 0.0,
            time_seconds=self.network.all_gather_time(num_bytes) if self.network else 0.0,
            world_size=world,
            payload_elements=max(int(p.transmitted_elements) for p in payloads),
            metadata={"payload": _production_name(payloads[0])},
        ))
        return [copy.deepcopy(payload) for payload in payloads]

    def broadcast(self, payload: Bitmask):
        num_bytes = payload.nbytes
        self.events.append(CollectiveEvent(
            op="broadcast",
            bytes_per_worker=num_bytes if self.world_size > 1 else 0.0,
            time_seconds=self.network.broadcast_time(num_bytes) if self.network else 0.0,
            world_size=self.world_size,
            payload_elements=int(payload.size),
            metadata={"payload": _production_name(payload)},
        ))


_NAMES = {
    Dense: "DensePayload", HalfP: "HalfPayload", Sparse: "SparsePayload",
    Ternary: "TernaryPayload", SignP: "SignPayload", LowRankP: "LowRankPayload",
    Bitmask: "BitmaskPayload",
}


def _production_name(payload: Payload) -> str:
    return _NAMES[type(payload)]


# --------------------------------------------------------------------------- #
# Per-rank stages: prepare over all ranks, then encode rank by rank
# --------------------------------------------------------------------------- #
@dataclass
class Ctx:
    world_size: int = 1
    bucket_index: int = 0
    iteration: int = 0
    group: Optional[OracleGroup] = None
    shared: Dict = field(default_factory=dict)
    matrix: Optional[np.ndarray] = None


def _dense_input(payload, stage: str) -> np.ndarray:
    if not isinstance(payload, Dense):
        raise TypeError(f"{stage} must be the first stage of a pipeline")
    return as_compute_array(payload.values)


def _stacked_inputs(inputs, ctx: Ctx, stage: str) -> np.ndarray:
    if ctx.matrix is not None:
        return ctx.matrix
    return np.stack([_dense_input(p, stage) for p in inputs])


class OStage:
    allreduce_compatible = True

    def prepare(self, inputs, ctx: Ctx) -> None:
        pass

    def decode(self, payload):
        if isinstance(payload, Sparse):
            return Dense(payload.densify())
        return payload


class OIdentity(OStage):
    def encode(self, payload, ctx, rank=0):
        return payload

    def decode(self, payload):
        return payload


class OHalf(OStage):
    def encode(self, payload, ctx, rank=0):
        if isinstance(payload, Dense):
            return HalfP(payload.values.astype(np.float16))
        halved = payload.values.astype(np.float16).astype(float_dtype_of(np.asarray(payload.values)))
        return Sparse(
            payload.indices, halved, payload.numel, value_bytes=FP16_BYTES,
            indices_on_wire=payload.indices_on_wire, shared_selection=payload.shared_selection,
        )

    def decode(self, payload):
        if isinstance(payload, HalfP):
            return Dense(payload.reduce_values())
        return payload


class OTopK(OStage):
    allreduce_compatible = False

    def __init__(self, ratio: float, error_feedback: bool) -> None:
        self.ratio = ratio
        self.error_feedback = error_feedback
        self._residuals: Dict[int, np.ndarray] = {}

    def prepare(self, inputs, ctx):
        matrix = _stacked_inputs(inputs, ctx, "TopK")
        numel = matrix.shape[1]
        k = max(1, int(round(numel * self.ratio)))
        if self.error_feedback:
            residual = self._residuals.get(ctx.bucket_index)
            if residual is not None and residual.shape == matrix.shape:
                matrix = matrix + residual
        indices = batched_top_k_indices(matrix, k)
        values = np.take_along_axis(matrix, indices, axis=1)
        if self.error_feedback:
            residual = matrix.copy()
            np.put_along_axis(residual, indices, 0.0, axis=1)
            self._residuals[ctx.bucket_index] = residual
        ctx.shared[id(self)] = (indices, values, numel)

    def encode(self, payload, ctx, rank=0):
        indices, values, numel = ctx.shared[id(self)]
        return Sparse(indices[rank], values[rank], numel, indices_on_wire=True, shared_selection=False)


class ORandomK(OStage):
    def __init__(self, ratio: float, seed: int, rescale: bool) -> None:
        self.ratio = ratio
        self.seed = seed
        self.rescale = rescale

    def prepare(self, inputs, ctx):
        numel = inputs[0].values.size
        k = max(1, int(round(numel * self.ratio)))
        rng = np.random.default_rng(self.seed + 1_000_003 * ctx.bucket_index + ctx.iteration)
        ctx.shared[id(self)] = (rng.choice(numel, size=k, replace=False), numel)

    def encode(self, payload, ctx, rank=0):
        indices, numel = ctx.shared[id(self)]
        values = _dense_input(payload, "RandomK")[indices]
        return Sparse(indices, values, numel, indices_on_wire=False, shared_selection=True)

    def decode(self, payload):
        if isinstance(payload, Sparse):
            dense = payload.densify()
            if self.rescale and payload.values.size:
                dense *= payload.numel / payload.values.size
            return Dense(dense)
        return payload


class OMaskCompact(OStage):
    def __init__(self) -> None:
        self._indices: Dict[int, np.ndarray] = {}

    def set_mask(self, bucket_index: int, mask: np.ndarray) -> None:
        self._indices[bucket_index] = np.flatnonzero(np.asarray(mask, dtype=bool))

    def encode(self, payload, ctx, rank=0):
        indices = self._indices[ctx.bucket_index]
        values = _dense_input(payload, "MaskCompact")
        return Sparse(indices, values[indices], values.size, indices_on_wire=False, shared_selection=True)


class OTernarize(OStage):
    def __init__(self, seed: int, clip_sigma: Optional[float]) -> None:
        self.clip_sigma = clip_sigma
        self._rng = np.random.default_rng(seed)

    def _clip(self, values):
        if self.clip_sigma is None or values.size == 0:
            return values
        sigma = float(np.std(values))
        if sigma == 0.0:
            return values
        bound = self.clip_sigma * sigma
        return np.clip(values, -bound, bound)

    @staticmethod
    def _values_of(payload):
        if isinstance(payload, (Dense, Sparse)):
            return as_compute_array(payload.values)
        return payload.reduce_values()

    def prepare(self, inputs, ctx):
        clipped = [self._clip(self._values_of(p)) for p in inputs]
        if all(values.size == 0 for values in clipped):
            ctx.shared[id(self)] = (clipped, 0.0)
            return
        maxima = [float(np.max(np.abs(v))) if v.size else 0.0 for v in clipped]
        if ctx.group is not None:
            ctx.group.all_reduce([Dense(np.array([m])) for m in maxima], average=False)
        ctx.shared[id(self)] = (clipped, max(maxima))

    def encode(self, payload, ctx, rank=0):
        clipped, scale = ctx.shared[id(self)]
        values = clipped[rank]
        if scale == 0.0:
            codes = np.zeros(values.size, dtype=np.int8)
        else:
            probability = np.clip(np.abs(values) / scale, 0.0, 1.0)
            keep = self._rng.random(values.shape) < probability
            codes = (np.sign(values) * keep).astype(np.int8)
        if isinstance(payload, Sparse):
            return Sparse(
                payload.indices,
                scale * codes.astype(float_dtype_of(np.asarray(payload.values))),
                payload.numel, value_bytes=TERNARY_BYTES,
                indices_on_wire=payload.indices_on_wire, shared_selection=payload.shared_selection,
            )
        return Ternary(packed=pack_ternary(codes), scale=scale, size=values.size)

    def decode(self, payload):
        if isinstance(payload, Ternary):
            return Dense(payload.reduce_values())
        return payload


class OSign(OStage):
    def encode(self, payload, ctx, rank=0):
        return SignP.from_values(_dense_input(payload, "Sign"))

    def decode(self, payload):
        if isinstance(payload, SignP):
            return Dense(payload.densify())
        return payload


class OLowRank(OStage):
    def __init__(self, rank: int, seed: int) -> None:
        self.rank = rank
        self.seed = seed
        self._q_prev: Dict[int, np.ndarray] = {}

    def _initial_q(self, n, rank, bucket_index, dtype):
        rng = np.random.default_rng(self.seed + 1_000_003 * bucket_index)
        return orthonormalize(rng.standard_normal((n, rank)).astype(dtype, copy=False))

    def prepare(self, inputs, ctx):
        stacked = _stacked_inputs(inputs, ctx, "LowRank")
        world, numel = stacked.shape
        m, n = LowRank.matrix_shape(numel)
        rank = min(self.rank, m, n)
        dtype = float_dtype_of(stacked)
        pad = m * n - numel
        if pad:
            padded = np.zeros((world, m * n), dtype=dtype)
            padded[:, :numel] = stacked
        else:
            padded = np.asarray(stacked, dtype=dtype)
        matrices = padded.reshape(world, m, n)
        q_prev = self._q_prev.get(ctx.bucket_index)
        if q_prev is None or q_prev.shape != (n, rank) or q_prev.dtype != dtype:
            q_prev = self._initial_q(n, rank, ctx.bucket_index, dtype)
        p_hat = orthonormalize(np.mean(matrices @ q_prev, axis=0))
        q_factors = np.transpose(matrices, (0, 2, 1)) @ p_hat
        q_next = np.mean(q_factors, axis=0)
        dead = np.linalg.norm(q_next, axis=0) == 0.0
        if np.any(dead):
            q_next[:, dead] = self._initial_q(n, rank, ctx.bucket_index, dtype)[:, dead]
        self._q_prev[ctx.bucket_index] = q_next
        ctx.shared[id(self)] = (p_hat, q_factors, numel)

    def encode(self, payload, ctx, rank=0):
        p_hat, q_factors, numel = ctx.shared[id(self)]
        return LowRankP(p=p_hat, q=q_factors[rank], numel=numel)

    def decode(self, payload):
        if isinstance(payload, LowRankP):
            return Dense(payload.densify())
        return payload


class ODGC(OStage):
    allreduce_compatible = False

    def __init__(self, ratio: float, momentum: float, clip_norm: Optional[float]) -> None:
        self.ratio = ratio
        self.momentum = momentum
        self.clip_norm = clip_norm
        self._momentum: Dict[int, np.ndarray] = {}
        self._accum: Dict[int, np.ndarray] = {}

    def _clip_rows(self, matrix):
        if self.clip_norm is None:
            return matrix
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        factors = np.where(norms > self.clip_norm, self.clip_norm / np.maximum(norms, 1e-30), 1.0)
        return matrix * factors

    def prepare(self, inputs, ctx):
        matrix = self._clip_rows(_stacked_inputs(inputs, ctx, "DGC"))
        numel = matrix.shape[1]
        k = max(1, int(round(numel * self.ratio)))
        momentum = self._momentum.get(ctx.bucket_index)
        accum = self._accum.get(ctx.bucket_index)
        if momentum is None or momentum.shape != matrix.shape:
            momentum = np.zeros_like(matrix)
        if accum is None or accum.shape != matrix.shape:
            accum = np.zeros_like(matrix)
        momentum = self.momentum * momentum + matrix
        accum = accum + momentum
        indices = batched_top_k_indices(accum, k)
        values = np.take_along_axis(accum, indices, axis=1)
        np.put_along_axis(accum, indices, 0.0, axis=1)
        np.put_along_axis(momentum, indices, 0.0, axis=1)
        self._momentum[ctx.bucket_index] = momentum
        self._accum[ctx.bucket_index] = accum
        ctx.shared[id(self)] = (indices, values, numel)

    def encode(self, payload, ctx, rank=0):
        indices, values, numel = ctx.shared[id(self)]
        return Sparse(indices[rank], values[rank], numel, indices_on_wire=True, shared_selection=False)


def oracle_stage(stage) -> OStage:
    """A per-rank twin of a production stage, configured identically."""
    if isinstance(stage, Identity):
        return OIdentity()
    if isinstance(stage, Half):
        return OHalf()
    if isinstance(stage, TopK):
        return OTopK(stage.ratio, stage.error_feedback)
    if isinstance(stage, RandomK):
        return ORandomK(stage.ratio, stage.seed, stage.rescale)
    if isinstance(stage, MaskCompact):
        return OMaskCompact()
    if isinstance(stage, Ternarize):
        return OTernarize(stage.seed, stage.clip_sigma)
    if isinstance(stage, Sign):
        return OSign()
    if isinstance(stage, LowRank):
        return OLowRank(stage.rank, stage.seed)
    if isinstance(stage, DGCSelect):
        return ODGC(stage.ratio, stage.momentum, stage.clip_norm)
    raise TypeError(f"no oracle for stage {type(stage).__name__}")


class OPipeline:
    def __init__(self, stages: List[OStage]) -> None:
        self.stages = stages

    @property
    def allreduce_compatible(self) -> bool:
        return all(stage.allreduce_compatible for stage in self.stages)

    def encode_all(self, flats, ctx: Ctx):
        payloads = [Dense(as_compute_array(flat)) for flat in flats]
        for stage in self.stages:
            stage.prepare(payloads, ctx)
            payloads = [stage.encode(p, ctx, rank=rank) for rank, p in enumerate(payloads)]
            ctx.matrix = None
        return payloads

    def decode(self, payload) -> np.ndarray:
        for stage in reversed(self.stages):
            payload = stage.decode(payload)
        assert isinstance(payload, Dense)
        return as_compute_array(payload.values)


# --------------------------------------------------------------------------- #
# The per-rank aggregation driver
# --------------------------------------------------------------------------- #
class OracleCompressor:
    """The per-rank ``CodecCompressor.aggregate`` (driver EF included)."""

    def __init__(self, pipeline: OPipeline, error_feedback: bool) -> None:
        self.pipeline = pipeline
        self.error_feedback = error_feedback
        self.stats = CompressionStats()
        self._residuals: Dict[int, np.ndarray] = {}

    def _pipeline_for(self, matrix, bucket_index, group, iteration) -> OPipeline:
        return self.pipeline

    def aggregate(self, matrix: np.ndarray, bucket_index: int, group: OracleGroup, iteration: int):
        world, numel = matrix.shape
        pipeline = self._pipeline_for(matrix, bucket_index, group, iteration)
        buffers = list(matrix)
        residual = None
        if self.error_feedback:
            residual = self._residuals.get(bucket_index)
            if residual is None or residual.shape != (world, numel):
                residual = np.zeros((world, numel), dtype=np.asarray(buffers[0]).dtype)
            matrix = matrix + residual
            buffers = list(matrix)
        ctx = Ctx(world_size=world, bucket_index=bucket_index, iteration=iteration,
                  group=group, matrix=matrix)
        payloads = pipeline.encode_all(buffers, ctx)
        reducible = pipeline.allreduce_compatible
        if reducible:
            if residual is not None:
                for rank, payload in enumerate(payloads):
                    np.subtract(buffers[rank], pipeline.decode(payload), out=residual[rank],
                                casting="unsafe")
            result = pipeline.decode(group.all_reduce(payloads, average=True))
        else:
            gathered = group.all_gather(payloads)
            result = None
            for rank, payload in enumerate(gathered):
                decoded = pipeline.decode(payload)
                if residual is not None:
                    np.subtract(buffers[rank], decoded, out=residual[rank], casting="unsafe")
                if result is None:
                    result = np.zeros(numel, dtype=decoded.dtype)
                np.add(result, decoded, out=result)
            result /= world
        if residual is not None:
            self._residuals[bucket_index] = residual
        self.stats.iterations += 1
        self.stats.raw_bytes += numel * FP32_BYTES
        self.stats.wire_bytes += max(payload.nbytes for payload in payloads)
        if reducible:
            self.stats.allreduce_calls += 1
        else:
            self.stats.allgather_calls += 1
        return result


class OraclePacTrain(OracleCompressor):
    """PacTrain's full/compact switch over a per-rank union mask tracker."""

    def __init__(self, stability_threshold: int, min_sparsity: float, quantize: bool, seed: int) -> None:
        self.tracker = MaskTracker(stability_threshold=stability_threshold, min_sparsity=min_sparsity)
        self._compact = OMaskCompact()
        stages: List[OStage] = [self._compact]
        if quantize:
            stages.append(OTernarize(seed, 2.5))
        super().__init__(OPipeline(stages), error_feedback=False)
        self._full = OPipeline([OIdentity()])
        self._synced: Dict[int, np.ndarray] = {}
        self.compact_iterations = 0
        self.full_iterations = 0

    def _pipeline_for(self, matrix, bucket_index, group, iteration):
        union = None
        for flat in matrix:
            pattern = np.abs(np.asarray(flat).reshape(-1)) > 0.0
            union = pattern if union is None else (union | pattern)
        state = self.tracker.update(bucket_index, union)
        if not state.stable:
            self.full_iterations += 1
            return self._full
        mask = state.mask
        previous = self._synced.get(bucket_index)
        if previous is None or previous.shape != mask.shape or not np.array_equal(previous, mask):
            group.broadcast(Bitmask(packed=np.packbits(mask), size=int(mask.size)))
            self._synced[bucket_index] = mask.copy()
            self.stats.extra["bitmask_syncs"] = self.stats.extra.get("bitmask_syncs", 0.0) + 1.0
        self._compact.set_mask(bucket_index, mask)
        self.compact_iterations += 1
        return self.pipeline
