"""Codec stages: composable encode/decode operators over wire payloads.

A :class:`Codec` maps payloads to payloads for the whole world at once.
Encoding starts from a :class:`~repro.compression.codec.payloads.DensePayload`
wrapping the bucket's ``(world, numel)`` gradient matrix and may shrink it
(sparsify, quantise, cast); every array that differs per rank keeps the
leading world axis.  Decoding reverses the chain back to a dense tensor.
Stages compose left-to-right via
:class:`~repro.compression.codec.pipeline.Pipeline` — e.g.
``Pipeline([TopK(0.01), Ternarize()])`` selects the top 1 % coordinates and
then ternarises the selected values, which is the paper's prune+TernGrad
composition (§III.D) expressed as two independent operators.

Because a stage sees every rank's input in one call, cross-rank coordination
(shared scalers, shared random selections, batched top-k selection) is plain
array code inside :meth:`Codec.encode`; coordination collectives go through
the encode context's process group so the cost model charges them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence

import numpy as np

from repro.compression.codec.payloads import (
    DensePayload,
    FP16_BYTES,
    HalfPayload,
    LowRankPayload,
    SignPayload,
    SparsePayload,
    TERNARY_BYTES,
    TernaryPayload,
    WirePayload,
    pack_ternary,
)
from repro.tensorlib.dtypes import as_compute_array, float_dtype_of


@dataclass
class EncodeContext:
    """Per-aggregation context shared by every stage of a pipeline.

    ``group`` is the process group coordination collectives are issued through
    (``None`` runs codecs standalone — unit tests, a parameter-server worker
    pushing alone — skipping the collectives but computing the same shared
    quantities locally).
    """

    bucket_index: int = 0
    iteration: int = 0
    group: Optional[object] = None


class Codec:
    """One encode/decode stage of a compression pipeline.

    ``encode(batch, ctx)`` receives the upstream payload of *every* rank —
    world-stacked, row *r* belonging to rank *r* — and returns the encoded
    world-stacked payload.  Inputs may alias the DDP gradient arena, so a
    stage must never write to them.  ``decode`` maps a payload (a reduced
    one, or a world-stacked one) back towards the dense gradient; stages
    whose payload the pipeline densifies itself (sparse selections) keep the
    default pass-through.
    """

    name: str = "codec"
    #: Whether encoded payloads from different ranks are element-wise summable.
    allreduce_compatible: bool = True
    #: Whether decode(encode(x)) == x exactly.
    lossless: bool = False

    def encode(self, batch: WirePayload, ctx: EncodeContext) -> WirePayload:
        raise NotImplementedError

    def decode(self, payload: WirePayload) -> WirePayload:
        return payload

    def reset(self) -> None:
        """Clear per-bucket state (error feedback, momentum, RNG)."""

    def resize_world(
        self, old_ranks: Sequence[int], new_ranks: Sequence[int], policy: str = "carry"
    ) -> None:
        """Adapt per-rank state to a membership change (default: nothing to do).

        Stages whose per-bucket buffers are rank-indexed — one row per member
        of the old active set — override this to remap rows onto the new
        membership (see :func:`remap_rank_rows`).  Stateless stages and
        stages whose state is shared across ranks ignore it.
        """

    def spec(self) -> str:
        """Registry spec token for this stage (inverse of ``parse_codec_spec``)."""
        return self.name

    def __add__(self, other: "Codec"):
        from repro.compression.codec.pipeline import Pipeline  # noqa: PLC0415

        return Pipeline([self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.spec()!r})"


def _dense_input(batch: WirePayload, stage: str) -> np.ndarray:
    """The ``(world, numel)`` matrix of a stage's dense world-stacked input."""
    if not isinstance(batch, DensePayload):
        raise TypeError(
            f"{stage} must be the first stage of a pipeline (it selects dense "
            f"coordinates), got upstream payload {type(batch).__name__}"
        )
    return as_compute_array(batch.values)


# --------------------------------------------------------------------------- #
# Selection helpers (vectorised across ranks)
# --------------------------------------------------------------------------- #
def top_k_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest-magnitude entries of a 1-D array."""
    if k >= values.size:
        return np.arange(values.size)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    return np.argpartition(np.abs(values), values.size - k)[values.size - k:]


def batched_top_k_indices(matrix: np.ndarray, k: int) -> np.ndarray:
    """Per-row indices of the ``k`` largest-magnitude entries of a 2-D array.

    One O(rows × n) ``argpartition`` over the stacked (world, numel) matrix
    replaces the per-rank selection loop; each row's result selects the same
    coordinate *set* as :func:`top_k_indices` on that row.
    """
    rows, numel = matrix.shape
    if k >= numel:
        return np.tile(np.arange(numel), (rows, 1))
    if k <= 0:
        return np.empty((rows, 0), dtype=np.int64)
    return np.argpartition(np.abs(matrix), numel - k, axis=1)[:, numel - k:]


def remap_rank_rows(
    state: Dict[int, np.ndarray],
    old_ranks: Sequence[int],
    new_ranks: Sequence[int],
    policy: str = "carry",
) -> None:
    """Remap rank-indexed per-bucket matrices onto a new active membership.

    ``state`` maps bucket index to a ``(len(old_ranks), numel)`` matrix whose
    row *i* belongs to global rank ``old_ranks[i]``.  Under ``"carry"`` each
    surviving rank keeps its row at its new position and newly-joined ranks
    start from zeros (a re-joining worker has no residual history); under
    ``"zero"`` every rank restarts from zeros.  Matrices whose row count does
    not match ``old_ranks`` (stale buffers from before an earlier resize) are
    zeroed rather than mis-attributed.
    """
    if policy not in ("carry", "zero"):
        raise ValueError(f"policy must be 'carry' or 'zero', got {policy!r}")
    old_position = {rank: i for i, rank in enumerate(old_ranks)}
    for bucket_index, matrix in state.items():
        resized = np.zeros((len(new_ranks), matrix.shape[1]), dtype=matrix.dtype)
        if policy == "carry" and matrix.shape[0] == len(old_ranks):
            for position, rank in enumerate(new_ranks):
                source = old_position.get(rank)
                if source is not None:
                    resized[position] = matrix[source]
        state[bucket_index] = resized


# --------------------------------------------------------------------------- #
# Stages
# --------------------------------------------------------------------------- #
class Identity(Codec):
    """No-op codec: dense fp32 on the wire (the all-reduce baseline)."""

    name = "fp32"
    lossless = True

    def encode(self, batch: WirePayload, ctx: EncodeContext) -> WirePayload:
        return batch


class Half(Codec):
    """Cast values to fp16 (2 bytes per element on the wire)."""

    name = "fp16"
    lossless = False

    def encode(self, batch: WirePayload, ctx: EncodeContext) -> WirePayload:
        if isinstance(batch, DensePayload):
            return HalfPayload(batch.values.astype(np.float16))
        if isinstance(batch, SparsePayload):
            # Round-trip through fp16 (the wire precision), back to the
            # payload's own compute dtype — no float64 leak on the f32 path.
            halved = batch.values.astype(np.float16).astype(
                float_dtype_of(np.asarray(batch.values))
            )
            return replace(batch, values=halved, value_bytes=FP16_BYTES)
        raise TypeError(f"cannot cast {type(batch).__name__} to fp16")

    def decode(self, payload: WirePayload) -> WirePayload:
        if isinstance(payload, HalfPayload):
            return DensePayload(payload.reduce_values())
        return payload


class TopK(Codec):
    """Per-rank top-k magnitude selection with optional error feedback.

    Every rank selects a different coordinate set, so encoded payloads are not
    summable and aggregation must use all-gather — the all-reduce
    incompatibility the paper's Table 1 flags for TopK/DGC.
    """

    allreduce_compatible = False
    lossless = False

    def __init__(self, ratio: float = 0.1, error_feedback: bool = True) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")
        self.ratio = ratio
        self.error_feedback = error_feedback
        self.name = f"topk{ratio:g}"
        # residuals[bucket_index] -> (world, numel) unsent gradient mass
        self._residuals: Dict[int, np.ndarray] = {}

    def reset(self) -> None:
        self._residuals.clear()

    def resize_world(
        self, old_ranks: Sequence[int], new_ranks: Sequence[int], policy: str = "carry"
    ) -> None:
        remap_rank_rows(self._residuals, old_ranks, new_ranks, policy)

    def encode(self, batch: WirePayload, ctx: EncodeContext) -> WirePayload:
        matrix = _dense_input(batch, "TopK")
        numel = matrix.shape[1]
        k = max(1, int(round(numel * self.ratio)))

        residual = None
        if self.error_feedback:
            residual = self._residuals.get(ctx.bucket_index)
            if residual is not None and residual.shape == matrix.shape:
                # Compensate in the residual's own buffer: the same sum as a
                # fresh ``matrix + residual`` (IEEE addition commutes).
                matrix = np.add(matrix, residual, out=residual)
            else:
                residual = None

        indices = batched_top_k_indices(matrix, k)
        values = np.take_along_axis(matrix, indices, axis=1)

        if self.error_feedback:
            if residual is None:
                residual = matrix.copy()  # the input is not ours to overwrite
            np.put_along_axis(residual, indices, 0.0, axis=1)
            self._residuals[ctx.bucket_index] = residual

        return SparsePayload(
            indices, values, numel, indices_on_wire=True, shared_selection=False,
        )


class RandomK(Codec):
    """Shared-seed random-k selection: summable, indices never hit the wire."""

    allreduce_compatible = True
    lossless = False

    def __init__(self, ratio: float = 0.1, seed: int = 0, rescale: bool = True) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")
        self.ratio = ratio
        self.seed = seed
        self.rescale = rescale
        self.name = f"randomk{ratio:g}"

    def encode(self, batch: WirePayload, ctx: EncodeContext) -> WirePayload:
        matrix = _dense_input(batch, "RandomK")
        numel = matrix.shape[1]
        k = max(1, int(round(numel * self.ratio)))
        rng = np.random.default_rng(self.seed + 1_000_003 * ctx.bucket_index + ctx.iteration)
        indices = rng.choice(numel, size=k, replace=False)
        return SparsePayload(
            indices, np.take(matrix, indices, axis=1), numel,
            indices_on_wire=False, shared_selection=True,
        )

    def decode(self, payload: WirePayload) -> WirePayload:
        k = payload.values.shape[-1] if isinstance(payload, SparsePayload) else 0
        if self.rescale and k:
            # Unbiased estimate of the dense average gradient.
            return replace(payload, values=payload.values * (payload.numel / k))
        return payload


class MaskCompact(Codec):
    """Pack the coordinates of a shared bitmask into a short dense tensor.

    The mask order is identical on every rank (it comes from a synchronised
    bitmask), so compacted payloads are element-wise summable — PacTrain's
    "masked assignment" (Fig. 2) as a standalone codec stage.  Lossless with
    respect to the masked gradient.
    """

    allreduce_compatible = True
    lossless = True
    name = "compact"

    def __init__(self) -> None:
        # Selected indices per bucket, updated by the owner (PacTrain) whenever
        # the tracked mask changes.
        self._indices: Dict[int, np.ndarray] = {}

    def set_mask(self, bucket_index: int, mask: np.ndarray) -> None:
        self._indices[bucket_index] = np.flatnonzero(np.asarray(mask, dtype=bool))

    def reset(self) -> None:
        self._indices.clear()

    def encode(self, batch: WirePayload, ctx: EncodeContext) -> WirePayload:
        indices = self._indices.get(ctx.bucket_index)
        if indices is None:
            raise RuntimeError(
                f"MaskCompact has no mask for bucket {ctx.bucket_index}; call set_mask first"
            )
        matrix = _dense_input(batch, "MaskCompact")
        return SparsePayload(
            indices, np.take(matrix, indices, axis=1), matrix.shape[1],
            indices_on_wire=False, shared_selection=True,
        )


class Ternarize(Codec):
    """TernGrad stochastic ternary quantisation (Wen et al., 2017).

    ``encode`` clips each rank's values (±``clip_sigma`` of that rank's
    standard deviation), agrees on the shared scale ``s = max_r max_i |v_i|``
    — modeled as a tiny one-element all-reduce, charged to the network — and
    rounds each value to ``s * {-1, 0, +1}`` with probability ``|v| / s``,
    which keeps the quantised gradient unbiased in expectation (the paper's
    Eq. (3)).  One ``(world, k)`` draw feeds every rank's rounding, the same
    stream as ``world`` sequential per-rank draws.
    """

    lossless = False
    name = "terngrad"

    def __init__(self, seed: int = 0, clip_sigma: Optional[float] = 2.5) -> None:
        self.seed = seed
        self.clip_sigma = clip_sigma
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def _clip(self, values: np.ndarray) -> np.ndarray:
        """Clip every row to ±``clip_sigma`` of its own standard deviation."""
        if self.clip_sigma is None or values.shape[1] == 0:
            return values
        sigma = np.std(values, axis=1, keepdims=True)
        # The bound is formed in float64 and rounded to the value dtype, as a
        # Python-float bound would be; constant rows (sigma == 0) stay as-is.
        bound = (self.clip_sigma * sigma.astype(np.float64)).astype(values.dtype)
        bound[sigma == 0.0] = np.inf
        return np.clip(values, -bound, bound)

    @staticmethod
    def _values_of(payload: WirePayload) -> np.ndarray:
        if isinstance(payload, (DensePayload, SparsePayload)):
            return as_compute_array(payload.values)
        if isinstance(payload, HalfPayload):
            return payload.reduce_values()
        raise TypeError(f"cannot ternarise {type(payload).__name__}")

    def encode(self, batch: WirePayload, ctx: EncodeContext) -> WirePayload:
        values = self._clip(self._values_of(batch))
        scale = 0.0
        if values.shape[1]:
            maxima = np.max(np.abs(values), axis=1)
            if ctx.group is not None:
                # Scaler agreement: one fp32 scalar per rank, max-reduced.  The
                # collective is issued for its modeled cost; the shared maximum
                # is computed locally (the simulation holds every rank
                # in-process).
                ctx.group.all_reduce(DensePayload(maxima[:, None]), average=False)
            scale = max(maxima.tolist())
        if scale == 0.0:
            codes = np.zeros(values.shape, dtype=np.int8)
        else:
            probability = np.clip(np.abs(values) / scale, 0.0, 1.0)
            keep = self._rng.random(values.shape) < probability
            codes = (np.sign(values) * keep).astype(np.int8)
        if isinstance(batch, SparsePayload):
            return replace(
                batch,
                values=scale * codes.astype(float_dtype_of(np.asarray(batch.values))),
                value_bytes=TERNARY_BYTES,
            )
        return TernaryPayload(packed=pack_ternary(codes), scale=scale, size=values.shape[1])

    def decode(self, payload: WirePayload) -> WirePayload:
        if isinstance(payload, TernaryPayload):
            return DensePayload(payload.reduce_values())
        return payload


class Sign(Codec):
    """signSGD with majority vote (Bernstein et al., 2018).

    Each rank transmits one bit per coordinate (the gradient's sign) plus its
    mean absolute value as a scale; aggregation is the element-wise majority
    vote over the sign codes, which is all-reduce compatible.  The decoded
    average is ``mean(scale) * majority_sign`` — aggressive (32x) compression
    whose bias is what the driver-level error feedback (``"ef+signsgd"``)
    compensates.
    """

    name = "signsgd"
    allreduce_compatible = True
    lossless = False

    def encode(self, batch: WirePayload, ctx: EncodeContext) -> WirePayload:
        return SignPayload.from_values(_dense_input(batch, "Sign"))

    def decode(self, payload: WirePayload) -> WirePayload:
        if isinstance(payload, SignPayload):
            return DensePayload(payload.densify())
        return payload


def orthonormalize(matrix: np.ndarray, rtol: Optional[float] = None) -> np.ndarray:
    """Column-wise modified Gram-Schmidt (the PowerSGD orthogonalisation).

    Deterministic and dtype-preserving.  Healthy columns are normalised
    *exactly* (no ``norm + eps`` residue — that residue would propagate into
    later columns and destroy orthogonality for rank-deficient inputs), while
    columns whose post-projection remainder falls below a scale-relative
    tolerance (``sqrt(machine eps)`` of the dtype times the largest input
    column norm) are zeroed: their remainder is pure rounding noise, and a
    zero column simply drops out of the ``P @ P.T`` projection.  Exactly
    low-rank inputs therefore reconstruct to machine precision.
    """
    basis = np.array(matrix, copy=True)
    if basis.size == 0:
        return basis
    if rtol is None:
        rtol = float(np.sqrt(np.finfo(basis.dtype).eps))
    tol = rtol * float(np.max(np.linalg.norm(basis, axis=0)))
    for column in range(basis.shape[1]):
        col = basis[:, column]
        for previous in range(column):
            col -= (basis[:, previous] @ col) * basis[:, previous]
        norm = float(np.linalg.norm(col))
        if norm > tol and norm > 0.0:
            col /= norm
        else:
            col[:] = 0.0
    return basis


class LowRank(Codec):
    """PowerSGD-style low-rank compression (Vogels et al., 2019).

    Per bucket the flat gradient is viewed as a near-square ``(m, n)`` matrix
    (zero-padded) and compressed with **one step of power iteration** warm
    started from the previous iteration's right factor:

    1. ``P_r = M_r @ Q_prev`` per rank; the mean ``P`` is orthonormalised into
       the shared left factor ``P_hat`` (the protocol's first all-reduce);
    2. ``Q_r = M_r.T @ P_hat`` per rank becomes the payload's summable right
       factor (the second all-reduce, executed by the aggregation driver);
    3. decode reconstructs ``P_hat @ Q.T``; the aggregated ``Q`` also warm
       starts the next iteration.

    Both protocol halves are charged through the payload's analytic
    ``(m + n) * rank * 4`` wire bytes.  Low-rank projection is biased, so the
    intended composition is ``"ef+powersgd-rank4"``.
    """

    allreduce_compatible = True
    lossless = False

    def __init__(self, rank: int = 4, seed: int = 0) -> None:
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.seed = seed
        self.name = f"powersgd-rank{rank}"
        # Warm-started right factor per bucket: (n, rank), shared across ranks
        # because it always comes from the aggregated previous step.
        self._q_prev: Dict[int, np.ndarray] = {}

    def reset(self) -> None:
        self._q_prev.clear()

    @staticmethod
    def matrix_shape(numel: int) -> "tuple[int, int]":
        """Near-square ``(m, n)`` view of a flat gradient of ``numel`` elements."""
        n = int(np.ceil(np.sqrt(numel)))
        m = int(np.ceil(numel / n))
        return m, n

    def _initial_q(self, n: int, rank: int, bucket_index: int, dtype) -> np.ndarray:
        rng = np.random.default_rng(self.seed + 1_000_003 * bucket_index)
        return orthonormalize(rng.standard_normal((n, rank)).astype(dtype, copy=False))

    def encode(self, batch: WirePayload, ctx: EncodeContext) -> WirePayload:
        stacked = _dense_input(batch, "LowRank")
        world, numel = stacked.shape
        m, n = self.matrix_shape(numel)
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

        # First protocol half: P_r = M_r Q_prev, all-reduced and orthonormalised
        # into the shared left factor (cost carried by the payload's nbytes).
        p_hat = orthonormalize(np.mean(matrices @ q_prev, axis=0))
        # Second half: per-rank right factors, summable because p_hat is shared.
        q_factors = np.transpose(matrices, (0, 2, 1)) @ p_hat

        # Warm start: the aggregated right factor of *this* step seeds the
        # power iteration of the next one.  Columns that died this step — an
        # exactly-zero or rank-deficient bucket gradient zeroes the matching
        # p_hat (and hence q) columns — are re-seeded from the deterministic
        # initial basis, otherwise M @ q_prev would stay zero in those
        # directions forever and the bucket could never transmit again.
        q_next = np.mean(q_factors, axis=0)
        dead = np.linalg.norm(q_next, axis=0) == 0.0
        if np.any(dead):
            q_next[:, dead] = self._initial_q(n, rank, ctx.bucket_index, dtype)[:, dead]
        self._q_prev[ctx.bucket_index] = q_next
        return LowRankPayload(p=p_hat, q=q_factors, numel=numel)

    def decode(self, payload: WirePayload) -> WirePayload:
        if isinstance(payload, LowRankPayload):
            return DensePayload(payload.densify())
        return payload

    def spec(self) -> str:
        return self.name


class DGCSelect(Codec):
    """Deep Gradient Compression selection (Lin et al., 2018).

    Momentum correction and local gradient accumulation run vectorised over a
    (world, numel) matrix per bucket; the top-k selection over the accumulated
    buffers is a single batched ``argpartition``.  Like :class:`TopK` the
    per-rank selections differ, so aggregation uses all-gather.
    """

    allreduce_compatible = False
    lossless = False
    #: DGC's local gradient accumulation *is* error feedback (on the
    #: momentum-corrected gradient) and cannot be separated from the
    #: algorithm; the driver refuses to layer or strip EF around this stage.
    self_compensating = True

    def __init__(
        self,
        ratio: float = 0.01,
        momentum: float = 0.9,
        clip_norm: Optional[float] = None,
    ) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.ratio = ratio
        self.momentum = momentum
        self.clip_norm = clip_norm
        self.name = f"dgc{ratio:g}"
        # Per-bucket (world, numel) momentum (u) and accumulation (v) buffers.
        self._momentum: Dict[int, np.ndarray] = {}
        self._accum: Dict[int, np.ndarray] = {}

    def reset(self) -> None:
        self._momentum.clear()
        self._accum.clear()

    def resize_world(
        self, old_ranks: Sequence[int], new_ranks: Sequence[int], policy: str = "carry"
    ) -> None:
        remap_rank_rows(self._momentum, old_ranks, new_ranks, policy)
        remap_rank_rows(self._accum, old_ranks, new_ranks, policy)

    def _clip_rows(self, matrix: np.ndarray) -> np.ndarray:
        if self.clip_norm is None:
            return matrix
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        factors = np.where(norms > self.clip_norm, self.clip_norm / np.maximum(norms, 1e-30), 1.0)
        return matrix * factors

    def encode(self, batch: WirePayload, ctx: EncodeContext) -> WirePayload:
        matrix = self._clip_rows(_dense_input(batch, "DGC"))
        numel = matrix.shape[1]
        k = max(1, int(round(numel * self.ratio)))

        momentum = self._momentum.get(ctx.bucket_index)
        accum = self._accum.get(ctx.bucket_index)
        if momentum is None or momentum.shape != matrix.shape:
            momentum = np.zeros_like(matrix)
        if accum is None or accum.shape != matrix.shape:
            accum = np.zeros_like(matrix)

        # Momentum correction: accumulate velocity locally, then accumulate the
        # velocity into the unsent-gradient buffer.
        momentum = self.momentum * momentum + matrix
        accum = accum + momentum

        indices = batched_top_k_indices(accum, k)
        values = np.take_along_axis(accum, indices, axis=1)

        # Clear the transmitted coordinates from both buffers (momentum factor
        # masking from the DGC paper).
        np.put_along_axis(accum, indices, 0.0, axis=1)
        np.put_along_axis(momentum, indices, 0.0, axis=1)
        self._momentum[ctx.bucket_index] = momentum
        self._accum[ctx.bucket_index] = accum

        return SparsePayload(
            indices, values, numel, indices_on_wire=True, shared_selection=False,
        )
