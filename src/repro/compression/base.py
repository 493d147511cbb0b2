"""Compressor interface, the shared codec aggregation driver and bookkeeping.

A :class:`Compressor` turns one gradient bucket (per-rank flat tensors) into
the aggregated average gradient, issuing all communication through the process
group so the network cost model sees it.  Since the codec refactor every
built-in compressor is a :class:`CodecCompressor`: a thin wrapper binding a
:class:`~repro.compression.codec.pipeline.Pipeline` of encode/decode stages to
the shared **encode → reduce/gather → decode** driver below.  Wire bytes are
derived from the encoded :class:`~repro.compression.codec.payloads.WirePayload`
at the collective layer — compressors no longer self-report byte counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.comm.process_group import ProcessGroup
from repro.comm.collectives import rank_order_sum
from repro.compression.codec.payloads import (
    FP16_BYTES,
    FP32_BYTES,
    INDEX_BYTES,
    TERNARY_BYTES,
    DensePayload,
    SparsePayload,
    WirePayload,
)
from repro.compression.codec.pipeline import Pipeline, as_pipeline, dense_gradient
from repro.compression.codec.stages import Codec, EncodeContext, remap_rank_rows
from repro.ddp.bucket import GradBucket
from repro.obs.tracer import NULL_SPAN, TRACER
from repro.tensorlib.dtypes import as_compute_array, float_dtype_of

#: With tracing enabled, lossy pipelines sample an exact-average NMSE every
#: this many iterations per bucket (full exact averages every step would
#: double the aggregation cost of the observed run).
NMSE_SAMPLE_EVERY = 16

__all__ = [
    "FP32_BYTES",
    "FP16_BYTES",
    "INDEX_BYTES",
    "TERNARY_BYTES",
    "CompressionStats",
    "Compressor",
    "CodecCompressor",
    "exact_average",
]


@dataclass
class CompressionStats:
    """Per-compressor running statistics (across all buckets and iterations).

    ``wire_bytes`` accumulates one *per-worker* payload size per aggregation —
    the largest ``WirePayload.nbytes`` handed to the collective layer that
    iteration (ranks send symmetric payloads, so this is each worker's upload).
    Coordination traffic (scaler agreement, bitmask sync) is charged in the
    process group's event log but not counted against the payload ratio.
    """

    iterations: int = 0
    raw_bytes: float = 0.0
    wire_bytes: float = 0.0
    allreduce_calls: int = 0
    allgather_calls: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def compression_ratio(self) -> float:
        """Raw fp32 bytes divided by bytes actually sent (>= 1 means savings)."""
        if self.wire_bytes == 0:
            return float("inf") if self.raw_bytes > 0 else 1.0
        return self.raw_bytes / self.wire_bytes


class Compressor:
    """Base class for gradient compressors.

    Subclasses implement :meth:`aggregate`, which receives the per-rank flat
    gradients of one bucket and must return the aggregated *average* gradient
    of the same length, issuing all communication through ``group`` so that the
    network cost model sees it.

    Attributes
    ----------
    name:
        Short identifier used by the registry and in benchmark tables.
    allreduce_compatible:
        Whether aggregation uses the all-reduce primitive (Table 1's
        "Compatibility" column).  All-gather-based schemes pay the
        ``(n-1) x payload`` exchange cost instead of ``2 (n-1)/n``.
    lossless:
        Whether the aggregated result equals the exact average of the inputs.
    """

    name: str = "base"
    allreduce_compatible: bool = True
    lossless: bool = False

    def __init__(self) -> None:
        self.stats = CompressionStats()

    # ------------------------------------------------------------------ #
    # Interface
    # ------------------------------------------------------------------ #
    def aggregate(
        self,
        bucket: GradBucket,
        group: ProcessGroup,
        iteration: int = 0,
    ) -> np.ndarray:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear statistics and any per-bucket state (error feedback, masks)."""
        self.stats = CompressionStats()

    def resize_world(
        self, old_ranks: Sequence[int], new_ranks: Sequence[int], policy: str = "carry"
    ) -> None:
        """Adapt per-rank state to an elastic membership change.

        ``old_ranks``/``new_ranks`` are the global rank ids active before and
        after the change, in the order their rows occupied the per-bucket
        state matrices.  The base compressor keeps no per-rank state, so the
        default is a no-op; :class:`CodecCompressor` remaps its
        error-feedback residuals and forwards to every pipeline stage.
        ``policy`` is ``"carry"`` (survivors keep their rows, newcomers start
        from zero) or ``"zero"`` (everyone restarts).
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


class CodecCompressor(Compressor):
    """Aggregate gradients through a codec pipeline (the shared driver).

    Per bucket and iteration the driver

    1. **encodes** the bucket's ``(world, numel)`` gradient matrix through
       the pipeline into one world-stacked :class:`WirePayload` (stages
       coordinate shared scalers/selections across the world axis and charge
       those collectives themselves);
    2. **reduces** it along the world axis, in rank order, with an all-reduce
       when ranks' encodings are element-wise summable, otherwise **gathers**
       it — the collective layer charges the network model from the per-rank
       ``payload.nbytes``;
    3. **decodes** back to the dense average gradient; gathered sparse
       selections scatter-add into one buffer (peak memory O(numel)).

    With ``error_feedback=True`` the driver additionally keeps one residual
    matrix per bucket — the ``(world_size, numel)`` gradient mass each rank's
    *own* encoding failed to represent.  Encoding then sees the compensated
    gradient ``grad + residual`` and, after encoding, the residual is rewritten
    to ``input - decode(own payload)``, so every coordinate a lossy compressor
    drops is retransmitted once the accumulated error grows large enough
    (EF-SGD, Karimireddy et al., 2019).  The compensated matrix and the
    residual share one buffer per bucket, rewritten in place every step, so
    the residual is owned by the compressor — never a view into the DDP
    gradient arena — and survives arena staging and bucket reuse across
    iterations.

    Subclasses may override :meth:`_pipeline_for` to pick the pipeline
    adaptively per bucket/iteration (PacTrain's stable/fallback switch).
    """

    def __init__(
        self,
        pipeline: Union[Codec, Sequence[Codec], Pipeline],
        name: Optional[str] = None,
        error_feedback: bool = False,
    ) -> None:
        super().__init__()
        self.pipeline = as_pipeline(pipeline)
        self.error_feedback = bool(error_feedback)
        if name is None:
            name = self.pipeline.spec()
            if self.error_feedback:
                name = f"ef+{name}"
        self.name = name
        # Per-bucket (world_size, numel) error-feedback residuals.
        self._residuals: Dict[int, np.ndarray] = {}
        if self.error_feedback:
            self._adopt_driver_error_feedback()
        self.allreduce_compatible = self.pipeline.allreduce_compatible
        self.lossless = self.pipeline.lossless

    # ------------------------------------------------------------------ #
    def _check_driver_ef_composable(self) -> None:
        """Refuse EF toggling around stages that compensate by construction.

        Momentum-corrected DGC accumulates unsent gradient mass in its own
        (momentum, accumulation) buffers as an inseparable part of the
        algorithm: layering the driver residual on top would double-count
        every dropped coordinate, and "stripping" the compensation would not
        leave DGC behind.  Either request fails loudly instead.
        """
        for stage in self.pipeline.stages:
            if getattr(stage, "self_compensating", False):
                raise ValueError(
                    f"stage {stage.spec()!r} accumulates unsent gradient mass "
                    "internally (momentum-corrected DGC); driver-level error "
                    "feedback cannot be layered around or stripped from it"
                )

    def _adopt_driver_error_feedback(self) -> None:
        """Make the pipeline safe to run under the driver residual.

        Stage-internal error feedback (TopK's residuals) is disabled so the
        unsent gradient mass is not accumulated twice, and unbiased rescaling
        (random-k's ``numel/k`` decode factor) is switched off — against a
        rescaled decode, ``input - decode`` is an *expansion* of the error,
        not a contraction, and EF training would diverge.  With EF the raw
        selection is the correct transmit; the residual resends what was
        dropped.
        """
        self._check_driver_ef_composable()
        for stage in self.pipeline.stages:
            if getattr(stage, "error_feedback", False):
                stage.error_feedback = False
                stage.reset()
            if getattr(stage, "rescale", False):
                stage.rescale = False
                # Remembered so disable_error_feedback can restore the
                # unbiased estimator when EF is later switched off again.
                stage._rescale_disabled_by_driver = True

    def enable_error_feedback(self) -> None:
        """Switch on driver-level error feedback after construction.

        Used when a :class:`~repro.simulation.experiment.MethodSpec` requests
        ``error_feedback=True`` for a registry-built compressor.  Stage-internal
        compensation and unbiased rescaling are disabled at the same time (see
        :meth:`_adopt_driver_error_feedback`).
        """
        self._adopt_driver_error_feedback()
        self.error_feedback = True
        if not self.name.startswith("ef+"):
            self.name = f"ef+{self.name}"

    def disable_error_feedback(self) -> None:
        """Switch off *all* error feedback — driver-level and stage-internal.

        The explicit no-EF arm of an error-feedback study
        (``MethodSpec(error_feedback=False)``): even compressors that carry
        compensation by default in their paper form (top-k) run genuinely
        uncompensated.  Unbiased rescaling is an estimator correction, not
        compensation: it is left on, and restored if the driver had disabled
        it (an ``"ef+..."``-built compressor later forced off must not stay
        both uncompensated *and* biased low by ``k/n``).
        """
        self._check_driver_ef_composable()
        self.error_feedback = False
        self._residuals.clear()
        for stage in self.pipeline.stages:
            if getattr(stage, "error_feedback", False):
                stage.error_feedback = False
                stage.reset()
            if getattr(stage, "_rescale_disabled_by_driver", False):
                stage.rescale = True
                stage._rescale_disabled_by_driver = False
        if self.name.startswith("ef+"):
            self.name = self.name[len("ef+"):]

    def residual(self, bucket_index: int) -> Optional[np.ndarray]:
        """The current error-feedback residual of one bucket (None before use)."""
        return self._residuals.get(bucket_index)

    def _pipeline_for(self, bucket: GradBucket, group: ProcessGroup, iteration: int) -> Pipeline:
        """Pipeline used for this bucket synchronisation (static by default)."""
        return self.pipeline

    def aggregate(self, bucket: GradBucket, group: ProcessGroup, iteration: int = 0) -> np.ndarray:
        pipeline = self._pipeline_for(bucket, group, iteration)
        matrix = self._compensated(bucket)
        ctx = EncodeContext(bucket_index=bucket.index, iteration=iteration, group=group)
        # One guard read for the whole aggregation: when disabled, every span
        # below is the shared NULL_SPAN and no span arguments are built.
        traced = TRACER.enabled
        with TRACER.span(
            "codec/encode", cat="codec", bucket=bucket.index, spec=self.name
        ) if traced else NULL_SPAN:
            batch = pipeline.encode(DensePayload(matrix), ctx)
        wire_nbytes = batch.nbytes if traced else 0

        # Route on the pipeline's static property; the collective layer still
        # validates the payload's reducibility, so a stage that wrongly claims
        # compatibility fails loudly rather than silently gathering.
        reducible = pipeline.allreduce_compatible
        if reducible:
            with TRACER.span(
                "codec/reduce", cat="codec", bucket=bucket.index, bytes=int(wire_nbytes)
            ) if traced else NULL_SPAN:
                reduced = group.all_reduce(batch, average=True)
            with TRACER.span(
                "codec/decode", cat="codec", bucket=bucket.index
            ) if traced else NULL_SPAN:
                result = pipeline.decode(reduced)
            own = pipeline.decode_payload(batch) if self.error_feedback else None
        else:
            with TRACER.span(
                "codec/gather", cat="codec", bucket=bucket.index, bytes=int(wire_nbytes)
            ) if traced else NULL_SPAN:
                gathered = group.all_gather(batch)
            with TRACER.span(
                "codec/decode", cat="codec", bucket=bucket.index
            ) if traced else NULL_SPAN:
                # The gathered payload views the local one, so its decode is
                # also every rank's own decode.
                own = pipeline.decode_payload(gathered)
                result = _mean_of_rows(own, bucket.world_size)

        self._record(bucket, batch, "all_reduce" if reducible else "all_gather")
        if traced and TRACER.enabled:
            self._observe(bucket, matrix, result, wire_nbytes, iteration)
        if self.error_feedback:
            self._keep_residual(bucket.index, matrix, own)
        return result

    def push(self, bucket: GradBucket, iteration: int = 0) -> Tuple[np.ndarray, float]:
        """One worker's update with no collective (the asynchronous parameter server).

        Encodes the one-rank ``bucket`` (driver error feedback included),
        records the aggregation in :attr:`stats` and returns the rank's own
        decoded gradient with its payload's wire bytes — what the worker
        pushes and the server applies.
        """
        pipeline = self._pipeline_for(bucket, None, iteration)
        matrix = self._compensated(bucket)
        ctx = EncodeContext(bucket_index=bucket.index, iteration=iteration)
        batch = pipeline.encode(DensePayload(matrix), ctx)
        own = pipeline.decode_payload(batch)
        # A copy: the dense decode may view the matrix the residual reuses.
        result = np.array(dense_gradient(own)[0])
        self._record(bucket, batch, None)
        if self.error_feedback:
            self._keep_residual(bucket.index, matrix, own)
        return result, batch.nbytes

    def _compensated(self, bucket: GradBucket) -> np.ndarray:
        """The ``(world, numel)`` matrix to encode: ``grad + residual`` under EF.

        The compensated sum is written over the bucket's residual buffer (IEEE
        addition commutes, so this is the same sum as a fresh
        ``grad + residual``), which :meth:`_keep_residual` then rewrites in
        place into the next residual: one buffer per bucket for the whole
        run, owned by the compressor and never aliasing the arena (whose rows
        are rewritten next step).
        """
        matrix = bucket.matrix
        if not self.error_feedback:
            return matrix
        residual = self._residuals.get(bucket.index)
        if residual is None or residual.shape != matrix.shape:
            residual = np.zeros(matrix.shape, dtype=matrix.dtype)
        return np.add(matrix, residual, out=residual)

    def _keep_residual(self, bucket_index: int, matrix: np.ndarray, own: WirePayload) -> None:
        """Turn the compensated ``matrix`` into ``input - decode(own payload)``.

        ``own`` is every rank's decoded payload, world-stacked.  A sparse
        decode only touches its selected coordinates: elsewhere the residual
        keeps the compensated value, which is what subtracting the zero of a
        dense decode would leave.
        """
        if isinstance(own, SparsePayload):
            if own.per_rank_indices:
                selected = np.take_along_axis(matrix, own.indices, axis=1)
                np.put_along_axis(matrix, own.indices, selected - own.values, axis=1)
            else:
                matrix[:, own.indices] = matrix[:, own.indices] - own.values
        else:
            np.subtract(matrix, own.values, out=matrix, casting="unsafe")
        self._residuals[bucket_index] = matrix

    def _observe(
        self,
        bucket: GradBucket,
        matrix: np.ndarray,
        result: np.ndarray,
        wire_nbytes: float,
        iteration: int,
    ) -> None:
        """Publish per-aggregation metrics (only called while tracing).

        Everything here is read-only over the aggregation's inputs and
        output, so an observed run stays bit-identical to an unobserved one.
        The exact-average NMSE is sampled every :data:`NMSE_SAMPLE_EVERY`
        iterations because it costs a full lossless aggregation.
        """
        metrics = TRACER.metrics
        metrics.inc("codec.aggregations")
        metrics.inc("codec.wire_bytes", float(wire_nbytes))
        metrics.inc("codec.raw_bytes", float(bucket.numel * FP32_BYTES))
        metrics.observe("codec.payload_bytes", float(wire_nbytes))
        if not self.lossless and iteration % NMSE_SAMPLE_EVERY == 0:
            from repro.metrics.nmse import nmse  # noqa: PLC0415

            value = float(nmse(exact_average(list(matrix)), result))
            metrics.observe("codec.nmse", value)
            TRACER.instant(
                "codec/nmse", cat="codec",
                bucket=bucket.index, iteration=iteration, nmse=value, spec=self.name,
            )

    def reset(self) -> None:
        super().reset()
        self.pipeline.reset()
        self._residuals.clear()

    def resize_world(
        self, old_ranks: Sequence[int], new_ranks: Sequence[int], policy: str = "carry"
    ) -> None:
        """Remap driver EF residuals and stage state to a new membership.

        Row *i* of every per-bucket buffer belongs to global rank
        ``old_ranks[i]``; after the resize it belongs to ``new_ranks[i]``.
        ``"carry"`` preserves each surviving rank's accumulated residual
        across the shrink/grow (a re-joining rank starts from zero — its
        pre-crash residual described gradients of a model that has since
        moved on); ``"zero"`` clears all compensation state.
        """
        remap_rank_rows(self._residuals, old_ranks, new_ranks, policy)
        for stage in self.pipeline.stages:
            stage.resize_world(old_ranks, new_ranks, policy)

    # ------------------------------------------------------------------ #
    def _record(self, bucket: GradBucket, batch: WirePayload, op: Optional[str]) -> None:
        """Count one aggregation of ``bucket`` and the collective ``op`` it used."""
        self.stats.iterations += 1
        self.stats.raw_bytes += bucket.numel * FP32_BYTES
        self.stats.wire_bytes += batch.nbytes
        if op == "all_gather":
            self.stats.allgather_calls += 1
        elif op == "all_reduce":
            self.stats.allreduce_calls += 1


def _mean_of_rows(decoded: WirePayload, world_size: int) -> np.ndarray:
    """Average of a gathered world of decoded payloads, summed rank after rank.

    Sparse selections scatter-add straight into one buffer: ``np.add.at``
    applies the ``(world, k)`` updates in rank order and each rank's indices
    are unique, so the sum equals densifying every rank and accumulating —
    without the ``(world, numel)`` dense decode.
    """
    if isinstance(decoded, SparsePayload):
        total = np.zeros(decoded.numel, dtype=float_dtype_of(np.asarray(decoded.values)))
        indices = decoded.indices
        if not decoded.per_rank_indices:
            indices = np.broadcast_to(indices, decoded.values.shape)
        np.add.at(total, indices.ravel(), decoded.values.ravel())
    else:
        total = rank_order_sum(as_compute_array(decoded.values))
    total /= world_size
    return total


def exact_average(buffers: List[np.ndarray]) -> np.ndarray:
    """Reference (lossless) average used by tests and error computations.

    Shares the collective layer's rank-by-rank accumulation, so peak memory is
    O(numel) rather than the O(world x numel) of a stack-then-mean — and the
    reference stays numerically identical to what the collectives compute.
    """
    from repro.comm.collectives import accumulate_sum  # noqa: PLC0415

    return accumulate_sum(buffers) / len(buffers)
