"""The distributed data-parallel wrapper.

:class:`DistributedDataParallel` simulates synchronous data-parallel training
of ``world_size`` replicas on a single process:

1. every rank runs a real forward/backward pass on its own mini-batch (the
   replicas share one set of weights, which is mathematically identical to
   real DDP because every rank applies the same aggregated gradient);
2. per-rank gradients are staged into a preallocated
   :class:`~repro.ddp.arena.GradientArena` — one reusable ``(world_size,
   numel)`` matrix per bucket (reverse parameter order, names erased — see
   :mod:`repro.ddp.bucket`) — with one copy per gradient, gradient sparsity
   enforcement (GSE) folded into that copy, and no per-step flatten buffers;
3. the registered communication hook aggregates each bucket through the
   process group, which records modeled time and bytes; the events each
   bucket's hook issued are drained from the group's log per step (the group
   keeps lifetime aggregates), so the log cannot grow with run length.
   Stateful compressors (error-feedback residuals, DGC momentum, PacTrain
   masks) own their per-bucket buffers — never views into the arena, whose
   rows are rewritten by every staging pass — so their state survives arena
   staging and bucket reuse across iterations;
4. the aggregated gradients are unpacked back into ``param.grad`` as views of
   the reduced buffer (no copies on the float64 or float32 path) so a single
   optimiser step updates the shared weights.

The result of each step reports the loss, the modeled communication time and
the bytes each worker placed on the wire — the raw material for every TTA
figure in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.collectives import CollectiveEvent
from repro.comm.process_group import ProcessGroup
from repro.ddp.arena import GradientArena
from repro.ddp.bucket import Bucket, GradBucket, build_buckets, DEFAULT_BUCKET_CAP_BYTES
from repro.obs.tracer import TRACER
from repro.ddp.hooks import CommHook, HookState, make_hook
from repro.nn.batched import replica_views
from repro.nn.module import Module
from repro.pruning.mask import PruningMask
from repro.tensorlib import Tensor
from repro.tensorlib.dtypes import get_default_dtype


@dataclass
class StepResult:
    """Outcome of one synchronisation: a training step or an averaging round.

    The totals are summed over the collective events in issue order, so they
    are the same floats the process group's drained log would give.
    """

    per_rank_loss: List[float]
    comm_time: float
    comm_bytes_per_worker: float
    events: List[CollectiveEvent]
    #: Modeled seconds of each bucket's collective(s), in bucket order — the
    #: per-bucket costs the event-driven engine schedules against backward
    #: compute.
    per_bucket_comm_time: List[float]

    @classmethod
    def from_bucket_events(
        cls, bucket_events: List[List[CollectiveEvent]], per_rank_loss: Sequence[float] = ()
    ) -> "StepResult":
        events = [event for per_bucket in bucket_events for event in per_bucket]
        return cls(
            per_rank_loss=list(per_rank_loss),
            comm_time=float(sum(e.time_seconds for e in events)),
            comm_bytes_per_worker=float(sum(e.bytes_per_worker for e in events)),
            events=events,
            per_bucket_comm_time=[
                float(sum(e.time_seconds for e in per_bucket)) for per_bucket in bucket_events
            ],
        )

    @property
    def loss(self) -> float:
        """Mean loss over the ranks that ran this step."""
        return float(np.mean(self.per_rank_loss))


class DistributedDataParallel:
    """Synchronous data-parallel training of one model across simulated ranks.

    Parameters
    ----------
    model:
        The shared model replica (identical across ranks by construction).
    world_size:
        Number of simulated workers.
    process_group:
        Communication substrate; defaults to a zero-cost group (unit tests).
    bucket_cap_bytes:
        Gradient bucket capacity; PyTorch's 25 MiB default keeps small models
        in a single bucket, which matches how DDP behaves for them.
    comm_hook:
        ``None`` (native all-reduce), a compressor, or a hook callable.
    """

    def __init__(
        self,
        model: Module,
        world_size: int,
        process_group: Optional[ProcessGroup] = None,
        bucket_cap_bytes: int = DEFAULT_BUCKET_CAP_BYTES,
        comm_hook: Optional[object] = None,
    ) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.model = model
        self.world_size = world_size
        self.process_group = process_group or ProcessGroup(world_size)
        if self.process_group.world_size != world_size:
            raise ValueError("process_group world_size does not match DDP world_size")
        self.buckets: List[Bucket] = build_buckets(model, bucket_cap_bytes)
        self._hook: CommHook = make_hook(comm_hook)
        self._hook_state = HookState(process_group=self.process_group)
        self._param_map = dict(model.named_parameters())
        parameters = list(self._param_map.values())
        #: Compute dtype of the gradient plumbing (the model's parameter dtype).
        self.dtype = parameters[0].data.dtype if parameters else get_default_dtype()
        #: Preallocated per-bucket (world_size, numel) gradient matrices,
        #: reused every iteration.
        self.arena = GradientArena(self.buckets, world_size, dtype=self.dtype)
        #: Surviving membership under a fault scenario; ``None`` (default)
        #: means the full healthy world and takes exactly the historical
        #: synchronisation path.
        self._active_ranks: Optional[List[int]] = None
        self._active_group: Optional[ProcessGroup] = None
        #: The last world-batched step's gradient stacks, held until the next
        #: step has allocated its own.  Freed any earlier, their pages go back
        #: to the OS and every step faults them in again: about 10x the minor
        #: page faults on a 4-rank ResNet-18-mini cell, and on the 256-rank
        #: MLP's three-cell pass (all-reduce, top-k, PacTrain) 16.6k-23.3k
        #: minor faults per pass without the keep-alive against 12.0k-12.5k
        #: with it (steady-state passes, three processes each).
        self._previous_grads: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Hook management
    # ------------------------------------------------------------------ #
    def register_comm_hook(self, hook_or_compressor: object) -> None:
        """Replace the communication hook (mirrors DDP's ``register_comm_hook``)."""
        self._hook = make_hook(hook_or_compressor)

    @property
    def hook_state(self) -> HookState:
        return self._hook_state

    # ------------------------------------------------------------------ #
    # Elastic membership
    # ------------------------------------------------------------------ #
    @property
    def active_ranks(self) -> List[int]:
        """Global ids of the ranks currently participating in the reduce."""
        if self._active_ranks is None:
            return list(range(self.world_size))
        return list(self._active_ranks)

    @property
    def is_degraded(self) -> bool:
        """Whether synchronisation currently excludes any rank."""
        return self._active_ranks is not None

    def set_active_ranks(
        self,
        ranks: Optional[Sequence[int]],
        process_group: Optional[ProcessGroup] = None,
    ) -> None:
        """Restrict gradient synchronisation to a surviving subset of ranks.

        ``ranks`` is the sorted global membership collectives should run
        over; dead ranks keep their arena rows (the buffers are
        preallocated for the full world) but are excluded from staging and
        from every reduce.  ``process_group`` optionally supplies a
        degraded-world group — e.g. one costed with a fault plan's current
        link factor — and defaults to a group of ``len(ranks)`` over this
        wrapper's network model.  Passing ``None`` (or the full membership
        with no explicit group) restores the healthy fast path, whose
        synchronisation is bit-identical to a wrapper that was never
        degraded.
        """
        if ranks is None:
            self._active_ranks = None
            self._active_group = None
            self._hook_state.process_group = self.process_group
            return
        active = sorted(dict.fromkeys(int(r) for r in ranks))
        if not active:
            raise ValueError("active membership cannot be empty")
        if active[0] < 0 or active[-1] >= self.world_size:
            raise ValueError(
                f"active ranks {active} outside world_size={self.world_size}"
            )
        if len(active) == self.world_size and process_group is None:
            self.set_active_ranks(None)
            return
        self._active_ranks = active
        self._active_group = process_group or ProcessGroup(
            len(active), self.process_group.network
        )
        if self._active_group.world_size != len(active):
            raise ValueError(
                f"process_group world_size {self._active_group.world_size} does not "
                f"match {len(active)} active ranks"
            )
        self._hook_state.process_group = self._active_group

    # ------------------------------------------------------------------ #
    # Training step
    # ------------------------------------------------------------------ #
    def compute_local_gradients(
        self,
        batch: Tuple[np.ndarray, np.ndarray],
        loss_fn: Callable[[Tensor, np.ndarray], Tensor],
        copy: bool = True,
    ) -> Tuple[float, Dict[str, np.ndarray]]:
        """Run forward/backward for one rank's batch and return its gradients.

        ``copy=False`` returns the live ``param.grad`` arrays instead of
        copies — valid only when the caller consumes them (e.g. stages them
        into the arena) before the next rank's backward pass overwrites them.
        """
        images, labels = batch
        self.model.zero_grad()
        logits = self.model(Tensor(images))
        loss = loss_fn(logits, labels)
        loss.backward()
        grads = {
            name: (param.grad.copy() if copy else param.grad)
            for name, param in self._param_map.items()
            if param.grad is not None
        }
        return float(loss.item()), grads

    def compute_batched_gradients(
        self,
        batch: Tuple[np.ndarray, np.ndarray],
        loss_fn: Callable[[Tensor, np.ndarray], Tensor],
    ) -> Tuple[List[float], Dict[str, np.ndarray]]:
        """Run every rank's forward/backward as one world-batched pass.

        ``batch`` is the stacked ``(world_size, N, ...)`` images and
        ``(world_size, N)`` labels.  Parameters are temporarily swapped for
        zero-copy ``(world, *shape)`` broadcast views (see
        :mod:`repro.nn.batched`); the loss function returns a per-world loss
        vector whose backward is seeded with unit gradients — one per rank,
        exactly like the per-rank loop's scalar backward seeds.  Returns the
        per-rank losses and ``{name: (world, *shape)}`` gradient stacks, whose
        float64 values are bit-identical per rank to
        :meth:`compute_local_gradients` run rank by rank.
        """
        images, labels = batch
        if images.shape[0] != self.world_size:
            raise ValueError(
                f"batched images lead with {images.shape[0]} ranks, expected {self.world_size}"
            )
        self.model.zero_grad()
        with replica_views(self.model, self.world_size) as views:
            logits = self.model(Tensor(images))
            loss = loss_fn(logits, labels)
            loss.backward(np.ones(self.world_size, dtype=loss.data.dtype))
            grads = {
                name: view.grad for name, view in views.items() if view.grad is not None
            }
        losses = [float(value) for value in np.asarray(loss.data).reshape(-1)]
        return losses, grads

    @staticmethod
    def _stackable(per_rank_batches: Sequence[Tuple[np.ndarray, np.ndarray]]) -> bool:
        """Whether every rank's batch has identical shapes (batchable)."""
        first_images, first_labels = per_rank_batches[0]
        return all(
            images.shape == first_images.shape and np.shape(labels) == np.shape(first_labels)
            for images, labels in per_rank_batches
        )

    def train_step(
        self,
        per_rank_batches: Sequence[Tuple[np.ndarray, np.ndarray]],
        loss_fn: Callable[[Tensor, np.ndarray], Tensor],
        execution: str = "batched",
        gse_mask: Optional[PruningMask] = None,
    ) -> StepResult:
        """One synchronous iteration: local backward on every rank, then sync.

        ``per_rank_batches`` must contain exactly ``world_size`` batches (one
        per rank, typically produced by a :class:`repro.data.DistributedSampler`).
        Under a degraded membership (:meth:`set_active_ranks`) only the
        active ranks run: a dead rank's batch is passed in (so data order
        stays deterministic) but contributes no gradient or loss.

        ``execution`` selects how the per-rank passes run: ``"batched"`` (the
        default) evaluates all ranks in one world-batched forward/backward,
        ``"looped"`` keeps the historical per-rank Python loop.  Float64
        results are bit-identical either way; ragged per-rank batch shapes
        and degraded memberships fall back to the loop automatically.
        Modeled time is unaffected — the simulation clock measures the
        *simulated* cluster, not host execution strategy.

        ``gse_mask`` (gradient sparsity enforcement) masks every rank's
        gradients as they are staged.  The aggregated gradients are written
        back into ``param.grad``; the optimiser step is the caller's.
        """
        if len(per_rank_batches) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} per-rank batches, got {len(per_rank_batches)}"
            )
        if execution not in ("batched", "looped"):
            raise ValueError(f"unknown execution strategy {execution!r}")

        with TRACER.span("train/backward", cat="train", iteration=self._hook_state.iteration):
            if execution == "batched" and not self.is_degraded and self._stackable(per_rank_batches):
                images = np.stack([batch[0] for batch in per_rank_batches])
                labels = np.stack([np.asarray(batch[1]) for batch in per_rank_batches])
                per_rank_losses, grads = self.compute_batched_gradients((images, labels), loss_fn)
                self.stage_world_gradients(grads, gse_mask)
                self._previous_grads = grads
            else:
                per_rank_losses = []
                for rank in self.active_ranks:
                    # copy=False: each rank's gradients are staged before the
                    # next rank's backward pass overwrites param.grad.
                    loss_value, grads = self.compute_local_gradients(
                        per_rank_batches[rank], loss_fn, copy=False
                    )
                    self.stage_rank_gradients(rank, grads, gse_mask)
                    per_rank_losses.append(loss_value)

        with TRACER.span("train/sync", cat="train", iteration=self._hook_state.iteration):
            aggregated, bucket_events = self.synchronize_staged()
            self.apply_aggregated_gradients(aggregated)
        self._hook_state.iteration += 1
        return StepResult.from_bucket_events(bucket_events, per_rank_losses)

    # ------------------------------------------------------------------ #
    # Gradient synchronisation
    # ------------------------------------------------------------------ #
    def stage_rank_gradients(
        self,
        rank: int,
        grads_by_name: Dict[str, np.ndarray],
        gse_mask: Optional[PruningMask] = None,
    ) -> None:
        """Write one rank's named gradients into its arena rows.

        With ``gse_mask`` each gradient lands as ``grad * keep`` (Eq. (2)),
        bit-identical to staging ``apply_gse(model, gse_mask, grads=...)``.
        """
        self.arena.write_rank(rank, grads_by_name, None if gse_mask is None else gse_mask.masks)

    def stage_world_gradients(
        self,
        grads_by_name: Dict[str, np.ndarray],
        gse_mask: Optional[PruningMask] = None,
    ) -> None:
        """Write ``(world, *shape)`` stacked gradients into all arena rows at once.

        ``gse_mask`` broadcasts over the leading world axis, so each rank's
        slice is masked exactly as on the per-rank path.
        """
        self.arena.write_world(grads_by_name, None if gse_mask is None else gse_mask.masks)

    def synchronize_staged(self) -> Tuple[Dict[str, np.ndarray], List[List[CollectiveEvent]]]:
        """Aggregate the gradients currently staged in the arena.

        Returns the aggregated gradients and the collective events grouped by
        the bucket whose hook issued them (one — or, for adaptive
        compressors, several — per bucket).  The events are *drained* from
        the process group's per-step log (the group keeps running lifetime
        aggregates), so a long run's log stays bounded.

        Under a degraded membership (:meth:`set_active_ranks`) each bucket's
        collective runs over the survivors only: the hook sees a
        ``(len(active), numel)`` matrix of the surviving ranks' arena rows
        and the degraded process group, so dead ranks contribute nothing to
        the average and the cost model charges an ``len(active)``-way
        collective.
        """
        active = self._active_ranks
        group = self.process_group if active is None else self._active_group
        aggregated: Dict[str, np.ndarray] = {}
        bucket_events: List[List[CollectiveEvent]] = []
        last_index = len(self.buckets) - 1
        for bucket in self.buckets:
            matrix = self.arena.matrix(bucket.index)
            if active is not None:
                # Fancy indexing copies the surviving rows out of the arena,
                # so hooks never see (or alias) dead ranks' stale gradients.
                matrix = matrix[active]
            grad_bucket = GradBucket(
                bucket,
                matrix=matrix,
                is_last=bucket.index == last_index,
            )
            events_before = len(group.events)
            with TRACER.span(
                "ddp/bucket_sync", cat="ddp",
                bucket=bucket.index, numel=bucket.numel,
            ):
                reduced = self._hook(self._hook_state, grad_bucket)
            bucket_events.append(group.events[events_before:])
            del group.events[events_before:]
            aggregated.update(bucket.unflatten(self._ensure_flat(reduced, bucket)))
        return aggregated, bucket_events

    def _ensure_flat(self, reduced, bucket: Bucket) -> np.ndarray:
        """Coerce a hook result to a flat compute-dtype array without copying.

        Already-flat arrays of the right dtype pass through untouched (the
        aggregated gradients then alias the hook's reduced buffer, which is
        fresh per step).  A result aliasing the arena itself *is* copied —
        otherwise the next step's staging would silently corrupt ``param.grad``.
        """
        array = np.asarray(reduced)
        if array.dtype != self.dtype:
            array = array.astype(self.dtype)
        array = array.reshape(-1)
        if array.size != bucket.numel:
            raise ValueError(
                f"hook returned {array.size} elements for bucket {bucket.index}, "
                f"expected {bucket.numel}"
            )
        if self.arena.shares_memory_with(array):
            array = array.copy()
        return array

    def apply_aggregated_gradients(self, aggregated: Dict[str, np.ndarray]) -> None:
        """Write aggregated gradients back into ``param.grad``."""
        dtype = self.dtype
        for name, grad in aggregated.items():
            param = self._param_map.get(name)
            if param is None:
                raise KeyError(f"aggregated gradient for unknown parameter {name!r}")
            # No-copy in the common case: unflatten returns correctly-shaped
            # views in the compute dtype already.
            grad = np.asarray(grad)
            param.grad = grad if grad.dtype == dtype else grad.astype(dtype)

    # ------------------------------------------------------------------ #
    # Parameter state (checkpointing and regime replicas)
    # ------------------------------------------------------------------ #
    def snapshot_parameters(self) -> Dict[str, np.ndarray]:
        """Copies of the model parameters, keyed like aggregated gradients."""
        return {name: param.data.copy() for name, param in self._param_map.items()}

    def restore_parameters(self, params: Dict[str, np.ndarray]) -> None:
        """Install parameter arrays captured by :meth:`snapshot_parameters`.

        Copies defensively so the caller's snapshot (e.g. a checkpoint that
        will seed several resumes) is never aliased by the live model.
        """
        for name, param in self._param_map.items():
            if name not in params:
                raise KeyError(f"snapshot missing parameter {name!r}")
            stored = np.asarray(params[name])
            if stored.shape != param.data.shape:
                raise ValueError(
                    f"snapshot for {name!r} has shape {stored.shape}, "
                    f"expected {param.data.shape}"
                )
            param.data = stored.astype(self.dtype, copy=True)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def gradient_numel(self) -> int:
        """Total number of gradient elements synchronised per iteration."""
        return sum(bucket.numel for bucket in self.buckets)

    def gradient_nbytes(self) -> int:
        """Uncompressed fp32 bytes synchronised per iteration."""
        return sum(bucket.nbytes for bucket in self.buckets)
