"""Configuration-driven experiment driver.

Every benchmark in this repository is a thin wrapper around
:func:`run_experiment`: it builds the dataset, model, cluster and compression
method described by an :class:`ExperimentConfig` / :class:`MethodSpec` pair,
runs real distributed (simulated-time) training and returns an
:class:`ExperimentResult` containing the accuracy-versus-time trace, the TTA
and the communication accounting — the quantities plotted in Figs. 3, 5 and 6
and tabulated in Table 1.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.process_group import ProcessGroup
from repro.compression.base import CodecCompressor, Compressor
from repro.compression.registry import build_compressor
from repro.data import DataLoader, DistributedSampler, make_dataset, train_test_split
from repro.ddp import DistributedDataParallel, StepResult
from repro.ddp.bucket import DEFAULT_BUCKET_CAP_BYTES, GradBucket
from repro.nn import SGD
from repro.nn.models import build_model
from repro.nn.module import Module
from repro.obs.instrument import emit_ps_update, emit_simulated_iteration
from repro.obs.tracer import SIM_SCHEDULE_TID, TRACER
from repro.pruning import PruningMask, apply_gse, grasp_prune, magnitude_prune
from repro.simulation.cluster import ClusterSpec
from repro.simulation.engine import EventHeap, LinkChannel, SimEvent, SimulationEngine
from repro.simulation.regimes import (
    ReplicaSet,
    SyncSchedule,
    TrainingCheckpoint,
    parse_sync_schedule,
)
from repro.simulation.timeline import TrainingTimeline
from repro.tensorlib import Tensor, default_dtype, functional as F, no_grad, use_backend
from repro.tensorlib.backend import KNOWN_BACKENDS
from repro.tensorlib.dtypes import SUPPORTED_DTYPES


# --------------------------------------------------------------------------- #
# Method and experiment descriptions
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MethodSpec:
    """One gradient-synchronisation method, as named in the paper's figures.

    ``compressor`` is a registry name (see :mod:`repro.compression.registry`)
    or a ``+``-separated codec pipeline spec such as ``"topk0.01+terngrad"``,
    ``"ef+signsgd"`` or ``"powersgd-rank4"`` — arbitrary codec compositions
    run end-to-end without a dedicated compressor class.  ``error_feedback``
    is tri-state: ``None`` (default) keeps whatever the compressor spec says,
    ``True`` switches on the driver-level per-bucket residual state
    (equivalent to, and composing idempotently with, a leading ``"ef"`` spec
    token) and ``False`` forces every form of error feedback off — including
    the stage-internal compensation top-k carries in its paper form — which
    makes ``error_feedback`` a uniform on/off campaign axis.  Pruning-related
    fields only take effect for methods that prune (PacTrain); the baselines
    keep the dense model.

    ``sync_schedule`` selects the training regime (see
    :mod:`repro.simulation.regimes` for the grammar): ``None``/``"sync"`` is
    synchronous data-parallel, ``"localsgd:H"`` averages parameters every H
    local steps (``"localsgd:H:delta"`` compresses the model delta through
    the method's codec pipeline instead), and ``"ps[:S]"`` runs the
    stale-gradient async parameter server with staleness bound S.
    """

    name: str
    compressor: str = "allreduce"
    pruning_ratio: float = 0.0
    pruning_method: str = "magnitude"
    gse: bool = False
    quantize: bool = False
    stability_threshold: int = 3
    min_sparsity: float = 0.05
    warmup_iterations: int = 0
    #: Driver-level error feedback: the compressor keeps a per-(bucket, rank)
    #: residual of the gradient mass its encoding dropped and adds it to the
    #: next iteration's input.  ``None`` defers to the compressor spec;
    #: ``True``/``False`` force it on/off (codec-pipeline compressors only).
    error_feedback: Optional[bool] = None
    #: Training-regime schedule spec (``None`` = synchronous; grammar in
    #: :func:`repro.simulation.regimes.parse_sync_schedule`).
    sync_schedule: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sync_schedule == "":
            object.__setattr__(self, "sync_schedule", None)
        # Validate eagerly so a bad schedule fails at spec-construction time
        # (campaign expansion), not minutes into a sweep.
        parse_sync_schedule(self.sync_schedule)

    def schedule(self) -> SyncSchedule:
        """The parsed sync schedule (the synchronous default when unset)."""
        return parse_sync_schedule(self.sync_schedule)

    def build_compressor(self, seed: int = 0) -> Compressor:
        if self.compressor.startswith("pactrain"):
            # Imported lazily: repro.pactrain.trainer itself builds on this module.
            from repro.pactrain.compressor import PacTrainCompressor  # noqa: PLC0415

            if self.error_feedback is not None:
                raise ValueError(
                    f"error_feedback={self.error_feedback} is not supported for "
                    "PacTrain methods: its compacted aggregation is already "
                    "lossless w.r.t. the masked gradient, so there is no dropped "
                    "mass to feed back (and nothing to strip); leave the field "
                    "at None"
                )
            return PacTrainCompressor(
                stability_threshold=self.stability_threshold,
                min_sparsity=self.min_sparsity,
                quantize=self.quantize,
                seed=seed,
                warmup_iterations=self.warmup_iterations,
            )
        # Registry names and codec pipeline specs receive the same per-run
        # seed, so stochastic codecs (random-k selection, ternary rounding)
        # actually vary across multi-seed sweeps.
        compressor = build_compressor(self.compressor, seed=seed)
        if self.error_feedback is None:
            return compressor
        if not isinstance(compressor, CodecCompressor):
            raise TypeError(
                f"error_feedback={self.error_feedback} needs a codec-pipeline "
                f"compressor, got {type(compressor).__name__} for {self.compressor!r}"
            )
        if self.error_feedback:
            if not compressor.error_feedback:
                compressor.enable_error_feedback()
        else:
            compressor.disable_error_feedback()
        return compressor

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """JSON-ready dict that :meth:`from_dict` restores exactly."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "MethodSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise KeyError(f"unknown MethodSpec fields {sorted(unknown)}; known: {sorted(known)}")
        return cls(**data)


#: The five methods compared throughout the paper's evaluation (Figs. 3 and 5).
#: PacTrain uses the paper's default configuration: pruning ratio 0.5, GSE every
#: iteration and ternary quantisation of the compacted gradients (§III.D).
PAPER_METHODS: Dict[str, MethodSpec] = {
    "all-reduce": MethodSpec(name="all-reduce", compressor="allreduce"),
    "fp16": MethodSpec(name="fp16", compressor="fp16"),
    "topk-0.1": MethodSpec(name="topk-0.1", compressor="topk-0.1"),
    "topk-0.01": MethodSpec(name="topk-0.01", compressor="topk-0.01"),
    "pactrain": MethodSpec(
        name="pactrain", compressor="pactrain", pruning_ratio=0.5, gse=True, quantize=True
    ),
}

#: PacTrain without ternary quantisation (lossless w.r.t. the masked gradient);
#: used by the ablation benchmark.
PACTRAIN_FP32 = MethodSpec(
    name="pactrain-fp32", compressor="pactrain", pruning_ratio=0.5, gse=True, quantize=False
)


@dataclass
class ExperimentConfig:
    """Workload + cluster + optimisation settings for one training run."""

    model: str = "resnet18"
    dataset: str = "cifar10"
    num_classes: int = 10
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    epochs: int = 10
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    target_accuracy: Optional[float] = None
    dataset_samples: int = 512
    image_size: int = 8
    #: Per-sample noise of the synthetic dataset.  Larger values make the task
    #: harder, so convergence takes more epochs and the convergence-speed
    #: differences between compression schemes become visible.
    noise_std: float = 0.6
    test_fraction: float = 0.25
    pretrain_iterations: int = 3
    max_iterations_per_epoch: Optional[int] = None
    seed: int = 0
    stop_at_target: bool = False
    #: Gradient bucket capacity.  PyTorch's 25 MiB default keeps the mini
    #: models in a single bucket; set a smaller cap to get the multi-bucket
    #: layout that per-bucket compute/comm overlap needs.
    bucket_cap_bytes: int = DEFAULT_BUCKET_CAP_BYTES
    #: Compute precision of the whole run: ``"float64"`` (default — every
    #: result bit-identical to the historical float64-only behaviour) or
    #: ``"float32"`` (the fast path: ~half the memory traffic and roughly
    #: double the SIMD throughput, accuracy within the documented tolerance).
    #: Wire-byte accounting models the fp32 wire format either way, so
    #: communication volumes and modeled times do not depend on this.  Also a
    #: campaign axis (``"dtype": ["float32", "float64"]``).
    dtype: str = "float64"
    #: Host-side execution strategy for the per-iteration forward/backward:
    #: ``"batched"`` (default) evaluates all ranks in one world-batched pass,
    #: ``"looped"`` keeps the per-rank Python loop.  Float64 results are
    #: bit-identical either way (dropout excepted); modeled time is
    #: execution-independent, so this is purely a wall-clock knob.
    execution: str = "batched"
    #: Array backend for the tensor kernels (``repro.tensorlib.backend``):
    #: ``None`` keeps the process-wide default (``REPRO_BACKEND`` env or
    #: numpy); ``"numba"`` opts into the JIT kernels, degrading to numpy
    #: with a warning when numba is absent.
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.dtype not in SUPPORTED_DTYPES:
            raise ValueError(
                f"dtype must be one of {sorted(SUPPORTED_DTYPES)}, got {self.dtype!r}"
            )
        if self.execution not in ("batched", "looped"):
            raise ValueError(
                f"execution must be 'batched' or 'looped', got {self.execution!r}"
            )
        if self.backend is not None and self.backend not in KNOWN_BACKENDS:
            raise ValueError(
                f"backend must be None or one of {sorted(KNOWN_BACKENDS)}, got {self.backend!r}"
            )
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.dataset_samples < 2:
            raise ValueError(
                "dataset_samples must be >= 2 (the train/test split needs at least "
                f"one sample on each side), got {self.dataset_samples}"
            )
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.target_accuracy is not None and not isinstance(self.target_accuracy, (int, float)):
            raise TypeError(
                f"target_accuracy must be a float or None, got {self.target_accuracy!r} "
                "(resolve named targets such as 'per-model' before building the config)"
            )

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """JSON-ready dict that :meth:`from_dict` restores exactly.

        The nested :class:`ClusterSpec` serialises through its own
        ``to_dict``; everything else is plain scalars.  This representation is
        what the campaign result store hashes, so it must stay stable and
        canonical (no derived/duplicated fields).
        """
        data = dataclasses.asdict(self)
        data["cluster"] = self.cluster.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise KeyError(f"unknown ExperimentConfig fields {sorted(unknown)}; known: {sorted(known)}")
        kwargs = dict(data)
        if "cluster" in kwargs and isinstance(kwargs["cluster"], dict):
            kwargs["cluster"] = ClusterSpec.from_dict(kwargs["cluster"])
        return cls(**kwargs)


@dataclass
class ExperimentResult:
    """Everything a benchmark needs to report about one training run."""

    method: str
    model: str
    dataset: str
    bandwidth_mbps: float
    world_size: int
    epochs_run: int
    iterations_run: int
    simulated_time: float
    compute_time: float
    comm_time: float
    comm_bytes_per_worker: float
    final_accuracy: float
    best_accuracy: float
    tta: Optional[float]
    target_accuracy: Optional[float]
    accuracy_trace: List[Tuple[float, float]]
    loss_trace: List[float]
    compression_ratio: float
    weight_sparsity: float
    gradient_density: float
    #: Whether the run hit ``target_accuracy`` at any epoch (even if training
    #: continued afterwards because ``stop_at_target`` was off).
    reached_target: bool = False
    #: Fraction of communication hidden behind backward compute by the
    #: event-driven per-bucket schedule (0.0 with overlap disabled).
    overlap_fraction: float = 0.0
    #: Sum of per-iteration critical paths from the engine's schedule; equals
    #: ``simulated_time`` up to float rounding of the per-iteration sums.
    critical_path_time: float = 0.0
    #: Simulated seconds the fastest worker spent idle waiting for stragglers.
    straggler_time: float = 0.0
    #: Fault/recovery accounting (all zero on a healthy cluster).  Fault
    #: events interpreted during the run (crashes, re-joins, link changes):
    fault_events: int = 0
    #: Iterations that ran over a shrunken (degraded) membership.
    degraded_iterations: int = 0
    #: Rank-seconds of capacity lost to dead ranks.
    downtime_rank_seconds: float = 0.0
    #: Simulated seconds spent re-synchronising re-joined ranks (included in
    #: ``simulated_time``).
    rejoin_cost_time: float = 0.0
    #: Fraction of the cluster's rank-seconds spent training rather than lost
    #: to downtime or re-join synchronisation (1.0 when healthy).
    goodput_fraction: float = 1.0
    #: Training-regime accounting (all zero on the synchronous path).
    #: Averaging collectives run by the local-SGD regime:
    sync_rounds: int = 0
    #: Communication-free local optimiser steps between collectives.
    local_steps: int = 0
    #: Updates applied by the async parameter server.
    ps_updates: int = 0
    #: Mean / max per-update staleness (server updates applied between a
    #: worker's parameter pull and its gradient's application).
    staleness_mean: float = 0.0
    staleness_max: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def tta_or_total(self) -> float:
        """TTA if the target was reached, otherwise total simulated time.

        ``reached_target`` (not ``tta is None``) decides which: the paper
        reports relative TTA, and runs that never reach the target are charged
        their full training time (a conservative lower bound on their
        disadvantage).
        """
        if self.reached_target and self.tta is not None:
            return self.tta
        return self.simulated_time

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """JSON-ready dict that :meth:`from_dict` restores exactly.

        Floats survive the round trip bit-identically (JSON serialises the
        shortest repr, which Python parses back to the same double; ``nan`` and
        ``inf`` use the non-strict JSON literals).  Tuples in
        ``accuracy_trace`` come back as tuples via ``from_dict``.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentResult":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise KeyError(f"unknown ExperimentResult fields {sorted(unknown)}; known: {sorted(known)}")
        kwargs = dict(data)
        kwargs["accuracy_trace"] = [tuple(point) for point in kwargs.get("accuracy_trace", [])]
        return cls(**kwargs)


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def evaluate_accuracy(model: Module, loader: DataLoader) -> float:
    """Top-1 accuracy of ``model`` over a data loader (evaluation mode)."""
    model.eval()
    correct = 0
    total = 0
    with no_grad():
        for images, labels in loader:
            logits = model(Tensor(images))
            predictions = logits.data.argmax(axis=-1)
            correct += int((predictions == labels).sum())
            total += len(labels)
    model.train()
    return correct / total if total else 0.0


def _pretrain(model: Module, loader: DataLoader, iterations: int, lr: float) -> None:
    """Brief single-worker warm-up so magnitude/GraSP scores are informative.

    Mirrors the paper's setup of starting from a (pre-)trained model before
    pruning (Fig. 1): a handful of SGD steps on the generic data is enough to
    differentiate weight magnitudes for the mini models.
    """
    if iterations <= 0:
        return
    optimizer = SGD(model.parameters(), lr=lr)
    done = 0
    while done < iterations:
        for images, labels in loader:
            model.zero_grad()
            loss = F.cross_entropy(model(Tensor(images)), labels)
            loss.backward()
            optimizer.step()
            done += 1
            if done >= iterations:
                break


def _prune_model(
    model: Module,
    method: MethodSpec,
    sample_batch: Tuple[np.ndarray, np.ndarray],
) -> Optional[PruningMask]:
    """Apply the method's pruning step and return the mask (None if dense)."""
    if method.pruning_ratio <= 0.0:
        return None
    if method.pruning_method == "grasp":
        return grasp_prune(model, sample_batch, F.cross_entropy, method.pruning_ratio)
    return magnitude_prune(model, method.pruning_ratio)


def _weight_sparsity(model: Module) -> float:
    total = sum(p.size for p in model.parameters())
    zeros = sum(int(np.sum(p.data == 0.0)) for p in model.parameters())
    return zeros / total if total else 0.0


class _WeightSparsityCache:
    """Memoised :func:`_weight_sparsity`, invalidated by the mask version.

    With a pruning mask in force the zero pattern of the weights is pinned —
    GSE masks every gradient and ``apply_to_weights`` re-zeroes after every
    optimiser step — so the O(parameters) sparsity scan only needs to re-run
    when the mask itself changes (:attr:`PruningMask.version`).  Without a
    mask the weights drift freely and every query scans, exactly as before.
    """

    def __init__(self) -> None:
        self._version: Optional[int] = None
        self._value: Optional[float] = None

    def value(self, model: Module, mask: Optional[PruningMask]) -> float:
        if mask is None:
            return _weight_sparsity(model)
        version = mask.version
        if self._value is None or version != self._version:
            self._version = version
            self._value = _weight_sparsity(model)
        return self._value


# --------------------------------------------------------------------------- #
# Regime support
# --------------------------------------------------------------------------- #
def check_regime_support(
    method: MethodSpec,
    cluster: ClusterSpec,
    *,
    pruned: bool = False,
    checkpointing: bool = False,
) -> None:
    """Reject a regime combination the driver cannot run, before anything runs.

    :func:`run_experiment` calls this before it builds the dataset, and
    :func:`train_distributed` calls it again (``pruned``: a pruning mask is
    passed; ``checkpointing``: a checkpoint is captured or restored).  Every
    rejection is a :class:`ValueError` that names the schedule.
    """
    schedule = method.schedule()
    spec = schedule.spec()
    if checkpointing and not schedule.is_synchronous:
        raise ValueError(
            "checkpoint/restore is only supported on the synchronous path "
            f"(sync or localsgd:1 schedules), got {spec!r}"
        )
    ps = schedule.regime == "ps"
    if ps and not cluster.fault_plan().is_empty:
        # Fault events apply at collective boundaries; workers of the async
        # parameter server are mid-flight at arbitrary event times.
        raise ValueError(
            f"{spec!r}: fault plans are not supported in async parameter-server mode: "
            "the ps regime has no collective boundary at which membership changes "
            "could apply; use the 'sync' or 'localsgd:H' regimes for fault studies"
        )
    if ps and (pruned or method.gse):
        raise ValueError(
            f"{spec!r}: async parameter-server mode does not support pruning/GSE "
            "methods: the mask lifecycle assumes a synchronous view of the parameters"
        )
    if ps and method.compressor.startswith("pactrain"):
        raise ValueError(
            f"{spec!r}: async parameter-server mode does not support the PacTrain "
            "compressor: its mask-compact stage needs the Mask Tracker state that "
            "only synchronous collectives build"
        )
    delta = schedule.regime == "localsgd" and schedule.delta and not schedule.is_synchronous
    if ps or delta:
        compressor = method.build_compressor()
        if not isinstance(compressor, CodecCompressor):
            need = (
                "async parameter-server mode needs a codec-pipeline compressor "
                "(its pushes are encoded per worker)"
                if ps
                else "localsgd delta mode compresses model deltas through a codec pipeline"
            )
            raise ValueError(
                f"{spec!r}: {need}, got {type(compressor).__name__} for {method.compressor!r}"
            )


# --------------------------------------------------------------------------- #
# Core training loop
# --------------------------------------------------------------------------- #
class _FaultState:
    """Per-run fault-plan interpreter of the iteration loop.

    An empty plan keeps :attr:`faulty` False and :meth:`advance` is a no-op
    returning ``None``, so healthy runs take exactly the historical code path
    (golden traces stay bit-identical).
    """

    def __init__(self, run: "_TrainingRun") -> None:
        self.run = run
        self.plan = run.cluster.fault_plan()
        self.faulty = not self.plan.is_empty
        self.cursor = -1.0
        self.active = list(range(run.world_size))
        self.link = 1.0

    def _install(self, active: List[int], link: float) -> None:
        """Point DDP's synchronisation at ``active`` ranks over a ``link`` network."""
        run = self.run
        if len(active) == run.world_size and link == 1.0:
            run.ddp.set_active_ranks(None)
        else:
            degraded_model = run.cluster.cost_model_for(len(active), link)
            run.ddp.set_active_ranks(active, ProcessGroup(len(active), degraded_model))
        self.active, self.link = active, link

    def restore(self, checkpoint: TrainingCheckpoint) -> None:
        """Resume onto a checkpoint's membership (re-applied, not replayed)."""
        self.cursor = checkpoint.fault_cursor
        self._install(list(checkpoint.active_ranks), checkpoint.link_factor)

    def advance(self, now: float, global_iteration: int, on_rejoin=None) -> Optional[List[float]]:
        """Interpret the plan up to simulated time ``now``.

        Events scheduled up to "now" have fired, so the next iteration runs
        over the surviving membership with the current link factor.  Returns
        the iteration's per-rank churn multipliers — ``None`` when the plan is
        empty.  ``on_rejoin`` (if given) is called with the list of ranks that
        re-joined, after their broadcast cost has been charged — local SGD
        uses it to refresh the returning replica.
        """
        if not self.faulty:
            return None
        run, plan = self.run, self.plan
        fired = plan.events_between(self.cursor, now)
        self.cursor = now
        active = plan.active_ranks(run.world_size, now)
        link = plan.link_factor(now)
        if fired:
            run.timeline.fault_events += len(fired)
            if TRACER.enabled:
                for event in fired:
                    TRACER.instant(
                        f"fault/{event.kind}", cat="fault", clock="sim",
                        ts=event.at, tid=SIM_SCHEDULE_TID,
                        rank=event.rank, factor=event.factor,
                    )
        if active != self.active or link != self.link:
            if active != self.active:
                run.compressor.resize_world(self.active, active, plan.residual_policy)
            self._install(active, link)
            # A re-joining rank pulls the current model state before it can
            # participate: charge one broadcast over the new membership per
            # re-join and advance the simulated clock.
            rejoined = []
            for event in fired:
                if event.kind != "rejoin" or event.rank not in active:
                    continue
                cost = run.cluster.cost_model_for(len(active), link).broadcast_time(
                    run.model_wire_bytes
                )
                run.timeline.add_rejoin_cost(cost)
                rejoined.append(event.rank)
                if TRACER.enabled:
                    TRACER.sim_span(
                        "fault/rejoin-sync", "fault", ts=now, dur=cost,
                        tid=SIM_SCHEDULE_TID, rank=event.rank,
                        bytes=run.model_wire_bytes,
                    )
            if rejoined and on_rejoin is not None:
                on_rejoin(rejoined)
        return plan.churn_multipliers(run.world_size, global_iteration)

    def note_iteration(self, sim_base: float, wall_time: float) -> None:
        """Charge one iteration's dead ranks as downtime."""
        dead = self.run.world_size - len(self.active)
        self.run.timeline.note_degraded_iteration(dead, wall_time)
        if TRACER.enabled and dead > 0:
            TRACER.sim_span(
                "fault/degraded-world", "fault", ts=sim_base,
                dur=wall_time, tid=SIM_SCHEDULE_TID,
                alive=len(self.active), dead=dead,
            )


@dataclass
class _TrainingRun:
    """The state every loop of one training run shares.

    Built from :func:`train_distributed`'s arguments (same order) plus the
    compressor.  :meth:`iterate` is the one epoch/iteration driver of the
    synchronous and local-SGD regimes; a :class:`_Synchronous` or
    :class:`_LocalSGD` strategy decides what each iteration runs.
    :meth:`async_ps` is the parameter server's event loop.  Both close every
    epoch with :meth:`end_epoch`.
    """

    model: Module
    train_dataset: object
    test_loader: DataLoader
    method: MethodSpec
    cluster: ClusterSpec
    epochs: int
    batch_size: int
    lr: float
    momentum: float
    weight_decay: float
    mask: Optional[PruningMask]
    target_accuracy: Optional[float]
    stop_at_target: bool
    max_iterations_per_epoch: Optional[int]
    seed: int
    bucket_cap_bytes: int
    sparsity_cache: Optional[_WeightSparsityCache]
    compressor: Compressor

    def __post_init__(self) -> None:
        model, cluster = self.model, self.cluster
        self.world_size = world_size = cluster.world_size
        self.reached_target = False
        self.ddp = DistributedDataParallel(
            model, world_size, cluster.process_group(), self.bucket_cap_bytes, self.compressor
        )
        self.optimizer = SGD(
            model.parameters(), lr=self.lr, momentum=self.momentum, weight_decay=self.weight_decay
        )
        self.engine = SimulationEngine(overlap=cluster.overlap)
        self.timeline = TrainingTimeline()
        if TRACER.enabled:
            # One simulated-cluster track group per training run, so sweeps
            # never overlay two schedules on the same Perfetto tracks.
            TRACER.new_sim_process(f"{self.method.name} world={world_size}")
        #: The parameters in the fp32 wire format: what a re-joining rank and
        #: a parameter-server pull transfer.
        self.model_wire_bytes = float(sum(p.size for p in model.parameters()) * 4)

        input_shape = self.train_dataset.input_shape
        weight_sparsity = (self.sparsity_cache or _WeightSparsityCache()).value(model, self.mask)
        self.per_rank_compute = cluster.per_rank_iteration_times(
            model, input_shape, self.batch_size, weight_sparsity=weight_sparsity
        )
        self.bucket_fractions = cluster.compute_model().bucket_completion_fractions(
            model, input_shape, self.ddp.buckets
        )
        # One loader per rank over disjoint shards.
        self.rank_loaders = [
            DataLoader(
                self.train_dataset,
                batch_size=self.batch_size,
                sampler=DistributedSampler(len(self.train_dataset), world_size, rank, seed=self.seed),
            )
            for rank in range(world_size)
        ]

    def end_epoch(self, epoch: int, losses: List[float]) -> bool:
        """Evaluate and snapshot one epoch; True when the run should stop."""
        accuracy = evaluate_accuracy(self.model, self.test_loader)
        mean_loss = float(np.mean(losses)) if losses else float("nan")
        self.timeline.snapshot_epoch(epoch, mean_loss, accuracy)
        if self.target_accuracy is not None and accuracy >= self.target_accuracy:
            self.reached_target = True
            return self.stop_at_target
        return False

    def iterate(
        self,
        strategy,
        checkpoint_at: Optional[int] = None,
        checkpoint_box: Optional[List[TrainingCheckpoint]] = None,
        resume_from: Optional[TrainingCheckpoint] = None,
    ) -> None:
        """The epoch/iteration loop of the synchronous and local-SGD regimes.

        Each iteration advances the fault plan, runs the strategy's step
        (backward and, when it synchronises, the collective), schedules the
        churn-scaled compute on the engine and accounts the result on the
        timeline.  Checkpoint arguments are as in :func:`train_distributed`.
        """
        ddp, engine = self.ddp, self.engine
        faults = _FaultState(self)
        global_iteration = start_epoch = skip = 0
        epoch_losses: List[float] = []
        if resume_from is not None:
            ck = resume_from
            ddp.restore_parameters(ck.params)
            self.optimizer.load_state_arrays(ck.velocities)
            self.timeline = copy.deepcopy(ck.timeline)
            faults.restore(ck)
            ddp.hook_state.iteration = ck.hook_iteration
            global_iteration, self.reached_target = ck.global_iteration, ck.reached_target
            start_epoch, skip = ck.epoch, ck.iteration_in_epoch
            epoch_losses = list(ck.epoch_losses)
            # The modeled per-rank times were computed from the *initial*
            # weights (weight sparsity drifts during training on unmasked
            # models); replay the captured values so resumed timing is
            # bit-identical.
            self.per_rank_compute = list(ck.per_rank_compute)
            self.bucket_fractions = list(ck.bucket_fractions)
        capture = checkpoint_at is not None and checkpoint_box is not None
        for epoch in range(start_epoch, self.epochs):
            for loader in self.rank_loaders:
                loader.set_epoch(epoch)
            iterators = [iter(loader) for loader in self.rank_loaders]
            # Fast-forward the deterministic samplers to a resumed position;
            # the consumed batches were already trained on.
            for _ in range(skip):
                for it in iterators:
                    next(it)
            iteration, skip = skip, 0
            while self.max_iterations_per_epoch is None or iteration < self.max_iterations_per_epoch:
                if capture and global_iteration == checkpoint_at:
                    checkpoint_box.append(
                        TrainingCheckpoint(
                            params=ddp.snapshot_parameters(),
                            velocities=self.optimizer.state_arrays(),
                            compressor=copy.deepcopy(self.compressor),
                            timeline=copy.deepcopy(self.timeline),
                            epoch=epoch,
                            iteration_in_epoch=iteration,
                            global_iteration=global_iteration,
                            epoch_losses=list(epoch_losses),
                            fault_cursor=faults.cursor,
                            active_ranks=list(faults.active),
                            link_factor=faults.link,
                            reached_target=self.reached_target,
                            hook_iteration=ddp.hook_state.iteration,
                            per_rank_compute=list(self.per_rank_compute),
                            bucket_fractions=list(self.bucket_fractions),
                        )
                    )
                    capture = False
                try:
                    batches = [next(it) for it in iterators]
                except StopIteration:
                    break

                churn = faults.advance(self.timeline.total_time, global_iteration, strategy.on_rejoin)
                loss, comm = strategy.step(batches, epoch, iteration)

                compute = self.per_rank_compute
                if churn is not None:
                    # Survivors only, each scaled by this iteration's churn
                    # draw (counter-based, so the draw depends only on the
                    # iteration index — never on how the run got here).
                    compute = [compute[rank] * churn[rank] for rank in faults.active]
                timeline = self.timeline
                sim_base = timeline.total_time
                if comm is None:
                    trace = engine.run_local_iteration(compute)
                    timeline.add_iteration(trace.compute_span, 0.0, 0.0, trace=trace)
                else:
                    trace = engine.run_iteration(
                        compute, self.bucket_fractions, comm.per_bucket_comm_time
                    )
                    timeline.add_iteration(
                        trace.compute_span, comm.comm_time, comm.comm_bytes_per_worker, trace=trace
                    )
                if faults.faulty:
                    faults.note_iteration(sim_base, trace.wall_time)
                if TRACER.enabled:
                    # Simulated-clock tracks: per-rank backward segments, the
                    # link channel's per-bucket reduce windows, the iteration
                    # critical path.  The increment of the timeline total is
                    # exactly trace.wall_time, so iterations tile the sim axis.
                    emit_simulated_iteration(
                        TRACER, sim_base, trace,
                        [] if comm is None else self.bucket_fractions,
                        timeline.iterations - 1,
                    )
                    TRACER.sim_now = timeline.total_time
                global_iteration += 1
                epoch_losses.append(loss)
                iteration += 1

            strategy.end_epoch(epoch)
            if self.end_epoch(epoch, epoch_losses):
                break
            epoch_losses = []

    def async_ps(self, schedule: SyncSchedule) -> None:
        """Stale-gradient asynchronous parameter server on the event engine.

        A logical PS rank holds the parameters; workers cycle pull → compute →
        push with no barrier, serialised FCFS on the server's access link
        (:class:`~repro.simulation.engine.LinkChannel`).  Gradients are computed
        against the parameters as of the worker's pull and applied whenever the
        push lands — the measured staleness (server updates applied in between)
        is recorded per update.  ``schedule.staleness`` bounds the progress skew:
        a worker may start update ``k`` only while ``k - min_progress <= S``
        (stale synchronous parallel); blocked workers re-enter in rank order as
        laggards apply.

        Each worker encodes its pushes through its own codec-pipeline instance
        (independent stage state, per-worker error-feedback residuals); pulls
        carry the dense fp32 parameters.  Busy compute/comm time accumulates per
        update, and the timeline total is reconciled to the event clock at every
        epoch snapshot (see ``TrainingTimeline.reconcile_async_total``).
        """
        staleness_bound = schedule.staleness
        world_size, epochs = self.world_size, self.epochs
        ddp, compressor, timeline = self.ddp, self.compressor, self.timeline
        rank_loaders = self.rank_loaders
        cost_model = self.cluster.cost_model_for(world_size)
        pull_seconds = cost_model.p2p_time(self.model_wire_bytes)

        iters_per_epoch = min(len(loader) for loader in rank_loaders)
        if self.max_iterations_per_epoch is not None:
            iters_per_epoch = min(iters_per_epoch, self.max_iterations_per_epoch)
        total_per_worker = epochs * iters_per_epoch

        # Per-worker codec pipelines: stage state (low-rank warm starts, stage
        # seeds) and error-feedback residuals must not be shared across workers
        # pushing at different versions.  Worker 0 reuses the run's instance,
        # whose stats every worker records into.
        worker_codecs: List[CodecCompressor] = [compressor] + [
            self.method.build_compressor(seed=self.seed) for _ in range(1, world_size)
        ]
        for codec in worker_codecs[1:]:
            codec.stats = compressor.stats
        buckets = ddp.buckets

        heap = EventHeap()
        channel = LinkChannel()
        completed = [0] * world_size  # applied updates per worker
        version_at_pull = [0] * world_size
        pending: List[Optional[Dict]] = [None] * world_size
        blocked: set = set()
        applies = 0
        epoch_loss_buckets: List[List[float]] = [[] for _ in range(epochs)]
        worker_epoch = [-1] * world_size
        worker_iters: List[Optional[object]] = [None] * world_size
        snapshots_done = 0
        stop = False

        def batch_for(rank: int, update_index: int):
            epoch = update_index // iters_per_epoch
            if worker_epoch[rank] != epoch:
                rank_loaders[rank].set_epoch(epoch)
                worker_iters[rank] = iter(rank_loaders[rank])
                worker_epoch[rank] = epoch
            return next(worker_iters[rank])

        def admissible(rank: int) -> bool:
            if staleness_bound is None:
                return True
            return completed[rank] - min(completed) <= staleness_bound

        def snapshot_finished_epochs(now: float) -> None:
            # Every epoch all workers have completed (before the first event
            # that is every epoch of a run with no iterations).
            nonlocal snapshots_done, stop
            while (
                not stop
                and snapshots_done < epochs
                and min(completed) >= (snapshots_done + 1) * iters_per_epoch
            ):
                timeline.reconcile_async_total(now)
                stop = self.end_epoch(snapshots_done, epoch_loss_buckets[snapshots_done])
                snapshots_done += 1  # on a stop, in-flight work is discarded

        snapshot_finished_epochs(0.0)
        if total_per_worker:
            for rank in range(world_size):
                heap.push(SimEvent(time=0.0, kind="ps-request", rank=rank))

        while heap and not stop:
            event = heap.pop()
            now = event.time
            rank = event.rank
            if event.kind == "ps-request":
                if admissible(rank):
                    start, end = channel.acquire(now, pull_seconds)
                    pending[rank] = {"pull": (start, end)}
                    heap.push(SimEvent(time=end, kind="ps-pulled", rank=rank))
                else:
                    blocked.add(rank)
            elif event.kind == "ps-pulled":
                # Events are processed in time order, so every apply scheduled
                # before this pull's completion has already landed — the shared
                # model holds exactly the parameters this worker pulls.
                state = pending[rank]
                version_at_pull[rank] = applies
                update_index = completed[rank]
                batch = batch_for(rank, update_index)
                loss_value, grads = ddp.compute_local_gradients(
                    batch, F.cross_entropy, copy=False
                )
                decoded: List[np.ndarray] = []
                payload_bytes = 0.0
                for bucket in buckets:
                    out, nbytes = worker_codecs[rank].push(
                        GradBucket(bucket, matrix=bucket.flatten(grads)[None]),
                        iteration=update_index,
                    )
                    payload_bytes += float(nbytes)
                    decoded.append(out)
                compute_seconds = self.per_rank_compute[rank]
                state.update(
                    decoded=decoded,
                    payload_bytes=payload_bytes,
                    loss=loss_value,
                    compute=compute_seconds,
                    epoch=update_index // iters_per_epoch,
                )
                heap.push(SimEvent(time=now + compute_seconds, kind="ps-push", rank=rank))
            elif event.kind == "ps-push":
                state = pending[rank]
                push_seconds = cost_model.p2p_time(state["payload_bytes"])
                start, end = channel.acquire(now, push_seconds)
                state["push"] = (start, end)
                state["push_seconds"] = push_seconds
                heap.push(SimEvent(time=end, kind="ps-apply", rank=rank))
            elif event.kind == "ps-apply":
                state = pending[rank]
                aggregated: Dict[str, np.ndarray] = {}
                for bucket, flat in zip(buckets, state["decoded"]):
                    aggregated.update(bucket.unflatten(flat))
                ddp.apply_aggregated_gradients(aggregated)
                self.optimizer.step()
                staleness = applies - version_at_pull[rank]
                applies += 1
                completed[rank] += 1
                timeline.record_staleness(staleness)
                timeline.add_iteration(
                    state["compute"],
                    pull_seconds + state["push_seconds"],
                    (self.model_wire_bytes + state["payload_bytes"]) / world_size,
                )
                epoch_loss_buckets[state["epoch"]].append(state["loss"])
                if TRACER.enabled:
                    emit_ps_update(
                        TRACER,
                        rank=rank,
                        pull=state["pull"],
                        compute_seconds=state["compute"],
                        push=state["push"],
                        staleness=staleness,
                        update_index=completed[rank] - 1,
                        payload_bytes=state["payload_bytes"],
                        pull_bytes=self.model_wire_bytes,
                    )
                    TRACER.sim_now = now
                ddp.hook_state.iteration += 1
                snapshot_finished_epochs(now)
                if not stop and completed[rank] < total_per_worker:
                    heap.push(SimEvent(time=now, kind="ps-request", rank=rank))
                # This apply raised min-progress (or freed the channel): re-admit
                # blocked workers in rank order for determinism.
                for other in sorted(blocked):
                    if admissible(other):
                        blocked.discard(other)
                        heap.push(SimEvent(time=now, kind="ps-request", rank=other))
            else:  # pragma: no cover - no other kinds are scheduled
                raise RuntimeError(f"unexpected event kind {event.kind!r}")


class _Synchronous:
    """Synchronous data-parallel: every iteration ends in a gradient collective."""

    on_rejoin = None

    def __init__(self, run: _TrainingRun, execution: str) -> None:
        self.run = run
        self.execution = execution
        self.gse_mask = run.mask if run.method.gse else None

    def step(self, batches, epoch: int, iteration: int) -> Tuple[float, Optional[StepResult]]:
        run = self.run
        result = run.ddp.train_step(batches, F.cross_entropy, self.execution, self.gse_mask)
        with TRACER.span("train/apply", cat="train", epoch=epoch, iteration=iteration):
            run.optimizer.step()
            if run.mask is not None:
                # Guard against regrowth through momentum / weight decay.
                run.mask.apply_to_weights(run.model)
        return result.loss, result

    def end_epoch(self, epoch: int) -> None:
        """Nothing is left to synchronise at an epoch boundary."""


class _LocalSGD:
    """Local SGD: H local optimiser steps per rank between averaging rounds.

    Each rank trains on its own diverged parameter/velocity replica
    (:class:`~repro.simulation.regimes.ReplicaSet`); every ``schedule.period``
    iterations the replicas are reconciled through one collective.  In delta
    mode each rank stages its *model delta* (parameters minus the last synced
    anchor) through the method's codec pipeline — error feedback then carries
    the delta mass the encoding dropped, and fault-driven membership changes
    remap residuals through the same elastic seam as gradients.  Dense mode
    all-reduces the raw fp32 parameters (the method's compressor is not
    consulted at the boundary — FedAvg-style exact averaging).
    """

    def __init__(self, run: _TrainingRun, schedule: SyncSchedule) -> None:
        self.run = run
        self.schedule = schedule
        self.replicas = ReplicaSet(
            run.model, run.world_size, lr=run.lr, momentum=run.momentum, weight_decay=run.weight_decay
        )
        self.anchor = run.ddp.snapshot_parameters()
        self.window = 0  # local steps since the last averaging round

    def on_rejoin(self, ranks: List[int]) -> None:
        # A returning rank starts from the last synced state with fresh
        # momentum (its broadcast cost was already charged by the fault
        # interpreter).
        for rank in ranks:
            self.replicas.assign(rank, self.anchor)
            self.replicas.reset_velocity(rank)

    def step(self, batches, epoch: int, iteration: int) -> Tuple[float, Optional[StepResult]]:
        run, replicas = self.run, self.replicas
        ddp, model, mask = run.ddp, run.model, run.mask
        per_rank_losses: List[float] = []
        with TRACER.span("train/backward", cat="train", epoch=epoch, iteration=iteration):
            # A dead rank's batch is consumed (data order stays
            # deterministic) but it takes no step.
            for rank in ddp.active_ranks:
                replicas.load(rank)
                loss_value, grads = ddp.compute_local_gradients(
                    batches[rank], F.cross_entropy, copy=False
                )
                if run.method.gse and mask is not None:
                    ddp.apply_aggregated_gradients(apply_gse(model, mask, grads=grads))
                replicas.step(rank)
                if mask is not None:
                    mask.apply_to_weights(model)
                replicas.save(rank)
                per_rank_losses.append(loss_value)

        self.window += 1
        comm = None
        if self.window >= self.schedule.period:
            with TRACER.span(
                "regime/localsgd-sync", cat="regime",
                epoch=epoch, iteration=iteration, window=self.window,
            ):
                comm = self._average()
            run.timeline.sync_rounds += 1
            self.window = 0
        else:
            run.timeline.local_steps += 1
        ddp.hook_state.iteration += 1
        return float(np.mean(per_rank_losses)), comm

    def end_epoch(self, epoch: int) -> None:
        """Flush a partially filled window so evaluation (and the final model)
        sees the averaged parameters, not one rank's replica."""
        if self.window == 0:
            return
        with TRACER.span("regime/localsgd-flush", cat="regime", epoch=epoch, window=self.window):
            comm = self._average()
        self.run.timeline.add_sync_round(comm.comm_time, comm.comm_bytes_per_worker)
        self.window = 0

    def _average(self) -> StepResult:
        """Average the active replicas through one collective."""
        run, replicas, anchor = self.run, self.replicas, self.anchor
        ddp = run.ddp
        active = ddp.active_ranks
        for rank in active:
            values = replicas.delta(rank, anchor) if self.schedule.delta else replicas.params_dict(rank)
            ddp.stage_rank_gradients(rank, values)
        if self.schedule.delta:
            aggregated, bucket_events = ddp.synchronize_staged()
            new_params = {name: anchor[name] + aggregated[name] for name in anchor}
        else:
            # Dense parameter averaging: swap in the native all-reduce hook
            # for this collective so the raw fp32 parameters go on the wire.
            ddp.register_comm_hook(None)
            try:
                aggregated, bucket_events = ddp.synchronize_staged()
            finally:
                ddp.register_comm_hook(run.compressor)
            new_params = aggregated
        for name, param in run.model.named_parameters():
            param.data = new_params[name]
        if run.mask is not None:
            run.mask.apply_to_weights(run.model)
        self.anchor = ddp.snapshot_parameters()
        for rank in active:
            replicas.assign(rank, self.anchor)
        return StepResult.from_bucket_events(bucket_events)


def train_distributed(
    model: Module,
    train_dataset,
    test_loader: DataLoader,
    method: MethodSpec,
    cluster: ClusterSpec,
    epochs: int,
    batch_size: int,
    lr: float,
    momentum: float = 0.9,
    weight_decay: float = 0.0,
    mask: Optional[PruningMask] = None,
    target_accuracy: Optional[float] = None,
    stop_at_target: bool = False,
    max_iterations_per_epoch: Optional[int] = None,
    seed: int = 0,
    bucket_cap_bytes: int = DEFAULT_BUCKET_CAP_BYTES,
    sparsity_cache: Optional["_WeightSparsityCache"] = None,
    execution: str = "batched",
    checkpoint_at: Optional[int] = None,
    checkpoint_box: Optional[List[TrainingCheckpoint]] = None,
    resume_from: Optional[TrainingCheckpoint] = None,
) -> Tuple[TrainingTimeline, DistributedDataParallel, Compressor, bool]:
    """Run distributed training with modeled time under the method's regime.

    Synchronous data-parallel (the default ``sync_schedule``) and local SGD
    with periodic, optionally delta-compressed, averaging run through one
    epoch/iteration driver (:meth:`_TrainingRun.iterate`); each iteration is
    scheduled by the event-driven
    :class:`~repro.simulation.engine.SimulationEngine`, whose schedule
    degenerates to the seed ``compute + comm`` sum with ``cluster.overlap``
    off.  ``localsgd:1`` *is* synchronous training and takes the synchronous
    strategy (the regime-parity tests pin it bit-identically).  The
    stale-gradient async parameter server runs its own event loop.

    ``execution`` picks the host-side strategy for the synchronous per-rank
    passes: ``"batched"`` (default) runs one world-batched forward/backward,
    ``"looped"`` the per-rank Python loop; float64 results are bit-identical
    either way and modeled time never depends on it.  Local-SGD windows
    always loop (diverged replicas cannot share one world-batched pass).

    ``checkpoint_at``/``checkpoint_box`` capture a
    :class:`~repro.simulation.regimes.TrainingCheckpoint` just before global
    iteration ``checkpoint_at`` executes (appended to the box; the run then
    continues normally); ``resume_from`` restores one and continues
    bit-identically to the uninterrupted run.  Synchronous schedules only.

    Returns the timeline (accuracy/time trace), the DDP wrapper, the
    compressor (whose statistics record bytes on the wire) and whether the
    target accuracy was reached at any epoch.
    """
    if execution not in ("batched", "looped"):
        raise ValueError(f"unknown execution strategy {execution!r}")
    check_regime_support(
        method,
        cluster,
        pruned=mask is not None,
        checkpointing=checkpoint_at is not None or resume_from is not None,
    )
    schedule = method.schedule()
    if resume_from is None:
        compressor = method.build_compressor(seed=seed)
    else:
        # The compressor's residual/momentum state is part of the checkpoint;
        # hand the DDP wrapper the restored instance from the start.  Deep-
        # copied so one checkpoint can seed several resumes.
        compressor = copy.deepcopy(resume_from.compressor)
    run = _TrainingRun(
        model, train_dataset, test_loader, method, cluster, epochs, batch_size, lr, momentum,
        weight_decay, mask, target_accuracy, stop_at_target, max_iterations_per_epoch, seed,
        bucket_cap_bytes, sparsity_cache, compressor,
    )
    if schedule.regime == "ps":
        run.async_ps(schedule)
    else:
        strategy = (
            _Synchronous(run, execution) if schedule.is_synchronous else _LocalSGD(run, schedule)
        )
        run.iterate(strategy, checkpoint_at, checkpoint_box, resume_from)
    return run.timeline, run.ddp, run.compressor, run.reached_target


# --------------------------------------------------------------------------- #
# Config-driven wrapper
# --------------------------------------------------------------------------- #
def run_experiment(config: ExperimentConfig, method: MethodSpec) -> ExperimentResult:
    """Build the workload described by ``config``, train it with ``method``.

    The entire run — dataset materialisation, model construction, training,
    evaluation — executes under ``config.dtype`` (see
    :func:`repro.tensorlib.dtypes.default_dtype`) and, when
    ``config.backend`` is set, under that array backend
    (:func:`repro.tensorlib.backend.use_backend`); both are restored on exit
    even when the run raises.
    """
    with default_dtype(config.dtype), use_backend(config.backend):
        with TRACER.span(
            "experiment", cat="experiment",
            model=config.model, method=method.name, world=config.cluster.world_size,
        ):
            return _run_experiment(config, method)


def _run_experiment(config: ExperimentConfig, method: MethodSpec) -> ExperimentResult:
    check_regime_support(method, config.cluster, pruned=method.pruning_ratio > 0.0)
    dataset = make_dataset(
        config.dataset,
        num_samples=config.dataset_samples,
        image_size=config.image_size,
        noise_std=config.noise_std,
        seed=config.seed,
    )
    train_set, test_set = train_test_split(dataset, test_fraction=config.test_fraction, seed=config.seed)
    test_loader = DataLoader(test_set, batch_size=config.batch_size)

    model = build_model(config.model, num_classes=dataset.num_classes, seed=config.seed)

    # Pre-train briefly (stand-in for "start from a pre-trained model"), then prune.
    pretrain_loader = DataLoader(train_set, batch_size=config.batch_size, shuffle=True, seed=config.seed)
    _pretrain(model, pretrain_loader, config.pretrain_iterations, config.lr)
    sample_batch = next(iter(pretrain_loader))
    mask = _prune_model(model, method, sample_batch)
    sparsity_cache = _WeightSparsityCache()

    timeline, ddp, compressor, reached_target = train_distributed(
        model=model,
        train_dataset=train_set,
        test_loader=test_loader,
        method=method,
        cluster=config.cluster,
        epochs=config.epochs,
        batch_size=config.batch_size,
        lr=config.lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
        mask=mask,
        target_accuracy=config.target_accuracy,
        stop_at_target=config.stop_at_target,
        max_iterations_per_epoch=config.max_iterations_per_epoch,
        seed=config.seed,
        bucket_cap_bytes=config.bucket_cap_bytes,
        sparsity_cache=sparsity_cache,
        execution=config.execution,
    )

    gradient_density = mask.density if mask is not None else 1.0

    from repro.pactrain.compressor import PacTrainCompressor  # noqa: PLC0415

    extra: Dict[str, float] = {}
    if isinstance(compressor, PacTrainCompressor):
        extra["compact_fraction"] = compressor.compact_fraction
        extra["full_iterations"] = float(compressor.full_iterations)
        extra["compact_iterations"] = float(compressor.compact_iterations)

    return ExperimentResult(
        method=method.name,
        model=config.model,
        dataset=config.dataset,
        bandwidth_mbps=config.cluster.bandwidth_bytes_per_second() * 8 / 1e6,
        world_size=config.cluster.world_size,
        epochs_run=len(timeline.epochs),
        iterations_run=timeline.iterations,
        simulated_time=timeline.total_time,
        compute_time=timeline.compute_time,
        comm_time=timeline.comm_time,
        comm_bytes_per_worker=timeline.comm_bytes_per_worker,
        final_accuracy=timeline.final_accuracy(),
        best_accuracy=timeline.best_accuracy(),
        tta=timeline.time_to_accuracy(config.target_accuracy) if config.target_accuracy else None,
        target_accuracy=config.target_accuracy,
        accuracy_trace=timeline.accuracy_trace(),
        loss_trace=[record.train_loss for record in timeline.epochs],
        compression_ratio=compressor.stats.compression_ratio,
        weight_sparsity=sparsity_cache.value(model, mask),
        gradient_density=gradient_density,
        reached_target=reached_target,
        overlap_fraction=timeline.overlap_fraction,
        critical_path_time=timeline.critical_path_time(),
        straggler_time=timeline.straggler_time,
        fault_events=timeline.fault_events,
        degraded_iterations=timeline.degraded_iterations,
        downtime_rank_seconds=timeline.downtime_rank_seconds,
        rejoin_cost_time=timeline.rejoin_cost_time,
        goodput_fraction=timeline.goodput_fraction(config.cluster.world_size),
        sync_rounds=timeline.sync_rounds,
        local_steps=timeline.local_steps,
        ps_updates=timeline.ps_updates,
        staleness_mean=timeline.mean_staleness,
        staleness_max=timeline.staleness_max,
        extra=extra,
    )


def run_method_comparison(
    config: ExperimentConfig,
    methods: Optional[Sequence[MethodSpec]] = None,
    jobs: int = 1,
    store=None,
) -> Dict[str, ExperimentResult]:
    """Run the same workload under several methods (defaults to the paper's five).

    The comparison is one campaign over the method axis, executed by the
    :mod:`repro.campaign` runner: ``jobs > 1`` trains the methods in parallel
    worker processes, and an optional :class:`~repro.campaign.store.ResultStore`
    serves unchanged cells from cache.  A failing cell re-raises its error (the
    pre-campaign behaviour of the plain loop this used to be).
    """
    # Imported lazily: repro.campaign builds on this module.
    from repro.campaign.runner import run_campaign  # noqa: PLC0415
    from repro.campaign.spec import CampaignCell  # noqa: PLC0415

    methods = list(methods) if methods is not None else list(PAPER_METHODS.values())
    cells = [CampaignCell(config=config, method=method) for method in methods]
    report = run_campaign(cells, store=store, jobs=jobs)
    report.raise_failures()
    return {outcome.result.method: outcome.result for outcome in report.outcomes}
