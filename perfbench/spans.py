"""Per-layer attribution for the traced benchmark run, timed from outside.

The program under test carries no benchmark instrumentation.  Instead,
:func:`install` swaps the public functions of each layer (named after the
``src/repro/`` modules) for thin wrappers that push and pop a
:class:`SpanStack`.  The stack turns nested spans into *self time*: a span's
duration minus the part of it its child spans cover.  Every wrapped call is
therefore charged to exactly one layer, so the layers' self times add up to
the wall time of the outermost spans by construction.

:data:`LAYERS` is the layer map: which calls each per-layer metric times,
which counter it bumps, and the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


class SpanStack:
    """Nested spans reduced to per-layer self time and call counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Summed duration of the outermost spans (the traced wall time).
        self.root_time = 0.0
        self._open: List[list] = []  # [layer, start, time covered by children]

    def enter(self, layer: str, counter: Optional[str] = None) -> None:
        if counter is not None:
            self.counts[counter] += 1
        self._open.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, children = self._open.pop()
        span = self.clock() - start
        self.self_time[layer] += span - children
        if self._open:
            self._open[-1][2] += span
        else:
            self.root_time += span

    @property
    def depth(self) -> int:
        return len(self._open)


@dataclass(frozen=True)
class Layer:
    """One per-layer metric: the calls it times and what it should move."""

    metric: str
    #: ``(owner, attribute)`` pairs.  The owner is ``"module"`` for a module
    #: function (every binding of it under ``repro`` is wrapped),
    #: ``"module:Class"`` for a method, or ``BACKEND`` for a kernel of the
    #: active tensor backend.
    targets: Tuple[Tuple[str, str], ...]
    counter: Optional[str]
    should_move: str
    flat_on: str = ""
    #: Attributes whose return value is an iterator: each ``next`` is timed
    #: instead of the call that created it.
    iterators: Tuple[str, ...] = ()


BACKEND = "<active backend>"
_CONV = ("im2col_gather", "col2im_scatter_add", "conv_weight_grad", "pool_reduce")
_DENSE = ("matmul", "einsum", "fused_norm_stats", "fused_norm_backward", "take", "pad")
_DDP = "repro.ddp.ddp:DistributedDataParallel"

LAYERS: Tuple[Layer, ...] = (
    Layer(
        "tensorlib.conv_s", tuple((BACKEND, name) for name in _CONV), "tensorlib.calls",
        "iters_per_s and cell_s.p50 on conv-sync",
        "wide-world and regimes-sweep (no conv kernels run there)",
    ),
    Layer(
        "tensorlib.dense_s", tuple((BACKEND, name) for name in _DENSE), "tensorlib.calls",
        "iters_per_s on wide-world",
    ),
    Layer(
        "nn.autograd_s",
        ((_DDP, "compute_batched_gradients"), (_DDP, "compute_local_gradients")), None,
        "iters_per_s on conv-sync and regimes-sweep",
    ),
    Layer(
        "nn.optim_s", (("repro.nn.optim:SGD", "step"),), None,
        "cell_s.p50 on regimes-sweep (per-replica local steps)", "wide-world",
    ),
    Layer(
        "nn.eval_s", (("repro.simulation.experiment", "evaluate_accuracy"),), None,
        "cell_s.p50 on conv-sync",
    ),
    Layer(
        "ddp.stage_s",
        (
            (_DDP, "stage_world_gradients"), (_DDP, "stage_rank_gradients"),
            (_DDP, "synchronize_staged"), (_DDP, "apply_aggregated_gradients"),
        ),
        None,
        "iters_per_s and peak_rss_mb on wide-world", "regimes-sweep",
    ),
    Layer(
        "compression.aggregate_s", (("repro.compression.base:CodecCompressor", "aggregate"),),
        "compression.calls",
        "iters_per_s on wide-world; cell_s.tail on conv-sync (the top-k cell)",
    ),
    Layer(
        "comm.collective_s",
        tuple(
            ("repro.comm.process_group:ProcessGroup", name)
            for name in ("all_reduce", "all_gather", "broadcast", "reduce_scatter")
        ),
        "comm.calls",
        "iters_per_s on wide-world", "conv-sync",
    ),
    Layer(
        "pruning.busy_s",
        (
            ("repro.pruning.gse", "apply_gse"),
            ("repro.pruning.mask:PruningMask", "apply_to_weights"),
            ("repro.pruning.magnitude", "magnitude_prune"),
            ("repro.pruning.grasp", "grasp_prune"),
        ),
        None,
        "cell_s.tail on wide-world (the PacTrain cell)", "regimes-sweep",
    ),
    Layer(
        "simulation.engine_s",
        (
            ("repro.simulation.engine:SimulationEngine", "run_iteration"),
            ("repro.simulation.engine:SimulationEngine", "run_local_iteration"),
            ("repro.simulation.engine:EventHeap", "pop"),
        ),
        None,
        "iters_per_s on wide-world (the R x B overlap schedule)",
        "regimes-sweep (its parameter-server event heap stays)",
    ),
    # Separate entry only so that pushes alone feed the event counter.
    Layer(
        "simulation.engine_s", (("repro.simulation.engine:EventHeap", "push"),),
        "simulation.engine_events", "",
    ),
    Layer(
        "simulation.driver_s", (("repro.simulation.experiment", "run_experiment"),), None,
        "cell_s.p50 on regimes-sweep (the training loops of experiment/regimes/timeline)",
    ),
    Layer(
        "data.busy_s",
        (
            ("repro.data.synthetic", "make_dataset"),
            ("repro.data.loader", "train_test_split"),
            ("repro.data.loader:DataLoader", "__iter__"),
        ),
        None,
        "setup_s and cell_s.p50",
        iterators=("__iter__",),
    ),
    Layer(
        "campaign.dispatch_s",
        (
            ("repro.campaign.runner", "run_campaign"),
            ("repro.campaign.spec:CampaignSpec", "expand"),
            ("repro.campaign.spec:CampaignCell", "fingerprint"),
        ),
        None,
        "warm_sweep_s on regimes-sweep",
        "conv-sync and wide-world (their cells are not trained through the campaign layer)",
    ),
    Layer(
        "campaign.store_put_s", (("repro.campaign.store:ResultStore", "put"),), None,
        "iters_per_s on regimes-sweep (writes beside training)", "conv-sync and wide-world",
    ),
    Layer(
        "campaign.store_get_s",
        (
            ("repro.campaign.store:ResultStore", "get"),
            ("repro.campaign.store:ResultStore", "get_by_key"),
        ),
        None,
        "warm_sweep_s on regimes-sweep (reads)", "conv-sync and wide-world",
    ),
)

#: Self-time metrics in report order (each once).
TIME_METRICS: Tuple[str, ...] = tuple(dict.fromkeys(layer.metric for layer in LAYERS))
#: Counters the wrappers bump.
COUNTERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer.counter for layer in LAYERS if layer.counter is not None)
)

_MISSING = object()


class _TimedIterator:
    """Times every ``next`` of a wrapped iterator as one span."""

    __slots__ = ("_inner", "_stack", "_layer")

    def __init__(self, inner, stack: SpanStack, layer: str) -> None:
        self._inner = inner
        self._stack = stack
        self._layer = layer

    def __iter__(self):
        return self

    def __next__(self):
        self._stack.enter(self._layer)
        try:
            return next(self._inner)
        finally:
            self._stack.exit()


def _wrap(original, stack: SpanStack, layer: str, counter: Optional[str], iterator: bool):
    if iterator:
        def wrapper(*args, **kwargs):
            return _TimedIterator(original(*args, **kwargs), stack, layer)
    else:
        def wrapper(*args, **kwargs):
            stack.enter(layer, counter)
            try:
                return original(*args, **kwargs)
            finally:
                stack.exit()
    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", "wrapped")
    return wrapper


class Installation:
    """The wrappers put in place by :func:`install`; :meth:`restore` undoes them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        previous = vars(owner).get(attr, _MISSING) if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, previous))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _function_bindings(function) -> List[object]:
    """Every loaded ``repro`` module that binds ``function`` at top level."""
    return [
        module
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
        and any(value is function for value in vars(module).values())
    ]


def resolve(owner_name: str):
    """The class or module a target's attribute lives on."""
    if owner_name == BACKEND:
        from repro.tensorlib.backend import get_backend  # noqa: PLC0415

        return type(get_backend())
    module_name, _, class_name = owner_name.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def install(stack: SpanStack, layers: Tuple[Layer, ...] = LAYERS) -> Installation:
    """Wrap every target of ``layers`` so its calls are spans on ``stack``."""
    installation = Installation()
    try:
        for layer in layers:
            for owner_name, attr in layer.targets:
                owner = resolve(owner_name)
                original = getattr(owner, attr)
                wrapper = _wrap(original, stack, layer.metric, layer.counter, attr in layer.iterators)
                if isinstance(owner, type):
                    installation.patch(owner, attr, wrapper)
                    continue
                for module in _function_bindings(original):
                    for name, value in list(vars(module).items()):
                        if value is original:
                            installation.patch(module, name, wrapper)
    except BaseException:
        installation.restore()
        raise
    return installation
