"""Communication hooks.

A communication hook is a callable ``hook(state, grad_bucket) -> np.ndarray``
that receives a :class:`repro.ddp.bucket.GradBucket` (the flat per-rank
gradients of one bucket) and returns the aggregated, *averaged* flat gradient
that every rank should apply.  This mirrors
``torch.distributed.algorithms.ddp_comm_hooks``: the default hook is a plain
all-reduce, and compressors (fp16, top-k, PacTrain, any codec pipeline) are
plugged in through :class:`CompressorHook`.

All communication must go through ``state.process_group`` so that the modeled
time and byte counts are recorded for the experiment timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.comm.process_group import ProcessGroup
from repro.compression.codec import DensePayload
from repro.ddp.bucket import GradBucket

CommHook = Callable[["HookState", GradBucket], np.ndarray]


@dataclass
class HookState:
    """State shared across hook invocations.

    Attributes
    ----------
    process_group:
        The simulated process group all communication must be issued through.
    iteration:
        Training iteration counter, incremented by the DDP wrapper once per
        step (useful for warm-up logic in adaptive hooks).
    extra:
        Free-form per-hook storage (e.g. error-feedback buffers keyed by
        bucket index).
    """

    process_group: ProcessGroup
    iteration: int = 0
    extra: Dict = field(default_factory=dict)


def allreduce_hook(state: HookState, bucket: GradBucket) -> np.ndarray:
    """Native fp32 ring all-reduce — the paper's "all-reduce" baseline."""
    reduced = state.process_group.all_reduce(DensePayload(bucket.matrix), average=True)
    # The reduced payload is read-only; the optimiser may update the result.
    return np.array(reduced.values)


class CompressorHook:
    """Adapt a :class:`repro.compression.Compressor` into a communication hook.

    The compressor receives the raw per-rank flat gradients and the process
    group and must return the aggregated average gradient.  Per-bucket
    compressor state (error feedback, masks, momentum) is the compressor's own
    responsibility; the hook only namespaces it by bucket index.
    """

    def __init__(self, compressor) -> None:
        self.compressor = compressor

    def __call__(self, state: HookState, bucket: GradBucket) -> np.ndarray:
        return self.compressor.aggregate(bucket, state.process_group, iteration=state.iteration)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CompressorHook({self.compressor!r})"


def make_hook(compressor_or_hook: Optional[object]) -> CommHook:
    """Normalise user input into a communication hook.

    ``None`` maps to the default all-reduce hook; compressor objects (anything
    with an ``aggregate`` method) are wrapped in :class:`CompressorHook`;
    callables are used as-is.
    """
    if compressor_or_hook is None:
        return allreduce_hook
    if hasattr(compressor_or_hook, "aggregate"):
        return CompressorHook(compressor_or_hook)
    if callable(compressor_or_hook):
        return compressor_or_hook  # type: ignore[return-value]
    raise TypeError(
        "expected None, a Compressor (with .aggregate) or a hook callable, "
        f"got {type(compressor_or_hook).__name__}"
    )
