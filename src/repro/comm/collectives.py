"""Collective communication operations over simulated ranks.

Each collective takes every rank's contribution — either a list of raw
numpy arrays indexed by rank, or one world-stacked
:class:`~repro.compression.codec.payloads.WirePayload` whose arrays carry a
leading world axis — computes the mathematically exact result and returns it
together with a :class:`CollectiveEvent` describing the modeled cost: which
algorithm ran, how many bytes each worker put on the wire, and how long the
operation took under the :class:`repro.comm.network.NetworkModel`.

When a payload is passed, the wire size is **derived from the encoded
representation** (``payload.nbytes``, per rank): a sparse payload is charged
for its (index, value) pairs, a ternary payload for two bits per element, and
so on.  The raw-array path keeps the ``element_bytes`` override for tests and
ad-hoc modeling, but the compression stack itself always communicates
payloads, so byte accounting is measured rather than asserted.

The numerical results are exact (no simulation of per-step partial sums is
needed for correctness), while the *costs* follow the standard ring-based
algorithms — this mirrors how NCCL behaves from the training loop's point of
view: the right answer arrives after a bandwidth/latency dependent delay.
Every reduction adds the ranks' contributions **in rank order** into a zero
buffer; that order is the bit-identity rule all reduction paths share.
Payload results are handed on as read-only views, never copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

import numpy as np

from repro.comm.network import NetworkModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compression.codec.payloads import WirePayload

Buffers = Union[Sequence[np.ndarray], "WirePayload"]


_WIRE_PAYLOAD_CLS = None


def _is_payload(value) -> bool:
    # Deferred import: repro.compression.base imports the process group, so a
    # module-level import here would be circular.  By the time payloads reach a
    # collective the compression package is importable; cache the class so the
    # hot path pays the import machinery only once.
    global _WIRE_PAYLOAD_CLS
    if _WIRE_PAYLOAD_CLS is None:
        from repro.compression.codec.payloads import WirePayload  # noqa: PLC0415

        _WIRE_PAYLOAD_CLS = WirePayload
    return isinstance(value, _WIRE_PAYLOAD_CLS)


@dataclass
class CollectiveEvent:
    """Record of one collective operation for the timeline and statistics."""

    op: str
    bytes_per_worker: float
    time_seconds: float
    world_size: int
    payload_elements: int = 0
    metadata: dict = field(default_factory=dict)


def _check_buffers(buffers: Sequence[np.ndarray]) -> None:
    if len(buffers) == 0:
        raise ValueError("collective called with no buffers")
    shape = buffers[0].shape
    for index, buffer in enumerate(buffers):
        if buffer.shape != shape:
            raise ValueError(
                f"rank {index} buffer shape {buffer.shape} differs from rank 0 shape {shape}"
            )


def rank_order_sum(matrix: np.ndarray) -> np.ndarray:
    """Sum a ``(world, L)`` matrix over its rows in one array pass.

    Bit-identical to :func:`accumulate_sum` over the rows: numpy reduces the
    outer axis of a C-contiguous matrix by adding row after row into the
    ``initial`` zero.  A single column is the exception — numpy drops the
    unit axis and would sum it pairwise — so it runs as an in-order
    accumulate; adding ``0.0`` afterwards turns a ``-0.0`` total into the
    ``+0.0`` a zero start gives.
    """
    rows = np.ascontiguousarray(matrix)
    if rows.shape[1] == 1:
        return np.add.accumulate(rows[:, 0])[-1:] + 0.0
    return np.add.reduce(rows, axis=0, initial=0)


def accumulate_sum(arrays) -> np.ndarray:
    """Sum an iterable of equal-shaped arrays into one compute-dtype buffer.

    Accumulates item by item (accepts a lazy generator), so peak memory stays
    O(numel) regardless of how many ranks contribute.  The accumulator dtype
    follows the first array's floating dtype (float64 for non-float inputs),
    so float32 gradients reduce in float32 while the historical float64 path
    is untouched.  Used by the raw-array collectives and by
    :func:`repro.compression.base.exact_average`.
    """
    from repro.tensorlib.dtypes import float_dtype_of  # noqa: PLC0415

    total: Optional[np.ndarray] = None
    for array in arrays:
        if total is None:
            array = np.asarray(array)
            total = np.zeros(array.shape, dtype=float_dtype_of(array))
        np.add(total, array, out=total, casting="unsafe")
    if total is None:
        raise ValueError("accumulate_sum called with no arrays")
    return total


def ring_all_reduce_time(network: NetworkModel, num_bytes: float) -> float:
    """Expose the network model's all-reduce cost (used by planners/tests)."""
    return network.ring_all_reduce_time(num_bytes)


def all_gather_time(network: NetworkModel, num_bytes: float) -> float:
    """Expose the network model's all-gather cost."""
    return network.all_gather_time(num_bytes)


def all_reduce(
    buffers: Buffers,
    network: Optional[NetworkModel] = None,
    average: bool = True,
    element_bytes: Optional[float] = None,
) -> tuple:
    """Sum (or average) the per-rank buffers via a modeled ring all-reduce.

    Parameters
    ----------
    buffers:
        One raw array per rank (all the same shape), or one world-stacked
        element-wise reducible :class:`WirePayload`.
    network:
        Cost model; if ``None``, time is reported as ``0`` (useful in unit tests).
    average:
        Divide by the world size (the DDP convention for gradients).
    element_bytes:
        Wire size per element for the raw-array path only.  Defaults to the
        buffer's dtype itemsize.  Ignored for payloads, whose wire size is
        ``payload.nbytes`` by construction.

    Returns
    -------
    ``(result, event)`` where ``result`` mirrors the input kind: a dense array
    for raw arrays, a read-only single :class:`WirePayload` (same structure,
    reduced values, no world axis) for a payload.
    """
    if _is_payload(buffers):
        payload: WirePayload = buffers  # type: ignore[assignment]
        if not payload.reducible:
            raise ValueError(
                f"{type(payload).__name__} is not element-wise reducible across ranks; "
                "aggregate per-rank selections with all_gather instead"
            )
        world_size = payload.world_size
        total = rank_order_sum(payload.reduce_values())
        if average:
            total /= world_size
        reduced = payload.with_reduced(total).read_only()

        num_bytes = payload.nbytes
        time = network.ring_all_reduce_time(num_bytes) if network is not None else 0.0
        event = CollectiveEvent(
            op="all_reduce",
            bytes_per_worker=2.0 * (world_size - 1) / world_size * num_bytes if world_size > 1 else 0.0,
            time_seconds=time,
            world_size=world_size,
            payload_elements=int(payload.transmitted_elements),
            metadata={"payload": type(payload).__name__},
        )
        return reduced, event

    _check_buffers(buffers)
    world_size = len(buffers)
    result = accumulate_sum(buffers)
    if average:
        result /= world_size

    itemsize = element_bytes if element_bytes is not None else buffers[0].dtype.itemsize
    num_bytes = buffers[0].size * itemsize
    time = network.ring_all_reduce_time(num_bytes) if network is not None else 0.0
    event = CollectiveEvent(
        op="all_reduce",
        bytes_per_worker=2.0 * (world_size - 1) / world_size * num_bytes if world_size > 1 else 0.0,
        time_seconds=time,
        world_size=world_size,
        payload_elements=int(buffers[0].size),
    )
    return result, event


def all_gather(
    buffers: Buffers,
    network: Optional[NetworkModel] = None,
    element_bytes: Optional[float] = None,
) -> tuple:
    """Gather every rank's buffer (or the world-stacked payload) onto every rank.

    Raw buffers may have *different lengths*; the cost model charges the
    maximum per-rank buffer, matching the padded all-gather used in practice.
    A payload is handed on whole, as read-only views of the sender's arrays
    (they may alias a stage's internal state), so a write raises.
    """
    if _is_payload(buffers):
        payload: WirePayload = buffers  # type: ignore[assignment]
        world_size = payload.world_size
        num_bytes = payload.nbytes
        time = network.all_gather_time(num_bytes) if network is not None else 0.0
        event = CollectiveEvent(
            op="all_gather",
            bytes_per_worker=(world_size - 1) * num_bytes if world_size > 1 else 0.0,
            time_seconds=time,
            world_size=world_size,
            payload_elements=int(payload.transmitted_elements),
            metadata={"payload": type(payload).__name__},
        )
        return payload.read_only(), event

    world_size = len(buffers)
    gathered = [np.array(b, copy=True) for b in buffers]
    itemsize = element_bytes if element_bytes is not None else buffers[0].dtype.itemsize
    max_elements = max(b.size for b in buffers)
    num_bytes = max_elements * itemsize
    time = network.all_gather_time(num_bytes) if network is not None else 0.0
    event = CollectiveEvent(
        op="all_gather",
        bytes_per_worker=(world_size - 1) * num_bytes if world_size > 1 else 0.0,
        time_seconds=time,
        world_size=world_size,
        payload_elements=int(max_elements),
    )
    return gathered, event


def broadcast(
    buffer: Union[np.ndarray, WirePayload],
    world_size: int,
    network: Optional[NetworkModel] = None,
    element_bytes: Optional[float] = None,
) -> tuple:
    """Broadcast a root buffer or payload to all ranks (weight/mask sync)."""
    if world_size < 1:
        raise ValueError("world_size must be >= 1")
    if _is_payload(buffer):
        num_bytes = buffer.nbytes
        # Every rank receives the same read-only view of the root's arrays.
        replicas: List = [buffer.read_only()] * world_size
        payload_elements = int(buffer.num_elements)
        metadata = {"payload": type(buffer).__name__}
    else:
        itemsize = element_bytes if element_bytes is not None else buffer.dtype.itemsize
        num_bytes = buffer.size * itemsize
        replicas = [np.array(buffer, copy=True) for _ in range(world_size)]
        payload_elements = int(buffer.size)
        metadata = {}
    time = network.broadcast_time(num_bytes) if network is not None else 0.0
    event = CollectiveEvent(
        op="broadcast",
        bytes_per_worker=num_bytes if world_size > 1 else 0.0,
        time_seconds=time,
        world_size=world_size,
        payload_elements=payload_elements,
        metadata=metadata,
    )
    return replicas, event


def reduce_scatter(
    buffers: Sequence[np.ndarray],
    network: Optional[NetworkModel] = None,
    average: bool = False,
    element_bytes: Optional[float] = None,
) -> tuple:
    """Reduce buffers across ranks and scatter equal chunks back to each rank."""
    _check_buffers(buffers)
    world_size = len(buffers)
    total = accumulate_sum(buffers)
    if average:
        total /= world_size
    flat = total.reshape(-1)
    chunks = np.array_split(flat, world_size)

    itemsize = element_bytes if element_bytes is not None else buffers[0].dtype.itemsize
    num_bytes = buffers[0].size * itemsize
    time = network.reduce_scatter_time(num_bytes) if network is not None else 0.0
    event = CollectiveEvent(
        op="reduce_scatter",
        bytes_per_worker=(world_size - 1) / world_size * num_bytes if world_size > 1 else 0.0,
        time_seconds=time,
        world_size=world_size,
        payload_elements=int(buffers[0].size),
    )
    return chunks, event
