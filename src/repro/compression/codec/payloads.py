"""First-class wire payloads.

A :class:`WirePayload` is what a compressor actually puts on the wire for one
gradient bucket: a dense fp32 tensor, a half-precision tensor, an
(indices, values) sparse selection, a packed 2-bit ternary tensor or a packed
bitmask.  Every payload knows its own wire size (:attr:`WirePayload.nbytes`),
so the collective layer charges the :class:`repro.comm.network.NetworkModel`
from the *encoded representation* instead of trusting a caller-supplied
``element_bytes`` — byte accounting is measured, not asserted.

Payloads come in two shapes.  A **world-stacked** payload encodes a whole
bucket for every rank at once: the arrays named in ``_world_fields`` carry a
leading world axis (row *r* is rank *r*'s encoding), while arrays every rank
shares (a shared selection, PowerSGD's left factor) appear once.  A **single**
payload — one rank's row (:meth:`WirePayload.row`) or the result of a
reduction — has no world axis.  Sizes (:attr:`nbytes`, :attr:`num_elements`)
are always per rank, read off the trailing axes, so they mean the same thing
for both shapes.

Payloads also know whether ranks' encodings can be summed element-wise
(:attr:`WirePayload.reducible`): dense/half/ternary payloads and sparse
payloads with a *shared* selection are summable, so the aggregation driver
may use the all-reduce primitive; per-rank sparse selections (top-k, DGC) are
not, forcing the all-gather exchange — exactly the "compatibility" property
in the paper's Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Tuple

import numpy as np

from repro.tensorlib.dtypes import as_compute_array, float_dtype_of, get_default_dtype

#: Analytic wire sizes (bytes per element) used throughout the cost model.
FP32_BYTES = 4.0
FP16_BYTES = 2.0
INDEX_BYTES = 4.0
TERNARY_BYTES = 0.25   # 2 bits per element
BITMASK_BYTES = 1.0 / 8.0


class WirePayload:
    """Base class for encoded gradient representations.

    Subclasses must implement :attr:`nbytes` (per-rank wire bytes),
    :attr:`num_elements` (count of logical gradient elements encoded per
    rank), :meth:`reduce_values` (the ``(world, L)`` matrix summed during
    reduction) and :meth:`with_reduced` (rebuild a single payload of the same
    structure around the reduced ``(L,)`` values).
    """

    #: Fields whose arrays carry the leading world axis when world-stacked.
    _world_fields: Tuple[str, ...] = ()
    #: Whether ranks' encodings are element-wise summable (all-reduce).
    reducible: bool = False

    @property
    def nbytes(self) -> float:
        raise NotImplementedError

    @property
    def num_elements(self) -> int:
        raise NotImplementedError

    @property
    def transmitted_elements(self) -> int:
        """Count of scalar elements each rank actually carries on the wire.

        Differs from :attr:`num_elements` for sparse payloads (selected
        values vs. decoded length).  Cheap — no value materialisation.
        """
        raise NotImplementedError

    @property
    def world_size(self) -> int:
        """Number of ranks a world-stacked payload encodes."""
        return len(getattr(self, self._world_fields[0]))

    def row(self, rank: int) -> "WirePayload":
        """Rank ``rank``'s single payload, sliced out of a world-stacked one."""
        return replace(self, **{name: getattr(self, name)[rank] for name in self._world_fields})

    def read_only(self) -> "WirePayload":
        """The same payload over read-only views of its arrays.

        Collectives hand these on instead of copies: every receiver sees the
        sender's arrays, and a write through any of them raises.
        """
        views = {}
        for item in fields(self):
            value = getattr(self, item.name)
            if isinstance(value, np.ndarray):
                value = value.view()
                value.flags.writeable = False
                views[item.name] = value
        return replace(self, **views)

    def reduce_values(self) -> np.ndarray:
        """The ``(world, L)`` compute-dtype matrix a payload all-reduce sums."""
        raise NotImplementedError

    def with_reduced(self, values: np.ndarray) -> "WirePayload":
        """Single payload of the same structure carrying reduced values."""
        raise NotImplementedError


@dataclass(frozen=True)
class DensePayload(WirePayload):
    """A dense tensor sent verbatim (fp32 on the wire by default)."""

    values: np.ndarray
    element_bytes: float = FP32_BYTES

    _world_fields = ("values",)
    reducible = True

    @property
    def nbytes(self) -> float:
        return self.values.shape[-1] * self.element_bytes

    @property
    def num_elements(self) -> int:
        return int(self.values.shape[-1])

    @property
    def transmitted_elements(self) -> int:
        return int(self.values.shape[-1])

    def reduce_values(self) -> np.ndarray:
        return as_compute_array(self.values)

    def with_reduced(self, values: np.ndarray) -> "DensePayload":
        return DensePayload(values, element_bytes=self.element_bytes)


@dataclass(frozen=True)
class HalfPayload(WirePayload):
    """A half-precision tensor (2 bytes per element on the wire)."""

    values: np.ndarray  # stored as float16

    _world_fields = ("values",)
    reducible = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float16))

    @property
    def nbytes(self) -> float:
        return self.values.shape[-1] * FP16_BYTES

    @property
    def num_elements(self) -> int:
        return int(self.values.shape[-1])

    @property
    def transmitted_elements(self) -> int:
        return int(self.values.shape[-1])

    def reduce_values(self) -> np.ndarray:
        return self.values.astype(get_default_dtype())

    def with_reduced(self, values: np.ndarray) -> DensePayload:
        # Sums of fp16 values are accumulated (and returned) in the compute
        # dtype, the same convention real mixed-precision all-reduces use.
        return DensePayload(values)


@dataclass(frozen=True)
class SparsePayload(WirePayload):
    """An (indices, values) selection of ``numel`` logical elements.

    Parameters
    ----------
    indices, values:
        The selected coordinates (unique — every producer selects without
        replacement) and their (possibly re-quantised) values.  World-stacked
        payloads carry ``(world, k)`` values and either ``(world, k)``
        per-rank indices or one shared ``(k,)`` selection.
    numel:
        Length of the decoded dense gradient.
    value_bytes:
        Wire bytes per transmitted value (4 for fp32, 2 after an fp16 stage,
        0.25 after a ternary stage).
    indices_on_wire:
        ``False`` when every rank derives the selection locally (shared seed,
        shared mask) so only values travel; ``True`` when indices must be sent
        alongside values (per-rank top-k).
    shared_selection:
        ``True`` when all ranks are guaranteed to hold the *same* selection,
        making payloads element-wise summable (all-reduce compatible).
    """

    indices: np.ndarray
    values: np.ndarray
    numel: int
    value_bytes: float = FP32_BYTES
    indices_on_wire: bool = True
    shared_selection: bool = False

    _world_fields = ("values",)

    @property
    def per_rank_indices(self) -> bool:
        """Whether every row of ``values`` has its own row of ``indices``."""
        return self.indices.ndim == self.values.ndim

    @property
    def reducible(self) -> bool:  # type: ignore[override]
        return self.shared_selection

    @property
    def nbytes(self) -> float:
        per_element = self.value_bytes + (INDEX_BYTES if self.indices_on_wire else 0.0)
        return self.values.shape[-1] * per_element

    @property
    def num_elements(self) -> int:
        return self.numel

    @property
    def transmitted_elements(self) -> int:
        return int(self.values.shape[-1])

    def row(self, rank: int) -> "SparsePayload":
        indices = self.indices[rank] if self.per_rank_indices else self.indices
        return replace(self, indices=indices, values=self.values[rank])

    def reduce_values(self) -> np.ndarray:
        return as_compute_array(self.values)

    def with_reduced(self, values: np.ndarray) -> "SparsePayload":
        return replace(self, values=values)

    def densify(self) -> np.ndarray:
        """Scatter the selection back into a dense compute-dtype gradient.

        ``(numel,)`` for a single payload, ``(world, numel)`` for a
        world-stacked one.  Indices are unique by construction (see the class
        docstring), so the vectorised fancy assignment is exact.
        """
        dense = np.zeros(
            self.values.shape[:-1] + (self.numel,), dtype=float_dtype_of(np.asarray(self.values))
        )
        if self.values.ndim == 2 and self.per_rank_indices:
            np.put_along_axis(dense, self.indices, self.values, axis=1)
        else:
            dense[..., self.indices] = self.values
        return dense


def pack_ternary(codes: np.ndarray) -> np.ndarray:
    """Pack ternary codes in ``{-1, 0, +1}`` into 2-bit fields (4 per byte).

    Packs along the last axis, so a ``(world, size)`` code matrix packs row by
    row into ``(world, ceil(size / 4))`` bytes.
    """
    symbols = np.zeros(codes.shape, dtype=np.uint8)
    symbols[codes > 0] = 1
    symbols[codes < 0] = 2
    pad = (-codes.shape[-1]) % 4
    if pad:
        symbols = np.concatenate(
            [symbols, np.zeros(codes.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1
        )
    quads = symbols.reshape(symbols.shape[:-1] + (-1, 4))
    return (
        quads[..., 0] | (quads[..., 1] << 2) | (quads[..., 2] << 4) | (quads[..., 3] << 6)
    ).astype(np.uint8)


def unpack_ternary(packed: np.ndarray, size: int) -> np.ndarray:
    """Inverse of :func:`pack_ternary`; returns int8 codes in ``{-1, 0, +1}``."""
    packed = np.asarray(packed, dtype=np.uint8)
    quads = np.empty(packed.shape + (4,), dtype=np.uint8)
    quads[..., 0] = packed & 0b11
    quads[..., 1] = (packed >> 2) & 0b11
    quads[..., 2] = (packed >> 4) & 0b11
    quads[..., 3] = (packed >> 6) & 0b11
    symbols = quads.reshape(packed.shape[:-1] + (-1,))[..., :size]
    codes = np.zeros(symbols.shape, dtype=np.int8)
    codes[symbols == 1] = 1
    codes[symbols == 2] = -1
    return codes


@dataclass(frozen=True)
class TernaryPayload(WirePayload):
    """Ternary-quantised tensor: packed 2-bit codes plus a shared scale.

    The scale is agreed beforehand through the stage's scaler all-reduce (its
    cost is charged there), so the payload itself carries exactly two bits per
    element — :attr:`nbytes` is the analytic ``TERNARY_BYTES * size``.
    """

    packed: np.ndarray
    scale: float
    size: int

    _world_fields = ("packed",)
    reducible = True

    @property
    def nbytes(self) -> float:
        return self.size * TERNARY_BYTES

    @property
    def num_elements(self) -> int:
        return self.size

    @property
    def transmitted_elements(self) -> int:
        return self.size

    def codes(self) -> np.ndarray:
        return unpack_ternary(self.packed, self.size)

    def reduce_values(self) -> np.ndarray:
        return self.scale * self.codes().astype(get_default_dtype())

    def with_reduced(self, values: np.ndarray) -> DensePayload:
        # A sum of ternary tensors is no longer ternary.
        return DensePayload(values)


@dataclass(frozen=True)
class BitmaskPayload(WirePayload):
    """A boolean mask packed to one bit per element (mask synchronisation)."""

    packed: np.ndarray
    size: int

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "BitmaskPayload":
        mask = np.asarray(mask, dtype=bool)
        return cls(packed=np.packbits(mask), size=int(mask.size))

    @property
    def nbytes(self) -> float:
        return float(self.packed.size)

    @property
    def num_elements(self) -> int:
        return self.size

    @property
    def transmitted_elements(self) -> int:
        return self.size

    def mask(self) -> np.ndarray:
        return np.unpackbits(self.packed, count=self.size).astype(bool)


@dataclass(frozen=True)
class SignPayload(WirePayload):
    """signSGD wire format: one bit per coordinate plus one fp32 scale.

    ``packed`` holds the sign bits (bit set = non-negative) and ``scale`` the
    rank's mean absolute gradient, so the wire cost is exactly
    ``ceil(size / 8) + FP32_BYTES`` — the 32x compression signSGD promises.
    A world-stacked payload carries ``(world, ceil(size / 8))`` bits and a
    ``(world,)`` float64 scale array.

    Aggregation is **majority vote** (Bernstein et al., 2018): payloads are
    element-wise summable (the sign codes are +-1), and the reduced payload
    decodes to ``mean(scale) * sign(sum of codes)`` with ties decoding to 0.
    The scale rides along as one extra reduced element, which is how the mean
    scale reaches :meth:`with_reduced` without a second collective.
    """

    packed: np.ndarray
    scale: float
    size: int

    _world_fields = ("packed", "scale")
    reducible = True

    @classmethod
    def from_values(cls, values: np.ndarray) -> "SignPayload":
        """Encode one rank's ``(size,)`` values or a ``(world, size)`` matrix."""
        values = np.asarray(values)
        size = values.shape[-1]
        if size:
            scale = np.mean(np.abs(values), axis=-1)
        else:
            scale = np.zeros(values.shape[:-1])
        return cls(
            packed=np.packbits(values >= 0.0, axis=-1),
            scale=float(scale) if values.ndim == 1 else scale.astype(np.float64),
            size=int(size),
        )

    @property
    def nbytes(self) -> float:
        return float(self.packed.shape[-1]) + FP32_BYTES

    @property
    def num_elements(self) -> int:
        return self.size

    @property
    def transmitted_elements(self) -> int:
        return self.size

    def codes(self) -> np.ndarray:
        """Sign codes in ``{-1.0, +1.0}`` (compute dtype)."""
        bits = np.unpackbits(self.packed, axis=-1, count=self.size)
        return (2.0 * bits - 1.0).astype(get_default_dtype())

    def _scale_column(self, dtype) -> np.ndarray:
        # The scale rounded to the codes' dtype, shaped to broadcast against
        # them — what a Python-float scale times an array does per rank.
        return np.asarray(self.scale, dtype=np.float64).astype(dtype)[..., None]

    def reduce_values(self) -> np.ndarray:
        # Codes followed by the scale: one summable vector per rank, so the
        # mean scale arrives at with_reduced alongside the mean codes.
        codes = self.codes()
        return np.concatenate([codes, self._scale_column(codes.dtype)], axis=-1)

    def with_reduced(self, values: np.ndarray) -> DensePayload:
        codes, scale = values[: self.size], float(values[self.size])
        # Majority vote: sign of the summed codes (the mean has the same
        # sign); exact ties decode to zero.
        return DensePayload(scale * np.sign(codes))

    def densify(self) -> np.ndarray:
        """Each rank's decoded gradient: ``scale * sign``."""
        codes = self.codes()
        scale = self._scale_column(codes.dtype)
        return (scale[0] if codes.ndim == 1 else scale) * codes


@dataclass(frozen=True)
class LowRankPayload(WirePayload):
    """PowerSGD wire format: a shared left factor and a per-rank right factor.

    ``p`` is the orthonormalised ``(m, rank)`` left factor — shared by every
    rank because it is produced from the *aggregated* first power-iteration
    step — and ``q`` the rank's own ``(n, rank)`` right factor (``(world, n,
    rank)`` when world-stacked).  Decoding reconstructs ``p @ q.T`` and trims
    the padding back to ``numel``.

    Both factors travel each iteration (the two all-reduces of the PowerSGD
    protocol), so the wire cost is the analytic ``(m + n) * rank * 4`` bytes.
    Payloads are element-wise summable in ``q`` because they share ``p`` — the
    all-reduce-compatibility PowerSGD is designed for.
    """

    p: np.ndarray
    q: np.ndarray
    numel: int

    _world_fields = ("q",)
    reducible = True

    def __post_init__(self) -> None:
        if self.p.ndim != 2 or self.q.ndim not in (2, 3) or self.p.shape[1] != self.q.shape[-1]:
            raise ValueError(
                f"factors must be (m, rank) and ([world,] n, rank), got {self.p.shape} and {self.q.shape}"
            )

    @property
    def rank(self) -> int:
        return int(self.p.shape[1])

    @property
    def nbytes(self) -> float:
        return (self.p.shape[0] + self.q.shape[-2]) * self.rank * FP32_BYTES

    @property
    def num_elements(self) -> int:
        return self.numel

    @property
    def transmitted_elements(self) -> int:
        return int((self.p.shape[0] + self.q.shape[-2]) * self.rank)

    def reduce_values(self) -> np.ndarray:
        q = as_compute_array(self.q)
        return q.reshape(len(q), -1)

    def with_reduced(self, values: np.ndarray) -> "LowRankPayload":
        return replace(self, q=values.reshape(self.q.shape[-2:]))

    def densify(self) -> np.ndarray:
        """Reconstruct the flat dense gradient (one row per rank if stacked)."""
        dense = self.p @ np.swapaxes(self.q, -1, -2)
        return dense.reshape(self.q.shape[:-2] + (-1,))[..., : self.numel]
