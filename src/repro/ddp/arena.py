"""Preallocated per-bucket gradient arenas.

A :class:`GradientArena` owns one ``(world_size, numel)`` matrix per bucket,
allocated once for the lifetime of the DDP wrapper.  Each step's gradients
land in it with exactly one copy: staging views each parameter's slice of the
matrix in the gradient's own shape and copies the gradient (or stack of
per-rank gradients) straight into that view — no flatten buffer, no reshaped
temporary.  With a gradient sparsity enforcement (GSE) mask the copy is the
masking multiply itself, so the masked gradients are never materialised
anywhere else.  Communication hooks see the rows as their flat buffers, and
matrix-shaped consumers (batched top-k, DGC) read the 2-D array without
re-stacking.

Aliasing contract: every slice of every row is either written or explicitly
zeroed on each staging pass, so one iteration's gradients can never leak into
the next through buffer reuse (covered by the aliasing-safety tests).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.ddp.bucket import Bucket


class GradientArena:
    """One reusable ``(world_size, numel)`` gradient matrix per bucket."""

    def __init__(self, buckets: Sequence[Bucket], world_size: int, dtype=np.float64) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.dtype = np.dtype(dtype)
        self._buckets = list(buckets)
        self._matrices: List[np.ndarray] = [
            np.zeros((world_size, bucket.numel), dtype=self.dtype) for bucket in self._buckets
        ]

    # ------------------------------------------------------------------ #
    @property
    def nbytes(self) -> int:
        """Total bytes held by the arena (allocated once, reused every step)."""
        return int(sum(matrix.nbytes for matrix in self._matrices))

    def matrix(self, bucket_index: int) -> np.ndarray:
        """The full ``(world_size, numel)`` matrix of one bucket."""
        return self._matrices[bucket_index]

    def row(self, bucket_index: int, rank: int) -> np.ndarray:
        """One rank's flat gradient view for one bucket."""
        return self._matrices[bucket_index][rank]

    # ------------------------------------------------------------------ #
    def write_rank(
        self,
        rank: int,
        grads_by_name: Dict[str, np.ndarray],
        keep: Optional[Mapping[str, np.ndarray]] = None,
    ) -> None:
        """Stage one rank's named gradients into its row of every bucket.

        ``keep`` optionally maps parameter names to GSE keep-masks; a masked
        gradient lands as ``grad * keep``.  Slices whose parameter has no
        gradient this iteration are zeroed (the DDP convention for unused
        parameters), which together with the write-everything rule keeps rows
        free of stale data from prior steps.
        """
        for bucket, matrix in zip(self._buckets, self._matrices):
            row = matrix[rank]
            for piece in bucket.slices:
                grad = grads_by_name.get(piece.param_name)
                target = row[piece.offset : piece.end]
                if grad is None:
                    target[:] = 0.0
                    continue
                if grad.size != piece.numel:
                    raise ValueError(
                        f"gradient for {piece.param_name!r} has {grad.size} elements, "
                        f"bucket slice expects {piece.numel}"
                    )
                _land(target.reshape(grad.shape, copy=False), grad, keep, piece.param_name)

    def write_world(
        self,
        grads_by_name: Dict[str, np.ndarray],
        keep: Optional[Mapping[str, np.ndarray]] = None,
    ) -> None:
        """Stage every rank at once from ``(world_size, *shape)`` gradient stacks.

        The world-batched execution path produces one stacked array per
        parameter (the replica views' ``.grad``); each lands in its bucket
        slice with a single vectorised copy, whatever the stack's memory
        layout, instead of one copy per ``(rank, parameter)`` pair.  ``keep``
        masks are ``(*shape)`` and broadcast over the world axis.  Missing
        parameters zero their slices in every row, preserving the
        write-everything aliasing contract.
        """
        world = self.world_size
        for bucket, matrix in zip(self._buckets, self._matrices):
            for piece in bucket.slices:
                grad = grads_by_name.get(piece.param_name)
                target = matrix[:, piece.offset : piece.end]
                if grad is None:
                    target[:] = 0.0
                    continue
                if grad.shape[0] != world or grad.size != world * piece.numel:
                    raise ValueError(
                        f"stacked gradient for {piece.param_name!r} has shape {grad.shape}, "
                        f"expected ({world}, ...) with {piece.numel} elements per rank"
                    )
                _land(target.reshape(grad.shape, copy=False), grad, keep, piece.param_name)

    def shares_memory_with(self, array: np.ndarray) -> bool:
        """Whether ``array`` aliases any arena matrix (aliasing guard)."""
        return any(np.shares_memory(array, matrix) for matrix in self._matrices)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"GradientArena(buckets={len(self._buckets)}, world_size={self.world_size}, "
            f"dtype={self.dtype.name}, nbytes={self.nbytes})"
        )


def _land(
    target: np.ndarray,
    grad: np.ndarray,
    keep: Optional[Mapping[str, np.ndarray]],
    name: str,
) -> None:
    """Copy ``grad`` into the arena view ``target``, masked by ``keep[name]``.

    ``target`` has ``grad``'s shape (``reshape(copy=False)`` raises rather
    than hand back a temporary), so this is the only copy of the gradient.
    The masked multiply is the one ``grad * keep`` would do, written in place.
    """
    mask = None if keep is None else keep.get(name)
    if mask is None:
        np.copyto(target, grad, casting="unsafe")
    else:
        np.multiply(grad, mask, out=target, casting="unsafe")
