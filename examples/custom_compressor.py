"""Extending the framework: write a custom codec stage and plug it into DDP.

This example shows the lower-level API the PacTrain implementation itself is
built on:

* implement a custom :class:`repro.compression.Codec` stage (here: a toy
  "sign-SGD with shared scale" codec).  ``encode`` sees every rank's
  gradients at once — a world-stacked payload whose row *r* is rank *r* — so
  it agrees on the scale across ranks with plain array code and emits a
  1-bit-per-element wire payload for the whole world; ``decode`` rescales the
  reduced payload back to gradient units;
* bind it to the shared encode/reduce/decode driver with
  :class:`repro.compression.CodecCompressor` and register it under a name so
  experiment configurations can refer to it;
* drive the DDP simulator directly — per-rank forward/backward, bucketed
  gradient exchange — and inspect the Mask Tracker on the flat bucket
  gradients, exactly the view a PyTorch DDP comm hook would see.

Note there is no byte bookkeeping anywhere in the custom code: the collective
layer reads the wire size straight off the payload (``payload.nbytes``).

A production version of this idea ships built in as
:class:`repro.compression.codec.Sign` (spec ``"signsgd"``, or ``"ef+signsgd"``
with driver-level error feedback): bit-packed :class:`SignPayload` wire format
and a majority-vote reduce.  This example keeps its own toy stage because its
point is the extension API, not the codec.

Run with:  python examples/custom_compressor.py
"""

from __future__ import annotations

import numpy as np

from repro.comm import NetworkModel, ProcessGroup
from repro.compression import (
    Codec,
    CodecCompressor,
    DensePayload,
    build_compressor,
    register_compressor,
)
from repro.data import DataLoader, DistributedSampler, synthetic_cifar10
from repro.ddp import DistributedDataParallel
from repro.nn import SGD
from repro.nn.models import build_model
from repro.pactrain import MaskTracker
from repro.pruning import magnitude_prune
from repro.tensorlib import functional as F

WORLD_SIZE = 4
SIGN_BYTES = 1.0 / 8.0  # one bit per element on the wire


class SignCodec(Codec):
    """Sign compression: transmit sign(grad) plus one shared scale per bucket."""

    name = "sign"
    allreduce_compatible = True  # signs are element-wise summable

    def __init__(self) -> None:
        self._scale = 1.0

    def encode(self, batch, ctx):
        # Shared scale: the mean absolute gradient across ranks (one row of
        # ``batch.values`` per rank).  The one-scalar-per-rank all-reduce is
        # issued for its modeled cost; the shared value is computed locally
        # (the simulation holds all ranks in-process).
        means = np.mean(np.abs(batch.values), axis=1)
        if ctx.group is not None:
            ctx.group.all_reduce(DensePayload(means[:, None]), average=True)
        self._scale = float(np.mean(means))
        # One bit per element on the wire: the payload *is* the byte account.
        return DensePayload(np.sign(batch.values), element_bytes=SIGN_BYTES)

    def decode(self, payload):
        return DensePayload(np.asarray(payload.values, dtype=np.float64) * self._scale)


def main() -> None:
    register_compressor("sign", lambda: CodecCompressor([SignCodec()], name="sign"))

    dataset = synthetic_cifar10(num_samples=256, image_size=8, seed=0)
    model = build_model("vgg19", num_classes=10, seed=0)
    mask = magnitude_prune(model, 0.5)

    network = NetworkModel.from_paper_setting(WORLD_SIZE, "100Mbps")
    group = ProcessGroup(WORLD_SIZE, network)
    ddp = DistributedDataParallel(
        model, world_size=WORLD_SIZE, process_group=group, comm_hook=build_compressor("sign")
    )
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    tracker = MaskTracker(stability_threshold=2)

    loaders = [
        DataLoader(dataset, batch_size=16, sampler=DistributedSampler(len(dataset), WORLD_SIZE, rank))
        for rank in range(WORLD_SIZE)
    ]

    print(f"Training VGG19-mini with a custom sign codec on {WORLD_SIZE} workers\n")
    for epoch in range(2):
        for loader in loaders:
            loader.set_epoch(epoch)
        for batches in zip(*loaders):
            losses = []
            for rank, batch in enumerate(batches):
                loss, grads = ddp.compute_local_gradients(batch, F.cross_entropy)
                # GSE (Eq. 2) is the staging copy itself: grad * keep lands in the arena.
                ddp.stage_rank_gradients(rank, grads, gse_mask=mask)
                losses.append(loss)

            # Peek at what a comm hook sees: flat, nameless bucket gradients
            # (the staged rows of the DDP gradient arena).
            bucket = ddp.buckets[0]
            flats = list(ddp.arena.matrix(bucket.index))
            state = tracker.update_from_rank_gradients(bucket.index, flats)

            # Aggregation returns each bucket's collective events (DDP drains
            # the group's per-step log; whole-run totals live in the group's
            # lifetime_* counters).
            aggregated, bucket_events = ddp.synchronize_staged()
            ddp.apply_aggregated_gradients(aggregated)
            optimizer.step()
            mask.apply_to_weights(model)

            comm_time = sum(e.time_seconds for per_bucket in bucket_events for e in per_bucket)
            print(
                f"epoch {epoch} loss={np.mean(losses):.3f} "
                f"bucket density={state.density:.2f} stable={state.stable} "
                f"comm={comm_time * 1e3:.1f} ms"
            )

    compressor = ddp._hook.compressor  # the CodecCompressor instance
    print(f"\nSign codec wire ratio: {compressor.stats.compression_ratio:.1f}x "
          f"(raw {compressor.stats.raw_bytes / 1e6:.2f} MB -> {compressor.stats.wire_bytes / 1e6:.3f} MB)")


if __name__ == "__main__":
    main()
