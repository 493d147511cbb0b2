"""Gradient compressors and the encode/reduce/decode codec subsystem.

Every compressor implements the :class:`repro.compression.base.Compressor`
interface: given one gradient bucket (per-rank flat tensors) and a process
group, produce the aggregated average gradient while issuing the collectives it
actually needs.  The built-in compressors are all
:class:`~repro.compression.base.CodecCompressor` instances — a codec
:class:`~repro.compression.codec.Pipeline` bound to the shared
encode → reduce/gather → decode driver.  Encoded
:class:`~repro.compression.codec.WirePayload` objects go straight to the
collective layer, which charges modeled time and bytes from
``payload.nbytes`` — how Table 1's "compatibility" column turns into Fig. 3's
TTA differences, with byte accounting measured from the wire representation.

Implemented baselines (paper §IV.C and Table 1):

* :class:`NoCompression`       — native fp32 all-reduce
* :class:`FP16Compressor`      — half-precision all-reduce
* :class:`TopKCompressor`      — per-rank top-k selection, all-gather exchange
* :class:`RandomKCompressor`   — shared-seed random-k, all-reduce
* :class:`TernGradCompressor`  — ternary quantisation (Wen et al., 2017)
* :class:`DGCCompressor`       — Deep Gradient Compression (Lin et al., 2018)

The PacTrain compressor lives in :mod:`repro.pactrain` and is registered here
for convenience through :func:`build_compressor`, which also accepts arbitrary
codec pipeline specs such as ``"topk0.01+terngrad"``.
"""

from repro.compression.base import (
    CodecCompressor,
    CompressionStats,
    Compressor,
    exact_average,
)
from repro.compression.codec import (
    BitmaskPayload,
    Codec,
    DensePayload,
    EncodeContext,
    HalfPayload,
    LowRankPayload,
    Pipeline,
    SignPayload,
    SparsePayload,
    TernaryPayload,
    WirePayload,
    parse_codec_spec,
    parse_compressor_spec,
)
from repro.compression.none import NoCompression
from repro.compression.fp16 import FP16Compressor
from repro.compression.topk import TopKCompressor
from repro.compression.randomk import RandomKCompressor
from repro.compression.terngrad import TernGradCompressor
from repro.compression.dgc import DGCCompressor
from repro.compression.registry import COMPRESSOR_REGISTRY, build_compressor, register_compressor

__all__ = [
    "Compressor",
    "CodecCompressor",
    "CompressionStats",
    "exact_average",
    "WirePayload",
    "DensePayload",
    "HalfPayload",
    "SparsePayload",
    "TernaryPayload",
    "BitmaskPayload",
    "SignPayload",
    "LowRankPayload",
    "Codec",
    "EncodeContext",
    "Pipeline",
    "parse_codec_spec",
    "parse_compressor_spec",
    "NoCompression",
    "FP16Compressor",
    "TopKCompressor",
    "RandomKCompressor",
    "TernGradCompressor",
    "DGCCompressor",
    "COMPRESSOR_REGISTRY",
    "build_compressor",
    "register_compressor",
]
