"""Record the benchmark's reference statistics and its measured reasoning.

Usage (from the repository root)::

    python3 perfbench/record.py reference
    python3 perfbench/record.py reasoning

``reference`` runs one cold round of every workload for workload seeds
``0 .. RECORDED_SEEDS-1`` and writes ``reference.json`` (see ``checks.py``).  Record it
only at a commit whose simulated results are known good: later commits are
checked against it.

``reasoning`` writes ``reasoning.json``: why each workload was chosen, the
share of traced wall time each layer took on it (one traced run per workload,
seed 0, ``run_seconds`` of ``BENCHMARK.json`` long), which end-to-end metric
each per-layer metric should move, and the host fingerprint.
"""

from __future__ import annotations

import os

# The same BLAS thread count as run.py, set before numpy loads.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Workload seeds ``reference`` records, each with its own per-cell entries.
RECORDED_SEEDS = 128

WHY = {
    "conv-sync": (
        "ResNet-18-mini on 4 synchronous ranks (overlap on, multi-bucket) with all-reduce, "
        "top-k 1 % and PacTrain, plus a 1-rank all-reduce baseline: the conv kernels and "
        "autograd do most of the work, so it exercises im2col work and bypasses the engine."
    ),
    "wide-world": (
        f"The MLP at {workloads.WIDE_WORLD} ranks, batch 1 per rank, overlap and straggler skew, "
        "with all-reduce, top-k 1 % and PacTrain: per-rank-scaling layers (codec, DDP staging, "
        "collectives, the R x B engine schedule) dominate and no conv kernel runs."
    ),
    "regimes-sweep": (
        "One jobs=1 campaign of {sync, localsgd:4:delta, ps:2} x {all-reduce, topk-0.01, "
        "topk0.01+terngrad} x 4 seeds on an 8-rank MLP, cold into a fresh on-disk store and "
        "then warm: the training driver, per-replica optimizer steps, the parameter-server "
        "event heap and the campaign store, writes beside reads. PacTrain is left out because "
        "ps accepts only codec-pipeline compressors without pruning."
    ),
}


def record_reference() -> None:
    work_dir = tempfile.mkdtemp(prefix="record-", dir=HERE)
    try:
        data = {"recorded_seeds": list(range(RECORDED_SEEDS)), "workloads": {}}
        for name, workload in workloads.WORKLOADS.items():
            samples = {}
            for seed in range(RECORDED_SEEDS):
                samples[seed] = workload.cold_round(workload.generate(seed), work_dir, HostSpeed()).runs
            data["workloads"][name] = checks.build_reference(samples)
            print(f"{name}: {RECORDED_SEEDS} seeds recorded", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    checks.REFERENCE_PATH.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")


def host_fingerprint() -> dict:
    import numpy  # noqa: PLC0415

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": "1 (run.py sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS)",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def record_reasoning() -> None:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    measured = {}
    for name in workloads.WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
             "--seconds", str(seconds), "--trace", "1"],
            check=True, capture_output=True, text=True,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        values = {metric: entry["value"] for metric, entry in result["metrics"].items()}
        total = sum(values[metric] for metric in spans.TIME_METRICS)
        measured[name] = {
            "why": WHY[name],
            "layer_shares": {metric: round(values[metric] / total, 4) for metric in spans.TIME_METRICS},
            "traced_seconds_per_cell": round(total, 5),
            "trace.overhead_frac": round(values["trace.overhead_frac"], 4),
        }
    layers = {}
    for layer in spans.LAYERS:
        entry = layers.setdefault(layer.metric, {"times": []})
        entry["times"] += [f"{owner.split('.')[-1]}.{attr}" for owner, attr in layer.targets]
        if layer.should_move:
            entry["should_move"] = layer.should_move
            entry["flat_on"] = layer.flat_on or "-"
    layers["comm.wire_bytes"] = {
        "should_move": "nothing: simulated bytes stay exactly equal under host-speed work"
    }
    layers["pactrain.compact_frac"] = {"should_move": "nothing: the useful-work ratio stays exactly equal"}
    layers["campaign.cache_hit_frac"] = {"should_move": "nothing: every warm-pass cell is a cache hit"}
    layers["campaign.retries"] = {"should_move": "nothing: healthy cells are never retried"}
    layers["trace.overhead_frac"] = {
        "should_move": "nothing: tracing costs under a quarter of the untraced wall (host noise of a few "
        "percent either way dominates the measured value)"
    }
    document = {
        "host": host_fingerprint(),
        "workloads": measured,
        "per_layer": layers,
        "layer_shares_measured_with": f"run.py --seed 0 --seconds {seconds:g} --trace 1",
    }
    (HERE / "reasoning.json").write_text(json.dumps(document, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=("reference", "reasoning"))
    args = parser.parse_args(argv)
    if args.what == "reference":
        record_reference()
    else:
        record_reasoning()
    return 0


if __name__ == "__main__":
    sys.exit(main())
