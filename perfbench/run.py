"""Benchmark of whole training cells, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload conv-sync --seed 0 --seconds 30 --trace 0

``--workload all`` runs the three workloads in turn, each in its own process.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced rounds: the traced ones wrap each
layer's public functions (see ``spans.py``) and report per-layer self time
and counts, the untraced ones give the tracing overhead, and every traced
result must equal its untraced twin bit for bit.

Each workload is a closed loop: one caller runs the workload's cells back to
back in this process (no worker pool), each cell starting when the previous
one returns, in whole rounds until ``--seconds`` have passed.  Every cell's
output is checked (``checks.py``); the last line of standard output is one
JSON object, and the exit code is 0 only when every check passed.

End-to-end metrics (``--trace 0``):

* ``setup_s`` — process start until the first timed cell could run:
  imports, cell generation and one untimed warm-up cell, each set-up in a
  fresh process (this one and two children started for it, so every sample
  pays the first-call costs) and scaled by probes run right after it; the
  median of the three;
* ``iters_per_s`` — simulated iterations over the seconds of the cold cells;
* ``cell_s.p50`` / ``cell_s.tail`` — median per-cell seconds (the median of
  the per-shape medians), and the highest percentile with ten cells beyond it;
* ``warm_sweep_s`` — seconds per campaign pass over the workload's cells
  against a store that already holds them all (median over rounds, each
  scaled by probes run right after it);
* ``peak_rss_mb`` — resident-set high-water mark of the timed rounds.

Every time is host seconds scaled to a reference host speed by the probe in
``hostspeed.py``; the raw host seconds are printed beside it.  The share of
cells that failed a check is printed as ``failed_frac`` and carried by the
``failed`` / ``attempted`` fields of the JSON line.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the benchmark is one process and its matrices are small,
# so more BLAS threads only add scheduling noise.  Set before numpy loads.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("conv-sync", "wide-world", "regimes-sweep")
#: Cold set-ups per run, each in its own process; ``setup_s`` reports their median.
SETUP_PROCESSES = 3
#: Each round's warm-pass sample repeats the pass for at least this long;
#: ``warm_sweep_s`` reports the median per-pass time over the rounds.
WARM_SAMPLE_SECONDS = 0.1
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("iters_per_s", "1/s"),
    ("cell_s.p50", "s"),
    ("cell_s.tail", "s"),
    ("warm_sweep_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Internal: set up once, print the seconds from process start and their scale, and exit.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(workload, seed, hostspeed):
    """Generate the cells and run one untimed warm-up cell.

    Returns the cells, the host seconds since process start and the
    host-speed scale measured right after.
    """
    generated = workload.generate(seed)
    workload.warmup(generated)
    seconds = time.perf_counter() - _STARTED
    return generated, seconds, hostspeed.spot_scale()


def cold_set_up(args):
    """``(host seconds, scale)`` of one set-up in a fresh child process."""
    completed = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0", "--setup-only"],
        check=True, capture_output=True, text=True,
    )
    seconds, scale = completed.stdout.split()[-2:]
    return float(seconds), float(scale)


def tail(samples):
    """``(value, percentile)``: the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (Linux); no-op elsewhere."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Resident-set high-water mark since the last reset (process lifetime off Linux)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workloads, hostspeed, workload, generated, seconds, work_dir, verdicts, speed):
    """Untraced closed loop: whole rounds until the deadline (at least two).

    Times are scaled to the reference host speed (``hostspeed.py``); the raw
    host-second figures go into the notes.
    """
    deadline = time.perf_counter() + seconds
    runs, warm = [], []  # CellRuns, (host seconds, scale)
    iterations, rounds = 0, 0
    reset_peak_rss()
    while rounds < 2 or time.perf_counter() < deadline:
        cold = workload.cold_round(generated, work_dir, speed)
        store = workload.filled_store(generated, cold)
        seconds_warm, report = workloads.warm_pass(workload, generated, store, WARM_SAMPLE_SECONDS)
        warm.append((seconds_warm, hostspeed.spot_scale()))
        verdicts.round(cold, report)
        rounds += 1
        runs.extend(cold.runs)
        iterations += sum(run.result.iterations_run for run in cold.runs if run.result is not None)

    scaled = [run.seconds * run.scale for run in runs]
    raw = [run.seconds for run in runs]

    def shape_medians(values):
        by_shape = {}
        for value, run in zip(values, runs):
            by_shape.setdefault(run.shape, []).append(value)
        return {shape: statistics.median(samples) for shape, samples in by_shape.items()}

    # cell_s.p50 is the median of the per-shape medians: with an even number
    # of cell shapes the plain median sits between the extremes of two shapes.
    by_shape = shape_medians(scaled)
    p_tail, percentile = tail(scaled)
    values = {
        "iters_per_s": iterations / sum(scaled),
        "cell_s.p50": statistics.median(by_shape.values()),
        "cell_s.tail": p_tail,
        "warm_sweep_s": statistics.median(seconds * scale for seconds, scale in warm),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "iters_per_s": (
            f"{iterations} iterations, n={len(runs)} cells in {rounds} rounds; "
            f"raw {iterations / sum(raw):.6g}"
        ),
        "cell_s.p50": (
            f"median of {len(by_shape)} shape medians, n={len(runs)} cells; "
            f"raw {statistics.median(shape_medians(raw).values()):.6g}"
        ),
        "cell_s.tail": (
            f"p{percentile:.1f}, n={len(runs)} cells, {TAIL_BEYOND} beyond; raw {tail(raw)[0]:.6g}"
        ),
        "warm_sweep_s": (
            f"median of n={len(warm)} rounds; raw {statistics.median(seconds for seconds, _ in warm):.6g}"
        ),
        "peak_rss_mb": f"high-water mark over n={rounds} rounds",
        "by_shape": by_shape,
    }
    return values, notes


def traced_run(spans, workloads, hostspeed, workload, generated, seconds, work_dir, verdicts, speed):
    """Alternate untraced and traced rounds; attribute the traced ones by layer.

    Per-layer seconds are raw host seconds (their shares are what the split
    reports); the round walls behind ``trace.overhead_frac`` are scaled to the
    reference host speed, as the end-to-end times are.
    """
    stack = spans.SpanStack()
    walls = {False: 0.0, True: 0.0}
    traced_runs, traced_warm = [], []
    deadline = time.perf_counter() + seconds
    pairs = 0
    while pairs < 1 or time.perf_counter() < deadline:
        rounds = {}
        for traced in (False, True) if pairs % 2 == 0 else (True, False):
            tracing = (lambda: spans.install(stack)) if traced else contextlib.nullcontext
            # Probe once, outside any span; the round itself runs no probe.
            fixed = hostspeed.FixedSpeed(speed.sample())
            started = time.perf_counter()
            with tracing():
                cold = workload.cold_round(generated, work_dir, fixed)
            walls[traced] += (time.perf_counter() - started) * fixed.scale()
            store = workload.filled_store(generated, cold)
            started = time.perf_counter()
            with tracing():
                _, report = workloads.warm_pass(workload, generated, store)
            walls[traced] += (time.perf_counter() - started) * fixed.scale()
            rounds[traced] = (cold, report)
        for traced in (False, True):
            verdicts.round(*rounds[traced])
        traced_runs.extend(rounds[True][0].runs)
        traced_warm.append(rounds[True][1])
        pairs += 1

    cells = len(traced_runs)
    values = {metric: stack.self_time.get(metric, 0.0) / cells for metric in spans.TIME_METRICS}
    values.update({counter: stack.counts.get(counter, 0) / cells for counter in spans.COUNTERS})
    results = [run.result for run in traced_runs if run.result is not None]
    values["comm.wire_bytes"] = sum(r.comm_bytes_per_worker for r in results) / cells
    compact = sum(r.extra.get("compact_iterations", 0.0) for r in results)
    full = sum(r.extra.get("full_iterations", 0.0) for r in results)
    values["pactrain.compact_frac"] = compact / (compact + full) if compact + full else 0.0
    values["campaign.cache_hit_frac"] = (
        sum(report.cached for report in traced_warm) / sum(len(report.outcomes) for report in traced_warm)
    )
    values["campaign.retries"] = float(
        sum(run.attempts - 1 for run in traced_runs) + sum(report.retried for report in traced_warm)
    )
    values["trace.overhead_frac"] = walls[True] / walls[False] - 1.0

    attributed = sum(stack.self_time.values())
    if abs(attributed - stack.root_time) > 1e-9 * max(1.0, stack.root_time) * len(stack.self_time):
        verdicts.note("trace", f"layer self times sum to {attributed!r}, traced wall is {stack.root_time!r}")
    split = [
        (metric, stack.self_time.get(metric, 0.0), stack.self_time.get(metric, 0.0) / stack.root_time)
        for metric in spans.TIME_METRICS
    ]
    notes = {
        "split": split,
        "traced_wall": stack.root_time,
        "pairs": pairs,
        "cells": cells,
        "walls": walls,
    }
    return values, notes


def per_layer_units(spans):
    units = {metric: "s" for metric in spans.TIME_METRICS}
    units.update({counter: "count" for counter in spans.COUNTERS})
    units.update({
        "comm.wire_bytes": "B",
        "pactrain.compact_frac": "ratio",
        "campaign.cache_hit_frac": "ratio",
        "campaign.retries": "count",
        "trace.overhead_frac": "ratio",
    })
    return units


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        options = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return max(
            subprocess.run([sys.executable, __file__, "--workload", name, *options]).returncode
            for name in WORKLOAD_NAMES
        )
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: the program's sources are missing ({SRC} has no repro package)", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("run.py: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks  # noqa: PLC0415
    import hostspeed  # noqa: PLC0415
    import spans  # noqa: PLC0415
    import workloads  # noqa: PLC0415

    speed = hostspeed.HostSpeed()
    workload = workloads.WORKLOADS[args.workload]
    verdicts = checks.Verdicts(checks.Reference.load(args.workload, args.seed))
    temp_root = ROOT / ".perfbench_tmp"
    temp_root.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=temp_root)
    try:
        generated, *setup = set_up(workload, args.seed, hostspeed)
        if args.setup_only:
            print(*setup)
            return 0
        if args.trace:
            import selfcheck  # noqa: PLC0415

            for problem in selfcheck.problems():
                verdicts.note("span stack self-check", problem)
            values, notes = traced_run(
                spans, workloads, hostspeed, workload, generated, args.seconds, work_dir, verdicts, speed
            )
        else:
            setups = [tuple(setup)] + [cold_set_up(args) for _ in range(SETUP_PROCESSES - 1)]
            values, notes = timed_run(
                workloads, hostspeed, workload, generated, args.seconds, work_dir, verdicts, speed
            )
            values["setup_s"] = statistics.median(seconds * scale for seconds, scale in setups)
            notes["setup_s"] = (
                f"median of n={len(setups)} cold set-ups; raw {statistics.median(s for s, _ in setups):.6g} "
                f"({', '.join(f'{s:.3f}' for s, _ in setups)} s)"
            )
            probes = speed.samples
            notes["host"] = (
                f"host-speed probe median {1000 * statistics.median(probes):.3f} ms "
                f"(range {1000 * min(probes):.3f}-{1000 * max(probes):.3f} ms, n={len(probes)}; "
                f"reference {1000 * hostspeed.REFERENCE_SECONDS:g} ms)"
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            temp_root.rmdir()
        except OSError:
            pass  # another run is still using it

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    failed_frac = verdicts.failed / verdicts.attempted if verdicts.attempted else 1.0
    print(f"  failed_frac    {failed_frac:.4f}  ({verdicts.failed} of n={verdicts.attempted} cells failed a check)")
    for label, problem in verdicts.problems[:20]:
        print(f"  FAILED {label}: {problem}")
    if not verdicts.reference.seed_recorded:
        unpinned = sorted(verdicts.reference.unpinned)
        print(
            f"  note: seed {args.seed} is not in reference.json; final loss and accuracy were checked "
            "against the seed band"
            + (f", seed-dependent exact fields of {unpinned} by invariants and repeatability only"
               if unpinned else "")
        )
    if args.trace:
        units = per_layer_units(spans)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        print(f"  layer split of {notes['traced_wall']:.3f} s traced wall over {notes['cells']} traced cells "
              f"({notes['pairs']} traced/untraced round pairs):")
        for metric, seconds, share in notes["split"]:
            print(f"    {metric:26s} {seconds:9.4f} s  {100 * share:6.2f} %")
        total = sum(seconds for _, seconds, _ in notes["split"])
        print(f"    {'sum':26s} {total:9.4f} s  {100 * total / notes['traced_wall']:6.2f} %")
        walls = notes["walls"]
        print(f"  traced rounds {walls[True]:.3f} s, untraced rounds {walls[False]:.3f} s (scaled)")
        print("  per-layer metrics (seconds, calls, events and wire bytes per traced cell):")
        for name in units:
            print(f"    {name:26s} {values[name]:.6g} {units[name]}")
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"  {name:14s} {values[name]:.6g} {unit}  ({notes[name]})")
        print(f"  {notes['host']}")
        print("  median cell_s by shape: " + ", ".join(
            f"{shape} {seconds:.4f}" for shape, seconds in notes["by_shape"].items()))
    correct = verdicts.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
