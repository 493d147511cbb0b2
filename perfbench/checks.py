"""Output correctness checks for the benchmark's cells.

Every cold cell execution is checked three ways:

* **Reference.**  ``reference.json`` holds statistics recorded by
  ``record.py`` for workload seeds ``0 .. 127``.  The simulated counters and
  clock (:data:`EXACT_FIELDS`) must match exactly: per cell shape where they
  were the same for every recorded seed, per seed and cell where they depend
  on the data (PacTrain's compact payloads follow the gradients' zero
  pattern).  On a recorded seed the final training loss must match that
  seed's cell to :data:`LOSS_RTOL` and the final accuracy to one test sample,
  so a change of summation order does not fail spuriously but a change to
  what training computes does.  On any other seed they must fall inside the
  recorded spread of the cell shape across seeds, widened by
  :data:`BAND_MARGIN` of its width and clipped to what the field can take.
* **Invariants** that hold for any seed on these healthy clusters: finite
  positive ``simulated_time``, ``goodput_fraction == 1.0``, traffic on every
  multi-rank cell, a finite final loss.
* **Repeatability.**  Every later run of a cell (a later round, the traced
  run, the warm pass served from the result store) must reproduce its first
  run's result bit for bit.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

EXACT_FIELDS = ("iterations_run", "ps_updates", "sync_rounds", "comm_bytes_per_worker", "simulated_time")
BAND_FIELDS = ("final_loss", "final_accuracy")
#: Relative tolerance of the final loss on a recorded seed.
LOSS_RTOL = 1e-6
#: Share of a shape's recorded spread added on each side of it for seeds
#: without entries of their own.  At 0.5, one of 192 seeds (leave-one-out
#: over the 128 recorded ones, plus 64 held out) fell outside; at 0.75, none.
BAND_MARGIN = 0.75
#: Values each band field can take.
FIELD_RANGE = {"final_loss": (0.0, math.inf), "final_accuracy": (0.0, 1.0)}
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def summary(result) -> Dict[str, float]:
    """The statistics the reference records for one result."""
    stats = {field: getattr(result, field) for field in EXACT_FIELDS}
    stats["final_loss"] = result.loss_trace[-1] if result.loss_trace else math.nan
    stats["final_accuracy"] = result.final_accuracy
    return stats


def invariants(run) -> List[str]:
    result = run.result
    problems = []
    if not (math.isfinite(result.simulated_time) and result.simulated_time > 0.0):
        problems.append(f"simulated_time {result.simulated_time!r} is not finite and positive")
    if result.goodput_fraction != 1.0:
        problems.append(f"goodput_fraction {result.goodput_fraction!r} != 1.0 on a healthy cluster")
    if run.world_size > 1 and not result.comm_bytes_per_worker > 0.0:
        problems.append(f"multi-rank cell moved {result.comm_bytes_per_worker!r} bytes")
    if not math.isfinite(summary(result)["final_loss"]):
        problems.append("final loss is not finite")
    return problems


def build_reference(samples: Dict[int, list]) -> Dict:
    """Reference entries for one workload from ``{seed: [CellRun, ...]}``."""
    by_shape: Dict[str, List[Tuple[int, str, Dict]]] = defaultdict(list)
    test_samples: Dict[str, int] = {}
    for seed, runs in samples.items():
        for run in runs:
            if run.result is None:
                raise RuntimeError(f"seed {seed} cell {run.label} failed:\n{run.error}")
            by_shape[run.shape].append((seed, run.label, summary(run.result)))
            test_samples[run.shape] = run.test_samples
    shapes: Dict[str, Dict] = {}
    seeds: Dict[str, Dict[str, Dict]] = defaultdict(dict)
    for shape, entries in by_shape.items():
        exact = {}
        for field in EXACT_FIELDS:
            values = {stats[field] for _, _, stats in entries}
            if len(values) == 1:
                exact[field] = values.pop()
                continue
            for seed, label, stats in entries:
                seeds[str(seed)].setdefault(label, {})[field] = stats[field]
        for seed, label, stats in entries:
            seeds[str(seed)].setdefault(label, {}).update({field: stats[field] for field in BAND_FIELDS})
        shapes[shape] = {"exact": exact, "samples": len(entries), "test_samples": test_samples[shape]}
    return {"shapes": shapes, "seeds": {seed: seeds[seed] for seed in sorted(seeds, key=int)}}


def seed_bands(seeds: Dict[str, Dict[str, Dict]]) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """Per cell shape, the band each :data:`BAND_FIELDS` value must fall in.

    The recorded spread across seeds, widened by :data:`BAND_MARGIN` of its
    width on each side and clipped to :data:`FIELD_RANGE`.
    """
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for entries in seeds.values():
        for label, fields in entries.items():
            shape = label.rsplit("#", 1)[0]
            for field in BAND_FIELDS:
                values[shape, field].append(fields[field])
    bands: Dict[str, Dict[str, Tuple[float, float]]] = defaultdict(dict)
    for (shape, field), recorded in values.items():
        low, high = min(recorded), max(recorded)
        margin = BAND_MARGIN * (high - low)
        floor, ceiling = FIELD_RANGE[field]
        bands[shape][field] = (max(floor, low - margin), min(ceiling, high + margin))
    return dict(bands)


class Reference:
    """Recorded statistics of one workload, viewed for one workload seed."""

    def __init__(self, data: Dict, seed: int, recorded_seeds: List[int]) -> None:
        self.shapes = data["shapes"]
        self.seed_entries = data["seeds"].get(str(seed), {})
        self.seed_recorded = seed in recorded_seeds
        #: Cell labels whose seed-dependent fields have no entry for this seed.
        self.unpinned: set = set()
        self._by_seed_labels = {
            label
            for entries in data["seeds"].values()
            for label, fields in entries.items()
            if any(field in fields for field in EXACT_FIELDS)
        }
        #: ``{shape: {field: (low, high)}}`` for seeds without entries of their own.
        self.bands: Dict[str, Dict[str, Tuple[float, float]]] = {}
        if not self.seed_recorded:
            self.bands = seed_bands(data["seeds"])

    @classmethod
    def load(cls, workload: str, seed: int, path: Path = REFERENCE_PATH) -> "Reference":
        data = json.loads(path.read_text())
        return cls(data["workloads"][workload], seed, data["recorded_seeds"])

    def check(self, run) -> List[str]:
        entry = self.shapes.get(run.shape)
        if entry is None:
            return [f"no reference for cell shape {run.shape!r}"]
        stats = summary(run.result)
        problems = []
        pinned = dict(entry["exact"])
        own = self.seed_entries.get(run.label)
        if self.seed_recorded and own is None:
            return [f"no reference for cell {run.label!r} on a recorded seed"]
        if own is not None:
            pinned.update({field: own[field] for field in EXACT_FIELDS if field in own})
        elif run.label in self._by_seed_labels:
            self.unpinned.add(run.label)
        for field, expected in pinned.items():
            if stats[field] != expected:
                problems.append(f"{field} {stats[field]!r} != reference {expected!r}")
        if own is not None:
            loss, accuracy = own["final_loss"], own["final_accuracy"]
            if not abs(stats["final_loss"] - loss) <= LOSS_RTOL * abs(loss):
                problems.append(f"final_loss {stats['final_loss']!r} != seed reference {loss!r}")
            # One test sample of slack, plus rounding of the two quotients.
            if not abs(stats["final_accuracy"] - accuracy) <= (1.0 + 1e-9) / entry["test_samples"]:
                problems.append(f"final_accuracy {stats['final_accuracy']!r} != seed reference {accuracy!r}")
            return problems
        for field in BAND_FIELDS:
            low, high = self.bands[run.shape][field]
            if not low <= stats[field] <= high:
                problems.append(f"{field} {stats[field]!r} outside the seed band [{low!r}, {high!r}]")
        return problems


class Verdicts:
    """Accumulates per-cell check outcomes over a run."""

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: List[Tuple[str, str]] = []
        self._first: Dict[str, Dict] = {}

    def cell(self, run, extra: Optional[List[str]] = None) -> None:
        self.attempted += 1
        problems = list(extra or [])
        if run.result is None:
            problems.append("raised: " + (run.error or "").strip().splitlines()[-1])
        else:
            problems += invariants(run)
            problems += self.reference.check(run)
            snapshot = run.result.to_dict()
            if snapshot != self._first.setdefault(run.label, snapshot):
                problems.append("result differs from the cell's first run")
        if problems:
            self.failed += 1
            self.problems.extend((run.label, problem) for problem in problems)

    def round(self, cold, warm_report) -> None:
        """Check a cold round and the warm pass that re-served it."""
        warm = sorted(warm_report.outcomes, key=lambda outcome: outcome.index)
        for run, outcome in zip(cold.runs, warm):
            extra = []
            if run.result is not None:
                if outcome.status != "cached":
                    extra.append(f"warm pass status {outcome.status!r}, expected a cache hit")
                elif outcome.result.to_dict() != run.result.to_dict():
                    extra.append("warm pass result differs from the cold run")
            self.cell(run, extra)

    def note(self, label: str, problem: str) -> None:
        """A failed check not tied to one cell execution (counted as one failure)."""
        self.attempted += 1
        self.failed += 1
        self.problems.append((label, problem))
