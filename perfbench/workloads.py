"""The benchmark's workloads: cell generators and closed-loop rounds.

Each workload is a fixed list of whole training cells built from the
workload seed (the only thing the seed reaches) and run back to back through
the public entry points: ``run_experiment`` for ``conv-sync`` and
``wide-world``, ``run_campaign(..., jobs=1)`` for ``regimes-sweep``.  One
*round* runs every cell of the workload once, cold; a *warm pass* then re-runs
the same cells as a campaign against a result store that already holds them,
so every cell is a cache hit.
"""

from __future__ import annotations

import os
import random
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from hostspeed import FixedSpeed, HostSpeed
from repro.campaign import runner, spec as campaign_spec, store as campaign_store
from repro.simulation import experiment
from repro.simulation.cluster import ClusterSpec
from repro.simulation.experiment import PAPER_METHODS, ExperimentConfig, ExperimentResult

#: Collective cost model of every cell: the paper's constrained-bandwidth
#: setting.  It changes simulated time only, never host work.
BANDWIDTH = "100Mbps"
#: Bucket cap giving every model a multi-bucket layout, so per-bucket
#: compute/communication overlap has buckets to schedule.
BUCKET_CAP = 16384
#: What times a cell: a live probe, or a scale fixed before a traced round.
Speed = Union[HostSpeed, FixedSpeed]


@dataclass
class CellRun:
    """One cold execution of one cell, timed from outside."""

    label: str  # "<shape>#<occurrence>", unique within the workload
    shape: str  # cell shape; seeds of one shape share a reference entry
    world_size: int
    test_samples: int  # size of the cell's test split (one sample of accuracy)
    seconds: float  # host seconds
    scale: float  # host-speed scale from the probe run just before the cell
    result: Optional[ExperimentResult]
    error: Optional[str] = None
    attempts: int = 1


@dataclass
class Round:
    runs: List[CellRun]
    #: The store a campaign round wrote (``None`` for direct rounds).
    store: Optional[campaign_store.ResultStore] = None


def _test_samples(config: ExperimentConfig) -> int:
    """Size of the test split ``train_test_split`` makes for ``config``."""
    return config.dataset_samples - int(config.dataset_samples * (1.0 - config.test_fraction))


def _labels(shapes: List[str]) -> List[str]:
    seen: Dict[str, int] = {}
    labels = []
    for shape in shapes:
        labels.append(f"{shape}#{seen.get(shape, 0)}")
        seen[shape] = seen.get(shape, 0) + 1
    return labels


class DirectWorkload:
    """Cells trained one by one through ``run_experiment``."""

    def __init__(self, name: str, make_cells: Callable[[int], List[Tuple[str, campaign_spec.CampaignCell]]]):
        self.name = name
        self._make_cells = make_cells

    def generate(self, seed: int) -> List[Tuple[str, campaign_spec.CampaignCell]]:
        return self._make_cells(seed)

    def warmup(self, cells) -> None:
        _, cell = cells[0]
        experiment.run_experiment(cell.config, cell.method)

    def cold_round(self, cells, work_dir: str, speed: Speed) -> Round:
        del work_dir  # nothing is written during the round
        shapes = [shape for shape, _ in cells]
        runs = []
        for label, (shape, cell) in zip(_labels(shapes), cells):
            scale = speed.sample()
            begin = time.perf_counter()
            result, error = None, None
            try:
                result = experiment.run_experiment(cell.config, cell.method)
            except Exception:  # noqa: BLE001 - a raising cell is a failed cell
                error = traceback.format_exc()
            runs.append(
                CellRun(label, shape, cell.config.cluster.world_size, _test_samples(cell.config),
                        time.perf_counter() - begin, scale, result, error)
            )
        return Round(runs)

    def filled_store(self, cells, cold: Round) -> campaign_store.ResultStore:
        """An in-memory store holding every result of the cold round."""
        store = campaign_store.ResultStore()
        for run, (_, cell) in zip(cold.runs, cells):
            if run.result is not None:
                store.put(cell.config, cell.method, run.result)
        return store

    def campaign(self, cells):
        return [cell for _, cell in cells]


class CampaignWorkload:
    """One campaign per round, run cold into a fresh on-disk result store."""

    def __init__(self, name: str, make_spec: Callable[[int], campaign_spec.CampaignSpec]):
        self.name = name
        self._make_spec = make_spec

    def generate(self, seed: int) -> campaign_spec.CampaignSpec:
        return self._make_spec(seed)

    def warmup(self, spec) -> None:
        report = runner.run_campaign(spec.expand()[:1], store=None, jobs=1)
        report.raise_failures()

    def cold_round(self, spec, work_dir: str, speed: Speed) -> Round:
        path = os.path.join(work_dir, f"{self.name}.jsonl")
        if os.path.exists(path):
            os.remove(path)
        store = campaign_store.ResultStore(path)
        # A cell runs from the end of the probe after the previous cell
        # settled to its own settle; the probe runs in the progress callback
        # (a no-op in traced rounds, which pass a FixedSpeed).
        timing: Dict[int, Tuple[float, float]] = {}
        scale = speed.sample()
        begin = time.perf_counter()

        def settled(progress) -> None:
            nonlocal begin, scale
            timing[progress.outcome.index] = (time.perf_counter() - begin, scale)
            scale = speed.sample()
            begin = time.perf_counter()

        report = runner.run_campaign(spec, store=store, jobs=1, progress=settled)
        outcomes = sorted(report.outcomes, key=lambda outcome: outcome.index)
        shapes = [outcome.cell.method.name for outcome in outcomes]
        runs = [
            CellRun(label, outcome.cell.method.name, outcome.cell.config.cluster.world_size,
                    _test_samples(outcome.cell.config), *timing[outcome.index],
                    outcome.result, outcome.error, outcome.attempts)
            for label, outcome in zip(_labels(shapes), outcomes)
        ]
        return Round(runs, store)

    def filled_store(self, spec, cold: Round) -> campaign_store.ResultStore:
        """The on-disk store the cold campaign wrote."""
        del spec
        return cold.store

    def campaign(self, spec):
        return spec


def warm_pass(workload, generated, store: campaign_store.ResultStore, min_seconds: float = 0.0):
    """Re-run the workload's cells as a campaign against a store holding them all.

    The campaign repeats back to back until ``min_seconds`` have passed: a
    single pass can take under a millisecond, shorter than the host's speed
    swings.  Returns ``(host seconds per pass, last report)``.
    """
    campaign = workload.campaign(generated)
    passes = 0
    started = time.perf_counter()
    while True:
        report = runner.run_campaign(campaign, store=store, jobs=1)
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed >= min_seconds:
            return elapsed / passes, report


def _cell_seeds(seed: int, count: int) -> List[int]:
    draw = random.Random(seed)
    return [draw.randrange(2**31) for _ in range(count)]


def conv_sync_cells(seed: int):
    """ResNet-18-mini, 4 synchronous ranks with overlap, plus a 1-rank baseline."""
    (cell_seed,) = _cell_seeds(seed, 1)

    def config(world_size: int) -> ExperimentConfig:
        return ExperimentConfig(
            model="resnet18",
            cluster=ClusterSpec(world_size=world_size, bandwidth=BANDWIDTH, overlap=True),
            epochs=2, batch_size=4, dataset_samples=128, image_size=8,
            max_iterations_per_epoch=3, pretrain_iterations=2,
            bucket_cap_bytes=BUCKET_CAP, seed=cell_seed,
        )

    cells = [("w1/all-reduce", campaign_spec.CampaignCell(config(1), PAPER_METHODS["all-reduce"]))]
    for method in ("all-reduce", "topk-0.01", "pactrain"):
        cells.append((f"w4/{method}", campaign_spec.CampaignCell(config(4), PAPER_METHODS[method])))
    return cells


#: Ranks of the wide-world cluster.
WIDE_WORLD = 256
WIDE_ITERATIONS = 6


def wide_world_cells(seed: int):
    """The MLP at hundreds of ranks, batch 1 per rank, with straggler skew."""
    (cell_seed,) = _cell_seeds(seed, 1)
    # A fixed skew (1.0x to 1.5x in five steps) keeps modeled time seed-free.
    skew = [1.0 + 0.125 * ((rank * 7) % 5) for rank in range(WIDE_WORLD)]
    train_samples = WIDE_WORLD * WIDE_ITERATIONS
    config = ExperimentConfig(
        model="mlp",
        cluster=ClusterSpec(
            world_size=WIDE_WORLD, bandwidth=BANDWIDTH, overlap=True, straggler_factors=skew
        ),
        epochs=1, batch_size=1,
        # A small test split: evaluation runs at the training batch size of 1.
        dataset_samples=train_samples + train_samples // 16, test_fraction=0.05,
        image_size=8, max_iterations_per_epoch=WIDE_ITERATIONS, pretrain_iterations=2,
        bucket_cap_bytes=BUCKET_CAP, seed=cell_seed,
    )
    return [
        (f"w{WIDE_WORLD}/{method}", campaign_spec.CampaignCell(config, PAPER_METHODS[method]))
        for method in ("all-reduce", "topk-0.01", "pactrain")
    ]


def regimes_sweep_spec(seed: int) -> campaign_spec.CampaignSpec:
    """{sync, localsgd:4:delta, ps:2} x three codecs x four seeds on an 8-rank MLP."""
    return campaign_spec.CampaignSpec(
        name="regimes-sweep",
        base=dict(
            model="mlp", world_size=8, bandwidth=BANDWIDTH, overlap=True,
            epochs=2, batch_size=8, dataset_samples=256, image_size=8,
            max_iterations_per_epoch=3, pretrain_iterations=2,
            bucket_cap_bytes=BUCKET_CAP,
            # The stale-gradient parameter server diverges at the default 0.05.
            lr=0.01,
        ),
        axes={
            "sync_schedule": ["sync", "localsgd:4:delta", "ps:2"],
            "method": ["all-reduce", "topk-0.01", "topk0.01+terngrad"],
            "seed": _cell_seeds(seed, 4),
        },
    )


WORKLOADS = {
    "conv-sync": DirectWorkload("conv-sync", conv_sync_cells),
    "wide-world": DirectWorkload("wide-world", wide_world_cells),
    "regimes-sweep": CampaignWorkload("regimes-sweep", regimes_sweep_spec),
}
