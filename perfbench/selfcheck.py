"""Self-check of the span stack and the layer wrappers.

Run it directly (``python3 perfbench/selfcheck.py``; exit code 0 when every
check passes).  ``run.py --trace 1`` runs it before every traced run and
counts any problem as a failed check.

Attribution is checked on a fake clock, so the expected self times are exact:
a compression span that calls two collectives keeps only its own time, the
collectives keep theirs, a recursive call of one layer is charged once, and
the self times add up to the wall time of the outermost span.  Installation is
checked on the real layer map: every target is wrapped, and restoring puts
every original object back.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path
from typing import List

import spans


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _attribution_problems() -> List[str]:
    clock = FakeClock()
    stack = spans.SpanStack(clock)
    fake = types.ModuleType("repro.selfcheck_fake")

    def collective():
        clock.advance(2.0)

    def aggregate(depth=0):
        clock.advance(1.0)
        fake.collective()
        clock.advance(0.5)
        fake.collective()
        if depth == 0:
            fake.aggregate(depth=1)  # same layer nested in itself

    def experiment():
        clock.advance(0.25)
        fake.aggregate()
        try:
            fake.failing()
        except ValueError:
            pass
        clock.advance(0.25)

    def failing():
        clock.advance(3.0)
        raise ValueError("raised inside a span")

    for function in (collective, aggregate, experiment, failing):
        setattr(fake, function.__name__, function)
    owner = fake.__name__
    layers = (
        spans.Layer("comm.collective_s", ((owner, "collective"),), "comm.calls", ""),
        spans.Layer("compression.aggregate_s", ((owner, "aggregate"),), "compression.calls", ""),
        spans.Layer("simulation.driver_s", ((owner, "experiment"),), None, ""),
        spans.Layer("data.busy_s", ((owner, "failing"),), None, ""),
    )
    sys.modules[fake.__name__] = fake
    try:
        with spans.install(stack, layers):
            fake.experiment()
    finally:
        del sys.modules[fake.__name__]

    expected_self = {
        "comm.collective_s": 8.0,
        "compression.aggregate_s": 3.0,
        "simulation.driver_s": 0.5,
        "data.busy_s": 3.0,
    }
    problems = []
    if dict(stack.self_time) != expected_self:
        problems.append(f"self times {dict(stack.self_time)} != {expected_self}")
    if dict(stack.counts) != {"comm.calls": 4, "compression.calls": 2}:
        problems.append(f"call counts {dict(stack.counts)} != 4 collectives, 2 aggregates")
    if stack.root_time != 14.5 or sum(stack.self_time.values()) != stack.root_time:
        problems.append(f"self times sum to {sum(stack.self_time.values())}, root span {stack.root_time}")
    if stack.depth != 0:
        problems.append(f"{stack.depth} spans left open")
    if fake.experiment is not experiment:
        problems.append("restore left a wrapper in place")
    return problems


def _installation_problems() -> List[str]:
    # Import every package the layer map names, so all bindings are loaded.
    import repro.campaign  # noqa: F401, PLC0415
    import repro.simulation  # noqa: F401, PLC0415

    targets = [(owner, attr) for layer in spans.LAYERS for owner, attr in layer.targets]
    originals = [getattr(spans.resolve(owner), attr) for owner, attr in targets]
    problems = []
    with spans.install(spans.SpanStack()):
        for (owner, attr), original in zip(targets, originals):
            if getattr(getattr(spans.resolve(owner), attr), "__wrapped__", None) is not original:
                problems.append(f"{owner}.{attr} was not wrapped")
    for (owner, attr), original in zip(targets, originals):
        if getattr(spans.resolve(owner), attr) is not original:
            problems.append(f"{owner}.{attr} was not restored")
    return problems


def problems() -> List[str]:
    return _attribution_problems() + _installation_problems()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    found = problems()
    for problem in found:
        print(f"FAILED: {problem}")
    print("span stack self-check:", "failed" if found else "ok")
    sys.exit(1 if found else 0)
