"""Shared pieces of the three workloads: timing, percentiles, results."""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for spool files, load-generator schedules and traces.
OUT = ROOT / ".perfbench_out"
#: How many times each workload's set-up runs; ``setup_s`` is the median.
SETUP_REPEATS = 3


class CheckFailed(AssertionError):
    """A workload output disagrees with its independent reference."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``0 <= q <= 100``)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty list")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


#: chunks per block of the block-median p99 (ten lie beyond each p99).
P99_BLOCK = 1000


def block_p99(values: List[float]) -> Optional[float]:
    """Median over consecutive blocks of the blocks' 99th percentiles.

    ``values`` is cut, in the order the chunks ran, into as many equal
    blocks of at least :data:`P99_BLOCK` as fit. Each block's p99 has at
    least ten samples beyond it; the median over blocks keeps one host
    stall (a few dozen slow chunks in a row) from deciding the figure.
    ``None`` when fewer than :data:`P99_BLOCK` values exist.
    """
    blocks = len(values) // P99_BLOCK
    if blocks == 0:
        return None
    size = len(values) // blocks
    return statistics.median(
        percentile(values[i * size:(i + 1) * size], 99) for i in range(blocks)
    )


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Clock:
    """Wall and process-CPU time of several timed stretches (rounds)."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self._start: Optional[tuple] = None
        #: ``(start, end)`` of every timed stretch on the monotonic clock.
        self.windows: List[tuple] = []
        #: ``(samples, wall_s, cpu_s)`` of every timed stretch.
        self.rounds: List[tuple] = []

    def start(self) -> None:
        self._start = (time.perf_counter(), time.process_time())

    def stop(self, samples: int) -> None:
        wall0, cpu0 = self._start
        now = time.perf_counter()
        wall, cpu = now - wall0, time.process_time() - cpu0
        self.wall += wall
        self.cpu += cpu
        self.windows.append((wall0, now))
        self.rounds.append((samples, wall, cpu))
        self._start = None


@dataclass
class Measured:
    """What one timed phase of a workload produced."""

    #: ``(samples, wall_s, cpu_s)`` per timed round.
    rounds: List[tuple]
    chunk_ms: List[float]
    attempted: int
    failed: int
    #: peak RSS read at the end of the timed phase, before any check.
    rss_mb: float
    #: samples streamed in ``windows`` (timed phase plus warm-up).
    streamed: int = 0
    #: the last set-up and the timed stretches (traced spans are counted
    #: only inside these).
    windows: List[tuple] = field(default_factory=list)
    #: workload-specific per-layer counts read from the program's stats.
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def samples(self) -> int:
        return sum(r[0] for r in self.rounds)

    @property
    def cpu_s(self) -> float:
        return sum(r[2] for r in self.rounds)


def timed_setups(build: Callable[[], object], close: Callable[[object], None],
                 repeats: int = SETUP_REPEATS):
    """Run ``build`` ``repeats`` times; keep the last result.

    Returns ``(state, seconds, window)``: ``seconds`` holds each build's
    wall time and ``window`` the last build's ``(start, end)``. Earlier
    states are closed, so only one is live in the timed phase.
    """
    seconds = []
    state = None
    window = None
    for _ in range(repeats):
        if state is not None:
            close(state)
        t0 = time.perf_counter()
        state = build()
        t1 = time.perf_counter()
        seconds.append(t1 - t0)
        window = (t0, t1)
    return state, seconds, window


def end_to_end(measured: Measured, setup_seconds: List[float]) -> Dict[str, dict]:
    """The end-to-end metrics of one untraced run.

    Rates are medians over the run's rounds, so one round slowed by the
    host does not decide them.
    """
    chunk = measured.chunk_ms
    rounds = measured.rounds
    metrics = {
        "samples_per_s": (statistics.median(n / w for n, w, _ in rounds), "samples/s"),
        "chunk_p50_ms": (statistics.median(chunk), "ms"),
        "cpu_ms_per_ksample": (statistics.median(1e6 * c / n for n, _, c in rounds), "ms"),
        "setup_s": (statistics.median(setup_seconds), "s"),
        "peak_rss_mb": (measured.rss_mb, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def out_dir(name: str) -> Path:
    """A fresh per-process scratch directory under :data:`OUT`."""
    path = OUT / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
