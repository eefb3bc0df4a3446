"""``churn``: many more devices than resident slots, driven chunk by chunk.

:data:`DEVICES` devices share a :class:`repro.fleet.FleetManager` with
room for :data:`CAPACITY` sessions. The benchmark calls
``FleetManager.submit`` itself, one chunk per call, visiting every device
once per sweep in a freshly shuffled (seeded) order. With four times
more devices than slots nearly every visit evicts the coldest session to
its spool checkpoint and restores the visited one — late in its stream,
since every device is visited :data:`VISITS` times. This is where the
``resilience`` codecs and ``engine.build_experiment`` on restore do
their work.

A *round* is one fleet's life: a new manager, every device registered
and warmed up with its first chunk (untimed), then the remaining
``VISITS - 1`` sweeps (timed), then ``finish_all`` (untimed). Every
round replays the same schedule, so each round costs the same whatever
the run length. The first round's warm-up is the measured set-up.
"""

from __future__ import annotations

import shutil
import time
from collections import OrderedDict
from typing import Dict, List

import numpy as np

from common import Clock, Measured, check, out_dir, peak_rss_mb, timed_setups

DEVICES = 16
CAPACITY = 4
CHUNK = 32
VISITS = 32
#: devices compared byte for byte with a standalone per-sample run.
SAMPLED = 3


def _sizes(tiny: bool) -> tuple:
    return (8, 2, 16, 6) if tiny else (DEVICES, CAPACITY, CHUNK, VISITS)


def _schedule(n_devices: int, visits: int, seed: int) -> List[int]:
    """Device index of every submit after warm-up, sweep by sweep."""
    rng = np.random.default_rng([seed, 0xC4])
    return [int(i) for _ in range(visits - 1) for i in rng.permutation(n_devices)]


def _streams(seed: int, tiny: bool) -> tuple:
    from repro.engine import resolve_dataset
    from repro.fleet import make_fleet_specs

    n_devices, _, chunk, visits = _sizes(tiny)
    # Stationary devices: a drifting device's reconstruction makes a few
    # of its chunks several times slower, and which seeds drift when
    # decided the tail (the run's chunk p99 spread 32% over ten seeds).
    # Drift and reconstruction are measured by grid.
    specs = make_fleet_specs(n_devices, seed=seed, n_test=chunk * visits,
                             drift_fraction=0.0)
    data = {}
    for device, spec in specs.items():
        _, test = resolve_dataset(spec.dataset)(seed=spec.seed, **spec.dataset_kwargs)
        data[device] = (np.asarray(test.X), np.asarray(test.y))
    return specs, data


class _Fleet:
    """One round's manager, registered and warmed up."""

    def __init__(self, specs: Dict, data: Dict, tiny: bool, spool) -> None:
        from repro.fleet import FleetManager

        _, capacity, chunk, _ = _sizes(tiny)
        self.spool = spool
        self.manager = FleetManager(capacity=capacity, spool_dir=spool)
        for device, spec in specs.items():
            self.manager.add_device(device, spec)
        for device, (X, y) in data.items():
            self.manager.submit(device, X[:chunk], y[:chunk])

    def close(self) -> None:
        self.manager.close()
        shutil.rmtree(self.spool, ignore_errors=True)


def measure(seed: int, seconds: float, tiny: bool, setups: int) -> tuple:
    n_devices, _, chunk, visits = _sizes(tiny)
    root = out_dir("churn")
    counter = iter(range(1 << 30))

    def new_fleet(specs, data):
        return _Fleet(specs, data, tiny, root / f"spool{next(counter)}")

    def setup():
        specs, data = _streams(seed, tiny)
        return specs, data, new_fleet(specs, data)

    (specs, data, fleet), setup_seconds, setup_window = timed_setups(
        setup, lambda state: state[2].close(), setups
    )
    devices = list(specs)
    schedule = _schedule(n_devices, visits, seed)
    clock = Clock()
    chunk_ms: List[float] = []
    layer = {"fleet.evictions": 0, "fleet.restores": 0, "fleet.evict_s": 0.0,
             "fleet.restore_s": 0.0}
    rounds = []
    try:
        while not rounds or clock.wall < seconds:
            if rounds:
                fleet = new_fleet(specs, data)
            submit = fleet.manager.submit
            stats = fleet.manager.stats
            before = (stats.evictions, stats.restores, stats.evict_seconds,
                      stats.restore_seconds)
            cursor = [chunk] * n_devices
            perf = time.perf_counter
            clock.start()
            for i in schedule:
                start = cursor[i]
                cursor[i] = start + chunk
                X, y = data[devices[i]]
                t0 = perf()
                submit(devices[i], X[start:start + chunk], y[start:start + chunk])
                chunk_ms.append(1000.0 * (perf() - t0))
            clock.stop(len(schedule) * chunk)
            layer["fleet.evictions"] += stats.evictions - before[0]
            layer["fleet.restores"] += stats.restores - before[1]
            layer["fleet.evict_s"] += stats.evict_seconds - before[2]
            layer["fleet.restore_s"] += stats.restore_seconds - before[3]
            counts = (stats.builds, stats.evictions, stats.restores)
            records = fleet.manager.finish_all()
            if not rounds:
                kept = (counts, records)
            fleet.close()
            rounds.append(counts)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    samples = len(schedule) * chunk * len(rounds)
    measured = Measured(
        rounds=clock.rounds, chunk_ms=chunk_ms,
        attempted=len(chunk_ms), failed=0, rss_mb=peak_rss_mb(),
        windows=[setup_window] + clock.windows,
        streamed=samples + n_devices * chunk, layer=layer,
    )
    return measured, setup_seconds, (specs, data, schedule, rounds, kept)


def _simulate_lru(n_devices: int, capacity: int, schedule: List[int]) -> tuple:
    """``(evictions, restores)`` an LRU of ``capacity`` sessions must make."""
    resident: OrderedDict = OrderedDict()
    seen = set()
    evictions = restores = 0
    for i in list(range(n_devices)) + schedule:
        if i in resident:
            resident.move_to_end(i)
            continue
        if len(resident) >= capacity:
            resident.popitem(last=False)
            evictions += 1
        if i in seen:
            restores += 1
        seen.add(i)
        resident[i] = True
    return evictions, restores


def verify(outputs, seed: int, tiny: bool) -> None:
    from repro.engine import build_experiment

    specs, data, schedule, rounds, kept = outputs
    n_devices, capacity, chunk, visits = _sizes(tiny)
    evictions, restores = _simulate_lru(n_devices, capacity, schedule)
    for counts in rounds:
        check(counts == (n_devices, evictions, restores),
              f"fleet (builds, evictions, restores) {counts} != simulated LRU "
              f"{(n_devices, evictions, restores)}")
    _, records = kept
    for device, (X, y) in data.items():
        recs = records[device]
        check([r.index for r in recs] == list(range(len(X))),
              f"{device}: {len(recs)} records, expected one per sample")
        check(all(r.true_label == int(t) for r, t in zip(recs, y)),
              f"{device}: record labels differ from the stream")
    rng = np.random.default_rng([seed, 0x5A])
    for i in rng.choice(n_devices, size=min(SAMPLED, n_devices), replace=False):
        device = list(specs)[int(i)]
        solo = build_experiment(specs[device]).run(chunk_size=1)
        recs = records[device]
        check(solo == recs, f"{device}: fleet records != standalone per-sample run")
        check(
            np.array([r.anomaly_score for r in solo]).tobytes()
            == np.array([r.anomaly_score for r in recs]).tobytes(),
            f"{device}: anomaly scores differ from the standalone run",
        )
