"""``serve``: an HTTP open loop at a fixed offered rate.

The server process (this one) runs a :class:`repro.serving.ServingStack`
— asyncio HTTP front-end, ingest core with its dispatcher thread, and a
batch-scored :class:`~repro.fleet.FleetManager` with room for every
device, so nothing is ever evicted. A separate load-generator process
(``loadgen.py``: one thread, at most two connections) sends each chunk
at its due time from a seeded schedule.

The schedule is built from *rounds*. A round is :data:`SWEEPS` sweeps
over the devices, each in a fresh shuffled order, each device sending
its next two chunks in adjacent slots — for :data:`REORDER_SHARE` of the
pairs the second chunk goes first, so the ingest core must stash it
until the gap fills — followed by two requests with a malformed
``Content-Length`` (one not a number, one negative) on short connections
of their own, between chunk slots. Chunk slots are ``CHUNK / RATE``
seconds apart. A run sends as many whole rounds as fit in its seconds,
so the malformed requests are the same share of every run.

Set-up (timed, repeated) synthesises the streams, encodes every request,
builds and starts the stack, warms every device up with its first
:data:`WARM` chunks offered directly to the ingest core, and starts the
generator. A chunk's latency runs from its due time until its records
are ready.
"""

from __future__ import annotations

import json
import pickle
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

import numpy as np

from common import Clock, Measured, check, out_dir, peak_rss_mb, percentile, timed_setups

DEVICES = 64
CHUNK = 16
#: offered load in samples per second, about half the rate at which the
#: backlog starts to grow on the reference host (see README).
RATE = 6000.0
#: chunks per device offered straight to the ingest core in set-up: a
#: device's first chunks build its pipeline and are far slower.
WARM = 4
#: device sweeps per round; each round also sends the malformed requests.
SWEEPS = 4
#: share of a device's chunk pairs sent second chunk first.
REORDER_SHARE = 0.04
#: devices compared with a standalone run after the timed phase.
SAMPLED = 3
#: requests whose Content-Length the server cannot parse.
BAD_LENGTHS = ("abc", "-5")


def _sizes(tiny: bool) -> tuple:
    return (8, 16, 1500.0) if tiny else (DEVICES, CHUNK, RATE)


def _plan(seed: int, seconds: float, tiny: bool) -> dict:
    """Streams and the timed schedule: a pure function of its arguments."""
    n_devices, chunk, rate = _sizes(tiny)
    samples_per_round = 2 * SWEEPS * n_devices * chunk
    rounds = max(1, int(seconds * rate // samples_per_round))
    n_test = chunk * (WARM + 2 * SWEEPS * rounds)
    from repro.engine import resolve_dataset
    from repro.fleet import make_fleet_specs

    # Stationary devices: with the fleet's correlated drift a quarter of
    # the devices reconstruct at once, and how far that burst backed up
    # the queue varied tenfold between seeds (p99 28-390 ms at 4000
    # samples/s). Drift and reconstruction are measured by grid and churn.
    specs = make_fleet_specs(n_devices, seed=seed, n_test=n_test, drift_fraction=0.0)
    devices = list(specs)
    data = {}
    for device, spec in specs.items():
        _, test = resolve_dataset(spec.dataset)(seed=spec.seed, **spec.dataset_kwargs)
        data[device] = (np.asarray(test.X), np.asarray(test.y))
    rng = np.random.default_rng([seed, 0x5E])
    slot = chunk / rate
    ops = []
    t = 0.0
    for sweep in range(SWEEPS * rounds):
        for i in rng.permutation(n_devices):
            seqs = [WARM + 2 * sweep, WARM + 2 * sweep + 1]
            if rng.random() < REORDER_SHARE:
                seqs.reverse()
            for seq in seqs:
                ops.append((t, "chunk", devices[int(i)], seq))
                t += slot
        if (sweep + 1) % SWEEPS == 0:
            ops.extend((t - slot * (k + 0.5) / len(BAD_LENGTHS), "bad", None, length)
                       for k, length in enumerate(BAD_LENGTHS))
    ops.sort(key=lambda op: op[0])
    return {"specs": specs, "data": data, "ops": ops, "rounds": rounds,
            "chunk": chunk, "n_test": n_test}


def _request(device: str, seq: int, X: np.ndarray, y: np.ndarray) -> bytes:
    body = json.dumps({"seq": seq, "X": X.tolist(), "y": y.tolist()}).encode()
    head = (f"POST /v1/devices/{device}/chunks HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
    return head.encode("latin-1") + body


def _bad_request(length: str) -> bytes:
    return (f"POST /v1/devices/dev0000/chunks HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {length}\r\nConnection: close\r\n\r\n").encode("latin-1")


class _Stack:
    """Set-up state: a warmed serving stack plus a waiting generator."""

    def __init__(self, seed: int, seconds: float, tiny: bool, root: Path) -> None:
        from repro.serving import ServingStack

        plan = _plan(seed, seconds, tiny)
        chunk = plan["chunk"]
        ops = []
        for offset, kind, device, seq in plan["ops"]:
            if kind == "chunk":
                X, y = plan["data"][device]
                lo = seq * chunk
                ops.append((offset, kind, device, seq,
                            _request(device, seq, X[lo:lo + chunk], y[lo:lo + chunk])))
            else:
                ops.append((offset, kind, None, seq, _bad_request(seq)))
        self.plan = plan
        self.stack = ServingStack(capacity=len(plan["specs"]), batch_scoring=True)
        for device, spec in plan["specs"].items():
            self.stack.register(device, spec)
        self.stack.start()
        core = self.stack.core
        for seq in range(WARM):
            for device, (X, y) in plan["data"].items():
                lo = seq * chunk
                offer = core.offer(device, seq, X[lo:lo + chunk], y[lo:lo + chunk])
                check(offer.admitted, f"warm-up chunk {device}/{seq}: {offer.status}")
        check(core.drain(timeout=60.0), "warm-up did not drain")
        for device in plan["specs"]:
            core.results(device)
        self.schedule = root / "schedule.pickle"
        self.results = root / "results.json"
        with open(self.schedule, "wb") as fh:
            pickle.dump({"host": self.stack.server.host, "port": self.stack.port,
                         "ops": ops}, fh)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("loadgen.py")),
             str(self.schedule), str(self.results)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        check(self.proc.stdout.readline().strip() == "ready", "load generator failed")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.stack.close()


def measure(seed: int, seconds: float, tiny: bool, setups: int) -> tuple:
    from repro.serving.ingest import IngestCore

    root = out_dir("serve")
    stamps: Dict[int, float] = {}
    offer = IngestCore.offer

    def stamped(core, device_id, seq, Xc, yc):
        t = time.monotonic()
        result = offer(core, device_id, seq, Xc, yc)
        if result.ticket is not None:
            stamps[result.ticket] = t
        return result

    IngestCore.offer = stamped
    state = None
    try:
        state, setup_seconds, setup_window = timed_setups(
            lambda: _Stack(seed, seconds, tiny, root), _Stack.close, setups
        )
        measured, outputs = _timed(state, stamps)
        measured.windows.insert(0, setup_window)
        records = state.stack.finish_all()
        return measured, setup_seconds, (state.plan, outputs, records)
    finally:
        IngestCore.offer = offer
        if state is not None:
            state.close()
        shutil.rmtree(root, ignore_errors=True)


def _timed(state: _Stack, stamps: Dict[int, float]) -> tuple:
    core = state.stack.core
    manager = state.stack.manager
    stats = manager.stats
    before = (stats.batched_samples, stats.fallback_samples, stats.evictions)
    t0 = time.monotonic() + 0.05
    state.proc.stdin.write(f"{t0!r}\n")
    state.proc.stdin.flush()
    time.sleep(max(0.0, t0 - time.monotonic()))
    clock = Clock()
    clock.start()
    code = state.proc.wait(timeout=120.0)
    drained = core.drain(timeout=30.0)
    clock.stop(0)
    pending = core.pending()
    check(code == 0, f"load generator exited with {code}")
    check(drained, "backlog still dispatching 30 s after the last request")
    with open(state.results) as fh:
        rows = json.load(fh)
    completions = {}
    for device in state.plan["specs"]:
        for result in core.results(device):
            check(result.ticket not in completions,
                  f"ticket {result.ticket} completed twice")
            completions[result.ticket] = result
    chunk_ms, request_ms, lag_ms = [], [], []
    failed = 0
    last = t0
    samples = 0
    for kind, device, seq, due, sent, replied, status, ticket in rows:
        lag_ms.append(1000.0 * (sent - due))
        if kind == "bad":
            failed += not (status is not None and 400 <= status < 500)
            continue
        request_ms.append(1000.0 * (replied - sent))
        if status != 202:
            failed += 1
            continue
        result = completions.pop(ticket, None)
        check(result is not None, f"admitted chunk {device}/{seq} never completed")
        check(result.error is None and result.records == result.samples,
              f"chunk {device}/{seq}: error={result.error} records={result.records}")
        done = stamps[ticket] + result.latency_seconds
        chunk_ms.append(1000.0 * (done - due))
        last = max(last, done)
        samples += result.samples
    check(not completions, f"{len(completions)} completions for chunks never sent")
    check(pending["ready"] == pending["stashed"] == pending["inflight"] == 0,
          f"backlog left after the timed phase: {pending}")
    batched = stats.batched_samples - before[0]
    fallback = stats.fallback_samples - before[1]
    layer = {
        "fleet.evictions": stats.evictions - before[2],
        "fleet.batched_share": batched / max(1, batched + fallback),
        "serving.request_ms_p50": percentile(request_ms, 50),
        "serving.generator_lag_ms_p99": percentile(lag_ms, 99),
    }
    measured = Measured(
        rounds=[(samples, last - t0, clock.cpu)], chunk_ms=chunk_ms,
        attempted=len(rows), failed=failed, rss_mb=peak_rss_mb(),
        windows=list(clock.windows), layer=layer,
        streamed=samples + WARM * state.plan["chunk"] * len(state.plan["specs"]),
    )
    return measured, rows


def verify(outputs, seed: int, tiny: bool) -> None:
    from repro.engine import build_experiment

    plan, rows, records = outputs
    n_test = plan["n_test"]
    for device, recs in records.items():
        check([r.index for r in recs] == list(range(n_test)),
              f"{device}: {len(recs)} records, expected {n_test}")
    sent = [(row[1], row[2]) for row in rows if row[0] == "chunk"]
    check(len(set(sent)) == len(sent), "a chunk was scheduled twice")
    reordered = sum(1 for a, b in zip(sent, sent[1:]) if a[0] == b[0] and a[1] > b[1])
    check(reordered > 0 or len(sent) < 200, "no chunk was sent out of order")
    devices = list(plan["specs"])
    rng = np.random.default_rng([seed, 0x5A])
    for i in rng.choice(len(devices), size=min(SAMPLED, len(devices)), replace=False):
        device = devices[int(i)]
        solo = build_experiment(plan["specs"][device]).run()
        check(solo == records[device], f"{device}: served records != standalone run")
        check(
            np.array([r.anomaly_score for r in solo]).tobytes()
            == np.array([r.anomaly_score for r in records[device]]).tobytes(),
            f"{device}: anomaly scores differ from the standalone run",
        )
