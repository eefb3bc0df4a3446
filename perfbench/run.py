"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload churn --seed 1 --repeat 5

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (each ``{"value", "unit"}``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload once untraced, then once more with every entry point listed in
``spans.py`` wrapped, and reports the per-layer metrics of the traced
run plus the tracing overhead. ``--repeat N`` runs N seeds one after
another in child processes and prints each metric's median and
quartiles. ``--tiny`` shrinks every workload for a smoke test.

The process pins OpenBLAS to one thread and fixes ``PYTHONHASHSEED``
(re-executing itself once to do so) before numpy is imported.
"""

from __future__ import annotations

import os
import sys

_PINNED = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in _PINNED.items()):
    script = os.path.abspath(__file__)
    os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]],
              {**os.environ, **_PINNED})

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

from common import (  # noqa: E402
    OUT, ROOT, SETUP_REPEATS, CheckFailed, block_p99, end_to_end, percentile,
)

WORKLOADS = ("grid", "churn", "serve")

#: per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "datasets.synth_s": "s",
    "engine.build_calls": "count",
    "engine.build_s": "s",
    "engine.feed_s": "s",
    "engine.feed_ms_p99": "ms",
    "core.per_sample_share": "ratio",
    "core.detector_s": "s",
    "core.reconstruct_s": "s",
    "oselm.score_s": "s",
    "oselm.train_s": "s",
    "detectors.fit_s": "s",
    "detectors.update_s": "s",
    "fleet.submit_s": "s",
    "fleet.submit_ms_p99": "ms",
    "fleet.evictions": "count",
    "fleet.restores": "count",
    "fleet.evict_s": "s",
    "fleet.restore_s": "s",
    "fleet.batched_share": "ratio",
    "fleet.batch_group_size_mean": "count",
    "resilience.encode_s": "s",
    "resilience.decode_s": "s",
    "resilience.save_s": "s",
    "resilience.load_s": "s",
    "resilience.spool_bytes_per_eviction": "bytes",
    "serving.chunk_ms_p99": "ms",
    "serving.request_ms_p50": "ms",
    "serving.offer_s": "s",
    "serving.windows": "count",
    "serving.window_chunks_mean": "count",
    "serving.dispatch_s": "s",
    "serving.lane_wait_ms_p50": "ms",
    "serving.generator_lag_ms_p99": "ms",
    "trace.overhead_pct": "%",
}

#: the layer call that is one chunk of each workload, whose untraced
#: latency p99 the traced run reports.
CHUNK_P99 = {"grid": "engine.feed_ms_p99", "churn": "fleet.submit_ms_p99",
             "serve": "serving.chunk_ms_p99"}

#: per-layer self times read straight off the span summary.
SELF_TIMES = {
    "datasets.synth_s": "datasets.synth",
    "engine.build_s": "engine.build",
    "engine.feed_s": "engine.feed",
    "core.detector_s": "core.detector",
    "core.reconstruct_s": "core.reconstruct",
    "oselm.score_s": "oselm.score",
    "oselm.train_s": "oselm.train",
    "detectors.fit_s": "detectors.fit",
    "detectors.update_s": "detectors.update",
    "fleet.submit_s": "fleet.submit",
    "resilience.encode_s": "resilience.encode",
    "resilience.decode_s": "resilience.decode",
    "resilience.save_s": "resilience.save",
    "resilience.load_s": "resilience.load",
    "serving.offer_s": "serving.offer",
    "serving.dispatch_s": "serving.dispatch",
}


def _workload(name: str):
    if name == "grid":
        import grid as module
    elif name == "churn":
        import churn as module
    else:
        import serve as module
    return module


class _Counts:
    """Tracer hooks for the counts that need a call's arguments."""

    def __init__(self) -> None:
        self.group_sizes = []  # (start, devices in one batched GEMM)
        self.spool_bytes = []  # (start, bytes written by one spool save)
        self.windows = []  # (start, chunks handed to one submit_many)
        self.lane_waits = []  # (start, seconds a chunk waited in its lane)
        self._offered = {}
        self._dispatched = {}

    def install(self, tracer) -> None:
        tracer.hooks["fleet.batch_prime"] = self._prime
        tracer.hooks["resilience.save"] = self._save
        tracer.hooks["serving.offer"] = self._offer
        tracer.hooks["serving.dispatch"] = self._dispatch

    def _prime(self, span, args, kwargs, result) -> None:
        self.group_sizes.append((span[1], args[0].n_devices))

    def _save(self, span, args, kwargs, result) -> None:
        self.spool_bytes.append((span[1], os.path.getsize(args[0])))

    def _offer(self, span, args, kwargs, result) -> None:
        if result.admitted:
            self._offered[(str(args[1]), int(args[2]))] = span[2]

    def _dispatch(self, span, args, kwargs, result) -> None:
        batch = args[1]
        self.windows.append((span[1], len(batch)))
        for device, _, _ in batch:
            seq = self._dispatched.get(device, 0)
            self._dispatched[device] = seq + 1
            arrived = self._offered.pop((device, seq), None)
            if arrived is not None:
                self.lane_waits.append((span[1], span[1] - arrived))


def _per_layer(tracer, counts: _Counts, measured, overhead_pct: float,
               chunk_p99: tuple) -> dict:
    from spans import within

    def inside(pairs):
        return [v for t, v in pairs if within(t, measured.windows)]

    summary = tracer.summary(measured.windows)
    values = {name: summary.get(span, {}).get("self_s", 0.0)
              for name, span in SELF_TIMES.items()}
    values["engine.build_calls"] = summary.get("engine.build", {}).get("calls", 0)
    values["core.per_sample_share"] = (
        summary.get("core.process_one", {}).get("calls", 0) / max(1, measured.streamed)
    )
    groups = inside(counts.group_sizes)
    values["fleet.batch_group_size_mean"] = statistics.mean(groups) if groups else 0.0
    spool = inside(counts.spool_bytes)
    values["resilience.spool_bytes_per_eviction"] = statistics.mean(spool) if spool else 0.0
    windows = inside(counts.windows)
    values["serving.windows"] = len(windows)
    values["serving.window_chunks_mean"] = statistics.mean(windows) if windows else 0.0
    waits = inside(counts.lane_waits)
    values["serving.lane_wait_ms_p50"] = 1000.0 * percentile(waits, 50) if waits else 0.0
    values["trace.overhead_pct"] = overhead_pct
    name, p99 = chunk_p99
    values[name] = p99 or 0.0
    for name in PER_LAYER:
        values.setdefault(name, measured.layer.get(name, 0.0))
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER.items()}


def run_once(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the package source {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.telemetry import get_telemetry

    if get_telemetry().enabled:
        print("error: telemetry must be off for benchmark runs", file=sys.stderr)
        return 2
    module = _workload(args.workload)
    try:
        measured, setup_seconds, outputs = module.measure(
            args.seed, args.seconds, args.tiny, SETUP_REPEATS
        )
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    correct = True
    try:
        module.verify(outputs, args.seed, args.tiny)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    del outputs
    metrics = end_to_end(measured, setup_seconds)
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        counts = _Counts()
        counts.install(tracer)
        tracer.install()
        try:
            traced, _, _ = module.measure(args.seed, args.seconds, args.tiny, 1)
        finally:
            tracer.uninstall()
        overhead = 100.0 * (
            (traced.cpu_s / traced.samples) / (measured.cpu_s / measured.samples) - 1.0
        )
        chunk_p99 = (CHUNK_P99[args.workload], block_p99(measured.chunk_ms))
        metrics = _per_layer(tracer, counts, traced, overhead, chunk_p99)
        path = tracer.write(OUT / f"trace-{args.workload}-{args.seed}.npz")
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": measured.attempted,
                      "failed": measured.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_repeated(args) -> int:
    """Run ``--repeat`` seeds in turn; print medians and quartiles."""
    results = []
    for seed in range(args.seed, args.seed + args.repeat):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        results.append(json.loads(lines[-1]))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()))
    summary = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "unit": metric["unit"]}
        print(f"{args.workload} {name}: median {median:.6g} {metric['unit']}  "
              f"q1 {q1:.6g}  q3 {q3:.6g}  spread {100 * spread:.2f}%")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
        "metrics": summary,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many seeds (from --seed) and summarise")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a few seconds (smoke test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.repeat:
        return run_repeated(args)
    try:
        return run_once(args)
    except Exception:  # noqa: BLE001 — report and fail without a result line
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
