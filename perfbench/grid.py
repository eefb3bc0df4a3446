"""``grid``: the paper's own workload, Tables 2 and 3 cell by cell.

The cells are those of ``python -m repro table2 --reduced`` (Quant Tree,
SPLL, the no-detection baseline, ONLAD, and the proposed method at
W=100/250/1000 on the NSL-KDD-like stream) and ``python -m repro table3``
(the proposed method at W=10/50/150 on the three cooling-fan scenarios).
They run one after another in this process, no worker pool.

Set-up synthesises every stream, builds and trains every cell's pipeline
and warms each pipeline kind up on a copy. A timed round copies every
trained pipeline and streams its test set through an engine session in
arrivals of :data:`CHUNK` samples — the same interceptor stack
``StreamPipeline.run`` uses, so records equal a plain run. One chunk is
one ``StreamSession.feed`` call. Rounds repeat until the run's seconds
are spent; the figures cover whole rounds only.
"""

from __future__ import annotations

import copy
import time
from typing import Dict, List

import numpy as np

from common import Clock, Measured, check, peak_rss_mb, timed_setups

#: samples per arrival: small enough that a run has over a thousand
#: chunks (so chunk p99 has ten samples beyond it), larger than the
#: pipelines' vectorised fast path needs to pay off.
CHUNK = 64
#: NSL-KDD-like sizing of ``table2 --reduced``.
NSL = {"n_train": 800, "n_test": 6000, "drift_at": 2000}
TINY_NSL = {"n_train": 300, "n_test": 1500, "drift_at": 500}
#: samples each pipeline kind streams in set-up before timing.
WARM = 4 * CHUNK
#: cells whose chunked records are compared with a per-sample run.
REFERENCE_CELLS = ("Quant Tree", "Proposed (W=250)", "Proposed (W=50) @ gradual")


def cell_specs(seed: int, tiny: bool) -> List:
    from repro.engine import ExperimentSpec

    nsl = TINY_NSL if tiny else NSL
    batch = 150 if tiny else 300
    table2 = {
        "Quant Tree": ("quanttree", {"batch_size": batch, "n_bins": 32}),
        "SPLL": ("spll", {"batch_size": batch}),
        "Baseline (no detection)": ("baseline", {}),
        "ONLAD": ("onlad", {"forgetting_factor": 0.90}),
        "Proposed (W=100)": ("proposed", {"window_size": 100}),
        "Proposed (W=250)": ("proposed", {"window_size": 250}),
        "Proposed (W=1000)": ("proposed", {"window_size": 1000}),
    }
    specs = [
        ExperimentSpec(
            name=name, pipeline=pipeline, dataset="nslkdd", seed=seed,
            pipeline_kwargs=kwargs, dataset_kwargs=dict(nsl),
        )
        for name, (pipeline, kwargs) in table2.items()
    ]
    fan = {"n_test": 300, "gradual_end": 260} if tiny else {}
    for window in (10, 50, 150):
        for scenario in ("sudden", "gradual", "reoccurring"):
            specs.append(ExperimentSpec(
                name=f"Proposed (W={window}) @ {scenario}", pipeline="proposed",
                dataset="coolingfan", seed=seed,
                pipeline_kwargs={"window_size": window},
                dataset_kwargs={"scenario": scenario, **fan},
            ))
    return specs


def _stream(pipeline, X: np.ndarray, y: np.ndarray, chunk_ms: List[float] | None):
    """Feed ``X``/``y`` to a session over ``pipeline`` in CHUNK arrivals."""
    from repro.engine import StreamSession, default_stack

    session = StreamSession(
        pipeline, default_stack(pipeline, pipeline.default_chunk_size)
    ).open()
    clock = time.perf_counter
    for start in range(0, len(X), CHUNK):
        t0 = clock()
        session.feed(X[start:start + CHUNK], y[start:start + CHUNK])
        if chunk_ms is not None:
            chunk_ms.append(1000.0 * (clock() - t0))
    return session.close()


def _setup(seed: int, tiny: bool) -> list:
    from repro.engine import build_experiment

    experiments = [build_experiment(spec) for spec in cell_specs(seed, tiny)]
    warmed = set()
    for ex in experiments:
        kind = type(ex.pipeline)
        if kind not in warmed:
            warmed.add(kind)
            _stream(copy.deepcopy(ex.pipeline), ex.test.X[:WARM], ex.test.y[:WARM], None)
    return experiments


def measure(seed: int, seconds: float, tiny: bool, setups: int) -> tuple:
    experiments, setup_seconds, setup_window = timed_setups(
        lambda: _setup(seed, tiny), lambda _: None, setups
    )
    clock = Clock()
    chunk_ms: List[float] = []
    first: Dict[str, list] = {}
    rounds = 0
    while rounds == 0 or clock.wall < seconds:
        clock.start()
        records = []
        for ex in experiments:
            pipeline = copy.deepcopy(ex.pipeline)
            records.append(_stream(pipeline, ex.test.X, ex.test.y, chunk_ms))
        clock.stop(sum(len(ex.test) for ex in experiments))
        # Every round must repeat the first one exactly (checked untimed).
        for ex, recs in zip(experiments, records):
            if rounds == 0:
                first[ex.spec.name] = recs
            else:
                check(recs == first[ex.spec.name],
                      f"{ex.spec.name}: round {rounds} differs from round 0")
        rounds += 1
    measured = Measured(
        rounds=clock.rounds, chunk_ms=chunk_ms,
        attempted=len(chunk_ms), failed=0, rss_mb=peak_rss_mb(),
        windows=[setup_window] + clock.windows,
        streamed=sum(r[0] for r in clock.rounds)
        + WARM * len({type(ex.pipeline) for ex in experiments}),
    )
    return measured, setup_seconds, (experiments, first)


def verify(outputs, seed: int, tiny: bool) -> None:
    """Checks made apart from the streamed path, outside the timed phase."""
    from repro.metrics import overall_accuracy

    experiments, first = outputs
    acc = {}
    detections = {}
    for ex in experiments:
        name = ex.spec.name
        recs = first[name]
        y = np.asarray(ex.test.y)
        check(len(recs) == len(y), f"{name}: {len(recs)} records for {len(y)} samples")
        check([r.index for r in recs] == list(range(len(y))),
              f"{name}: records out of order")
        predicted = np.array([r.predicted for r in recs])
        check(all(r.true_label == int(t) for r, t in zip(recs, y)),
              f"{name}: record labels differ from the stream")
        check(all(r.correct == bool(p == t) for r, p, t in zip(recs, predicted, y)),
              f"{name}: record 'correct' flags disagree with the labels")
        acc[name] = float(np.mean(predicted == y))
        check(abs(acc[name] - overall_accuracy(recs)) < 1e-12,
              f"{name}: recounted accuracy {acc[name]} != {overall_accuracy(recs)}")
        detections[name] = [r.index for r in recs if r.drift_detected]
        if name in REFERENCE_CELLS:
            reference = copy.deepcopy(ex.pipeline).run(ex.test, chunk_size=1)
            check(reference == recs, f"{name}: chunked records != per-sample run")
            check(
                np.array([r.anomaly_score for r in reference]).tobytes()
                == np.array([r.anomaly_score for r in recs]).tobytes(),
                f"{name}: anomaly scores differ from the per-sample run",
            )
    # Table 2's shape. Quant Tree and SPLL test fixed-size batches against
    # a reference window and have a false-alarm rate: on 10 of seeds 0-59
    # one of them also fired before the drift, so for them only the
    # detection of the drift itself is required.
    drift_at = (TINY_NSL if tiny else NSL)["drift_at"]
    proposed = ("Proposed (W=100)", "Proposed (W=250)", "Proposed (W=1000)")
    for name in ("Quant Tree", "SPLL") + proposed:
        check(any(i >= drift_at for i in detections[name]),
              f"{name}: no detection after the drift point {drift_at}")
    for name in proposed:
        check(detections[name][0] >= drift_at,
              f"{name}: first detection {detections[name][0]} before the drift point")
    check(not detections["Baseline (no detection)"], "baseline raised a detection")
    # The proposed method must beat the frozen baseline where the drift
    # costs the baseline accuracy. On seeds where the drift barely moves
    # the baseline (29 and 44 of 0-59 lose 1.5 points or less) rebuilding
    # the model from post-drift samples can cost a little, so there it
    # must stay within one point.
    base = acc["Baseline (no detection)"]
    correct = np.asarray(
        [r.correct for r in first["Baseline (no detection)"]], dtype=float
    )
    cost = correct[:drift_at].mean() - correct[drift_at:].mean()
    best = max(acc[name] for name in proposed)
    if cost > 0.02:
        check(best > base, f"proposed {best:.3f} does not beat the baseline {base:.3f} "
              f"although the drift cost the baseline {cost:.3f}")
    else:
        check(best >= base - 0.01, f"proposed {best:.3f} falls more than a point "
              f"below the baseline {base:.3f}")
