"""In-memory span tracing around the package's public entry points.

The traced run patches a fixed list of public functions and methods
(:func:`boundaries`) with wrappers that record one span per call: a name,
start, end, parent span and thread. Spans stay in memory until the run
ends; :meth:`Tracer.write` then stores them as one compressed ``.npz``.
A layer's figure is its *self time*: a span's duration minus the part
its child spans cover (children always nest inside their parent on the
same thread).

Nothing here is imported or patched by an untraced run.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np


def boundaries() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped entry point.

    The span name's prefix is the layer (module of :mod:`repro`) the
    call belongs to. Lazy imports inside the package (``FleetManager``
    importing ``build_experiment`` and the resilience codecs at call
    time) resolve through the patched module attributes.
    """
    import repro.engine as engine
    import repro.engine.registry as registry
    import repro.engine.spec as spec
    import repro.resilience as resilience
    from repro.core import pipeline as core_pipeline
    from repro.core.detector import SequentialDriftDetector
    from repro.core.reconstruction import ModelReconstructor
    from repro.detectors import SPLL, QuantTree
    from repro.engine.session import StreamSession
    from repro.fleet.batching import BatchGroup
    from repro.fleet.manager import FleetManager
    from repro.oselm.ensemble import MultiInstanceModel
    from repro.oselm.oselm import OSELM
    from repro.serving.ingest import IngestCore

    out: List[Tuple[object, str, str]] = []
    for key in ("nslkdd", "coolingfan", "blobs"):
        out.append((registry.DATASET_FACTORIES, key, "datasets.synth"))
    out.append((spec, "build_experiment", "engine.build"))
    out.append((engine, "build_experiment", "engine.build"))
    out.append((StreamSession, "feed", "engine.feed"))
    for cls in (
        core_pipeline.NoDetectionPipeline,
        core_pipeline.ONLADPipeline,
        core_pipeline.ProposedPipeline,
        core_pipeline.BatchDetectorPipeline,
        core_pipeline.ErrorRatePipeline,
    ):
        out.append((cls, "process_one", "core.process_one"))
    out.append((SequentialDriftDetector, "update", "core.detector"))
    out.append((ModelReconstructor, "process", "core.reconstruct"))
    for attr in ("predict_with_score", "predict_with_score_batch", "score_batch_many"):
        out.append((MultiInstanceModel, attr, "oselm.score"))
    for attr in ("fit_initial", "partial_fit", "partial_fit_one"):
        out.append((OSELM, attr, "oselm.train"))
    for cls in (QuantTree, SPLL):
        out.append((cls, "fit_reference", "detectors.fit"))
        out.append((cls, "update_one", "detectors.update"))
    out.append((FleetManager, "submit", "fleet.submit"))
    out.append((FleetManager, "submit_many", "serving.dispatch"))
    out.append((BatchGroup, "prime", "fleet.batch_prime"))
    for attr, name in (
        ("encode_records", "resilience.encode"),
        ("decode_records", "resilience.decode"),
        ("save_checkpoint", "resilience.save"),
        ("load_checkpoint", "resilience.load"),
    ):
        out.append((resilience, attr, name))
    out.append((IngestCore, "offer", "serving.offer"))
    return out


def within(t: float, windows) -> bool:
    return any(lo <= t <= hi for lo, hi in windows)


class Tracer:
    """Record spans for the calls of the patched entry points.

    Each span is a list ``[name_id, start, end, parent, thread]`` where
    ``parent`` is the enclosing span's list (or ``None``). ``hooks`` maps
    a span name to a callable ``(span, args, kwargs, result)`` that the
    wrapper calls after the span closes; the benchmark uses it for counts that
    need the call's arguments (chunk sizes, device ids, spool bytes).
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: List[list] = []
        self.hooks: Dict[str, object] = {}
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self) -> "Tracer":
        for owner, attr, name in boundaries():
            self._wrap(owner, attr, name)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        name_id = self._name_id(name)
        spans = self.spans
        local = self._local
        hooks = self.hooks
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name_id, clock(), 0.0, stack[-1] if stack else None,
                    threading.get_ident()]
            spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            hook = hooks.get(name)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", attr)
        self._patched.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)

    # -- analysis --------------------------------------------------------------

    def summary(self, windows) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds of the spans that
        start inside one of ``windows`` (``(start, end)`` pairs)."""
        child = defaultdict(float)
        for span in self.spans:
            parent = span[3]
            if parent is not None:
                child[id(parent)] += span[2] - span[1]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for span in self.spans:
            if not within(span[1], windows):
                continue
            entry = out[self.names[span[0]]]
            duration = span[2] - span[1]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child.get(id(span), 0.0)
        return out

    def write(self, path: Path) -> Path:
        """Store every span as columns of one compressed ``.npz`` file."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        threads: Dict[int, int] = {}
        n = len(self.spans)
        name = np.empty(n, dtype=np.int32)
        start = np.empty(n, dtype=np.float64)
        end = np.empty(n, dtype=np.float64)
        parent = np.empty(n, dtype=np.int64)
        thread = np.empty(n, dtype=np.int32)
        for i, span in enumerate(self.spans):
            name[i] = span[0]
            start[i] = span[1]
            end[i] = span[2]
            parent[i] = -1 if span[3] is None else index[id(span[3])]
            thread[i] = threads.setdefault(span[4], len(threads))
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=name, start=start, end=end,
            parent=parent, thread=thread,
        )
        return path
