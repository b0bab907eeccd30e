"""In-memory span tracer wrapped around the layers' public entry points.

The benchmark records spans from its own files: :func:`instrument`
replaces each layer function *where its caller looks it up* (a module
attribute or a class method) with a wrapper that records a span --
name, start, end, parent span and job -- into a per-thread list.
Nothing in :mod:`repro` changes.  Spans stay in memory and are written
out once, after the measured phase.

A span's self time is its duration minus the time its child spans
cover.  Per thread, the self times of all spans sum exactly to the
duration of the thread's root span; the root's own self time is the
part no layer span accounts for (``trace.unattributed_s``).

Only threads that called :meth:`Tracer.register_thread` record.  Forked
pool workers inherit the wrappers but record nothing (their spans could
not reach the parent anyway); their stage times come from each job's
``perf`` phase seconds instead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (module, attribute path, span name).  The attribute path is either a
#: module-level function or ``Class.method``; each entry patches the
#: binding the caller resolves at call time.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # synthesis: the generation driver and its stage modules
    ("repro.synthesis.driver", "GenerationDriver.run", "synthesis.run"),
    ("repro.synthesis.driver", "GenerationDriver._speculate_next",
     "synthesis.speculate"),
    ("repro.synthesis.operators", "initial_population", "synthesis.breed"),
    ("repro.synthesis.operators", "breed_next", "synthesis.breed"),
    ("repro.synthesis.improvements", "apply_improvements",
     "synthesis.improve"),
    ("repro.synthesis.improvements", "partial_restart", "synthesis.improve"),
    ("repro.synthesis.improvements", "local_search",
     "synthesis.local_search"),
    # engine: backend construction, dispatch and teardown
    ("repro.synthesis.cosynthesis", "backend_for", "engine.backend_setup"),
    ("repro.engine.backend", "SerialBackend.drain", "engine.drain"),
    ("repro.engine.backend", "PooledBackend.drain", "engine.drain"),
    ("repro.engine.backend", "PooledBackend.cancel_speculation",
     "engine.drain"),
    ("repro.engine.backend", "PooledBackend.speculate", "engine.speculate"),
    ("repro.engine.backend", "PooledBackend.close", "engine.close"),
    ("repro.engine.backend", "PooledBackend.terminate", "engine.close"),
    # eval: the incremental pipeline and its per-mode stages
    ("repro.eval.pipeline", "evaluate_mapping_incremental", "eval.pipeline"),
    ("repro.eval.pipeline", "prepare_mode", "eval.prepare_mode"),
    ("repro.eval.pipeline", "run_mode", "eval.run_mode"),
    # mapping / scheduling / dvs / power, as the eval stages call them
    ("repro.eval.pipeline", "combine_cores", "mapping.combine_cores"),
    ("repro.engine.decode_cache", "DecodeContext.compute_mobilities",
     "scheduling.mobility"),
    ("repro.eval.stages", "schedule_mode", "scheduling.schedule_mode"),
    ("repro.eval.stages", "scale_schedule", "dvs.scale_schedule"),
    ("repro.eval.stages", "uniform_scale_schedule", "dvs.scale_schedule"),
    ("repro.eval.stages", "mode_dynamic_power", "power"),
    ("repro.eval.stages", "mode_static_power", "power"),
    ("repro.eval.pipeline", "weighted_power", "power"),
    # obs: the metrics registry every layer reports into
    ("repro.obs.metrics", "MetricsRegistry.inc", "obs.registry"),
    ("repro.obs.metrics", "MetricsRegistry.set_gauge", "obs.registry"),
    ("repro.obs.metrics", "MetricsRegistry.observe", "obs.registry"),
    ("repro.obs.metrics", "MetricsRegistry.snapshot", "obs.registry"),
    ("repro.obs.metrics", "MetricsRegistry.delta_since", "obs.registry"),
    ("repro.obs.metrics", "MetricsRegistry.merge", "obs.registry"),
    # runtime: durable state, events, validation, summaries
    ("repro.runtime.checkpoint", "write_checkpoint", "runtime.checkpoint"),
    ("repro.runtime.checkpoint", "load_checkpoint", "runtime.store"),
    ("repro.runtime.checkpoint", "clear_checkpoint", "runtime.store"),
    ("repro.runtime.checkpoint", "write_result", "runtime.store"),
    ("repro.runtime.checkpoint", "load_result", "runtime.store"),
    ("repro.runtime.events", "EventLog.emit", "runtime.events"),
    ("repro.runtime.runner", "validate_implementation", "runtime.validate"),
    ("repro.runtime.runner", "CampaignRunner._export_summary",
     "runtime.summary"),
    # server, as its client calls it
    ("repro.server.client", "ServerClient.submit", "server.submit"),
    ("repro.server.client", "ServerClient.status", "server.status"),
)

#: One recorded span: (name id, start, end, parent index, job id).
Span = Tuple[int, float, float, int, int]


class Tracer:
    """Collects spans per registered thread; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.jobs: List[str] = [""]
        self._job_ids: Dict[str, int] = {"": 0}
        self.threads: List[List[Span]] = []
        self.counters: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._recording = True
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self._recording = False

    def stop(self) -> None:
        """Stop recording in every thread (the measured phase is over)."""
        self._recording = False

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def register_thread(self) -> None:
        """Start recording spans on the calling thread."""
        spans: List[Span] = []
        with self._lock:
            self.threads.append(spans)
        self._local.spans = spans
        self._local.stack = []
        self._local.job = 0

    def set_job(self, job_id: str) -> None:
        """Attribute the calling thread's next spans to ``job_id``."""
        with self._lock:
            if job_id not in self._job_ids:
                self._job_ids[job_id] = len(self.jobs)
                self.jobs.append(job_id)
            self._local.job = self._job_ids[job_id]

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span (registered threads)."""
        name_id = self.name_id(name)
        local = self._local
        spans, stack = local.spans, local.stack
        index = len(spans)
        spans.append((name_id, 0.0, 0.0, -1, 0))
        parent = stack[-1] if stack else -1
        stack.append(index)
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            stack.pop()
            spans[index] = (name_id, started, ended, parent, local.job)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped to record a span named ``name`` per call.

        ``after(result, *args, **kwargs)`` runs once the span closed.
        """
        name_id = self.name_id(name)
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            spans = getattr(local, "spans", None)
            if spans is None or not self._recording:
                return fn(*args, **kwargs)
            stack = local.stack
            index = len(spans)
            spans.append((name_id, 0.0, 0.0, -1, 0))
            parent = stack[-1] if stack else -1
            stack.append(index)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                spans[index] = (name_id, started, ended, parent, local.job)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    # ------------------------------------------------------------------
    # Analysis and export
    # ------------------------------------------------------------------

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: summed self seconds, calls and root seconds.

        Returns ``{name: {"self_s", "calls", "root_s"}}`` where
        ``root_s`` is the summed duration of the name's spans that have
        no parent.
        """
        import numpy as np

        out: Dict[str, Dict[str, float]] = {
            name: {"self_s": 0.0, "calls": 0.0, "root_s": 0.0}
            for name in self.names
        }
        for spans in self.threads:
            if not spans:
                continue
            table = np.asarray(spans, dtype=float)
            names = table[:, 0].astype(int)
            durations = table[:, 2] - table[:, 1]
            parents = table[:, 3].astype(int)
            nested = parents >= 0
            covered = np.bincount(
                parents[nested],
                weights=durations[nested],
                minlength=len(spans),
            )
            own = durations - covered
            self_s = np.bincount(
                names, weights=own, minlength=len(self.names)
            )
            calls = np.bincount(names, minlength=len(self.names))
            root_s = np.bincount(
                names[~nested],
                weights=durations[~nested],
                minlength=len(self.names),
            )
            for name_id, name in enumerate(self.names):
                out[name]["self_s"] += float(self_s[name_id])
                out[name]["calls"] += float(calls[name_id])
                out[name]["root_s"] += float(root_s[name_id])
        return out

    def span_count(self) -> int:
        return sum(len(spans) for spans in self.threads)

    def export(self, path: str) -> None:
        """Write every span (one array per field) to an ``.npz`` file."""
        import numpy as np

        rows: List[Tuple[int, int, float, float, int, int]] = []
        for thread, spans in enumerate(self.threads):
            rows.extend(
                (thread, name, start, end, parent, job)
                for name, start, end, parent, job in spans
            )
        table = np.asarray(rows, dtype=float).reshape(-1, 6)
        np.savez_compressed(
            path,
            thread=table[:, 0].astype(np.int32),
            name=table[:, 1].astype(np.int32),
            start=table[:, 2],
            end=table[:, 3],
            parent=table[:, 4].astype(np.int64),
            job=table[:, 5].astype(np.int32),
            names=np.asarray(self.names),
            jobs=np.asarray(self.jobs),
        )


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def instrument(tracer: Tracer) -> List[Tuple[Any, str, Any]]:
    """Wrap every :data:`LAYER_TARGETS` binding with ``tracer``.

    Returns ``(owner, attribute, original)`` triples for :func:`restore`.
    """
    from repro.runtime import checkpoint as ckpt

    def checkpoint_bytes(_result: Any, run_dir: Any, job_id: str,
                         *_args: Any, **_kwargs: Any) -> None:
        tracer.count(
            "runtime.checkpoint_bytes",
            os.path.getsize(ckpt.checkpoint_path(run_dir, job_id)),
        )

    def infeasible(result: Any, *_args: Any, **_kwargs: Any) -> None:
        if result is None:
            tracer.count("eval.infeasible_evaluations")

    hooks = {
        "write_checkpoint": checkpoint_bytes,
        "evaluate_mapping_incremental": infeasible,
    }
    patched = []
    for module_name, path, span_name in LAYER_TARGETS:
        owner, attribute = _resolve(module_name, path)
        original = owner.__dict__[attribute]
        setattr(
            owner,
            attribute,
            tracer.wrap(span_name, original, after=hooks.get(attribute)),
        )
        patched.append((owner, attribute, original))
    return patched


def restore(patched: List[Tuple[Any, str, Any]]) -> None:
    """Undo :func:`instrument`."""
    for owner, attribute, original in reversed(patched):
        setattr(owner, attribute, original)
