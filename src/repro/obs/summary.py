"""The ``run_summary.json`` document a campaign exports.

One JSON file per run directory, written atomically when the campaign
finishes (and, best-effort, when it is interrupted), answering "what
did this campaign do and where did the time go" without replaying the
event stream: job totals, per-job outcome rows, the evaluation-engine
perf counters aggregated across jobs — including the per-mode phase
breakdown, so Equation (1)'s probability-weighted fitness cost is
attributable to operational modes — and a dump of the process-global
metrics registry.

Schema (``version`` 1)::

    {
      "version": 1,
      "campaign": str,
      "generated_at": float,        # unix seconds
      "interrupted": bool,
      "jobs": {"total": int, "completed": int,
               "failed": int, "pending": int},
      "retries": int,
      "wall_seconds": float | null, # first..last event timestamp
      "job_results": {job_id: {"power": float, "cpu_time": float,
                               "feasible": bool, "generations": int,
                               "evaluations": int, "attempts": int}},
      "failures": {job_id: str},
      "perf": {"phase_seconds": {...}, "phase_calls": {...},
               "mode_phase_seconds": {phase: {mode: float}},
               "evaluations": int, "cache_hits": int,
               "dedup_hits": int, "wall_time": float,
               "pool_busy_seconds": float,
               "dispatch_verdicts": {verdict: int}},  # jobs per verdict
      "metrics": {"counters": {...}, "gauges": {...},
                  "histograms": {...}},
    }
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Any, Dict, List, Mapping, Optional, Union

PathLike = Union[str, pathlib.Path]

#: File name of the summary inside a campaign run directory.
RUN_SUMMARY_FILENAME = "run_summary.json"

#: Schema version; bump on incompatible change.
SUMMARY_VERSION = 1

#: Per-job result fields copied into the summary rows.
_JOB_FIELDS = (
    "power",
    "cpu_time",
    "feasible",
    "generations",
    "evaluations",
    "attempts",
)

#: Additive perf counters aggregated across jobs.
_PERF_SCALARS = (
    "evaluations",
    "cache_hits",
    "dedup_hits",
    "wall_time",
    "batches",
    "parallel_evaluations",
    "pool_busy_seconds",
    "pool_service_seconds",
    "pool_dispatch_seconds",
    "pool_fallbacks",
    "inprocess_evaluations",
    "inprocess_eval_seconds",
    "mode_cache_hits",
    "mode_cache_misses",
)


def run_summary_path(run_dir: PathLike) -> pathlib.Path:
    return pathlib.Path(run_dir) / RUN_SUMMARY_FILENAME


def _aggregate_perf(
    perfs: List[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Sum the additive perf counters of every finished job."""
    totals: Dict[str, Any] = {name: 0 for name in _PERF_SCALARS}
    phase_seconds: Dict[str, float] = {}
    phase_calls: Dict[str, int] = {}
    mode_phase_seconds: Dict[str, Dict[str, float]] = {}
    verdicts: Dict[str, int] = {}
    for perf in perfs:
        verdict = perf.get("dispatch_verdict")
        if isinstance(verdict, str):
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
        for name in _PERF_SCALARS:
            totals[name] += perf.get(name, 0) or 0
        for phase, seconds in (perf.get("phase_seconds") or {}).items():
            phase_seconds[phase] = phase_seconds.get(phase, 0.0) + seconds
        for phase, calls in (perf.get("phase_calls") or {}).items():
            phase_calls[phase] = phase_calls.get(phase, 0) + calls
        for phase, modes in (
            perf.get("mode_phase_seconds") or {}
        ).items():
            bucket = mode_phase_seconds.setdefault(phase, {})
            for mode, seconds in modes.items():
                bucket[mode] = bucket.get(mode, 0.0) + seconds
    totals["phase_seconds"] = phase_seconds
    totals["phase_calls"] = phase_calls
    totals["mode_phase_seconds"] = mode_phase_seconds
    # Records written before measured dispatch carry no verdict.
    if verdicts:
        totals["dispatch_verdicts"] = dict(sorted(verdicts.items()))
    # Derived pool figures, present only when some job actually had a
    # pool (readers render n/a otherwise — see format_pool_stats).
    workers = max(
        (
            int(perf.get("pool_workers") or 0)
            for perf in perfs
        ),
        default=0,
    )
    if workers > 0:
        totals["pool_workers"] = workers
        window = totals["pool_dispatch_seconds"] or totals[
            "pool_service_seconds"
        ]
        capacity = window * workers
        if capacity > 0:
            totals["pool_utilisation"] = (
                totals["pool_busy_seconds"] / capacity
            )
    return totals


def build_run_summary(
    campaign: str,
    total_jobs: int,
    job_results: Mapping[str, Mapping[str, Any]],
    failures: Mapping[str, str],
    events: List[Mapping[str, Any]],
    metrics: Optional[Mapping[str, Any]] = None,
    interrupted: bool = False,
    clock: Any = time.time,
) -> Dict[str, Any]:
    """Assemble the summary document (see the module docstring schema).

    ``job_results`` maps job ids to their persisted result records (the
    :meth:`~repro.runtime.runner.JobResult.to_dict` shape); ``events``
    is the campaign's event list, used only for wall-clock bounds and
    the retry count.
    """
    timestamps = [
        float(event["ts"])
        for event in events
        if isinstance(event.get("ts"), (int, float))
    ]
    wall_seconds = (
        max(timestamps) - min(timestamps) if len(timestamps) > 1 else None
    )
    retries = sum(
        1 for event in events if event.get("event") == "job_retried"
    )
    completed = len(job_results)
    failed = len(failures)
    rows = {
        job_id: {name: record.get(name) for name in _JOB_FIELDS}
        for job_id, record in sorted(job_results.items())
    }
    perfs = [
        record.get("perf") or {} for record in job_results.values()
    ]
    return {
        "version": SUMMARY_VERSION,
        "campaign": campaign,
        "generated_at": round(float(clock()), 6),
        "interrupted": bool(interrupted),
        "jobs": {
            "total": total_jobs,
            "completed": completed,
            "failed": failed,
            "pending": max(0, total_jobs - completed - failed),
        },
        "retries": retries,
        "wall_seconds": wall_seconds,
        "job_results": rows,
        "failures": dict(sorted(failures.items())),
        "perf": _aggregate_perf(perfs),
        "metrics": dict(metrics) if metrics is not None else {},
    }


def write_run_summary(
    run_dir: PathLike, summary: Mapping[str, Any]
) -> pathlib.Path:
    """Atomically write ``run_summary.json`` into ``run_dir``."""
    path = run_summary_path(run_dir)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def load_run_summary(run_dir: PathLike) -> Dict[str, Any]:
    """Read a run directory's summary back (raises on absence)."""
    from repro.errors import CampaignError

    path = run_summary_path(run_dir)
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise CampaignError(f"no run summary at {path}") from None
    except json.JSONDecodeError as exc:
        raise CampaignError(
            f"corrupt run summary at {path}: {exc}"
        ) from exc
