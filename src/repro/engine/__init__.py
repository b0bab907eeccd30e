"""The evaluation engine: decode caching, parallel dispatch, profiling.

The GA outer loop evaluates thousands of independent mapping candidates
per run; this package makes that hot path fast without changing a single
result.  It provides three cooperating layers:

* :mod:`repro.engine.decode_cache` — everything that depends only on the
  problem (implementation tables, adjacency, feasible links, voltage
  tables) is computed once per process in a :class:`DecodeContext` and
  shared by all candidate evaluations.
* :mod:`repro.engine.parallel` — a :class:`ParallelEvaluator` dispatches
  each generation's unique, uncached genomes to a barrier
  ``multiprocessing`` pool (falling back to in-process evaluation when
  the pool dies); :mod:`repro.engine.backend` uses it under
  ``jobs > 1`` only while it measures faster than in-process
  evaluation.  Results are bit-identical to serial evaluation.
* :mod:`repro.engine.profile` — lightweight per-phase timers and the
  :class:`PerfStats` summary exposed on ``SynthesisResult.perf``.
"""

from repro.engine.decode_cache import DecodeContext, context_for
from repro.engine.parallel import ParallelEvaluator
from repro.engine.profile import PROFILER, PerfStats, PhaseProfiler
from repro.engine.records import EvalRecord, evaluate_genes

__all__ = [
    "DecodeContext",
    "context_for",
    "ParallelEvaluator",
    "PROFILER",
    "PerfStats",
    "PhaseProfiler",
    "EvalRecord",
    "evaluate_genes",
]
