"""Staged incremental evaluation pipeline with a per-mode result cache.

The package splits the monolithic candidate evaluator into explicit
stages (:mod:`repro.eval.stages`), memoises per-mode stage results in a
bounded LRU (:mod:`repro.eval.cache`) and orchestrates both from
:func:`~repro.eval.pipeline.evaluate_mapping_incremental`
(:mod:`repro.eval.pipeline`).  It is the only evaluation path; the
seed's monolithic evaluator survives as the bit-identity oracle
``tests/oracles/evaluator.py``.
"""

from repro.eval.cache import (
    ModeOutcome,
    ModePrep,
    ModeResultCache,
    config_fingerprint,
    mode_cache_for,
)
from repro.eval.pipeline import evaluate_mapping_incremental
from repro.eval.stages import (
    combine_cores,
    core_signature,
    prepare_mode,
    run_mode,
)

__all__ = [
    "ModeOutcome",
    "ModePrep",
    "ModeResultCache",
    "combine_cores",
    "config_fingerprint",
    "core_signature",
    "evaluate_mapping_incremental",
    "mode_cache_for",
    "prepare_mode",
    "run_mode",
]
