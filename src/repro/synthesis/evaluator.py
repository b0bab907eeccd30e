"""Decoding and evaluating one mapping candidate (Fig. 4, lines 3–14).

For a given multi-mode mapping string the evaluator performs, in order:
mobility computation, hardware core allocation, area and transition
accounting, per-mode communication mapping + list scheduling (the inner
loop), optional dynamic voltage scaling, power estimation with component
shut-down, and finally the penalty fitness.  The result is a complete
:class:`~repro.mapping.implementation.Implementation`.

A mapping can be *communication-infeasible* (two communicating tasks on
PEs that share no link).  Such candidates evaluate to ``None`` and the
GA assigns them an infinite fitness.

Evaluation is the synthesis hot path.  It runs through the staged
incremental pipeline of :mod:`repro.eval`: all mapping-independent data
comes from a prebuilt :class:`~repro.engine.decode_cache.DecodeContext`
(resolved per problem unless the caller threads one through, e.g. a
pool worker), per-mode stage results are served from the problem's
bounded :class:`~repro.eval.cache.ModeResultCache`, and every phase is
timed into the process-global :data:`~repro.engine.profile.PROFILER`.
Results are bit-identical to the seed's monolithic evaluator, frozen as
the differential oracle ``tests/oracles/evaluator.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.engine.decode_cache import DecodeContext
from repro.mapping.encoding import MappingString
from repro.mapping.implementation import Implementation
from repro.problem import Problem
from repro.synthesis.config import SynthesisConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.eval.cache import ModeResultCache


def evaluate_mapping(
    problem: Problem,
    mapping: MappingString,
    config: SynthesisConfig,
    context: Optional[DecodeContext] = None,
    cache: Optional["ModeResultCache"] = None,
) -> Optional[Implementation]:
    """Decode, schedule, scale and score one mapping candidate.

    Returns ``None`` for communication- or scheduling-infeasible
    mappings; otherwise an :class:`Implementation` whose
    ``metrics.fitness`` reflects the configuration's probability policy
    while ``metrics.average_power`` is always the true-probability
    Equation (1) value.

    ``context`` supplies the prebuilt mapping-independent decode tables
    and ``cache`` the per-mode result cache; each is resolved (and
    memoised) per problem when omitted.
    """
    # Function-level import: repro.eval imports synthesis.config, so a
    # module-level import here would cycle when the entry point is
    # ``import repro.eval``.
    from repro.eval.pipeline import evaluate_mapping_incremental

    return evaluate_mapping_incremental(
        problem, mapping, config, context=context, cache=cache
    )
