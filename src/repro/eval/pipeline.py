"""The incremental per-mode evaluation pipeline.

:func:`evaluate_mapping_incremental` is the one evaluation path behind
:func:`repro.synthesis.evaluator.evaluate_mapping`.  It produces results
bit-identical to the seed's monolithic evaluator (frozen as the
differential oracle ``tests/oracles/evaluator.py``), but runs each
candidate through explicit stages —

    decode → mobility → core allocation →
    per-mode {comm mapping, list schedule, DVS} → power → fitness

— and serves per-mode stage results of *clean* modes from a bounded
:class:`~repro.eval.cache.ModeResultCache`.  After a single-mode
mutation, only the dirty mode pays for mobility, scheduling and DVS;
everything else is a cache hit recorded in the profiler's dedicated
``cache_hit`` phase (per-mode buckets keep summing exactly to the
aggregates because skipped stages simply record nothing).

The cache is consulted by *key*, not by dirty-set bookkeeping: a mode's
prep is keyed on its gene slice and a config fingerprint, its schedule
additionally on the core counts its scheduler reads (see
:mod:`repro.eval.cache`).  Dirty-mode sets reported by the genetic
operators (:meth:`~repro.mapping.encoding.MappingString.dirty_modes`)
are therefore an observability and testing aid — correctness never
depends on them being precise.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro.engine.decode_cache import DecodeContext, context_for
from repro.engine.profile import PROFILER
from repro.eval.cache import (
    ModePrep,
    ModeResultCache,
    config_fingerprint,
    mode_cache_for,
)
from repro.eval.stages import (
    combine_cores,
    core_signature,
    prepare_mode,
    run_mode,
)
from repro.mapping.encoding import MappingString
from repro.mapping.implementation import Implementation, ImplementationMetrics
from repro.power.energy_model import weighted_power
from repro.problem import Problem
from repro.scheduling.schedule import ModeSchedule
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.fitness import FitnessWeights, mapping_fitness


def evaluate_mapping_incremental(
    problem: Problem,
    mapping: MappingString,
    config: SynthesisConfig,
    context: Optional[DecodeContext] = None,
    cache: Optional[ModeResultCache] = None,
) -> Optional[Implementation]:
    """Decode, schedule, scale and score one candidate through the stages.

    Same ``None`` result as the seed evaluator for communication- or
    scheduling-infeasible mappings, bit-identical metrics otherwise.
    ``context`` defaults to the problem's memoised decode context and
    ``cache`` to its memoised :func:`~repro.eval.cache.mode_cache_for`
    instance, so the GA loop, the local-search polish and the pool
    serial fallback share one.
    """
    if context is None:
        context = context_for(problem)
    if cache is None:
        cache = mode_cache_for(problem)
    fingerprint = config_fingerprint(config)

    # Stage 1+2 (decode, mobility) and the per-mode share of stage 3
    # (core demand), served from the prep segment when the mode's gene
    # slice was seen before.
    preps: Dict[str, ModePrep] = {}
    slices: Dict[str, Tuple[str, ...]] = {}
    for mode in problem.omsm.modes:
        genes = mapping.mode_genes(mode.name)
        slices[mode.name] = genes
        prep_key = (mode.name, genes, fingerprint)
        started = time.perf_counter()
        prep = cache.get_prep(prep_key)
        if prep is not None:
            PROFILER.add(
                "cache_hit",
                time.perf_counter() - started,
                mode=mode.name,
            )
        else:
            with PROFILER.phase("mobility", mode=mode.name):
                prep = prepare_mode(problem, context, mapping, mode)
            cache.put_prep(prep_key, prep)
        preps[mode.name] = prep

    # Stage 3 (core allocation): the only cross-mode coupling; always
    # recombined from the (cached) per-mode demands.
    with PROFILER.phase("cores"):
        cores = combine_cores(
            problem,
            {name: prep.demand for name, prep in preps.items()},
        )
        area_violations = cores.area_violations()
        transition_violations = cores.transition_violations()

    # Stage 4 (per-mode schedule + DVS + timing + per-mode power),
    # served from the sched segment when neither the mode's genes nor
    # the core counts it reads have changed.
    schedules: Dict[str, ModeSchedule] = {}
    timing_violations: Dict[str, Dict[str, float]] = {}
    dynamic: Dict[str, float] = {}
    static: Dict[str, float] = {}
    for mode in problem.omsm.modes:
        prep = preps[mode.name]
        signature = core_signature(problem, mode.name, prep.demand, cores)
        sched_key = (mode.name, slices[mode.name], signature, fingerprint)
        started = time.perf_counter()
        outcome = cache.get_sched(sched_key)
        if outcome is not None:
            PROFILER.add(
                "cache_hit",
                time.perf_counter() - started,
                mode=mode.name,
            )
        else:
            outcome = run_mode(problem, config, context, mode, prep, cores)
            cache.put_sched(sched_key, outcome)
        if outcome.schedule is None:
            # Scheduling-infeasible, like the seed's early return — but
            # the infeasibility itself came from / went to cache.
            return None
        schedules[mode.name] = outcome.schedule
        if outcome.timing:
            timing_violations[mode.name] = outcome.timing
        dynamic[mode.name] = outcome.dynamic
        static[mode.name] = outcome.static

    # Stage 5+6 (power, penalty fitness): probability weighting happens
    # only here, which is what makes cached values Ψ-independent.
    with PROFILER.phase("power"):
        true_power = weighted_power(problem, dynamic, static)
        if config.use_probabilities:
            optimised_power = true_power
        else:
            optimised_power = weighted_power(
                problem,
                dynamic,
                static,
                problem.omsm.uniform_probability_vector(),
            )

        weights = FitnessWeights(
            area=config.area_weight,
            transition=config.transition_weight,
            timing=config.timing_weight,
        )
        fitness = mapping_fitness(
            problem,
            optimised_power,
            timing_violations,
            area_violations,
            transition_violations,
            weights,
        )

    metrics = ImplementationMetrics(
        average_power=true_power,
        dynamic_power=dynamic,
        static_power=static,
        timing_violation=timing_violations,
        area_violation=area_violations,
        transition_violation=transition_violations,
        fitness=fitness,
    )
    return Implementation(
        problem=problem,
        mapping=mapping,
        cores=cores,
        schedules=schedules,
        metrics=metrics,
    )
