"""Reference (monolithic) candidate evaluator — the bit-identity oracle.

This is the seed evaluator body: every candidate recomputes its
mobilities, core allocation, list schedules and voltage selection from
scratch, with no decode context, no per-mode result cache and the seed
PV-DVS loop of :mod:`tests.oracles.pv_dvs`.  The production
:func:`repro.synthesis.evaluator.evaluate_mapping` (the staged pipeline
of :mod:`repro.eval`) must return the same floats for every candidate;
the differential suites and the ``legacy`` arm of
``benchmarks/bench_engine.py`` run against this module.

Do not optimise this module; its value is being the unchanged
reference.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, Optional
from unittest import mock

from repro.engine.profile import PROFILER
from repro.errors import SchedulingError
from repro.mapping.cores import allocate_cores
from repro.mapping.encoding import MappingString
from repro.mapping.implementation import Implementation, ImplementationMetrics
from repro.power.energy_model import average_power, power_breakdown
from repro.problem import Problem
from repro.scheduling.list_scheduler import schedule_mode
from repro.scheduling.mobility import compute_mobilities
from repro.scheduling.schedule import ModeSchedule
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.fitness import FitnessWeights, mapping_fitness

from tests.oracles.pv_dvs import (
    reference_scale_schedule,
    reference_uniform_scale_schedule,
)


def evaluate_mapping(
    problem: Problem,
    mapping: MappingString,
    config: SynthesisConfig,
    context: Any = None,
    cache: Any = None,
) -> Optional[Implementation]:
    """Decode, schedule, scale and score one mapping candidate.

    Same contract as :func:`repro.synthesis.evaluator.evaluate_mapping`
    (``None`` for communication- or scheduling-infeasible mappings).
    ``context`` and ``cache`` are accepted so the function can stand in
    for the production evaluator, and ignored: the oracle never uses
    precomputed decode tables or cached stage results.
    """
    technology = problem.technology

    mode_mappings: Dict[str, Dict[str, str]] = {}
    mobilities = {}
    for mode in problem.omsm.modes:
        with PROFILER.phase("mobility", mode=mode.name):
            mode_mappings[mode.name] = mapping.mode_mapping(mode.name)
            mobilities[mode.name] = compute_mobilities(
                mode,
                lambda task, _mode=mode: technology.implementation(
                    _mode.task_graph.task(task).task_type,
                    mapping.pe_of(_mode.name, task),
                ).exec_time,
            )

    with PROFILER.phase("cores"):
        cores = allocate_cores(problem, mapping, mobilities)
        area_violations = cores.area_violations()
        transition_violations = cores.transition_violations()

    schedules: Dict[str, ModeSchedule] = {}
    timing_violations: Dict[str, Dict[str, float]] = {}
    for mode in problem.omsm.modes:
        with PROFILER.phase("schedule", mode=mode.name):
            try:
                if config.inner_loop_iterations > 0:
                    from repro.scheduling.priority_search import (
                        refine_schedule,
                    )

                    schedule = refine_schedule(
                        problem,
                        mode,
                        mode_mappings[mode.name],
                        cores,
                        iterations=config.inner_loop_iterations,
                    )
                else:
                    schedule = schedule_mode(
                        problem,
                        mode,
                        mode_mappings[mode.name],
                        cores,
                        mobilities[mode.name],
                    )
            except SchedulingError:
                return None
        if config.dvs is not DvsMethod.NONE:
            with PROFILER.phase("dvs", mode=mode.name):
                if config.dvs is DvsMethod.GRADIENT:
                    schedule = reference_scale_schedule(
                        problem,
                        mode,
                        schedule,
                        shared_rail=config.dvs_shared_rail,
                    )
                else:
                    schedule = reference_uniform_scale_schedule(
                        problem, mode, schedule
                    )
        schedules[mode.name] = schedule
        violations = schedule.timing_violations(mode)
        if violations:
            timing_violations[mode.name] = violations

    with PROFILER.phase("power"):
        dynamic, static = power_breakdown(problem, schedules)
        true_power = average_power(problem, schedules)
        if config.use_probabilities:
            optimised_power = true_power
        else:
            optimised_power = average_power(
                problem,
                schedules,
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


@contextlib.contextmanager
def substituted() -> Iterator[None]:
    """Run synthesis with this oracle in place of the production evaluator.

    Patches the two bindings a GA run resolves: the module attribute
    the engine's in-process and pool-worker paths import per call, and
    the name :mod:`repro.synthesis.driver` bound at import.  Pool
    workers forked inside the block inherit the substitution.
    """
    with mock.patch(
        "repro.synthesis.evaluator.evaluate_mapping", evaluate_mapping
    ), mock.patch("repro.synthesis.driver.evaluate_mapping", evaluate_mapping):
        yield
