"""Stage functions of the staged evaluation pipeline.

Each function is one explicit stage of the decode → mobility → core
allocation → per-mode {comm mapping, list schedule, DVS} → power →
fitness pipeline (:mod:`repro.eval.pipeline` orchestrates them and owns
the caching).  Every stage replicates the corresponding slice of the
seed's monolithic evaluator (frozen as ``tests/oracles/evaluator.py``)
— same float operations, same iteration order — so pipeline results
are bit-identical to it.  Where a kernel could be shared it was
extracted rather than duplicated
(:func:`repro.mapping.cores.mode_pe_demand`,
:func:`repro.power.energy_model.weighted_power`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.architecture.processing_element import PEKind
from repro.dvs.pv_dvs import scale_schedule, uniform_scale_schedule
from repro.engine.decode_cache import DecodeContext
from repro.engine.profile import PROFILER
from repro.errors import SchedulingError
from repro.eval.cache import CoreSignature, ModeDemand, ModeOutcome, ModePrep
from repro.mapping.cores import (
    CoreAllocation,
    _fit_asic,
    _fit_fpga,
    mode_pe_demand,
)
from repro.mapping.encoding import MappingString
from repro.power.energy_model import mode_dynamic_power
from repro.power.shutdown import mode_static_power
from repro.problem import Problem
from repro.scheduling.list_scheduler import schedule_mode
from repro.scheduling.schedule import ModeSchedule
from repro.specification.mode import Mode
from repro.synthesis.config import DvsMethod, SynthesisConfig


def prepare_mode(
    problem: Problem,
    context: DecodeContext,
    mapping: MappingString,
    mode: Mode,
) -> ModePrep:
    """Mobility stage: mode mapping, ASAP/ALAP mobilities, core demand.

    Pure function of the mode's gene slice (prep cache segment).  The
    mapping/mobility part mirrors the first per-mode loop of the seed's
    monolithic evaluator; the demand part hoists this mode's share of
    ``allocate_cores`` out of the (cross-mode) combine stage — it too
    depends only on this mode's genes.
    """
    mode_mapping = mapping.mode_mapping(mode.name)
    mobilities = context.compute_mobilities(mode.name, mode_mapping)
    mode_data = context.modes[mode.name]
    demand: ModeDemand = {}
    for pe in problem.architecture.hardware_pes():
        demand[pe.name] = mode_pe_demand(
            problem,
            mode,
            pe,
            mobilities,
            mode_data=mode_data,
            pe_by_task=mode_mapping,
        )
    return ModePrep(mode_mapping, mobilities, demand)


def combine_cores(
    problem: Problem, demands: Mapping[str, ModeDemand]
) -> CoreAllocation:
    """Core-allocation stage: recombine cached per-mode demands.

    The only cross-mode coupling of the whole pipeline: ASICs take the
    per-type max over modes (union configuration), FPGAs fit each mode
    separately.  Base/desired dictionaries are assembled in OMSM mode
    order, reproducing ``allocate_cores``'s iteration (and therefore
    greedy fitting) order exactly.
    """
    architecture = problem.architecture
    counts: Dict[str, Dict[str, Dict[str, int]]] = {}
    area_used: Dict[str, float] = {}
    mode_names = problem.omsm.mode_names

    for pe in architecture.hardware_pes():
        base: Dict[str, Dict[str, int]] = {}
        desired: Dict[str, Dict[str, int]] = {}
        for mode in problem.omsm.modes:
            base_counts, desired_counts = demands[mode.name][pe.name]
            base[mode.name] = base_counts
            desired[mode.name] = desired_counts
        if pe.kind is PEKind.ASIC:
            pe_counts, used = _fit_asic(problem, pe, base, desired)
        else:
            pe_counts, used = _fit_fpga(problem, pe, base, desired)
        counts[pe.name] = {
            mode_name: pe_counts.get(mode_name, {})
            for mode_name in mode_names
        }
        area_used[pe.name] = used

    return CoreAllocation(counts=counts, area_used=area_used, _problem=problem)


def core_signature(
    problem: Problem,
    mode_name: str,
    demand: ModeDemand,
    cores: CoreAllocation,
) -> CoreSignature:
    """The allocated core counts this mode's scheduler actually reads.

    The list scheduler queries ``available_cores(pe, mode, type)`` for
    exactly the (hardware PE, task type) pairs that have at least one
    task of the mode mapped there — the key set of the mode's base
    demand.  Restricting the signature to that read set keeps schedule
    cache entries valid across allocation changes the mode cannot
    observe (e.g. an ASIC union core added for another mode's type).
    """
    signature: List[Tuple[str, Tuple[Tuple[str, int], ...]]] = []
    for pe in problem.architecture.hardware_pes():
        base_counts = demand[pe.name][0]
        if not base_counts:
            continue
        counts = cores.counts[pe.name][mode_name]
        signature.append(
            (
                pe.name,
                tuple(
                    sorted(
                        (task_type, counts.get(task_type, 0))
                        for task_type in base_counts
                    )
                ),
            )
        )
    return tuple(signature)


def run_mode(
    problem: Problem,
    config: SynthesisConfig,
    context: DecodeContext,
    mode: Mode,
    prep: ModePrep,
    cores: CoreAllocation,
) -> ModeOutcome:
    """Per-mode schedule stage: list scheduling, DVS, timing, power.

    Mirrors the seed evaluator's second per-mode loop (schedule +
    DVS phases, timing violations) and hoists the mode's share of the
    power breakdown (dynamic and static power are per-mode quantities).
    A :class:`~repro.errors.SchedulingError` yields an infeasible
    outcome — cacheable like any other result.
    """
    schedule: Optional[ModeSchedule]
    with PROFILER.phase("schedule", mode=mode.name):
        try:
            if config.inner_loop_iterations > 0:
                from repro.scheduling.priority_search import (
                    refine_schedule,
                )

                schedule = refine_schedule(
                    problem,
                    mode,
                    prep.mode_mapping,
                    cores,
                    iterations=config.inner_loop_iterations,
                )
            else:
                schedule = schedule_mode(
                    problem,
                    mode,
                    prep.mode_mapping,
                    cores,
                    prep.mobilities,
                    context=context,
                )
        except SchedulingError:
            schedule = None
    if schedule is None:
        return ModeOutcome(None, {}, 0.0, 0.0)
    if config.dvs is not DvsMethod.NONE:
        with PROFILER.phase("dvs", mode=mode.name):
            if config.dvs is DvsMethod.GRADIENT:
                schedule = scale_schedule(
                    problem,
                    mode,
                    schedule,
                    shared_rail=config.dvs_shared_rail,
                    context=context,
                )
            else:
                schedule = uniform_scale_schedule(
                    problem, mode, schedule, context=context
                )
    violations = schedule.timing_violations(
        mode, deadlines=context.modes[mode.name].deadlines
    )
    dynamic = mode_dynamic_power(problem, mode.name, schedule)
    static = mode_static_power(problem, schedule)
    return ModeOutcome(schedule, violations, dynamic, static)
