"""Improvement, restart and local-search stages of the generation loop.

Like :mod:`repro.synthesis.operators`, everything here is a pure
function over explicit inputs (population, evaluation records, stall
counters, an RNG): the paper's four improvement strategies, the
partial-restart diversity mechanism, and the post-convergence
first-improvement local search.  The driver composes them.

The local-search helpers take an ``evaluate`` callable instead of
touching any evaluator directly — the driver passes its cached
single-candidate path, keeping these functions oblivious to backends.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.records import EvalRecord
from repro.mapping.encoding import MappingString
from repro.problem import Problem
from repro.synthesis import mutations
from repro.synthesis.config import SynthesisConfig

#: Single-candidate evaluation hook used by the local-search stages.
EvaluateFn = Callable[[MappingString], EvalRecord]


def restart_due(config: SynthesisConfig, stagnant: int) -> bool:
    """Whether this stagnation streak triggers a partial restart."""
    return (
        stagnant > 0
        and stagnant % max(2, config.convergence_generations // 2) == 0
    )


def partial_restart(
    problem: Problem,
    population: List[MappingString],
    records: Sequence[EvalRecord],
    rng: random.Random,
) -> List[MappingString]:
    """Replace the worst half of the population with fresh genomes."""
    order = sorted(
        range(len(population)), key=lambda i: records[i].fitness
    )
    keep = order[: max(1, len(population) // 2)]
    refreshed = [population[i] for i in keep]
    while len(refreshed) < len(population):
        if rng.random() < 0.5:
            refreshed.append(MappingString.random(problem, rng))
        else:
            refreshed.append(
                MappingString.random_software_biased(
                    problem, rng, bias=rng.uniform(0.6, 0.98)
                )
            )
    return refreshed


def update_stalls(
    records: Sequence[EvalRecord],
    area_stall: int,
    timing_stall: int,
    transition_stall: int,
) -> Tuple[int, int, int]:
    """Streak counters for the repair mutations.

    A constraint class stalls while the generation's *best* candidate
    violates it — i.e. the search keeps producing solutions whose
    penalised fitness beats every feasible one.  This is the situation
    the paper's repair strategies target ("if only infeasible mappings
    have been produced for a certain number of generations").
    """
    finite = [r for r in records if math.isfinite(r.fitness)]
    if not finite:
        return area_stall + 1, timing_stall + 1, transition_stall + 1
    best = min(finite, key=lambda r: r.fitness)
    return (
        area_stall + 1 if best.area_violating_pes else 0,
        timing_stall + 1 if best.timing_violating_modes else 0,
        transition_stall + 1 if best.transition_violating else 0,
    )


def reset_stalls(
    config: SynthesisConfig,
    area_stall: int,
    timing_stall: int,
    transition_stall: int,
) -> Tuple[int, int, int]:
    """Zero each streak that just fired its repair mutation."""
    if area_stall >= config.stall_generations:
        area_stall = 0
    if timing_stall >= config.stall_generations:
        timing_stall = 0
    if transition_stall >= config.stall_generations:
        transition_stall = 0
    return area_stall, timing_stall, transition_stall


def apply_improvements(
    config: SynthesisConfig,
    population: List[MappingString],
    records: Sequence[EvalRecord],
    rng: random.Random,
    area_stall: int,
    timing_stall: int,
    transition_stall: int,
    best_genome: Optional[MappingString] = None,
) -> List[MappingString]:
    """The paper's improvement strategies, applied in place.

    Shut-down mutations rewrite a configured fraction of the
    non-elite population every generation; the area / timing /
    transition repairs fire only once their stall streak reaches
    ``config.stall_generations``.
    """
    elite = config.elite_count

    if config.enable_shutdown_improvement:
        for index in range(elite, len(population)):
            if rng.random() < config.shutdown_mutation_rate:
                improved = mutations.shutdown_improvement(
                    population[index],
                    rng,
                    config.bias_shutdown_by_probability,
                )
                if improved is not None:
                    population[index] = improved

    def repair_indices() -> List[int]:
        count = max(
            1, int(config.repair_fraction * (len(population) - elite))
        )
        candidates = list(range(elite, len(population)))
        rng.shuffle(candidates)
        return candidates[:count]

    if (
        config.enable_area_improvement
        and area_stall >= config.stall_generations
    ):
        violating = sorted(
            {
                pe
                for record in records
                for pe in record.area_violating_pes
            }
        )
        targets = repair_indices()
        for index in targets:
            improved = mutations.area_improvement(
                population[index], rng, violating
            )
            if improved is not None:
                population[index] = improved
        # Repairing the current best is the most promising move: it
        # is the candidate whose penalised fitness dominates the
        # search despite its violation.
        if best_genome is not None and targets:
            # A gentle trim: typically only a few cores overflow.
            repaired_best = mutations.area_improvement(
                best_genome, rng, violating, move_fraction=0.15
            )
            if repaired_best is not None:
                population[targets[0]] = repaired_best

    if (
        config.enable_timing_improvement
        and timing_stall >= config.stall_generations
    ):
        violating_modes = sorted(
            {
                mode
                for record in records
                for mode in record.timing_violating_modes
            }
        )
        for index in repair_indices():
            improved = mutations.timing_improvement(
                population[index], rng, violating_modes
            )
            if improved is not None:
                population[index] = improved

    if (
        config.enable_transition_improvement
        and transition_stall >= config.stall_generations
    ):
        for index in repair_indices():
            improved = mutations.transition_improvement(
                population[index], rng, ()
            )
            if improved is not None:
                population[index] = improved

    return population


def exchange_pass(
    problem: Problem,
    current: MappingString,
    current_fitness: float,
    budget: int,
    rng: random.Random,
    evaluate: EvaluateFn,
) -> Tuple[MappingString, float, int, bool]:
    """One pass of cross-mode type exchanges on hardware components.

    For every hardware PE, tries replacing one resident task type (all
    its tasks, in every mode, moved to a software PE) with one absent
    supported type (all its tasks moved in).  Returns the possibly
    improved genome, its fitness, evaluations spent and whether
    anything improved.
    """
    software = [pe.name for pe in problem.architecture.software_pes()]
    if not software:
        return current, current_fitness, 0, False
    spent = 0
    improved = False

    def cross_mode_replacements(
        task_type: str,
        target: str,
        only_from: Optional[str] = None,
    ) -> Dict[int, str]:
        """Gene changes moving a type to ``target`` in every mode.

        With ``only_from`` set, only tasks currently on that PE move —
        evicting a type from one component must not disturb its
        placements elsewhere.
        """
        changes: Dict[int, str] = {}
        for mode in problem.omsm.modes:
            for task in mode.task_graph.tasks_of_type(task_type):
                index = current.gene_index(mode.name, task.name)
                gene = current.genes[index]
                if gene == target:
                    continue
                if only_from is not None and gene != only_from:
                    continue
                changes[index] = target
        return changes

    for pe in problem.architecture.hardware_pes():
        resident_types = {
            task.task_type
            for mode in problem.omsm.modes
            for task in mode.task_graph
            if current.pe_of(mode.name, task.name) == pe.name
        }
        resident = sorted(resident_types)
        supported = [
            t
            for t in problem.technology.task_types()
            if problem.technology.supports(t, pe.name)
            and t in problem.omsm.all_task_types()
        ]
        absent = [t for t in supported if t not in resident]
        rng.shuffle(resident)
        rng.shuffle(absent)
        for type_out in resident:
            if spent >= budget:
                return current, current_fitness, spent, improved
            out_sw = [
                s
                for s in software
                if problem.technology.supports(type_out, s)
            ]
            if not out_sw:
                continue
            for type_in in absent:
                if spent >= budget:
                    return current, current_fitness, spent, improved
                changes = cross_mode_replacements(
                    type_out, out_sw[0], only_from=pe.name
                )
                changes.update(
                    cross_mode_replacements(type_in, pe.name)
                )
                if not changes:
                    continue
                candidate = current.with_genes(changes)
                record = evaluate(candidate)
                spent += 1
                if record.fitness < current_fitness - 1e-15:
                    current = candidate
                    current_fitness = record.fitness
                    improved = True
                    break
    return current, current_fitness, spent, improved


def local_search(
    problem: Problem,
    config: SynthesisConfig,
    genome: MappingString,
    rng: random.Random,
    evaluate: EvaluateFn,
) -> MappingString:
    """First-improvement descent on the best genome, two move kinds.

    Alternates (a) *group moves* — all tasks of one (mode, type) onto
    one PE, the granularity at which hardware cores are paid for — and
    (b) single-gene moves.  Improvements are accepted immediately and
    the pass continues; the search stops when neither move kind
    improves or the evaluation budget
    (``local_search_budget_factor × neighbourhood size``) is spent.
    """
    current = genome
    current_fitness = evaluate(current).fitness
    spent = 0

    group_moves: List[Tuple[str, str, str]] = []
    for mode in problem.omsm.modes:
        for task_type in sorted(mode.task_graph.task_types()):
            for pe in problem.technology.candidate_pes(task_type):
                group_moves.append((mode.name, task_type, pe))

    # The budget scales with the size of the *neighbourhood* (one full
    # pass over single-gene moves and group moves), not just the genome
    # length — on small problems the neighbourhood is several times the
    # gene count and a genome-length budget would end the search before
    # a single complete pass.
    single_moves = sum(
        len(current.candidates_at(index)) - 1
        for index in range(len(current))
    )
    budget = int(
        config.local_search_budget_factor
        * max(1, single_moves + len(group_moves))
    )

    improved = True
    while improved and spent < budget:
        improved = False

        # Phase 0: knapsack exchanges — swap which task types own area
        # on a hardware component, across all modes at once.  Area-full
        # components are local optima for every smaller move kind; only
        # an exchange escapes them.
        current, current_fitness, used, improved_swap = exchange_pass(
            problem, current, current_fitness, budget - spent, rng, evaluate
        )
        spent += used
        improved = improved or improved_swap

        # Phase a: coordinated type-group moves.
        rng.shuffle(group_moves)
        for mode_name, task_type, pe in group_moves:
            if spent >= budget:
                break
            graph = problem.omsm.mode(mode_name).task_graph
            replacements = {
                current.gene_index(mode_name, task.name): pe
                for task in graph.tasks_of_type(task_type)
                if current.pe_of(mode_name, task.name) != pe
            }
            if not replacements:
                continue
            candidate = current.with_genes(replacements)
            record = evaluate(candidate)
            spent += 1
            if record.fitness < current_fitness - 1e-15:
                current = candidate
                current_fitness = record.fitness
                improved = True

        # Phase b: single-gene refinements.
        order = list(range(len(current)))
        rng.shuffle(order)
        for index in order:
            if spent >= budget:
                break
            gene = current.genes[index]
            for alternative in current.candidates_at(index):
                if alternative == gene:
                    continue
                candidate = current.with_gene(index, alternative)
                record = evaluate(candidate)
                spent += 1
                if record.fitness < current_fitness - 1e-15:
                    current = candidate
                    current_fitness = record.fitness
                    improved = True
                    break
                if spent >= budget:
                    break
    return current
