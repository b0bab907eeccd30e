"""Differential fuzz oracle for the vectorised PV-DVS kernels.

Both voltage-selection methods of :mod:`repro.dvs.pv_dvs` (run by the
array kernels of :mod:`repro.dvs._kernels`) must be *bit-identical* to
the frozen seed implementation (:mod:`tests.oracles.pv_dvs`) — every
float of every task and comm, not approximately.  The corpus covers:

* random-mapping schedules over mul1 / mul3 / smartphone (software
  DVS, shared-rail hardware segment chains, and both rail modes), plus
  the denser stress-mini instance for the uniform baseline;
* replayed GA-style mutation chains — successive single/few-gene
  perturbations of one genome, the schedule distribution the engine
  actually feeds the kernels;
* the synthetic micro problems of the dvs test fixtures.
"""

import random

import pytest

from repro.benchgen import registry
from repro.benchgen.multimode import MultiModeSpec, generate_problem
from repro.dvs.pv_dvs import scale_schedule, uniform_scale_schedule
from repro.engine.decode_cache import context_for
from repro.mapping.cores import allocate_cores
from repro.mapping.encoding import MappingString
from repro.scheduling.list_scheduler import schedule_mode

from tests.conftest import make_parallel_hw_problem, make_two_mode_problem
from tests.oracles.pv_dvs import (
    reference_scale_schedule,
    reference_uniform_scale_schedule,
)

INSTANCES = ("mul1", "mul3", "smartphone")


def _stress_mini():
    """A denser-than-suite instance (the engine fuzz suites' stress tier)."""
    return generate_problem(
        MultiModeSpec(
            name="stress-mini",
            seed=777,
            mode_tasks=(18, 22, 16),
            pe_count=4,
            cl_count=2,
        )
    )


UNIFORM_INSTANCES = {
    "mul1": lambda: registry.get("mul1"),
    "mul3": lambda: registry.get("mul3"),
    "smartphone": lambda: registry.get("smartphone"),
    "stress-mini": _stress_mini,
}


def _schedules_for(problem, genome):
    """All schedulable (mode, schedule) pairs of one genome."""
    try:
        cores = allocate_cores(problem, genome)
    except Exception:
        return
    for mode in problem.omsm.modes:
        try:
            yield mode, schedule_mode(
                problem, mode, genome.mode_mapping(mode.name), cores
            )
        except Exception:
            continue


def _assert_identical(a, b, label):
    assert len(a.tasks) == len(b.tasks), label
    assert len(a.comms) == len(b.comms), label
    for left, right in zip(a.tasks, b.tasks):
        assert left == right, (label, left, right)
    for left, right in zip(a.comms, b.comms):
        assert left == right, (label, left, right)


def _check_all_oracles(problem, mode, schedule, context, shared_rail):
    reference = reference_scale_schedule(
        problem, mode, schedule, shared_rail=shared_rail
    )
    vector = scale_schedule(
        problem,
        mode,
        schedule,
        shared_rail=shared_rail,
        context=context,
    )
    _assert_identical(reference, vector, f"{mode.name}/vector-vs-reference")


@pytest.mark.parametrize("name", INSTANCES)
@pytest.mark.parametrize("shared_rail", [True, False])
def test_random_mapping_corpus_bit_identical(name, shared_rail):
    problem = registry.get(name)
    context = context_for(problem)
    rng = random.Random(1234)
    checked = 0
    for _ in range(8):
        genome = MappingString.random(problem, rng)
        for mode, schedule in _schedules_for(problem, genome):
            _check_all_oracles(
                problem, mode, schedule, context, shared_rail
            )
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", sorted(UNIFORM_INSTANCES))
def test_uniform_random_mapping_corpus_bit_identical(name):
    # The uniform-stretch baseline against the seed oracle: exact
    # equality on every task and comm of the same random-mapping corpus.
    problem = UNIFORM_INSTANCES[name]()
    context = context_for(problem)
    rng = random.Random(1234)
    checked = 0
    for _ in range(8):
        genome = MappingString.random(problem, rng)
        for mode, schedule in _schedules_for(problem, genome):
            reference = reference_uniform_scale_schedule(
                problem, mode, schedule
            )
            scaled = uniform_scale_schedule(
                problem, mode, schedule, context=context
            )
            _assert_identical(reference, scaled, f"{mode.name}/uniform")
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", INSTANCES)
def test_mutation_chain_corpus_bit_identical(name):
    # GA-style trajectory: a random genome perturbed gene by gene; the
    # schedule deltas mirror what the synthesis loop actually produces.
    problem = registry.get(name)
    context = context_for(problem)
    rng = random.Random(99)
    genome = MappingString.random(problem, rng)
    checked = 0
    for _ in range(12):
        genome = genome.mutate(rng, per_gene_rate=0.08)
        for mode, schedule in _schedules_for(problem, genome):
            _check_all_oracles(problem, mode, schedule, context, True)
            checked += 1
    assert checked > 0


def test_micro_problems_bit_identical():
    for problem in (
        make_two_mode_problem(period=0.5),
        make_parallel_hw_problem(),
    ):
        context = context_for(problem)
        rng = random.Random(7)
        for _ in range(6):
            genome = MappingString.random(problem, rng)
            for mode, schedule in _schedules_for(problem, genome):
                for shared_rail in (True, False):
                    _check_all_oracles(
                        problem, mode, schedule, context, shared_rail
                    )
                _assert_identical(
                    reference_uniform_scale_schedule(problem, mode, schedule),
                    uniform_scale_schedule(
                        problem, mode, schedule, context=context
                    ),
                    f"{mode.name}/uniform",
                )
