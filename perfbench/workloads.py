"""Workload definitions for the co-synthesis benchmark.

Every workload is generated from the ``--seed`` alone; the program under
test only ever sees the campaign specs built here.  The seed orders the
work -- the campaign's instance queue, the soak's submission order and
tenant assignment -- while the set of jobs and their paired GA seeds
stay fixed.  The paper's quality figures (Psi-aware power, Psi saving,
search failures) are therefore exact repeats from run to run and equal
between ``tables`` and ``tables-pooled``: :func:`quality` reads them in
job order, not in arrival order, so only timing varies.  Three
workloads:

``tables``
    The paper's table regeneration (Tables 1-3): mul1-mul12 and the
    smartphone x DVS {none, gradient} x Psi {unaware, aware} with paired
    seeds -- 52 jobs, run serially (``jobs=1``).  DVS, scheduling,
    eval-cache and mapping work carry its wall clock; the engine pool
    never runs, so it is the bypass workload for pool changes.
``tables-pooled``
    The same 52 jobs and GA sizing with ``jobs=2`` and the default pool
    settings (async work stealing + speculation).  Identical jobs make
    its comparison with ``tables`` the "does pooled dispatch pay for
    itself" decision.
``server-soak``
    A closed loop against a ``repro-mm serve --slots 1`` subprocess: two
    tenants, one client thread each, each submitting a small campaign
    and waiting for its terminal state before submitting the next.
    Admission, fair scheduling, job-store writes and worker spawn carry
    its latency; DVS never runs.

Only the standard library and :mod:`repro` are used, so the module
imports in the benchmark's child processes without extra set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

WORKLOADS = ("tables", "tables-pooled", "server-soak")

#: Instances of the paper's tables: the tgff suite and the smartphone.
TABLE_INSTANCES = tuple(f"mul{i}" for i in range(1, 13)) + ("smartphone",)

#: GA sizing shared by both table workloads: the smallest tried at which
#: every one of the 52 jobs ends with a feasible design, so per-job
#: fixed costs (pool start, checkpoints, events) do not carry the time.
#: Convergence is disabled (``convergence_generations ==
#: max_generations``) so every job runs the same number of generations
#: whatever the seed: the work per run stays fixed and the run-to-run
#: spread reflects the host, not the GA.
TABLE_GA = {
    "population_size": 16,
    "max_generations": 14,
    "convergence_generations": 14,
    "local_search_budget_factor": 0.3,
}

#: Paired GA seed of every table job (run 0 of each cell).
TABLE_BASE_SEED = 1

#: Small, fast instances the soak rotates through.
SOAK_INSTANCES = ("mul1", "mul2", "mul5", "mul6", "mul9", "mul11")
SOAK_TENANTS = ("tenant-a", "tenant-b")
#: Campaigns each tenant submits in one soak run: 36 server jobs, so the
#: latency tail is p72 with ten samples beyond it.
SOAK_CAMPAIGNS_PER_TENANT = 18
#: Campaign ``i`` of the soak's fixed set uses GA seed base + i.
SOAK_BASE_SEED = 100
SOAK_GA = {
    "population_size": 8,
    "max_generations": 6,
    "convergence_generations": 6,
    "local_search_budget_factor": 0.4,
}
#: Client status-poll interval: well below the per-job service time so
#: latency samples are not quantised to the client's default 0.2 s.
SOAK_POLL_INTERVAL_S = 0.02

#: Percentiles need at least this many samples beyond them.
TAIL_BEYOND = 10


class GateError(Exception):
    """A correctness check failed: the run must report no metric."""


def tables_spec(seed: int, jobs: int) -> Dict[str, Any]:
    """The 52-job table campaign; ``jobs`` is the engine worker count.

    The seed shuffles the order the instances are queued in.
    """
    instances = list(TABLE_INSTANCES)
    random.Random(f"tables:{seed}").shuffle(instances)
    config = dict(TABLE_GA)
    config["jobs"] = jobs
    return {
        "name": f"tables-s{seed}",
        "instances": instances,
        "dvs_methods": ["none", "gradient"],
        "probability_settings": [False, True],
        "runs": 1,
        "base_seed": TABLE_BASE_SEED,
        "config": config,
    }


def soak_specs(seed: int) -> Dict[str, List[Dict[str, Any]]]:
    """Per tenant, the ordered campaign specs its client submits.

    The soak's campaign set is fixed; the seed shuffles it and deals it
    out to the tenants in turn.
    """
    total = SOAK_CAMPAIGNS_PER_TENANT * len(SOAK_TENANTS)
    campaigns = [
        soak_spec(
            f"soak-{index}",
            SOAK_INSTANCES[index % len(SOAK_INSTANCES)],
            SOAK_BASE_SEED + index,
        )
        for index in range(total)
    ]
    random.Random(f"soak:{seed}").shuffle(campaigns)
    return {
        tenant: campaigns[offset::len(SOAK_TENANTS)]
        for offset, tenant in enumerate(SOAK_TENANTS)
    }


def soak_spec(name: str, instance: str, base_seed: int) -> Dict[str, Any]:
    """One soak campaign: one instance, DVS none, both Psi policies."""
    return {
        "name": name,
        "instances": [instance],
        "dvs_methods": ["none"],
        "probability_settings": [False, True],
        "runs": 1,
        "base_seed": base_seed,
        "config": dict(SOAK_GA),
    }


def workload_instances(workload: str, seed: int) -> List[str]:
    """Problem names the workload loads (its set-up cost)."""
    if workload == "server-soak":
        return sorted(
            {
                spec["instances"][0]
                for specs in soak_specs(seed).values()
                for spec in specs
            }
        )
    return list(TABLE_INSTANCES)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def tail(values: Sequence[float]) -> Tuple[float, int, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond.

    Returns ``(value, percentile, n)``: the value is the sample with
    exactly ``TAIL_BEYOND`` samples above it, and ``percentile`` the
    whole-number percentile that sample sits at.  Raises when the set
    is too small for that sample to lie above the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1
    if index <= (n - 1) // 2:
        raise ValueError(
            f"{n} samples are too few for a tail percentile above the "
            f"median with {TAIL_BEYOND} samples beyond it"
        )
    return ordered[index], (100 * (index + 1)) // n, n


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


def result_digest(results: Iterable[Mapping[str, Any]]) -> str:
    """Hash over every job's id, exact power and best genes."""
    rows = sorted(
        (
            str(result["job_id"]),
            float(result["power"]).hex(),
            list(result["best_genes"]),
        )
        for result in results
    )
    payload = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def quality(results: Iterable[Mapping[str, Any]]) -> Dict[str, float]:
    """Psi-aware vs Psi-unaware power over (instance, DVS) cells.

    A cell is one (campaign, instance, DVS) triple; rows without a
    ``campaign`` key all belong to one campaign.  Both powers are the
    true-Psi Equation (1) values the jobs report.  A cell counts as a
    search success only when both designs are feasible and the aware
    one draws no more than the unaware one; the power figures cover the
    cells whose two designs are feasible.  Cells are visited in sorted
    order and summed with :func:`math.fsum`, so every figure depends on
    the set of results alone, not on the order they arrive in.
    """
    cells: Dict[Tuple[str, str, str], Dict[bool, Tuple[float, bool]]] = {}
    for result in results:
        key = (
            str(result.get("campaign", "")),
            str(result["instance"]),
            str(result["dvs"]),
        )
        cells.setdefault(key, {})[bool(result["use_probabilities"])] = (
            float(result["power"]),
            bool(result["feasible"]),
        )
    pairs = [
        (pair[True], pair[False])
        for _, pair in sorted(cells.items())
        if True in pair and False in pair
    ]
    complete = [
        (aware, unaware)
        for (aware, aware_ok), (unaware, unaware_ok) in pairs
        if aware_ok and unaware_ok
    ]
    if not complete:
        raise GateError("no (instance, DVS) cell has two feasible designs")
    successes = sum(1 for aware, unaware in complete if aware <= unaware)
    infeasible = sum(
        1 for pair in cells.values() for _, ok in pair.values() if not ok
    )
    return {
        "search_ok_pct": 100.0 * successes / len(pairs),
        "aware_power_geomean_mw": math.exp(
            math.fsum(math.log(aware * 1000.0) for aware, _ in complete)
            / len(complete)
        ),
        "psi_saving_pct": math.fsum(
            100.0 * (unaware - aware) / unaware for aware, unaware in complete
        ) / len(complete),
        "search_failures": float(len(pairs) - successes),
        "infeasible_jobs": float(infeasible),
        "cells": float(len(pairs)),
    }


def revalidate(problems: Mapping[str, Any], spec: Mapping[str, Any],
               results: Mapping[str, Mapping[str, Any]]) -> None:
    """Re-decode every job's best genes and check the reported result.

    Every job of ``spec`` must have a result; its genes must decode to
    an implementation that passes ``validate_implementation`` and whose
    true-Psi power equals the reported power exactly.
    """
    from repro.mapping.encoding import MappingString
    from repro.runtime.spec import CampaignSpec
    from repro.synthesis.evaluator import evaluate_mapping
    from repro.validation import validate_implementation

    campaign = CampaignSpec.from_dict(spec)
    for job in campaign.jobs():
        result = results.get(job.job_id)
        if result is None:
            raise GateError(f"job {job.job_id} has no result")
        problem = problems[job.instance]
        genome = MappingString(problem, list(result["best_genes"]))
        implementation = evaluate_mapping(
            problem, genome, job.configure(campaign.config)
        )
        if implementation is None:
            raise GateError(f"job {job.job_id}: best genes infeasible")
        validate_implementation(implementation)
        if implementation.metrics.average_power != float(result["power"]):
            raise GateError(
                f"job {job.job_id}: reported power {result['power']!r} != "
                f"re-evaluated {implementation.metrics.average_power!r}"
            )
