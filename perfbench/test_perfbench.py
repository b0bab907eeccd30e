"""The benchmark's own checks, at reduced sizing.

Run from the checkout root: ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import os
import random
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import phase  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, instrument, restore  # noqa: E402

import repro.api as api  # noqa: E402

SMALL_GA = {
    "population_size": 6,
    "max_generations": 3,
    "convergence_generations": 3,
    "local_search_budget_factor": 0.2,
}


def small_tables_spec(jobs: int, seed: int = 3) -> dict:
    """The table campaign cut to mul1 and mul6, in the seed's order."""
    spec = workloads.tables_spec(seed=seed, jobs=jobs)
    spec["instances"] = [
        name for name in spec["instances"] if name in ("mul1", "mul6")
    ]
    spec["config"].update(SMALL_GA)
    return spec


def campaign_results(spec: dict, run_dir) -> list:
    outcome = api.run_campaign(spec, run_dir)
    assert not outcome.failures
    return [result.to_dict() for result in outcome.results.values()]


def test_tables_and_pooled_digests_are_identical(tmp_path):
    serial_spec, pooled_spec = small_tables_spec(1), small_tables_spec(2)
    serial = campaign_results(serial_spec, tmp_path / "serial")
    pooled = campaign_results(pooled_spec, tmp_path / "pooled")
    assert len(serial) == len(pooled) == 8
    assert workloads.result_digest(serial) == workloads.result_digest(pooled)
    assert workloads.quality(serial) == workloads.quality(pooled)


def test_quality_is_equal_across_seeds(tmp_path):
    first, second = small_tables_spec(1, seed=1), small_tables_spec(1, seed=2)
    assert first["instances"] != second["instances"]
    assert workloads.quality(
        campaign_results(first, tmp_path / "first")
    ) == workloads.quality(campaign_results(second, tmp_path / "second"))


def synthetic_rows(cells: int) -> list:
    rng = random.Random(5)
    return [
        {
            "instance": f"mul{cell}",
            "dvs": "none",
            "use_probabilities": aware,
            "power": rng.uniform(0.01, 0.2),
            "feasible": True,
        }
        for cell in range(cells)
        for aware in (False, True)
    ]


def test_quality_ignores_result_order():
    rows = synthetic_rows(26)
    expected = workloads.quality(rows)
    for shuffle_seed in range(20):
        shuffled = list(rows)
        random.Random(shuffle_seed).shuffle(shuffled)
        assert workloads.quality(shuffled) == expected


def test_infeasible_cells_are_search_failures_outside_power_figures():
    rows = synthetic_rows(4)
    rows[0]["feasible"] = False
    figures = workloads.quality(rows)
    assert figures["infeasible_jobs"] == 1.0
    assert figures["cells"] == 4.0
    assert figures["search_failures"] >= 1.0
    assert figures["aware_power_geomean_mw"] == (
        workloads.quality(rows[2:])["aware_power_geomean_mw"]
    )


def test_seed_orders_work_but_keeps_the_job_set():
    first, second = workloads.tables_spec(1, 1), workloads.tables_spec(2, 1)
    assert first["instances"] != second["instances"]
    assert sorted(first["instances"]) == sorted(second["instances"])
    assert first["base_seed"] == second["base_seed"]
    plans = [workloads.soak_specs(seed) for seed in (1, 2)]
    assert plans[0] != plans[1]
    assert plans[0] == workloads.soak_specs(1)

    def job_set(plan):
        return sorted(
            (spec["instances"][0], spec["base_seed"])
            for specs in plan.values()
            for spec in specs
        )

    assert job_set(plans[0]) == job_set(plans[1])


def test_served_soak_spec_equals_direct_campaign(tmp_path):
    from repro.server.client import ServerClient

    spec = workloads.soak_spec("check", "mul1", workloads.SOAK_BASE_SEED)
    spec["config"].update(SMALL_GA)
    state = tmp_path / "srv"
    state.mkdir()
    client = ServerClient(phase.socket_of(state))
    server = phase.spawn_server(state)
    try:
        phase.wait_for_ping(client, server)
        job_id = client.submit(spec, tenant="tenant-a")["job_id"]
        job = client.wait(job_id, timeout=120, poll_interval=0.02)
        served = client.result(job_id)["results"]
    finally:
        phase.stop_server(client, server)
    assert server.returncode is not None
    assert job["state"] == "done"
    direct = campaign_results(spec, tmp_path / "direct")
    assert workloads.result_digest(served.values()) == (
        workloads.result_digest(direct)
    )


def test_traced_campaign_partitions_its_wall_clock(tmp_path):
    tracer = Tracer()
    patched = instrument(tracer)
    try:
        tracer.register_thread()
        started = time.perf_counter()
        with tracer.span("campaign"):
            api.run_campaign(small_tables_spec(1), tmp_path / "run")
        wall = time.perf_counter() - started
        tracer.stop()
    finally:
        restore(patched)
    layers = phase.span_layers(tracer)
    assert 0 < layers["trace.clock_s"] <= wall
    assert layers["trace.unattributed_s"] < 0.05 * layers["trace.clock_s"]
    assert layers["dvs.scale_schedule_calls"] > 0
    assert layers["engine.close_s"] == 0.0
    assert layers["runtime.checkpoints"] > 0


def test_tail_has_ten_samples_beyond_it():
    value, percentile, n = workloads.tail([float(i) for i in range(52)])
    assert (value, percentile, n) == (41.0, 80, 52)
    assert sum(1 for i in range(52) if i > value) == workloads.TAIL_BEYOND
    with pytest.raises(ValueError):
        workloads.tail([float(i) for i in range(20)])
