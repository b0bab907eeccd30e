"""One benchmark phase in a fresh interpreter (started by ``run.py``).

    python perfbench/phase.py setup   --workload W --seed N [--out FILE]
    python perfbench/phase.py measure --workload W --seed N --trace 0|1 \
        --workdir DIR --out FILE

``setup`` is the cold start: import :mod:`repro`, load the workload's
problems and build their decode contexts (campaign workloads), or spawn
``--starts`` fresh servers one after another and time each from spawn
to its first ``ping`` (``server-soak``; the samples go to ``--out``).  ``measure`` runs the workload's
measured phase, checks every result, and writes its raw measurements as
JSON to ``--out``.  Exit code 0 means every correctness check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import resource
import subprocess
import sys
import threading
import time
from typing import Any, ContextManager, Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from workloads import GateError  # noqa: E402

#: Span names that are a thread's root; their self time is unattributed.
ROOT_SPANS = ("campaign", "soak.client")

#: Per-layer metric -> (span name, "self_s" | "calls").
SPAN_METRICS = {
    "synthesis.driver_self_s": ("synthesis.run", "self_s"),
    "synthesis.breed_s": ("synthesis.breed", "self_s"),
    "synthesis.improve_s": ("synthesis.improve", "self_s"),
    "synthesis.local_search_self_s": ("synthesis.local_search", "self_s"),
    "synthesis.speculate_s": ("synthesis.speculate", "self_s"),
    "engine.backend_setup_s": ("engine.backend_setup", "self_s"),
    "engine.drain_wait_s": ("engine.drain", "self_s"),
    "engine.speculate_dispatch_s": ("engine.speculate", "self_s"),
    "engine.close_s": ("engine.close", "self_s"),
    "eval.pipeline_self_s": ("eval.pipeline", "self_s"),
    "eval.prepare_mode_s": ("eval.prepare_mode", "self_s"),
    "eval.run_mode_self_s": ("eval.run_mode", "self_s"),
    "scheduling.schedule_mode_s": ("scheduling.schedule_mode", "self_s"),
    "scheduling.schedule_mode_calls": ("scheduling.schedule_mode", "calls"),
    "scheduling.mobility_s": ("scheduling.mobility", "self_s"),
    "mapping.combine_cores_s": ("mapping.combine_cores", "self_s"),
    "mapping.combine_cores_calls": ("mapping.combine_cores", "calls"),
    "dvs.scale_schedule_s": ("dvs.scale_schedule", "self_s"),
    "dvs.scale_schedule_calls": ("dvs.scale_schedule", "calls"),
    "power.s": ("power", "self_s"),
    "power.calls": ("power", "calls"),
    "obs.registry_s": ("obs.registry", "self_s"),
    "obs.registry_calls": ("obs.registry", "calls"),
    "runtime.checkpoint_s": ("runtime.checkpoint", "self_s"),
    "runtime.checkpoints": ("runtime.checkpoint", "calls"),
    "runtime.store_s": ("runtime.store", "self_s"),
    "runtime.events_s": ("runtime.events", "self_s"),
    "runtime.events": ("runtime.events", "calls"),
    "runtime.validate_s": ("runtime.validate", "self_s"),
    "runtime.summary_s": ("runtime.summary", "self_s"),
    "server.submit_rpc_s": ("server.submit", "self_s"),
    "server.status_rpc_s": ("server.status", "self_s"),
    "server.poll_sleep_s": ("soak.poll_sleep", "self_s"),
}

#: Engine profiler phases summed from every job's ``perf`` record.  In
#: pooled runs these include the work done inside forked pool workers,
#: which spans cannot see.
PERF_PHASES = ("mobility", "cores", "schedule", "dvs", "power", "cache_hit")


def cpu_seconds() -> float:
    """User + system CPU of this process and all its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def traced(tracer: Any, name: str) -> ContextManager[None]:
    """A span named ``name`` when tracing, else nothing."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name)


def load_problems(names: List[str]) -> Dict[str, Any]:
    """The named problems with their decode contexts built."""
    import repro.api as api
    from repro.engine.decode_cache import context_for

    problems = {name: api.load_problem(name) for name in names}
    for problem in problems.values():
        context_for(problem)
    return problems


# ----------------------------------------------------------------------
# Job-record aggregation
# ----------------------------------------------------------------------


def perf_layers(results: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer counts the program returns on ``JobResult.perf``."""
    total: Dict[str, float] = {}

    def add(key: str, value: Any) -> None:
        total[key] = total.get(key, 0.0) + float(value or 0.0)

    for result in results:
        perf = result.get("perf") or {}
        for key in (
            "evaluations", "cache_hits", "dedup_hits",
            "parallel_evaluations", "inprocess_evaluations",
            "pool_busy_seconds", "pool_dispatch_seconds",
            "speculation_issued", "speculation_hits", "pool_fallbacks",
            "mode_cache_hits", "mode_cache_misses",
        ):
            add(key, perf.get(key))
        add("pool_capacity",
            float(perf.get("pool_dispatch_seconds") or 0.0)
            * float(perf.get("pool_workers") or 0.0))
        phases = perf.get("phase_seconds") or {}
        for phase in PERF_PHASES:
            add(f"phase.{phase}", phases.get(phase))
        add("retries", int(result.get("attempts", 1)) - 1)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator > 0 else 0.0

    get = total.get
    layers = {
        "synthesis.genomes_requested":
            get("evaluations", 0.0) + get("cache_hits", 0.0)
            + get("dedup_hits", 0.0),
        "synthesis.dedup_hits": get("dedup_hits", 0.0),
        "synthesis.genome_cache_hits": get("cache_hits", 0.0),
        "engine.evaluations": get("evaluations", 0.0),
        "engine.parallel_evaluations": get("parallel_evaluations", 0.0),
        "engine.inprocess_evaluations": get("inprocess_evaluations", 0.0),
        "engine.pool_busy_s": get("pool_busy_seconds", 0.0),
        "engine.pool_dispatch_s": get("pool_dispatch_seconds", 0.0),
        "engine.pool_utilisation":
            ratio(get("pool_busy_seconds", 0.0), get("pool_capacity", 0.0)),
        "engine.speculation_issued": get("speculation_issued", 0.0),
        "engine.speculation_hit_ratio":
            ratio(get("speculation_hits", 0.0),
                  get("speculation_issued", 0.0)),
        "engine.pool_fallbacks": get("pool_fallbacks", 0.0),
        "eval.mode_cache_hits": get("mode_cache_hits", 0.0),
        "eval.mode_cache_misses": get("mode_cache_misses", 0.0),
        "eval.mode_cache_hit_ratio":
            ratio(get("mode_cache_hits", 0.0),
                  get("mode_cache_hits", 0.0)
                  + get("mode_cache_misses", 0.0)),
        "runtime.job_retries": get("retries", 0.0),
    }
    for phase in PERF_PHASES:
        layers[f"jobperf.{phase}_s"] = get(f"phase.{phase}", 0.0)
    return layers


def span_layers(tracer: Any) -> Dict[str, float]:
    """Self times and call counts from the recorded spans."""
    times = tracer.self_times()
    unmapped = set(times) - set(ROOT_SPANS) - {
        span for span, _ in SPAN_METRICS.values()
    }
    if unmapped:
        raise GateError(f"spans without a metric: {sorted(unmapped)}")
    layers = {
        metric: times.get(span, {}).get(field, 0.0)
        for metric, (span, field) in SPAN_METRICS.items()
    }
    clock = sum(times.get(root, {}).get("root_s", 0.0) for root in ROOT_SPANS)
    unattributed = sum(
        times.get(root, {}).get("self_s", 0.0) for root in ROOT_SPANS
    )
    attributed = sum(
        layers[metric]
        for metric, (_, field) in SPAN_METRICS.items()
        if field == "self_s"
    )
    if abs(attributed + unattributed - clock) > 1e-6 * max(1.0, clock):
        raise GateError(
            f"trace partition broken: {attributed} + {unattributed} "
            f"!= {clock}"
        )
    layers["trace.clock_s"] = clock
    layers["trace.unattributed_s"] = unattributed
    layers["trace.spans"] = float(tracer.span_count())
    layers["runtime.checkpoint_bytes"] = tracer.counters.get(
        "runtime.checkpoint_bytes", 0.0
    )
    layers["eval.infeasible_evaluations"] = tracer.counters.get(
        "eval.infeasible_evaluations", 0.0
    )
    return layers


# ----------------------------------------------------------------------
# Campaign workloads
# ----------------------------------------------------------------------


def measure_tables(args: argparse.Namespace, tracer: Any) -> Dict[str, Any]:
    import repro.api as api

    jobs = 2 if args.workload == "tables-pooled" else 1
    spec = workloads.tables_spec(args.seed, jobs)
    problems = load_problems(list(workloads.TABLE_INSTANCES))
    started: Dict[str, float] = {}
    latency: Dict[str, float] = {}

    def on_event(event: Dict[str, Any]) -> None:
        kind = event.get("event")
        if kind == "job_started":
            started.setdefault(event["job_id"], time.perf_counter())
            if tracer is not None:
                tracer.set_job(event["job_id"])
        elif kind == "job_finished":
            job_id = event["job_id"]
            latency[job_id] = time.perf_counter() - started[job_id]

    run_dir = pathlib.Path(args.workdir) / f"campaign-{os.getpid()}"
    cpu_before = cpu_seconds()
    wall_started = time.perf_counter()
    with traced(tracer, "campaign"):
        outcome = api.run_campaign(
            spec, run_dir, problem_loader=problems.__getitem__,
            on_event=on_event,
        )
    wall = time.perf_counter() - wall_started
    cpu = cpu_seconds() - cpu_before
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.stop()

    attempted = len(outcome.spec.jobs())
    results = [result.to_dict() for result in outcome.results.values()]
    failed = attempted - len(results)
    if outcome.failures or failed:
        raise GateError(
            f"{failed} of {attempted} jobs did not finish: "
            f"{dict(outcome.failures)}"
        )
    workloads.revalidate(
        problems, spec, {result["job_id"]: result for result in results}
    )
    layers = perf_layers(results)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "latencies": {
            result["job_id"]: latency[result["job_id"]] for result in results
        },
        "attempted": attempted,
        "failed": failed,
        "digest": workloads.result_digest(results),
        "quality": workloads.quality(results),
        "layers": layers,
    }


# ----------------------------------------------------------------------
# Server soak
# ----------------------------------------------------------------------


def spawn_server(state: pathlib.Path) -> "subprocess.Popen[bytes]":
    """Start ``repro-mm serve --slots 1`` on ``state`` (relative paths).

    The socket path stays relative to the checkout root (the server's
    working directory) so it fits the Unix-socket path limit wherever
    the checkout lives.
    """
    log = open(state.parent / f"{state.name}.log", "wb")
    try:
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--state", str(state), "--socket", str(socket_of(state)),
                "--slots", "1",
            ],
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    finally:
        log.close()


def socket_of(state: pathlib.Path) -> pathlib.Path:
    return state / "s.sock"


def wait_for_ping(
    client: Any, server: "subprocess.Popen[bytes]", timeout: float = 60.0
) -> None:
    from repro.errors import ServerError

    deadline = time.monotonic() + timeout
    while True:
        try:
            client.ping()
            return
        except ServerError:
            if server.poll() is not None:
                raise GateError(
                    f"server exited with code {server.returncode} "
                    f"before answering ping"
                ) from None
            if time.monotonic() >= deadline:
                raise GateError("server did not answer ping") from None
            time.sleep(0.002)


def stop_server(client: Any, server: "subprocess.Popen[bytes]") -> None:
    """Shut the server down and reap it (its CPU then counts as ours)."""
    from repro.errors import ServerError

    try:
        client.shutdown()
        server.wait(timeout=60)
    except (ServerError, subprocess.TimeoutExpired):
        server.kill()
        server.wait()


def relative_state(workdir: str, name: str) -> pathlib.Path:
    state = pathlib.Path(os.path.relpath(pathlib.Path(workdir) / name))
    state.mkdir(parents=True, exist_ok=True)
    return state


def soak_setup(args: argparse.Namespace) -> List[float]:
    """Per fresh server: seconds from spawn to its first successful ping."""
    from repro.server.client import ServerClient

    samples = []
    for start in range(args.starts):
        state = relative_state(args.workdir, f"setup-{start}")
        client = ServerClient(socket_of(state))
        spawned = time.perf_counter()
        server = spawn_server(state)
        try:
            wait_for_ping(client, server)
            samples.append(time.perf_counter() - spawned)
        finally:
            stop_server(client, server)
    return samples


def measure_soak(args: argparse.Namespace, tracer: Any) -> Dict[str, Any]:
    from repro.errors import AdmissionError
    from repro.server.client import ServerClient
    from repro.server.jobs import TERMINAL_STATES

    terminal = {state.value for state in TERMINAL_STATES}
    plan = workloads.soak_specs(args.seed)
    poll = workloads.SOAK_POLL_INTERVAL_S
    state = relative_state(args.workdir, f"soak-{os.getpid()}")
    control = ServerClient(socket_of(state))
    records: List[Dict[str, Any]] = []
    rejections: List[str] = []
    errors: List[Exception] = []
    lock = threading.Lock()

    def client_loop(tenant: str) -> None:
        client = ServerClient(socket_of(state))
        try:
            for spec in plan[tenant]:
                submitted = time.perf_counter()
                try:
                    job_id = client.submit(spec, tenant=tenant)["job_id"]
                except AdmissionError as exc:
                    with lock:
                        rejections.append(str(exc))
                    continue
                if tracer is not None:
                    tracer.set_job(job_id)
                while True:
                    job = client.status(job_id)["job"]
                    if job["state"] in terminal:
                        break
                    with traced(tracer, "soak.poll_sleep"):
                        time.sleep(poll)
                latency = time.perf_counter() - submitted
                with lock:
                    records.append(
                        {
                            "campaign": spec["name"],
                            "spec": spec,
                            "job": job,
                            "latency": latency,
                        }
                    )
        except Exception as exc:  # reported by the main thread
            with lock:
                errors.append(exc)

    def client_thread(tenant: str) -> None:
        if tracer is not None:
            tracer.register_thread()
        with traced(tracer, "soak.client"):
            client_loop(tenant)

    cpu_before = cpu_seconds()
    server = spawn_server(state)
    try:
        wait_for_ping(control, server)
        threads = [
            threading.Thread(
                target=client_thread,
                args=(tenant,),
                name=f"soak-{tenant}",
            )
            for tenant in workloads.SOAK_TENANTS
        ]
        wall_started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall_started
        if tracer is not None:
            tracer.stop()
        if errors:
            raise GateError(f"soak client failed: {errors[0]!r}")
        outcomes = {}
        for record in records:
            job_id = record["job"]["job_id"]
            outcomes[job_id] = (
                control.result(job_id),
                list(control.stream(job_id)),
            )
    finally:
        stop_server(control, server)
    cpu = cpu_seconds() - cpu_before
    rss = peak_rss_mb()

    attempted = sum(len(specs) for specs in plan.values())
    problems = load_problems(workloads.workload_instances("server-soak",
                                                          args.seed))
    results: List[Dict[str, Any]] = []
    server_layers = {
        "server.queue_wait_s": 0.0,
        "server.run_s": 0.0,
        "server.worker_start_s": 0.0,
        "server.notify_lag_s": 0.0,
        "server.admission_rejections": float(len(rejections)),
    }
    events = checkpoints = 0
    failed = len(rejections)
    for record in records:
        job = record["job"]
        response, job_events = outcomes[job["job_id"]]
        if job["state"] != "done":
            failed += 1
            continue
        campaign_results = response["results"]
        workloads.revalidate(problems, record["spec"], campaign_results)
        for result in campaign_results.values():
            results.append(dict(result, campaign=record["campaign"]))
        started_event = next(
            event for event in job_events
            if event.get("event") == "campaign_started"
        )
        server_layers["server.queue_wait_s"] += (
            job["started_ts"] - job["submitted_ts"]
        )
        server_layers["server.run_s"] += (
            job["finished_ts"] - job["started_ts"]
        )
        server_layers["server.worker_start_s"] += (
            started_event["ts"] - job["started_ts"]
        )
        server_layers["server.notify_lag_s"] += record["latency"] - (
            job["finished_ts"] - job["submitted_ts"]
        )
        events += len(job_events)
        checkpoints += sum(
            1 for event in job_events if event.get("event") == "checkpointed"
        )
    if failed:
        raise GateError(
            f"{failed} of {attempted} soak jobs did not end done "
            f"({len(rejections)} admission rejections)"
        )
    layers = perf_layers(results)
    layers.update(server_layers)
    layers["runtime.events"] = float(events)
    layers["runtime.checkpoints"] = float(checkpoints)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        # Every submission is a server job of its own; the state
        # directory tells apart the job ids of separate phases.
        "latencies": {
            f"{state}/{record['job']['job_id']}": record["latency"]
            for record in records
        },
        "attempted": attempted,
        "failed": failed,
        "digest": workloads.result_digest(
            dict(result, job_id=f"{result['campaign']}/{result['job_id']}")
            for result in results
        ),
        "quality": workloads.quality(results),
        "layers": layers,
        "poll_interval_s": poll,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--out", default=None)
    parser.add_argument("--starts", type=int, default=1,
                        help="setup of server-soak: servers to start")
    args = parser.parse_args(argv)

    if args.phase == "setup":
        if args.workload == "server-soak":
            output: Dict[str, Any] = {"samples": soak_setup(args)}
        else:
            load_problems(workloads.workload_instances(args.workload,
                                                       args.seed))
            output = {}
    else:
        tracer = None
        if args.trace:
            from tracer import Tracer, instrument

            tracer = Tracer()
            instrument(tracer)
            if args.workload != "server-soak":
                tracer.register_thread()
        measure = (
            measure_soak if args.workload == "server-soak" else measure_tables
        )
        try:
            output = measure(args, tracer)
        except GateError as exc:
            print(f"correctness gate: {exc}", file=sys.stderr)
            return 1
        if tracer is not None:
            # Counts the measured phase read from the program's own
            # records (the soak's server-side events) win over spans.
            layers = span_layers(tracer)
            layers.update(output["layers"])
            output["layers"] = layers
            tracer.export(str(pathlib.Path(args.workdir) / "spans.npz"))
    if args.out is not None:
        pathlib.Path(args.out).write_text(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
