"""Command-line interface: run the paper's experiments from a shell.

Examples::

    repro-mm table1                      # Table 1 (no DVS), all instances
    repro-mm table2 --runs 3 --only mul6 mul7
    repro-mm table3 --runs 2             # smart phone, both rows
    repro-mm synthesize mul5 --dvs gradient --probabilities
    repro-mm inspect smartphone          # print a problem's structure
    repro-mm problems                    # list registered instances
    repro-mm adapt smartphone --steps 300 --seed 1   # closed-loop Ψ demo
    repro-mm campaign spec.json --out runs/t1   # resumable campaign
    repro-mm campaign --resume runs/t1          # continue after a kill
    repro-mm campaign --report runs/t1          # tables from events only
    repro-mm campaign --status runs/t1          # progress + ETA snapshot
    repro-mm campaign --tail runs/t1            # follow the event stream
    repro-mm serve --state srv --slots 2        # campaign job server
    repro-mm submit spec.json --state srv --tenant alice --wait
    repro-mm jobs --state srv                   # list server jobs
    repro-mm cancel j000001-alice --state srv   # cancel one job

The module is also runnable as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Sequence

from repro.analysis.experiments import (
    run_smartphone_experiment,
    run_suite_experiment,
)
from repro.analysis.paper_data import TABLE1, TABLE2
from repro.analysis.reporting import (
    format_comparison_table,
    format_paper_comparison,
    format_smartphone_table,
    results_from_events,
)
from repro.benchgen import registry
from repro.benchgen.suite import SUITE_SPECS
from repro.errors import CampaignError
from repro.problem import Problem
from repro.runtime import (
    CampaignSpec,
    events_path,
    resume_campaign,
    run_campaign,
)
from repro.synthesis.config import DvsMethod, SynthesisConfig
from repro.synthesis.cosynthesis import MultiModeSynthesizer


def _load_problem(name: str) -> Problem:
    """Resolve an instance name via the registry (exit 2 on unknown)."""
    try:
        return registry.get(name)
    except KeyError as exc:
        raise SystemExit(f"repro-mm: error: {exc.args[0]}") from None


def _config_from_args(args: argparse.Namespace) -> SynthesisConfig:
    return SynthesisConfig(
        use_probabilities=getattr(args, "probabilities", True),
        dvs=DvsMethod(getattr(args, "dvs", "none")),
        population_size=args.population,
        max_generations=args.generations,
        convergence_generations=args.convergence,
        jobs=getattr(args, "jobs", 1),
        async_pool=not getattr(args, "no_async_pool", False),
        speculative=not getattr(args, "no_speculation", False),
        speculation_depth=getattr(args, "speculation_depth", 1),
        seed=args.seed,
    )


def _add_ga_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--population", type=int, default=40, help="GA population size"
    )
    parser.add_argument(
        "--generations", type=int, default=120, help="generation limit"
    )
    parser.add_argument(
        "--convergence",
        type=int,
        default=20,
        help="stop after this many generations without improvement",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for population evaluation (1 = serial; "
            "results are identical for any job count)"
        ),
    )
    parser.add_argument(
        "--no-async-pool",
        action="store_true",
        help=(
            "dispatch pool batches through the per-generation barrier "
            "pool instead of the work-stealing asynchronous evaluator "
            "with cross-worker cache publication (ablation; results "
            "are bit-identical either way; only meaningful with "
            "--jobs > 1)"
        ),
    )
    parser.add_argument(
        "--no-speculation",
        action="store_true",
        help=(
            "do not evaluate predicted next-generation genomes during "
            "the breeding window (ablation; results are bit-identical "
            "either way; only meaningful with --jobs > 1 and the "
            "asynchronous pool)"
        ),
    )
    parser.add_argument(
        "--speculation-depth",
        type=int,
        default=1,
        help=(
            "speculation look-ahead: 1 dispatches only the exactly "
            "predicted next batch, deeper levels add heuristic probe "
            "mutations as pool filler and cache warmers"
        ),
    )


def _cmd_table(args: argparse.Namespace, dvs: DvsMethod) -> int:
    config = SynthesisConfig(
        population_size=args.population,
        max_generations=args.generations,
        convergence_generations=args.convergence,
        jobs=args.jobs,
    )
    results = run_suite_experiment(
        dvs=dvs,
        runs=args.runs,
        config=config,
        examples=args.only or None,
        base_seed=args.seed,
    )
    table_number = "1" if dvs is DvsMethod.NONE else "2"
    title = (
        f"Table {table_number}: Considering Execution Probabilities "
        f"({'w/o' if dvs is DvsMethod.NONE else 'with'} DVS, "
        f"{args.runs} runs averaged)"
    )
    print(format_comparison_table(results, title))
    paper = TABLE1 if dvs is DvsMethod.NONE else TABLE2
    print()
    print(
        format_paper_comparison(
            results,
            {row.example: row for row in paper},
            title=f"Table {table_number} vs paper",
        )
    )
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    config = SynthesisConfig(
        population_size=args.population,
        max_generations=args.generations,
        convergence_generations=args.convergence,
        jobs=args.jobs,
    )
    results = run_smartphone_experiment(
        runs=args.runs, config=config, base_seed=args.seed
    )
    print(
        format_smartphone_table(
            results,
            title=(
                f"Table 3: Results of Smart Phone Experiments "
                f"({args.runs} runs averaged)"
            ),
        )
    )
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    problem = _load_problem(args.problem)
    config = _config_from_args(args)
    result = MultiModeSynthesizer(problem, config).run()
    print(result.best.summary())
    print(
        f"  generations: {result.generations}, evaluations: "
        f"{result.evaluations}, cpu time: {result.cpu_time:.1f} s"
    )
    if result.perf is not None:
        perf = result.perf
        print(
            f"  perf: {perf.evaluations_per_second:.0f} evals/s, "
            f"cache hit rate {perf.cache_hit_rate:.1%}, "
            f"jobs {perf.jobs}"
            + (
                f", pool utilisation {perf.pool_utilisation:.1%}"
                if perf.jobs > 1
                else ""
            )
        )
    if args.gantt:
        from repro.analysis.gantt import render_all_modes

        print()
        print(
            render_all_modes(
                result.best.schedules, problem.architecture
            )
        )
    if args.save_mapping:
        import json

        from repro.io import mapping_to_dict

        with open(args.save_mapping, "w") as handle:
            json.dump(
                mapping_to_dict(result.best.mapping),
                handle,
                indent=2,
                sort_keys=True,
            )
        print(f"  mapping written to {args.save_mapping}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    problem = _load_problem(args.problem)
    omsm = problem.omsm
    print(f"problem {problem.name!r}")
    print(f"  modes: {len(omsm)}, genes: {problem.genome_length()}")
    for mode in omsm.modes:
        graph = mode.task_graph
        print(
            f"    {mode.name}: Ψ={mode.probability:.3f} "
            f"φ={mode.period * 1e3:.1f} ms, {len(graph)} tasks, "
            f"{len(graph.edges)} edges, {len(graph.task_types())} types"
        )
    print(f"  shared task types: {sorted(omsm.shared_task_types())}")
    print("  architecture:")
    for pe in problem.architecture.pes:
        dvs = (
            f", DVS {pe.voltage_levels}" if pe.dvs_enabled else ""
        )
        area = f", area {pe.area:.0f}" if pe.is_hardware else ""
        print(
            f"    {pe.name}: {pe.kind.value}{area}, "
            f"P_stat {pe.static_power * 1e3:.2f} mW{dvs}"
        )
    for link in problem.architecture.links:
        print(
            f"    {link.name}: links {sorted(link.connects)}, "
            f"{link.bandwidth_bps / 1e6:.1f} Mbit/s"
        )
    print(f"  transitions: {len(omsm.transitions)}")
    return 0


def _print_campaign_event(event: Dict[str, object]) -> None:
    """One terse progress line per job-level event."""
    kind = event.get("event")
    if kind == "campaign_started":
        print(
            f"campaign {event['campaign']!r}: "
            f"{event['pending_jobs']}/{event['total_jobs']} jobs pending"
        )
    elif kind == "job_started":
        resumed = event.get("resumed_from") or 0
        suffix = f" (resuming from generation {resumed})" if resumed else ""
        print(f"  [{event['job_id']}] started{suffix}")
    elif kind == "job_finished":
        print(
            f"  [{event['job_id']}] finished: "
            f"{float(event['power']) * 1e3:.3f} mW, "
            f"{event['generations']} generations, "
            f"{float(event['cpu_time']):.1f} s"
        )
    elif kind == "job_retried":
        print(
            f"  [{event['job_id']}] worker pool died; retrying in "
            f"{event['backoff_seconds']} s"
        )
    elif kind == "job_failed":
        print(f"  [{event['job_id']}] FAILED: {event['error']}")
    elif kind == "job_skipped":
        print(f"  [{event['job_id']}] already complete, skipped")


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.status is not None:
        from repro.obs import (
            campaign_status,
            format_pool_stats,
            format_status,
            load_run_summary,
        )

        try:
            print(format_status(campaign_status(args.status)))
        except CampaignError as exc:
            raise SystemExit(f"repro-mm: error: {exc}") from None
        # Pool figures come from the run summary when one exists; any
        # field an older summary lacks (pre-dispatch-window files, a
        # run that fell back to serial) renders as n/a, never a crash.
        try:
            summary = load_run_summary(args.status)
        except CampaignError:
            summary = None
        if summary is not None:
            print(format_pool_stats(summary))
        return 0
    if args.tail is not None:
        from repro.obs import format_event, tail_events

        try:
            for event in tail_events(
                events_path(args.tail), follow=not args.no_follow
            ):
                print(format_event(event), flush=True)
        except CampaignError as exc:
            raise SystemExit(f"repro-mm: error: {exc}") from None
        except KeyboardInterrupt:
            pass
        return 0
    if args.report is not None:
        try:
            results = results_from_events(events_path(args.report))
        except CampaignError as exc:
            raise SystemExit(f"repro-mm: error: {exc}") from None
        if not results:
            print("no finished jobs in the event stream yet")
            return 1
        print(
            format_comparison_table(
                results, title=f"Campaign report ({args.report})"
            )
        )
        return 0
    if args.init_spec is not None:
        template = CampaignSpec(
            name="example",
            instances=["mul9", "mul11"],
            dvs_methods=[DvsMethod.NONE],
            probability_settings=[False, True],
            runs=2,
            base_seed=400,
            config=SynthesisConfig(),
        )
        template.save(args.init_spec)
        print(f"template campaign spec written to {args.init_spec}")
        return 0
    on_event = None if args.quiet else _print_campaign_event
    try:
        if args.resume is not None:
            outcome = resume_campaign(args.resume, on_event=on_event)
        else:
            if args.spec is None or args.out is None:
                raise SystemExit(
                    "repro-mm: error: campaign needs either SPEC --out DIR, "
                    "--resume DIR, --report DIR or --init-spec FILE"
                )
            spec = CampaignSpec.load(args.spec)
            outcome = run_campaign(spec, args.out, on_event=on_event)
    except CampaignError as exc:
        raise SystemExit(f"repro-mm: error: {exc}") from None
    print(
        f"campaign done: {outcome.completed} jobs completed, "
        f"{outcome.failed} failed (run dir: {outcome.run_dir})"
    )
    results = results_from_events(events_path(outcome.run_dir))
    if results:
        print()
        print(
            format_comparison_table(
                results, title=f"Campaign {outcome.spec.name!r}"
            )
        )
    return 1 if outcome.failures else 0


def _server_socket(args: argparse.Namespace) -> str:
    """Resolve the server socket from ``--socket`` or ``--state``."""
    import pathlib

    from repro.server.service import SOCKET_FILENAME

    if getattr(args, "socket", None):
        return str(args.socket)
    if getattr(args, "state", None):
        return str(pathlib.Path(args.state) / SOCKET_FILENAME)
    raise SystemExit(
        f"repro-mm: error: {args.command} needs --state DIR or "
        f"--socket PATH to locate the server"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import ServerError
    from repro.server.service import CampaignServer

    try:
        server = CampaignServer(
            args.state,
            socket_path=args.socket,
            slots=args.slots,
            tenant_quota=args.tenant_quota,
            queue_bound=args.queue_bound,
        )
    except ServerError as exc:
        raise SystemExit(f"repro-mm: error: {exc}") from None
    print(
        f"serving campaigns from {server.state_dir} "
        f"(socket {server.socket_path}, {args.slots} slots)",
        flush=True,
    )
    try:
        server.run()
    except ServerError as exc:
        raise SystemExit(f"repro-mm: error: {exc}") from None
    except KeyboardInterrupt:
        pass
    print("server stopped")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.errors import AdmissionError, ServerError
    from repro.obs import format_event
    from repro.server.client import ServerClient

    client = ServerClient(_server_socket(args))
    try:
        spec = CampaignSpec.load(args.spec)
        submitted = client.submit(
            spec, tenant=args.tenant, priority=args.priority
        )
    except AdmissionError as exc:
        raise SystemExit(
            f"repro-mm: rejected (backpressure): {exc}"
        ) from None
    except (CampaignError, ServerError) as exc:
        raise SystemExit(f"repro-mm: error: {exc}") from None
    job_id = submitted["job_id"]
    print(f"submitted {job_id} ({submitted['state']})")
    if not (args.wait or args.follow):
        return 0
    try:
        if args.follow:
            for event in client.stream(job_id, follow=True):
                print(format_event(event), flush=True)
        job = client.wait(job_id, timeout=args.timeout)
    except ServerError as exc:
        raise SystemExit(f"repro-mm: error: {exc}") from None
    except KeyboardInterrupt:
        print(f"\ndetached; job {job_id} keeps running on the server")
        return 0
    state = job["state"]
    if state == "done":
        print(f"{job_id} done")
        return 0
    print(f"{job_id} ended {state!r}: {job.get('error') or 'n/a'}")
    return 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.errors import ServerError
    from repro.server.client import ServerClient

    client = ServerClient(_server_socket(args))
    try:
        rows = client.jobs(tenant=args.tenant)
    except ServerError as exc:
        raise SystemExit(f"repro-mm: error: {exc}") from None
    if not rows:
        print("no jobs")
        return 0
    width = max(len(str(row["job_id"])) for row in rows)
    print(f"{'job':<{width}}  {'tenant':<12}  {'state':<9}  campaign")
    for row in rows:
        print(
            f"{row['job_id']:<{width}}  {row['tenant']:<12}  "
            f"{row['state']:<9}  {row.get('campaign') or '-'}"
        )
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.errors import ServerError
    from repro.server.client import ServerClient

    client = ServerClient(_server_socket(args))
    try:
        response = client.cancel(args.job_id)
    except ServerError as exc:
        raise SystemExit(f"repro-mm: error: {exc}") from None
    print(f"{args.job_id}: {response['state']}")
    return 0


def _cmd_problems(args: argparse.Namespace) -> int:
    """List every registry instance with its mode and gene counts."""
    names = registry.names()
    if not names:
        print("no problems registered")
        return 1
    rows = []
    for name in names:
        problem = registry.get(name)
        rows.append(
            (
                name,
                len(problem.omsm),
                problem.genome_length(),
                len(problem.architecture.pes),
            )
        )
    width = max(len(name) for name, *_ in rows)
    print(f"{'name':<{width}}  modes  genes  PEs")
    for name, modes, genes, pes in rows:
        print(f"{name:<{width}}  {modes:>5}  {genes:>5}  {pes:>3}")
    return 0


def _load_trace(path: str) -> list:
    """Read a trace file: a JSON list of ``[mode, dwell]`` pairs."""
    import json

    try:
        data = json.loads(open(path).read())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(
            f"repro-mm: error: cannot read trace {path!r}: {exc}"
        ) from None
    if not isinstance(data, list):
        raise SystemExit(
            f"repro-mm: error: trace {path!r} must be a JSON list of "
            f"[mode, dwell] pairs"
        )
    return [(str(mode), float(dwell)) for mode, dwell in data]


def _cmd_adapt(args: argparse.Namespace) -> int:
    from repro.adaptive import AdaptationConfig
    from repro.api import adapt_online

    problem = _load_problem(args.problem)
    config = AdaptationConfig(
        synthesis=_config_from_args(args),
        seed=args.seed,
    )
    trace = _load_trace(args.trace) if args.trace else None
    report = adapt_online(
        problem,
        trace=trace,
        steps=args.steps,
        config=config,
        library=args.library,
        run_dir=args.out,
    )
    print(
        f"adaptation over {report.simulated_time:.1f} s of simulated "
        f"operation ({problem.name}):"
    )
    print(
        f"  energy: {report.energy:.4f} J "
        f"(average power {report.average_power * 1e3:.3f} mW)"
    )
    print(
        f"  drift events: {report.drift_events}, swaps: {report.swaps}, "
        f"re-syntheses: {report.resyntheses}"
    )
    print(f"  final design: {report.deployed!r}")
    estimate = ", ".join(
        f"{mode}={value:.3f}"
        for mode, value in sorted(
            report.psi_estimate.items(), key=lambda kv: -kv[1]
        )
    )
    print(f"  final Ψ estimate: {estimate}")
    for decision in report.decisions:
        print(
            f"    t={decision.time:>8.2f}s {decision.kind}: "
            f"{decision.design!r} ({decision.reason})"
        )
    if args.out:
        print(f"  events + library written to {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulation.executor import simulate as run_simulation

    problem = _load_problem(args.problem)
    config = _config_from_args(args)
    result = MultiModeSynthesizer(problem, config).run()
    print(result.best.summary())
    print()
    report = run_simulation(
        result.best, horizon=args.horizon, seed=args.seed
    )
    print(report.summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mm",
        description=(
            "Multi-mode co-synthesis experiments (DATE 2003 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for table, dvs in (("table1", DvsMethod.NONE), ("table2", None)):
        table_parser = sub.add_parser(
            table,
            help=f"reproduce {table} "
            + ("(no DVS)" if table == "table1" else "(with DVS)"),
        )
        table_parser.add_argument(
            "--runs", type=int, default=5, help="optimisation runs averaged"
        )
        table_parser.add_argument(
            "--only",
            nargs="*",
            choices=[spec.name for spec in SUITE_SPECS],
            help="restrict to these instances",
        )
        _add_ga_options(table_parser)

    table3 = sub.add_parser("table3", help="reproduce Table 3 (smart phone)")
    table3.add_argument("--runs", type=int, default=3)
    _add_ga_options(table3)

    instance_help = f"instance name: one of {', '.join(registry.names())}"

    synth = sub.add_parser("synthesize", help="synthesise one instance")
    synth.add_argument("problem", help=instance_help)
    synth.add_argument(
        "--dvs",
        choices=[m.value for m in DvsMethod],
        default="none",
        help="voltage scaling method",
    )
    synth.add_argument(
        "--probabilities",
        action="store_true",
        default=True,
        help="use true mode probabilities in the fitness (default)",
    )
    synth.add_argument(
        "--no-probabilities",
        dest="probabilities",
        action="store_false",
        help="probability-neglecting baseline",
    )
    synth.add_argument(
        "--gantt",
        action="store_true",
        help="print an ASCII Gantt chart of every mode's schedule",
    )
    synth.add_argument(
        "--save-mapping",
        metavar="FILE",
        default=None,
        help="write the best mapping to a JSON file",
    )
    _add_ga_options(synth)

    inspect = sub.add_parser("inspect", help="print a problem's structure")
    inspect.add_argument("problem", help=instance_help)

    sub.add_parser(
        "problems",
        help="list all registered benchmark instances with mode counts",
    )

    adapt = sub.add_parser(
        "adapt",
        help=(
            "run the closed-loop Ψ-adaptation demo: estimate mode "
            "probabilities from a trace, swap/re-synthesise on drift"
        ),
    )
    adapt.add_argument("problem", help=instance_help)
    adapt.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help=(
            "JSON trace file: a list of [mode, dwell_seconds] pairs; "
            "omitted → sample a trace from the OMSM's mode process"
        ),
    )
    adapt.add_argument(
        "--steps",
        type=int,
        default=200,
        help="visits to sample when no --trace is given",
    )
    adapt.add_argument(
        "--library",
        metavar="FILE",
        default=None,
        help=(
            "saved design library JSON to start from; omitted → "
            "synthesise a design-time design first"
        ),
    )
    adapt.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write events.jsonl and the grown library.json to DIR",
    )
    _add_ga_options(adapt)

    campaign = sub.add_parser(
        "campaign",
        help=(
            "run a declarative experiment campaign with durable "
            "checkpoints, bounded retries and a JSONL event stream"
        ),
    )
    campaign.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="campaign spec JSON (see docs/api.md for the format)",
    )
    campaign.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="run directory for checkpoints/results/events",
    )
    campaign.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help=(
            "continue the campaign stored in DIR: completed jobs are "
            "skipped, interrupted jobs resume bit-identically from "
            "their latest checkpoint"
        ),
    )
    campaign.add_argument(
        "--report",
        metavar="DIR",
        default=None,
        help=(
            "print the comparison table re-aggregated from DIR's "
            "events.jsonl, without running anything"
        ),
    )
    campaign.add_argument(
        "--init-spec",
        metavar="FILE",
        default=None,
        help="write a template campaign spec to FILE and exit",
    )
    campaign.add_argument(
        "--status",
        metavar="DIR",
        default=None,
        help=(
            "print a progress report for the campaign in DIR "
            "(completed/failed/running jobs, retries, ETA) and exit"
        ),
    )
    campaign.add_argument(
        "--tail",
        metavar="DIR",
        default=None,
        help=(
            "follow DIR's events.jsonl live, one human-readable line "
            "per event; stops at campaign end (Ctrl-C to detach)"
        ),
    )
    campaign.add_argument(
        "--no-follow",
        action="store_true",
        help="with --tail: print the events already on disk and exit",
    )
    campaign.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-job progress lines",
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "run the multi-tenant campaign job server: JSON-lines over "
            "a Unix socket, weighted fair scheduling, durable jobs that "
            "survive restarts"
        ),
    )
    serve.add_argument(
        "--state",
        metavar="DIR",
        required=True,
        help="server state directory (jobs, runs, socket, events)",
    )
    serve.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="socket path override (default: STATE/server.sock)",
    )
    serve.add_argument(
        "--slots",
        type=int,
        default=2,
        help="concurrent campaign worker subprocesses",
    )
    serve.add_argument(
        "--tenant-quota",
        type=int,
        default=8,
        help="max queued+running jobs per tenant before rejection",
    )
    serve.add_argument(
        "--queue-bound",
        type=int,
        default=64,
        help="max queued jobs across all tenants before rejection",
    )

    submit = sub.add_parser(
        "submit", help="submit a campaign spec to a running server"
    )
    submit.add_argument("spec", help="campaign spec JSON file")
    submit.add_argument(
        "--state",
        metavar="DIR",
        default=None,
        help="server state directory (to find STATE/server.sock)",
    )
    submit.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="server socket path (overrides --state)",
    )
    submit.add_argument(
        "--tenant", default="default", help="tenant identity"
    )
    submit.add_argument(
        "--priority",
        type=int,
        default=0,
        help="priority within the tenant's queue (higher first)",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the job reaches a terminal state",
    )
    submit.add_argument(
        "--follow",
        action="store_true",
        help="stream the job's campaign events while waiting",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=3600.0,
        help="with --wait/--follow: seconds before giving up",
    )

    jobs_parser = sub.add_parser(
        "jobs", help="list jobs known to a running server"
    )
    jobs_parser.add_argument("--state", metavar="DIR", default=None)
    jobs_parser.add_argument("--socket", metavar="PATH", default=None)
    jobs_parser.add_argument(
        "--tenant", default=None, help="restrict to one tenant"
    )

    cancel = sub.add_parser(
        "cancel", help="cancel a queued or running server job"
    )
    cancel.add_argument("job_id", help="job id as printed by submit/jobs")
    cancel.add_argument("--state", metavar="DIR", default=None)
    cancel.add_argument("--socket", metavar="PATH", default=None)

    simulate = sub.add_parser(
        "simulate",
        help=(
            "synthesise an instance, then validate Equation (1) by "
            "trace-driven simulation"
        ),
    )
    simulate.add_argument("problem", help=instance_help)
    simulate.add_argument(
        "--horizon",
        type=float,
        default=500.0,
        help="simulated operational time in seconds",
    )
    simulate.add_argument(
        "--dvs",
        choices=[m.value for m in DvsMethod],
        default="none",
    )
    simulate.add_argument(
        "--probabilities",
        action="store_true",
        default=True,
    )
    simulate.add_argument(
        "--no-probabilities",
        dest="probabilities",
        action="store_false",
    )
    _add_ga_options(simulate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "table1":
        return _cmd_table(args, DvsMethod.NONE)
    if args.command == "table2":
        return _cmd_table(args, DvsMethod.GRADIENT)
    if args.command == "table3":
        return _cmd_table3(args)
    if args.command == "synthesize":
        return _cmd_synthesize(args)
    if args.command == "inspect":
        return _cmd_inspect(args)
    if args.command == "problems":
        return _cmd_problems(args)
    if args.command == "adapt":
        return _cmd_adapt(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "jobs":
        return _cmd_jobs(args)
    if args.command == "cancel":
        return _cmd_cancel(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
