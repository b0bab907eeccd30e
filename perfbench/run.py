"""Benchmark entry point: one measured run of one workload.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --report 5 --workloads tables server-soak

A timed run (``--trace 0``) runs the measured phase :data:`PHASES`
times, each in a fresh interpreter with tracing off, samples the
workload's cold set-up in fresh interpreters before, between and after
them, and prints every end-to-end metric.
A traced run (``--trace 1``) runs the measured phase twice -- untraced,
then traced -- and prints every per-layer metric, including the
tracing overhead between the two, and each layer's share of the traced
wall clock.  Both print a host record and the result digest before the
last line, which is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness check exits non-zero and prints no result.

``--report N`` is the steadiness report: it repeats timed runs of each
workload on N seeds and prints every end-to-end metric's median,
quartiles and spread next to the bound in ``BENCHMARK.json``.

Run from the root of a checkout; the benchmark builds nothing and
writes only under ``.perfbench/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import phase  # noqa: E402
import workloads  # noqa: E402

#: Fresh starts sampled per timed run; ``setup_s`` is their median.
#: A multiple of every ``PHASES`` value plus one.
SETUP_STARTS = 6
#: Measured phases per timed run, each in a fresh interpreter.  A
#: ``tables`` job's latency depends on whether one of the ~12 full
#: garbage collections of the long-lived campaign process (up to 0.4 s
#: each) lands in it, and which jobs they hit differs from process to
#: process; so ``tables`` takes each job's latency as the median of two
#: processes.  The pooled and soak jobs run in short-lived workers.
PHASES = {"tables": 2, "tables-pooled": 1, "server-soak": 1}
#: Seconds the phases of one run share, which keeps a run under 180 s.
RUN_BUDGET_S = 170.0


def host_record(seed: int) -> Dict[str, Any]:
    """CPU counts, CPU model, Python and numpy versions, and the seed."""
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        affinity: Optional[int] = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": affinity,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
    }


class RunError(Exception):
    """A phase failed or the results broke a check: report no metric."""


class Children:
    """Runs phase subprocesses against one overall deadline.

    Each child gets its own process group, so a timeout stops it
    together with any pool workers or server it started.
    """

    def __init__(self, workdir: pathlib.Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = (
            src + os.pathsep + self.env["PYTHONPATH"]
            if self.env.get("PYTHONPATH")
            else src
        )

    def run(self, argv: Sequence[str]) -> Dict[str, Any]:
        """Run ``phase.py argv``; returns its JSON output and wall time."""
        out = self.workdir / f"phase-{len(os.listdir(self.workdir))}.json"
        command = [
            sys.executable, str(HERE / "phase.py"), *argv,
            "--workdir", str(self.workdir), "--out", str(out),
        ]
        started = time.perf_counter()
        child = subprocess.Popen(
            command, cwd=str(ROOT), env=self.env, start_new_session=True
        )
        try:
            code = child.wait(
                timeout=max(1.0, self.deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise RunError(f"phase {argv[0]} ran past the time budget")
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
        elapsed = time.perf_counter() - started
        if code != 0:
            raise RunError(f"phase {argv[0]} failed with exit code {code}")
        output = json.loads(out.read_text())
        output["elapsed_s"] = elapsed
        return output


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def setup_samples(
    children: Children, workload: str, seed: int, starts: int
) -> List[float]:
    """Seconds of ``starts`` cold starts, each in a fresh interpreter.

    A campaign workload's cold start is a whole setup child, timed from
    spawn to exit; the soak's is a server, timed by one setup child from
    spawn to first ping.
    """
    setup = ["setup", "--workload", workload, "--seed", str(seed)]
    if workload == "server-soak":
        return children.run(setup + ["--starts", str(starts)])["samples"]
    return [children.run(setup)["elapsed_s"] for _ in range(starts)]


def timed(
    children: Children, workload: str, seed: int, measure: List[str]
) -> Dict[str, Any]:
    """The measured phases, with the set-up starts spread around them.

    The :data:`SETUP_STARTS` cold starts are split evenly before, between
    and after the phases, so that ``setup_s`` -- their median -- samples
    the host over the whole run rather than over its first seconds.
    """
    phases = PHASES[workload]
    per_gap = SETUP_STARTS // (phases + 1)
    setup = setup_samples(children, workload, seed, per_gap)
    measured = []
    for _ in range(phases):
        measured.append(children.run(measure + ["--trace", "0"]))
        setup += setup_samples(children, workload, seed, per_gap)
    return dict(combine(measured), setup_s=statistics.median(setup))


def combine(phases: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """One timed run's figures from its measured phases.

    Every phase runs the same jobs, so each must reproduce the first
    phase's digest exactly -- the program's determinism contract.  The
    wall clock and CPU time are medians over the phases, and a job's
    latency is the median over the phases of the latencies recorded
    under its id.
    """
    first = phases[0]
    for other in phases[1:]:
        if other["digest"] != first["digest"]:
            raise RunError("phases of one run produced different results")
    per_job: Dict[str, List[float]] = {}
    for measured in phases:
        for job_id, latency in measured["latencies"].items():
            per_job.setdefault(job_id, []).append(latency)
    return dict(
        first,
        wall_s=statistics.median([m["wall_s"] for m in phases]),
        cpu_s=statistics.median([m["cpu_s"] for m in phases]),
        peak_rss_mb=max(m["peak_rss_mb"] for m in phases),
        latencies=[statistics.median(values) for values in per_job.values()],
        attempted=sum(m["attempted"] for m in phases),
        failed=sum(m["failed"] for m in phases),
    )


def end_to_end(measured: Dict[str, Any]) -> Dict[str, float]:
    latencies = measured["latencies"]
    tail, percentile, n = workloads.tail(latencies)
    print(f"job_tail_s is p{percentile} of n={n} job latencies")
    quality = measured["quality"]
    return {
        "wall_s": measured["wall_s"],
        "cpu_s": measured["cpu_s"],
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail,
        "setup_s": measured["setup_s"],
        "peak_rss_mb": measured["peak_rss_mb"],
        "aware_power_geomean_mw": quality["aware_power_geomean_mw"],
        "psi_saving_pct": quality["psi_saving_pct"],
        "search_ok_pct": quality["search_ok_pct"],
    }


def per_layer(
    traced: Dict[str, Any],
    untraced: Dict[str, Any],
    declared: Sequence[Dict[str, Any]],
) -> Dict[str, float]:
    """Every declared layer metric; a layer the workload bypasses reads 0."""
    layers = {entry["name"]: 0.0 for entry in declared}
    layers.update(traced["layers"])
    layers["quality.search_failures"] = traced["quality"]["search_failures"]
    layers["quality.infeasible_jobs"] = traced["quality"]["infeasible_jobs"]
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.overhead_pct"] = 100.0 * (
        traced["wall_s"] / untraced["wall_s"] - 1.0
    )
    return layers


def print_shares(layers: Dict[str, float]) -> None:
    """Each span self time as a share of the traced clock, largest first.

    These self times and ``trace.unattributed_s`` partition
    ``trace.clock_s``, so the shares sum to 100 %.
    """
    clock = layers["trace.clock_s"]
    names = [
        metric
        for metric, (_, field) in phase.SPAN_METRICS.items()
        if field == "self_s"
    ] + ["trace.unattributed_s"]
    print(f"layer shares of trace.clock_s = {clock:.3f} s:")
    for name in sorted(names, key=lambda name: -layers[name]):
        if layers[name] > 0:
            print(f"  {name:32s} {layers[name]:9.3f} s "
                  f"{100 * layers[name] / clock:6.1f} %")


def one_run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {ROOT / 'src'}; run from "
            f"the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    spec = load_benchmark()
    deadline = time.monotonic() + RUN_BUDGET_S
    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        children = Children(workdir, deadline)
        print("host " + json.dumps(host_record(args.seed), sort_keys=True))
        print(
            f"workload {args.workload} seed {args.seed} "
            f"seconds {args.seconds} trace {args.trace}"
        )
        measure = [
            "measure", "--workload", args.workload, "--seed", str(args.seed),
        ]
        if args.trace:
            untraced = children.run(measure + ["--trace", "0"])
            measured = children.run(measure + ["--trace", "1"])
            if measured["digest"] != untraced["digest"]:
                raise RunError("tracing changed the results")
            declared = spec["per_layer"]
            values = per_layer(measured, untraced, declared)
            print_shares(values)
            shutil.copy(workdir / "spans.npz", work_root / "spans.npz")
        else:
            measured = timed(children, args.workload, args.seed, measure)
            values = end_to_end(measured)
            declared = spec["end_to_end"]
        if "poll_interval_s" in measured:
            print(f"client poll interval {measured['poll_interval_s']} s")
        print(f"digest {args.workload} sha256={measured['digest']}")
        print("quality " + json.dumps(measured["quality"], sort_keys=True))
        metrics = {
            entry["name"]: {
                "value": values[entry["name"]],
                "unit": entry["unit"],
            }
            for entry in declared
        }
        print(
            json.dumps(
                {
                    "correct": True,
                    "attempted": measured["attempted"],
                    "failed": measured["failed"],
                    "metrics": metrics,
                }
            )
        )
        return 0
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# Steadiness report
# ----------------------------------------------------------------------


def report(args: argparse.Namespace) -> int:
    spec = load_benchmark()
    bounds = {entry["name"]: entry for entry in spec["end_to_end"]}
    summary: Dict[str, Any] = {
        "host": host_record(args.first_seed),
        "runs": args.report,
        "seeds": list(range(args.first_seed, args.first_seed + args.report)),
        "workloads": {},
    }
    status = 0
    for workload in args.workloads:
        values: Dict[str, List[float]] = {}
        for seed in summary["seeds"]:
            result = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0",
                ],
                cwd=str(ROOT), capture_output=True, text=True,
            )
            lines = result.stdout.strip().splitlines()
            if result.returncode != 0 or not lines:
                print(result.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                return 1
            for name, entry in json.loads(lines[-1])["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        rows = {}
        print(f"\n{workload}: {args.report} seeds")
        print(f"  {'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>8s} {'bound':>6s}")
        for name, samples in values.items():
            q1, mid, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / mid if mid else float("inf")
            bound = bounds[name]["bound"]
            rows[name] = {
                "median": mid, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "values": samples,
            }
            flag = ""
            if spread > bound:
                flag = "  > bound"
                status = 1
            elif spread > bound / 3:
                flag = "  > bound/3"
            print(f"  {name:26s} {mid:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:8.4f} {bound:6.3f}{flag}")
        summary["workloads"][workload] = rows
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="co-synthesis benchmark: one run, or a steadiness report"
    )
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=int, default=None,
        help="nominal run length; the work per workload is fixed so that "
        "results compare across commits, sized to about this long",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--report", type=int, metavar="N", default=0,
        help="steadiness report: N timed runs per workload, seeds "
        "--first-seed .. --first-seed+N-1",
    )
    parser.add_argument("--workloads", nargs="+",
                        default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None,
                        help="report mode: also write the summary as JSON")
    args = parser.parse_args(argv)
    if args.seconds is None:
        try:
            args.seconds = load_benchmark()["run_seconds"]
        except (OSError, ValueError, KeyError):
            args.seconds = 0
    if args.report:
        return report(args)
    if args.workload is None:
        parser.error("--workload is required for a run")
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
