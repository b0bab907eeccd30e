"""Evaluation-engine benchmark: seed oracle vs production serial vs pool.

Runs the same GA synthesis (same seed, same sizing) under three engine
configurations and verifies they are *bit-identical* before reporting
wall-clock speedups:

``legacy``
    ``jobs=1`` with the seed's monolithic recompute-per-candidate
    evaluator (``tests/oracles/evaluator.py``, which runs the seed
    PV-DVS loop of ``tests/oracles/pv_dvs.py``) substituted for the
    production evaluator inside this harness only — the baseline all
    speedups are measured against.
``vector``
    ``jobs=1`` — the production evaluation path: the staged per-mode
    pipeline (:mod:`repro.eval`) over the shared
    :class:`~repro.engine.decode_cache.DecodeContext`, serving clean
    modes from the bounded :class:`~repro.eval.cache.ModeResultCache`
    (emptied before every timed run, so the measured advantage is
    purely intra-run) with the struct-of-arrays PV-DVS kernels.
``pool``
    ``jobs=N`` — the production pooled path: the measuring router of
    :class:`~repro.engine.backend.PooledBackend` sends each
    generation's unique uncached genomes to the barrier pool only
    while the pool times faster than in-process evaluation.  As in a
    campaign, the verdict stays memoised on the problem across
    repeats: the first run pays for the probe (reported as
    ``engine_parallel_first_seconds``) and later runs take the
    committed route.  ``--check`` fails when this arm's best wall
    clock exceeds :data:`MAX_POOL_OVER_SERIAL` times the ``vector``
    arm's on any case: on a host where the pool cannot win, the
    committed route must cost next to nothing.

The *headline* cases run the gradient PV-DVS inner loop — the paper's
proposed technique and by far the hottest decode phase; no-DVS cases
are reported as a secondary (smaller) aggregate.  Results are written
to ``BENCH_engine.json`` together with each case's mode-cache hit rate
and the ``vector``-over-``legacy`` speedup; ``--check BASELINE``
compares the headline speedup against a committed baseline and fails
on a >20 % regression (speedup ratios are machine-relative, so the
check is portable).

Usage::

    python benchmarks/bench_engine.py                  # full suite
    python benchmarks/bench_engine.py --quick          # smoke subset
    python benchmarks/bench_engine.py --jobs 8
    python benchmarks/bench_engine.py --quick \
        --check benchmarks/results/bench_engine_quick_baseline.json
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
import time
from typing import Dict, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # the tests.oracles package

from repro.benchgen.multimode import (  # noqa: E402
    MultiModeSpec,
    generate_problem,
)
from repro.benchgen.smartphone import smartphone_problem  # noqa: E402
from repro.benchgen.suite import suite_problem  # noqa: E402
from repro.problem import Problem  # noqa: E402
from repro.synthesis.config import DvsMethod, SynthesisConfig  # noqa: E402
from repro.synthesis.cosynthesis import (  # noqa: E402
    MultiModeSynthesizer,
    SynthesisResult,
)
from tests.oracles.evaluator import substituted  # noqa: E402

#: The arm timed with the seed oracle evaluator substituted.
LEGACY = "legacy"

#: Largest allowed ratio of the ``pool`` arm's wall clock to the
#: ``vector`` arm's, per case (the ``--check`` routing gate).
MAX_POOL_OVER_SERIAL = 1.25


#: Denser-than-suite instances for the pool arms: more queue depth and
#: cache-publication volume per generation than mul1–mul8, yet small
#: enough to GA-synthesise end to end (the registry's full ``stress1``
#: / ``stress2`` tier is sized for per-call kernel benches, not whole
#: synthesis runs — see ``benchmarks/bench_dvs.py``).
MINI_STRESS_SPECS = {
    "stress-mini": MultiModeSpec(
        name="stress-mini",
        seed=777,
        mode_tasks=(26, 30, 24, 28),
        pe_count=4,
        cl_count=2,
    ),
}


def _load_problem(name: str) -> Problem:
    if name == "smartphone":
        return smartphone_problem()
    if name in MINI_STRESS_SPECS:
        return generate_problem(MINI_STRESS_SPECS[name])
    return suite_problem(name)


def _base_config(dvs: DvsMethod, seed: int, quick: bool) -> SynthesisConfig:
    if quick:
        return SynthesisConfig(
            dvs=dvs,
            seed=seed,
            population_size=16,
            max_generations=15,
            convergence_generations=6,
            local_search_budget_factor=0.5,
        )
    return SynthesisConfig(
        dvs=dvs,
        seed=seed,
        population_size=32,
        max_generations=60,
        convergence_generations=15,
        local_search_budget_factor=1.0,
    )


def _run_once(
    problem: Problem, config: SynthesisConfig, oracle: bool
) -> SynthesisResult:
    # All configurations share one Problem (and thus its memoised
    # per-mode result cache); start every timed run cold so the
    # production arms' cache advantage is intra-run, not leftovers
    # from the previous arm or repeat.
    cache = getattr(problem, "_mode_result_cache", None)
    if cache is not None:
        cache.clear()
    if oracle:
        with substituted():
            return MultiModeSynthesizer(problem, config).run()
    return MultiModeSynthesizer(problem, config).run()


def _timed_interleaved(
    problem: Problem, configs: Dict[str, SynthesisConfig], repeats: int
):
    """Best-of-N wall clock per config, measured round-robin.

    min-of-N suppresses scheduler/load noise (every measurement above
    the minimum is the same work plus interference), and interleaving
    the configurations within each repeat keeps slow load drift from
    skewing one configuration's timings relative to the others'.  The
    order rotates every repeat, so no configuration always runs in the
    same position (measured: the run right after the slow ``legacy``
    arm was up to 1.2x faster than an identical later one).  Results
    are deterministic across repeats.  Also returns each config's first
    wall clock.
    """
    times = {key: math.inf for key in configs}
    first: Dict[str, float] = {}
    results = {}
    keys = list(configs)
    for repeat in range(max(1, repeats)):
        shift = repeat % len(keys)
        for key in keys[shift:] + keys[:shift]:
            config = configs[key]
            started = time.perf_counter()
            results[key] = _run_once(problem, config, key == LEGACY)
            elapsed = time.perf_counter() - started
            first.setdefault(key, elapsed)
            if elapsed < times[key]:
                times[key] = elapsed
    return times, first, results


def run_case(
    name: str,
    dvs: DvsMethod,
    jobs: int,
    seed: int,
    quick: bool,
    headline: bool,
    repeats: int,
) -> Dict[str, object]:
    problem = _load_problem(name)
    base = _base_config(dvs, seed, quick)

    times, first, results = _timed_interleaved(
        problem,
        {
            LEGACY: base.with_updates(jobs=1),
            "vector": base.with_updates(jobs=1),
            "pool": base.with_updates(jobs=jobs),
        },
        repeats,
    )
    legacy_s, vector_s, pool_s = (
        times[LEGACY],
        times["vector"],
        times["pool"],
    )
    legacy, vectored, pooled = (
        results[LEGACY],
        results["vector"],
        results["pool"],
    )

    identical = all(
        arm.best.metrics.fitness == legacy.best.metrics.fitness
        and arm.history == legacy.history
        and arm.evaluations == legacy.evaluations
        for arm in (vectored, pooled)
    )
    perf = pooled.perf
    vector_perf = vectored.perf
    case: Dict[str, object] = {
        "name": name,
        "dvs": dvs.value,
        "headline": headline,
        "identical": identical,
        "best_fitness": legacy.best.metrics.fitness,
        "evaluations": legacy.evaluations,
        "legacy_seconds": round(legacy_s, 4),
        "engine_vector_seconds": round(vector_s, 4),
        "engine_parallel_seconds": round(pool_s, 4),
        "engine_parallel_first_seconds": round(first["pool"], 4),
        # The production serial path vs the seed oracle, both at jobs=1.
        "speedup_vector_vs_legacy": round(legacy_s / vector_s, 4),
        "speedup_parallel": round(legacy_s / pool_s, 4),
        # The routed pool vs the jobs=1 vector arm: at most
        # MAX_POOL_OVER_SERIAL where the pool cannot win.
        "pool_over_serial": round(pool_s / vector_s, 4),
        "dispatch_verdict": (
            perf.dispatch_verdict if perf is not None else None
        ),
        "mode_cache_hit_rate": (
            round(vector_perf.mode_cache_hit_rate, 4)
            if vector_perf is not None
            else None
        ),
        "mode_cache_hits": (
            vector_perf.mode_cache_hits if vector_perf is not None else None
        ),
        "mode_cache_misses": (
            vector_perf.mode_cache_misses if vector_perf is not None else None
        ),
        "perf_parallel": perf.to_dict() if perf is not None else None,
    }
    return case


def _geomean(values: List[float]) -> Optional[float]:
    if not values:
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def build_report(args: argparse.Namespace) -> Dict[str, object]:
    repeats = args.repeats
    if repeats is None:
        repeats = 5 if args.quick else 3
    if args.quick:
        cases_spec = [
            ("mul1", DvsMethod.GRADIENT, True),
            ("mul1", DvsMethod.NONE, False),
        ]
    else:
        cases_spec = [
            ("mul1", DvsMethod.GRADIENT, True),
            ("mul2", DvsMethod.GRADIENT, True),
            ("mul3", DvsMethod.GRADIENT, True),
            ("mul4", DvsMethod.GRADIENT, True),
            ("mul5", DvsMethod.GRADIENT, True),
            ("mul6", DvsMethod.GRADIENT, True),
            ("mul7", DvsMethod.GRADIENT, True),
            ("mul8", DvsMethod.GRADIENT, True),
            ("mul3", DvsMethod.NONE, False),
            ("smartphone", DvsMethod.GRADIENT, False),
            ("stress-mini", DvsMethod.GRADIENT, True),
        ]

    cases = []
    for name, dvs, headline in cases_spec:
        label = f"{name}/{dvs.value}"
        print(f"[bench_engine] running {label} ...", flush=True)
        case = run_case(
            name, dvs, args.jobs, args.seed, args.quick, headline, repeats
        )
        cases.append(case)
        print(
            f"[bench_engine]   legacy {case['legacy_seconds']:.2f}s, "
            f"vector {case['engine_vector_seconds']:.2f}s "
            f"({case['speedup_vector_vs_legacy']:.2f}x, "
            f"hit rate {case['mode_cache_hit_rate']}), "
            f"engine+pool {case['engine_parallel_seconds']:.2f}s "
            f"({case['speedup_parallel']:.2f}x, "
            f"{case['pool_over_serial']:.2f}x the vector time, "
            f"verdict {case['dispatch_verdict']}), "
            f"identical={case['identical']}",
            flush=True,
        )

    headline_parallel = [
        c["speedup_parallel"] for c in cases if c["headline"]
    ]
    headline_vector = [
        c["speedup_vector_vs_legacy"] for c in cases if c["headline"]
    ]
    aggregate = {
        "headline_geomean_speedup_parallel": _geomean(headline_parallel),
        "headline_geomean_speedup_vector_vs_legacy": _geomean(
            headline_vector
        ),
        "all_geomean_speedup_parallel": _geomean(
            [c["speedup_parallel"] for c in cases]
        ),
        "max_pool_over_serial": max(
            c["pool_over_serial"] for c in cases
        ),
        "headline_mean_mode_cache_hit_rate": (
            sum(
                c["mode_cache_hit_rate"]
                for c in cases
                if c["headline"] and c["mode_cache_hit_rate"] is not None
            )
            / max(
                1,
                sum(
                    1
                    for c in cases
                    if c["headline"]
                    and c["mode_cache_hit_rate"] is not None
                ),
            )
        ),
        "all_identical": all(c["identical"] for c in cases),
    }
    return {
        "benchmark": "engine",
        "quick": args.quick,
        "jobs": args.jobs,
        "seed": args.seed,
        "repeats": repeats,
        "cases": cases,
        "aggregate": aggregate,
    }


def check_regression(
    report: Dict[str, object], baseline_path: pathlib.Path
) -> int:
    """Gate identity, the headline speedup and the routing overhead.

    Fails on any arm diverging from the oracle, on a >20 % drop of the
    headline speedup against a committed baseline, and on any case
    whose ``pool`` arm takes more than :data:`MAX_POOL_OVER_SERIAL`
    times the ``vector`` arm's wall clock.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    key = "headline_geomean_speedup_parallel"
    current = report["aggregate"][key]
    reference = baseline["aggregate"][key]
    floor = reference * 0.8
    print(
        f"[bench_engine] regression check: current {current:.3f}x vs "
        f"baseline {reference:.3f}x (floor {floor:.3f}x)"
    )
    if not report["aggregate"]["all_identical"]:
        print("[bench_engine] FAIL: engine results diverged from legacy")
        return 1
    if current < floor:
        print(
            f"[bench_engine] FAIL: headline speedup regressed by more "
            f"than 20% ({current:.3f}x < {floor:.3f}x)"
        )
        return 1
    slow = [
        f"{c['name']}/{c['dvs']} {c['pool_over_serial']:.2f}x"
        for c in report["cases"]
        if c["pool_over_serial"] > MAX_POOL_OVER_SERIAL
    ]
    if slow:
        print(
            f"[bench_engine] FAIL: pool arm slower than "
            f"{MAX_POOL_OVER_SERIAL}x the vector arm: {', '.join(slow)}"
        )
        return 1
    print("[bench_engine] regression check passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small smoke subset (used by 'make bench-smoke')",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="worker count of the pool configuration",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help=(
            "wall-clock measurements per configuration, best-of-N "
            "interleaved (default: 3 full, 5 quick)"
        ),
    )
    parser.add_argument(
        "--out",
        default=None,
        help=(
            "output JSON path (default: BENCH_engine.json at the repo "
            "root, or bench_engine_quick.json under benchmarks/results "
            "with --quick)"
        ),
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="baseline JSON to compare against; exits 1 on >20%% regression",
    )
    args = parser.parse_args(argv)

    report = build_report(args)

    if args.out is None:
        if args.quick:
            out_path = (
                REPO_ROOT / "benchmarks" / "results" / "bench_engine_quick.json"
            )
        else:
            out_path = REPO_ROOT / "BENCH_engine.json"
    else:
        out_path = pathlib.Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    agg = report["aggregate"]
    print(
        f"[bench_engine] headline geomean: "
        f"{agg['headline_geomean_speedup_parallel']:.2f}x (pool), "
        f"{agg['headline_geomean_speedup_vector_vs_legacy']:.2f}x "
        f"(serial production path, mean hit rate "
        f"{agg['headline_mean_mode_cache_hit_rate']:.2f}), "
        f"pool at most {agg['max_pool_over_serial']:.2f}x the vector "
        f"time; report written to {out_path}"
    )

    if not agg["all_identical"]:
        print("[bench_engine] FAIL: engine results diverged from legacy")
        return 1
    if args.check is not None:
        return check_regression(report, pathlib.Path(args.check))
    return 0


if __name__ == "__main__":
    sys.exit(main())
