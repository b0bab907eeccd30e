"""Importing the package must not import the process-pool machinery.

``multiprocessing`` is imported only when a pool is actually forked:
short-lived processes that never fork one (server workers, ``jobs=1``
campaigns, the CLI's inspection commands) should not pay its import
time.  Checked in a fresh interpreter, since this test process has
long since imported everything.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _modules_after(statement):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    probe = (
        f"{statement}\n"
        "import sys\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return set(completed.stdout.split())


def test_import_repro_and_api_leaves_pool_modules_out():
    modules = _modules_after("import repro, repro.api")
    assert "repro.api" in modules
    assert "repro.engine.parallel" in modules
    assert "multiprocessing.pool" not in modules


def test_jobs_one_run_leaves_pool_modules_out():
    modules = _modules_after(
        "from repro.api import load_problem\n"
        "from repro.synthesis.config import SynthesisConfig\n"
        "from repro.synthesis.cosynthesis import synthesize\n"
        "synthesize(load_problem('mul1'), SynthesisConfig(\n"
        "    population_size=4, max_generations=2,\n"
        "    local_search_budget_factor=0.0))"
    )
    assert "multiprocessing.pool" not in modules
