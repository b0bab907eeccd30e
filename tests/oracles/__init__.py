"""Frozen reference implementations used as differential oracles.

Each module here is a verbatim copy of an earlier production path that
the current code must stay bit-identical to.  The differential fuzz
suites and the ``legacy`` arms of ``benchmarks/bench_engine.py`` and
``benchmarks/bench_dvs.py`` import them from here; nothing under
``src/`` does.  Do not optimise them: their value is being unchanged.
"""
