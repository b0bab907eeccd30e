"""The multi-mode co-synthesis entry point (paper Fig. 4, complete loop).

:class:`MultiModeSynthesizer` is the stable façade over the generation
pipeline: it builds the
:class:`~repro.engine.backend.EvaluationBackend` a configuration asks
for, hands it to the :class:`~repro.synthesis.driver.GenerationDriver`,
and owns the backend's lifecycle (graceful close on success, hard
terminate on any error or interrupt).  The GA itself — random initial
population, per-candidate evaluation (mobilities → cores → per-mode
scheduling → optional DVS → fitness), linear-scaling ranking,
tournament selection, two-point crossover, offspring insertion with
elitism, the four improvement mutations and the local-search polish
— lives in the stage modules (:mod:`repro.synthesis.operators`,
:mod:`repro.synthesis.improvements`) composed by the driver.  The run
terminates on convergence (no improvement of the best fitness for a
configured number of generations) or at the generation limit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.engine.backend import EvaluationBackend, backend_for
from repro.engine.records import EvalRecord
from repro.mapping.encoding import MappingString
from repro.problem import Problem
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.driver import GenerationDriver, SynthesisResult
from repro.synthesis.state import GAState

__all__ = [
    "MultiModeSynthesizer",
    "SynthesisResult",
    "synthesize",
]

# Backwards-compatible alias: the per-genome cache entry moved to
# :mod:`repro.engine.records` so pool workers can ship it between
# processes without importing the synthesis stack.
_EvalRecord = EvalRecord


class MultiModeSynthesizer:
    """GA-based co-synthesis of one multi-mode problem instance."""

    def __init__(self, problem: Problem, config: SynthesisConfig) -> None:
        self.problem = problem
        self.config = config
        self._driver = GenerationDriver(problem, config)

    # ------------------------------------------------------------------
    # Driver delegation (the historical internal surface — kept because
    # warm-started re-synthesis and the determinism tests rely on the
    # per-genome cache and its counters living on the synthesizer)
    # ------------------------------------------------------------------

    @property
    def _cache(self) -> Dict[MappingString, _EvalRecord]:
        return self._driver.genome_cache

    @property
    def _evaluations(self) -> int:
        return self._driver.evaluations

    @property
    def _cache_hits(self) -> int:
        return self._driver.cache_hits

    @property
    def _dedup_hits(self) -> int:
        return self._driver.dedup_hits

    def _evaluate(self, genome: MappingString) -> _EvalRecord:
        return self._driver.evaluate_one(genome)

    def _evaluate_population(
        self,
        population: Sequence[MappingString],
        backend: Optional[EvaluationBackend],
    ) -> List[_EvalRecord]:
        """Evaluate one generation (``None`` backend = in-process)."""
        return self._driver.evaluate_population(population, backend)

    # ------------------------------------------------------------------
    # The optimisation loop
    # ------------------------------------------------------------------

    def run(
        self,
        resume: Optional[GAState] = None,
        on_generation: Optional[Callable[[GAState], None]] = None,
    ) -> SynthesisResult:
        """Execute the GA and return the best implementation found.

        With ``config.jobs > 1`` a pooled backend lives for the
        duration of the run and forks its process pool only while the
        pool measures faster than in-process evaluation; evaluation
        results are bit-identical to the serial path either way.

        ``resume`` continues a previous run from a
        :class:`~repro.synthesis.state.GAState` snapshot —
        bit-identically, because the snapshot carries the RNG state and
        the full population.  ``on_generation`` is called with a fresh
        snapshot after every completed generation; a checkpointing
        runtime persists (some of) these snapshots to disk.
        """
        backend = backend_for(self.problem, self.config)
        try:
            result = self._driver.run(backend, resume, on_generation)
        except BaseException:
            # Ctrl-C (or any error) can leave queued pool tasks whose
            # feeder thread died with the interrupt; a graceful
            # close()+join() would then wait forever for worker
            # sentinels that never arrive.  Hard-stop instead.
            backend.terminate()
            raise
        backend.close()
        return result


def synthesize(
    problem: Problem, config: Optional[SynthesisConfig] = None
) -> SynthesisResult:
    """One-call co-synthesis with default (or given) configuration."""
    if config is None:
        config = SynthesisConfig()
    return MultiModeSynthesizer(problem, config).run()
