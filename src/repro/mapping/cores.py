"""Hardware core allocation (paper Fig. 4, lines 4–6).

Every task type mapped to a hardware component needs at least one core
of that type on the component.  Beyond the minimum, the allocator adds
extra cores for *parallel tasks with low mobility* — same-type tasks
that are independent in the task graph and whose scheduling freedom is
smaller than their execution time, so serialising them on one core would
push them past their ALAP start.  Extra cores are only added while the
component's area permits.

Area accounting distinguishes the two hardware kinds:

* **ASIC** — the core set is static; the per-type core count must cover
  the worst mode, and the total area of this union configuration is
  charged against the component.
* **FPGA** — the component is reconfigured at mode changes, so each
  mode's configuration is charged separately (the *largest* mode's area
  counts), and swapping configurations costs reconfiguration time that
  is checked against the OMSM transition limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.architecture.processing_element import PEKind, ProcessingElement
from repro.mapping.encoding import MappingString
from repro.problem import Problem
from repro.scheduling.mobility import MobilityInfo, compute_mobilities


@dataclass
class CoreAllocation:
    """Result of hardware core allocation for one mapping candidate.

    Attributes
    ----------
    counts:
        ``{pe: {mode: {task_type: cores available}}}`` — what the
        scheduler may use.  For ASICs the counts are identical across
        modes (static configuration); for FPGAs they are per-mode.
    area_used:
        ``{pe: cells}`` — ASIC: union-configuration area; FPGA: area of
        the largest per-mode configuration.
    """

    counts: Dict[str, Dict[str, Dict[str, int]]]
    area_used: Dict[str, float]
    _problem: Problem

    def available_cores(
        self, pe_name: str, mode_name: str, task_type: str
    ) -> int:
        """Cores of ``task_type`` usable on ``pe_name`` during a mode."""
        return (
            self.counts.get(pe_name, {}).get(mode_name, {}).get(task_type, 0)
        )

    def area_violation(self, pe_name: str) -> float:
        """Cells by which the component's area constraint is exceeded."""
        pe = self._problem.architecture.pe(pe_name)
        if not pe.is_hardware:
            return 0.0
        return max(0.0, self.area_used.get(pe_name, 0.0) - pe.area)

    def area_violations(self) -> Dict[str, float]:
        """All violating PEs with their overshoot in cells."""
        result: Dict[str, float] = {}
        for pe in self._problem.architecture.hardware_pes():
            overshoot = self.area_violation(pe.name)
            if overshoot > 0:
                result[pe.name] = overshoot
        return result

    def is_area_feasible(self) -> bool:
        return not self.area_violations()

    # ------------------------------------------------------------------
    # Mode transitions (FPGA reconfiguration)
    # ------------------------------------------------------------------

    def transition_time(self, src_mode: str, dst_mode: str) -> float:
        """Reconfiguration time of the mode change ``src -> dst``.

        FPGAs load the cores present in the destination configuration
        but absent (or under-provisioned) in the source configuration;
        configuration proceeds per cell at the component's
        ``reconfig_time_per_cell`` rate.  Multiple FPGAs reconfigure in
        parallel, so the transition takes the slowest component's time.
        """
        slowest = 0.0
        for pe in self._problem.architecture.hardware_pes():
            if pe.kind is not PEKind.FPGA:
                continue
            src_counts = self.counts.get(pe.name, {}).get(src_mode, {})
            dst_counts = self.counts.get(pe.name, {}).get(dst_mode, {})
            load_area = 0.0
            for task_type, dst_count in dst_counts.items():
                missing = dst_count - src_counts.get(task_type, 0)
                if missing > 0:
                    entry = self._problem.technology.implementation(
                        task_type, pe.name
                    )
                    load_area += missing * entry.area
            slowest = max(
                slowest, load_area * pe.reconfig_time_per_cell
            )
        return slowest

    def transition_times(self) -> Dict[Tuple[str, str], float]:
        """Reconfiguration time for every OMSM transition."""
        return {
            transition.key: self.transition_time(
                transition.src, transition.dst
            )
            for transition in self._problem.omsm.transitions
        }

    def transition_violations(self) -> Dict[Tuple[str, str], float]:
        """Transitions whose reconfiguration exceeds ``t_T^max``.

        Maps the transition key to the ratio ``t_T / t_T^max`` (> 1).
        """
        violations: Dict[Tuple[str, str], float] = {}
        for transition in self._problem.omsm.transitions:
            needed = self.transition_time(transition.src, transition.dst)
            if needed > transition.max_time:
                violations[transition.key] = needed / transition.max_time
        return violations


def allocate_cores(
    problem: Problem,
    mapping: MappingString,
    mobilities: Optional[Mapping[str, Mapping[str, MobilityInfo]]] = None,
) -> CoreAllocation:
    """Derive the hardware core sets implied by a mapping string.

    Parameters
    ----------
    problem:
        The co-synthesis instance.
    mapping:
        The multi-mode mapping string to realise.
    mobilities:
        Optional per-mode mobility tables (``{mode: {task: info}}``).
        Computed on demand when omitted.
    """
    architecture = problem.architecture
    technology = problem.technology
    if mobilities is None:
        mobilities = {
            mode.name: compute_mobilities(
                mode,
                lambda task, _m=mode: technology.implementation(
                    _m.task_graph.task(task).task_type,
                    mapping.pe_of(_m.name, task),
                ).exec_time,
            )
            for mode in problem.omsm.modes
        }

    counts: Dict[str, Dict[str, Dict[str, int]]] = {}
    area_used: Dict[str, float] = {}
    mode_names = problem.omsm.mode_names

    for pe in architecture.hardware_pes():
        base, desired = _per_mode_demand(problem, mapping, mobilities, pe)
        if pe.kind is PEKind.ASIC:
            pe_counts, used = _fit_asic(problem, pe, base, desired)
        else:
            pe_counts, used = _fit_fpga(problem, pe, base, desired)
        counts[pe.name] = {
            mode_name: pe_counts.get(mode_name, {})
            for mode_name in mode_names
        }
        area_used[pe.name] = used

    return CoreAllocation(counts=counts, area_used=area_used, _problem=problem)


def _per_mode_demand(
    problem: Problem,
    mapping: MappingString,
    mobilities: Mapping[str, Mapping[str, MobilityInfo]],
    pe: ProcessingElement,
) -> Tuple[Dict[str, Dict[str, int]], Dict[str, Dict[str, int]]]:
    """Minimum and desired per-mode core counts for one hardware PE.

    The minimum is one core per task type with at least one task mapped
    here.  The desired count additionally provisions cores for parallel
    low-mobility tasks: within a (mode, type) group sorted by mobility,
    the k-th member (k = 1, 2, ...) deserves its own core when it is
    independent of some other group member and its mobility is below
    ``k`` times the type's execution time — i.e. when queueing behind
    the k earlier executions on a single core would push it past its
    ALAP start.
    """
    base: Dict[str, Dict[str, int]] = {}
    desired: Dict[str, Dict[str, int]] = {}
    for mode in problem.omsm.modes:
        base_counts, desired_counts = mode_pe_demand(
            problem, mode, pe, mobilities[mode.name], mapping=mapping
        )
        base[mode.name] = base_counts
        desired[mode.name] = desired_counts
    return base, desired


def mode_pe_demand(
    problem: Problem,
    mode,
    pe: ProcessingElement,
    mode_mobilities: Mapping[str, MobilityInfo],
    mapping: Optional[MappingString] = None,
    mode_data=None,
    pe_by_task: Optional[Mapping[str, str]] = None,
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Minimum and desired core counts of one (mode, hardware PE) pair.

    The single-mode kernel of :func:`_per_mode_demand`, shared with the
    incremental evaluation pipeline: the result depends only on the
    mode's gene slice (through ``pe_by_task``/``mapping``) and its
    mobilities, so it can be memoised per mode.  Either ``mode_data`` +
    ``pe_by_task`` (decode-cache fast path) or ``mapping`` (legacy
    path) must be provided.
    """
    graph = mode.task_graph
    groups: Dict[str, List[str]] = {}
    if mode_data is not None and pe_by_task is not None:
        task_types = mode_data.task_types
        for name in mode_data.task_names:
            if pe_by_task[name] == pe.name:
                groups.setdefault(task_types[name], []).append(name)
    else:
        assert mapping is not None
        for task in graph:
            if mapping.pe_of(mode.name, task.name) == pe.name:
                groups.setdefault(task.task_type, []).append(task.name)
    base_counts: Dict[str, int] = {}
    desired_counts: Dict[str, int] = {}
    for task_type, members in groups.items():
        base_counts[task_type] = 1
        extra = 0
        if len(members) > 1:
            entry = problem.technology.implementation(task_type, pe.name)
            ordered = sorted(
                members,
                key=lambda n: mode_mobilities[n].mobility,
            )
            for position, name in enumerate(ordered[1:], start=1):
                if mode_data is not None:
                    independent = mode_data.independent_same_type.get(
                        name, frozenset()
                    )
                    parallel = any(
                        other in independent
                        for other in members
                        if other != name
                    )
                else:
                    parallel = any(
                        graph.independent(name, other)
                        for other in members
                        if other != name
                    )
                urgent = (
                    mode_mobilities[name].mobility
                    < position * entry.exec_time
                )
                if parallel and urgent:
                    extra += 1
        desired_counts[task_type] = 1 + min(extra, len(members) - 1)
    return base_counts, desired_counts


def _core_area(problem: Problem, pe_name: str, task_type: str) -> float:
    return problem.technology.implementation(task_type, pe_name).area


def _fit_asic(
    problem: Problem,
    pe: ProcessingElement,
    base: Dict[str, Dict[str, int]],
    desired: Dict[str, Dict[str, int]],
) -> Tuple[Dict[str, Dict[str, int]], float]:
    """Static configuration: per-type max over modes, shared by all modes."""
    base_union: Dict[str, int] = {}
    desired_union: Dict[str, int] = {}
    for mode_counts in base.values():
        for task_type, count in mode_counts.items():
            base_union[task_type] = max(
                base_union.get(task_type, 0), count
            )
    for mode_counts in desired.values():
        for task_type, count in mode_counts.items():
            desired_union[task_type] = max(
                desired_union.get(task_type, 0), count
            )
    final = dict(base_union)
    used = sum(
        count * _core_area(problem, pe.name, task_type)
        for task_type, count in final.items()
    )
    # Add desired extra cores greedily (smallest area first) while the
    # component still has room.
    extras: List[Tuple[float, str]] = []
    for task_type, want in sorted(desired_union.items()):
        area = _core_area(problem, pe.name, task_type)
        for _ in range(want - final.get(task_type, 0)):
            extras.append((area, task_type))
    extras.sort()
    for area, task_type in extras:
        if used + area <= pe.area:
            final[task_type] = final.get(task_type, 0) + 1
            used += area
    per_mode = {mode_name: dict(final) for mode_name in base}
    return per_mode, used


def _fit_fpga(
    problem: Problem,
    pe: ProcessingElement,
    base: Dict[str, Dict[str, int]],
    desired: Dict[str, Dict[str, int]],
) -> Tuple[Dict[str, Dict[str, int]], float]:
    """Per-mode configurations; the largest mode's area is charged."""
    per_mode: Dict[str, Dict[str, int]] = {}
    worst_area = 0.0
    for mode_name, base_counts in base.items():
        final = dict(base_counts)
        used = sum(
            count * _core_area(problem, pe.name, task_type)
            for task_type, count in final.items()
        )
        extras: List[Tuple[float, str]] = []
        for task_type, want in sorted(desired[mode_name].items()):
            area = _core_area(problem, pe.name, task_type)
            for _ in range(want - final.get(task_type, 0)):
                extras.append((area, task_type))
        extras.sort()
        for area, task_type in extras:
            if used + area <= pe.area:
                final[task_type] = final.get(task_type, 0) + 1
                used += area
        per_mode[mode_name] = final
        worst_area = max(worst_area, used)
    return per_mode, worst_area
