"""Reference (seed) implementation of PV-DVS voltage selection.

This module preserves the original dict-based implementation of
:mod:`repro.dvs.pv_dvs` exactly as shipped in the growth seed.  It has
two jobs:

* **Legacy baseline** — the oracle evaluator
  (:mod:`tests.oracles.evaluator`) routes through these functions, so
  benchmarks can measure the production decode-cache + array-kernel
  paths against the original per-candidate recompute cost.
* **Differential oracle** — the test-suite checks that
  :func:`repro.dvs.pv_dvs.scale_schedule` and
  :func:`repro.dvs.pv_dvs.uniform_scale_schedule` are bit-identical to
  :func:`reference_scale_schedule` and
  :func:`reference_uniform_scale_schedule` on randomised schedules.

Do not optimise this module; its value is being the unchanged
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import VoltageScalingError
from repro.dvs.transform import VirtualSegment, transform_parallel_tasks
from repro.dvs.voltage import duration_energy_tables, scaled_duration, scaled_energy
from repro.problem import Problem
from repro.scheduling.schedule import (
    TIME_EPS,
    ModeSchedule,
    ScheduledComm,
    ScheduledTask,
)
from repro.specification.mode import Mode

#: Relative numerical guard when comparing slack against extensions.
_SLACK_EPS = 1e-12


@dataclass
class _Node:
    """One node of the DVS graph (task, communication or segment)."""

    key: str
    durations: Tuple[float, ...]
    energies: Tuple[float, ...]
    level: int
    deadline: float
    scalable: bool
    levels: Tuple[float, ...] = ()

    @property
    def duration(self) -> float:
        return self.durations[self.level]

    @property
    def energy(self) -> float:
        return self.energies[self.level]

    def lowering(self) -> Optional[Tuple[float, float]]:
        """(extra time, saved energy) of dropping one level, if any."""
        if not self.scalable or self.level == 0:
            return None
        extra = self.durations[self.level - 1] - self.durations[self.level]
        saved = self.energies[self.level] - self.energies[self.level - 1]
        return extra, saved


class _DvsGraph:
    """The order-augmented DAG with per-node voltage levels."""

    def __init__(self) -> None:
        self.nodes: Dict[str, _Node] = {}
        self.succ: Dict[str, List[str]] = {}
        self.pred: Dict[str, List[str]] = {}
        self._order: Optional[List[str]] = None

    def add_node(self, node: _Node) -> None:
        if node.key in self.nodes:
            raise VoltageScalingError(f"duplicate DVS node {node.key!r}")
        self.nodes[node.key] = node
        self.succ[node.key] = []
        self.pred[node.key] = []
        self._order = None

    def add_edge(self, src: str, dst: str) -> None:
        if src == dst:
            return
        if dst not in self.succ[src]:
            self.succ[src].append(dst)
            self.pred[dst].append(src)
        self._order = None

    def topological_order(self) -> List[str]:
        if self._order is None:
            in_degree = {k: len(self.pred[k]) for k in self.nodes}
            ready = [k for k, d in in_degree.items() if d == 0]
            order: List[str] = []
            while ready:
                current = ready.pop()
                order.append(current)
                for nxt in self.succ[current]:
                    in_degree[nxt] -= 1
                    if in_degree[nxt] == 0:
                        ready.append(nxt)
            if len(order) != len(self.nodes):
                raise VoltageScalingError("DVS graph contains a cycle")
            self._order = order
        return self._order

    def earliest_starts(self) -> Dict[str, float]:
        est: Dict[str, float] = {}
        for key in self.topological_order():
            arrival = 0.0
            for prev in self.pred[key]:
                arrival = max(arrival, est[prev] + self.nodes[prev].duration)
            est[key] = arrival
        return est

    def latest_finishes(self) -> Dict[str, float]:
        lft: Dict[str, float] = {}
        for key in reversed(self.topological_order()):
            bound = self.nodes[key].deadline
            for nxt in self.succ[key]:
                bound = min(bound, lft[nxt] - self.nodes[nxt].duration)
            lft[key] = bound
        return lft


def reference_scale_schedule(
    problem: Problem,
    mode: Mode,
    schedule: ModeSchedule,
    shared_rail: bool = True,
) -> ModeSchedule:
    """Voltage-scale one mode's schedule by greedy energy-gradient descent.

    Returns a new :class:`ModeSchedule` with stretched activities,
    reduced task energies and per-task ``pieces`` recording the
    (duration, voltage) profile.  If the input schedule already violates
    deadlines, or no component is DVS-enabled, the schedule is returned
    with unchanged timing (energies and times identical).

    ``shared_rail`` models the paper's assumption that all cores of one
    hardware component are fed by a single supply (Section 4.2).
    Setting it to ``False`` gives every core its own rail — each
    hardware task scales individually, without the Fig. 5
    transformation.  That idealisation bounds what the extra DC/DC
    converters the paper rules out (area/power overhead) could buy,
    and is exposed for the ablation benchmarks.
    """
    graph, segments_by_pe = _build_dvs_graph(
        problem, mode, schedule, shared_rail
    )

    # Greedy gradient descent: always hand the slack to the move with
    # the best energy saving per unit of added time.
    while True:
        est = graph.earliest_starts()
        lft = graph.latest_finishes()
        best_key: Optional[str] = None
        best_metric: Tuple[float, float] = (-1.0, -1.0)
        for key, node in graph.nodes.items():
            move = node.lowering()
            if move is None:
                continue
            extra, saved = move
            if saved <= 0:
                continue
            slack = lft[key] - est[key] - node.duration
            if extra > slack + _SLACK_EPS + TIME_EPS:
                continue
            metric = (saved / extra, saved)
            if metric > best_metric:
                best_metric = metric
                best_key = key
        if best_key is None:
            break
        graph.nodes[best_key].level -= 1

    return _rebuild_schedule(problem, mode, schedule, graph, segments_by_pe)


def reference_uniform_scale_schedule(
    problem: Problem, mode: Mode, schedule: ModeSchedule
) -> ModeSchedule:
    """Naive DVS baseline: one global stretch factor for all activities.

    Every scalable activity is slowed to the lowest discrete level whose
    duration stays within ``nominal × κ``; the largest feasible κ is
    found by bisection on the DVS graph.  Serves as the ablation
    comparator for the gradient-based :func:`scale_schedule`.
    """
    graph, segments_by_pe = _build_dvs_graph(problem, mode, schedule)

    def apply_factor(kappa: float) -> None:
        for node in graph.nodes.values():
            if not node.scalable:
                continue
            budget = node.durations[-1] * kappa
            level = len(node.durations) - 1
            for index, duration in enumerate(node.durations):
                if duration <= budget + TIME_EPS:
                    level = index
                    break
            node.level = level

    def feasible() -> bool:
        est = graph.earliest_starts()
        for key, node in graph.nodes.items():
            if est[key] + node.duration > node.deadline + TIME_EPS:
                return False
        return True

    apply_factor(1.0)
    if feasible():
        low, high = 1.0, 64.0
        for _ in range(40):
            mid = (low + high) / 2
            apply_factor(mid)
            if feasible():
                low = mid
            else:
                high = mid
        apply_factor(low)
    else:
        apply_factor(1.0)
    return _rebuild_schedule(problem, mode, schedule, graph, segments_by_pe)


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------


def _task_node_key(name: str) -> str:
    return f"task:{name}"


def _comm_node_key(src: str, dst: str) -> str:
    return f"comm:{src}->{dst}"


def _segment_node_key(pe: str, index: int) -> str:
    return f"seg:{pe}:{index}"


def _build_dvs_graph(
    problem: Problem,
    mode: Mode,
    schedule: ModeSchedule,
    shared_rail: bool = True,
) -> Tuple[_DvsGraph, Dict[str, Tuple[VirtualSegment, ...]]]:
    architecture = problem.architecture
    graph = _DvsGraph()

    # With a shared rail per component, DVS-capable hardware is handled
    # through the Fig. 5 segment chain.  With per-core rails, hardware
    # tasks become individually scalable nodes like software tasks.
    hw_dvs_pes = (
        {
            pe.name
            for pe in architecture.hardware_pes()
            if pe.dvs_enabled
        }
        if shared_rail
        else set()
    )
    segments_by_pe: Dict[str, Tuple[VirtualSegment, ...]] = {}
    task_last_segment: Dict[str, str] = {}
    task_first_segment: Dict[str, str] = {}

    # --- nodes: tasks off DVS hardware, and segment chains on it -------
    for task in schedule.tasks:
        pe = architecture.pe(task.pe)
        if task.pe in hw_dvs_pes:
            continue
        if pe.dvs_enabled:
            durations, energies = duration_energy_tables(
                task.duration,
                task.energy,
                pe.voltage_levels,
                pe.threshold_voltage,
            )
            node = _Node(
                key=_task_node_key(task.name),
                durations=durations,
                energies=energies,
                level=len(durations) - 1,
                deadline=mode.effective_deadline(task.name),
                scalable=True,
                levels=pe.voltage_levels,
            )
        else:
            node = _Node(
                key=_task_node_key(task.name),
                durations=(task.duration,),
                energies=(task.energy,),
                level=0,
                deadline=mode.effective_deadline(task.name),
                scalable=False,
            )
        graph.add_node(node)

    for pe_name in sorted(hw_dvs_pes):
        placed = schedule.tasks_on(pe_name)
        if not placed:
            continue
        pe = architecture.pe(pe_name)
        segments = transform_parallel_tasks(placed)
        segments_by_pe[pe_name] = segments
        for segment in segments:
            durations, energies = duration_energy_tables(
                segment.duration,
                segment.energy,
                pe.voltage_levels,
                pe.threshold_voltage,
            )
            deadline = math.inf
            for task in placed:
                if task.name in segment.active and (
                    abs(task.end - segment.end) <= TIME_EPS
                ):
                    deadline = min(
                        deadline, mode.effective_deadline(task.name)
                    )
            graph.add_node(
                _Node(
                    key=_segment_node_key(pe_name, segment.index),
                    durations=durations,
                    energies=energies,
                    level=len(durations) - 1,
                    deadline=deadline,
                    scalable=True,
                    levels=pe.voltage_levels,
                )
            )
        # The chain: the component executes its segments in order.
        for left, right in zip(segments, segments[1:]):
            graph.add_edge(
                _segment_node_key(pe_name, left.index),
                _segment_node_key(pe_name, right.index),
            )
        for task in placed:
            own = [s for s in segments if task.name in s.active]
            task_first_segment[task.name] = _segment_node_key(
                pe_name, own[0].index
            )
            task_last_segment[task.name] = _segment_node_key(
                pe_name, own[-1].index
            )

    def end_anchor(task_name: str) -> str:
        return task_last_segment.get(task_name, _task_node_key(task_name))

    def start_anchor(task_name: str) -> str:
        return task_first_segment.get(task_name, _task_node_key(task_name))

    # --- nodes and edges: communications -------------------------------
    for comm in schedule.comms:
        key = _comm_node_key(comm.src, comm.dst)
        graph.add_node(
            _Node(
                key=key,
                durations=(comm.duration,),
                energies=(comm.energy,),
                level=0,
                deadline=math.inf,
                scalable=False,
            )
        )
        graph.add_edge(end_anchor(comm.src), key)
        graph.add_edge(key, start_anchor(comm.dst))

    # --- edges: execution order on serial resources --------------------
    for pe in architecture.pes:
        if pe.name in hw_dvs_pes:
            continue
        placed = schedule.tasks_on(pe.name)
        if pe.is_software:
            for left, right in zip(placed, placed[1:]):
                graph.add_edge(
                    _task_node_key(left.name), _task_node_key(right.name)
                )
        else:
            by_core: Dict[Tuple[str, Optional[int]], List[ScheduledTask]]
            by_core = {}
            for task in placed:
                by_core.setdefault(
                    (task.task_type, task.core_index), []
                ).append(task)
            for group in by_core.values():
                group.sort(key=lambda t: t.start)
                for left, right in zip(group, group[1:]):
                    graph.add_edge(
                        _task_node_key(left.name),
                        _task_node_key(right.name),
                    )
    for link in architecture.links:
        carried = schedule.comms_on(link.name)
        for left, right in zip(carried, carried[1:]):
            graph.add_edge(
                _comm_node_key(left.src, left.dst),
                _comm_node_key(right.src, right.dst),
            )

    return graph, segments_by_pe


# ----------------------------------------------------------------------
# Back-mapping and replay
# ----------------------------------------------------------------------


def _rebuild_schedule(
    problem: Problem,
    mode: Mode,
    schedule: ModeSchedule,
    graph: _DvsGraph,
    segments_by_pe: Mapping[str, Tuple[VirtualSegment, ...]],
) -> ModeSchedule:
    """Map segment/task voltages back to tasks and replay the mode."""
    architecture = problem.architecture
    scaled: Dict[str, Tuple[float, float, Tuple[Tuple[float, float], ...]]]
    scaled = {}

    segment_nodes: Dict[Tuple[str, int], _Node] = {}
    for pe_name, segments in segments_by_pe.items():
        for segment in segments:
            segment_nodes[(pe_name, segment.index)] = graph.nodes[
                _segment_node_key(pe_name, segment.index)
            ]

    for task in schedule.tasks:
        pe = architecture.pe(task.pe)
        if task.pe in segments_by_pe:
            vmax = pe.voltage_levels[-1]
            pieces: List[Tuple[float, float]] = []
            duration = 0.0
            energy = 0.0
            for segment in segments_by_pe[task.pe]:
                if task.name not in segment.active:
                    continue
                node = segment_nodes[(task.pe, segment.index)]
                voltage = node.levels[node.level]
                piece = scaled_duration(
                    segment.duration, voltage, vmax, pe.threshold_voltage
                )
                pieces.append((piece, voltage))
                duration += piece
                energy += scaled_energy(
                    task.power * segment.duration, voltage, vmax
                )
            scaled[task.name] = (duration, energy, tuple(pieces))
        else:
            node = graph.nodes[_task_node_key(task.name)]
            if node.scalable:
                voltage = node.levels[node.level]
                scaled[task.name] = (
                    node.duration,
                    node.energy,
                    ((node.duration, voltage),),
                )
            else:
                scaled[task.name] = (task.duration, task.energy, ())

    return _replay(problem, mode, schedule, scaled)


def _replay(
    problem: Problem,
    mode: Mode,
    schedule: ModeSchedule,
    scaled: Mapping[str, Tuple[float, float, Tuple[Tuple[float, float], ...]]],
) -> ModeSchedule:
    """Forward-simulate the mode with new durations, preserving order.

    The order-augmented task-level DAG (precedence through comms plus
    the original per-resource execution order) is traversed once; every
    activity starts as soon as all its ordering predecessors finish.
    """
    architecture = problem.architecture
    graph = mode.task_graph

    succ: Dict[str, List[str]] = {}
    pred_count: Dict[str, int] = {}

    def add_edge(src: str, dst: str) -> None:
        succ.setdefault(src, []).append(dst)
        pred_count[dst] = pred_count.get(dst, 0) + 1

    task_keys = {t.name: _task_node_key(t.name) for t in schedule.tasks}
    for key in task_keys.values():
        pred_count.setdefault(key, 0)
    comm_keys = {}
    for comm in schedule.comms:
        key = _comm_node_key(comm.src, comm.dst)
        comm_keys[comm.key] = key
        pred_count.setdefault(key, 0)
        add_edge(task_keys[comm.src], key)
        add_edge(key, task_keys[comm.dst])

    for pe in architecture.pes:
        placed = schedule.tasks_on(pe.name)
        if pe.is_software:
            for left, right in zip(placed, placed[1:]):
                add_edge(task_keys[left.name], task_keys[right.name])
        else:
            by_core: Dict[Tuple[str, Optional[int]], List[ScheduledTask]]
            by_core = {}
            for task in placed:
                by_core.setdefault(
                    (task.task_type, task.core_index), []
                ).append(task)
            for group in by_core.values():
                group.sort(key=lambda t: t.start)
                for left, right in zip(group, group[1:]):
                    add_edge(task_keys[left.name], task_keys[right.name])
    for link in architecture.links:
        carried = schedule.comms_on(link.name)
        for left, right in zip(carried, carried[1:]):
            add_edge(comm_keys[left.key], comm_keys[right.key])

    durations: Dict[str, float] = {}
    for task in schedule.tasks:
        durations[task_keys[task.name]] = scaled[task.name][0]
    for comm in schedule.comms:
        durations[comm_keys[comm.key]] = comm.duration

    order = _topological(succ, set(pred_count))
    start: Dict[str, float] = {}
    finish: Dict[str, float] = {}
    preds: Dict[str, List[str]] = {}
    for src, dsts in succ.items():
        for dst in dsts:
            preds.setdefault(dst, []).append(src)
    for key in order:
        arrival = 0.0
        for prev in preds.get(key, []):
            arrival = max(arrival, finish[prev])
        start[key] = arrival
        finish[key] = arrival + durations[key]

    new_tasks: List[ScheduledTask] = []
    for task in schedule.tasks:
        key = task_keys[task.name]
        duration, energy, pieces = scaled[task.name]
        new_tasks.append(
            ScheduledTask(
                name=task.name,
                task_type=task.task_type,
                pe=task.pe,
                start=start[key],
                end=start[key] + duration,
                energy=energy,
                power=task.power,
                core_index=task.core_index,
                pieces=pieces,
            )
        )
    new_comms: List[ScheduledComm] = []
    for comm in schedule.comms:
        key = comm_keys[comm.key]
        new_comms.append(
            ScheduledComm(
                src=comm.src,
                dst=comm.dst,
                link=comm.link,
                start=start[key],
                end=start[key] + comm.duration,
                energy=comm.energy,
            )
        )
    return ModeSchedule(mode.name, new_tasks, new_comms)


def _topological(
    succ: Mapping[str, List[str]], nodes: Set[str]
) -> List[str]:
    in_degree: Dict[str, int] = {key: 0 for key in nodes}
    for dsts in succ.values():
        for dst in dsts:
            in_degree[dst] += 1
    ready = [key for key, count in in_degree.items() if count == 0]
    order: List[str] = []
    while ready:
        current = ready.pop()
        order.append(current)
        for nxt in succ.get(current, []):
            in_degree[nxt] -= 1
            if in_degree[nxt] == 0:
                ready.append(nxt)
    if len(order) != len(nodes):
        raise VoltageScalingError("replay graph contains a cycle")
    return order
