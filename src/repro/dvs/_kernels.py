"""Struct-of-arrays PV-DVS kernels (the one voltage-selection path).

:mod:`repro.dvs.pv_dvs` is the public facade over this module.  Both
voltage-selection methods — the energy-gradient descent and the
uniform-stretch baseline — run on one :class:`_VectorGraph`, and both
are bit-identical to the frozen seed implementation kept under
``tests/oracles/pv_dvs.py`` as the differential oracle.  Every phase is
restructured around flat arrays:

* **Construction** builds a :class:`_VectorGraph` — parallel arrays of
  duration/energy tables, current levels, deadlines and integer
  adjacency — in one fused pass over the schedule, with no per-node
  objects, no string keys and a single grouping of tasks/comms by
  resource shared between the DVS graph and the replay graph.
* **Selection** replaces the seed's per-move scan over all scalable
  nodes with a heap ordered by ``(-saved/extra, -saved, position)``.
  During the descent a node's earliest start only ever increases and
  its latest finish only ever decreases (durations are monotonically
  non-decreasing), so a move that is infeasible once stays infeasible
  forever and may be discarded on first pop — the heap therefore pops
  exactly the accept sequence the scan produces, including its
  first-position tie-break.
* **Timing maintenance** batches cone updates: accepted stretches are
  queued and only flushed when a popped candidate's slack could be
  stale.  A flush propagates all pending stretches in *one*
  rank-ordered wave per direction, recomputing exactly the seed's
  per-node formulas (``max`` over predecessor finishes, ``min`` over
  successor latest starts, both exact on floats), so the arrays stay
  bit-identical to a full recompute.
* **Emission** rebuilds :class:`~repro.scheduling.schedule.ScheduledTask`
  / ``ScheduledComm`` instances through ``__new__`` fast constructors:
  every emitted value satisfies the dataclass invariants by
  construction (ends are ``start + non-negative duration``, energies
  are non-negative), so re-validating each of them on the hot path
  would only re-derive known facts.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.decode_cache import DecodeContext
    from repro.engine.profile import PhaseProfiler
from repro.errors import VoltageScalingError
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

_INF = math.inf

#: C-level sort keys for the resource grouping (same orderings as
#: ``ModeSchedule.tasks_on`` / ``comms_on`` / the by-core grouping).
_TASK_ORDER = attrgetter("start", "name")
_COMM_ORDER = attrgetter("start", "key")
_START_ORDER = attrgetter("start")

#: Table type of one scalable node: per-level durations or energies,
#: ascending voltage (index ``len-1`` is nominal).
_Table = Tuple[float, ...]

# The profiler singleton lives behind the engine package init, which
# transitively imports this module — bind it on first use instead of
# at import time (same bind-once semantics as the top-level imports
# the rest of the codebase uses).
_PROFILER: Optional["PhaseProfiler"] = None


def _profiler() -> "PhaseProfiler":
    global _PROFILER
    if _PROFILER is None:
        from repro.engine.profile import PROFILER

        _PROFILER = PROFILER
    return _PROFILER


class _VectorGraph:
    """Order-augmented DAG as parallel arrays (struct-of-arrays).

    One instance is built per voltage-selection call and carries both
    the level state (levels, current durations, est/lft arrays) and the
    back-mapping indices (task/segment/comm positions).  Adjacency is
    integer list-of-lists — the cone walks index it directly.
    """

    __slots__ = (
        "size",
        "dur_tables",
        "en_tables",
        "voltages",
        "level",
        "durations",
        "deadlines",
        "scalable",
        "scalable_flags",
        "preds",
        "succs",
        "topo",
        "topo_rank",
        "pending",
        "est",
        "finish",
        "lft",
        "latest_start",
        "task_pos",
        "comm_base",
        "task_segments",
        "seg_nominal",
        "seg_pes",
    )

    def __init__(self, size: int) -> None:
        self.size = size
        self.dur_tables: List[Optional[_Table]] = []
        self.en_tables: List[Optional[_Table]] = []
        self.voltages: List[Optional[_Table]] = []
        self.level: List[int] = []
        self.durations: List[float] = []
        self.deadlines: List[float] = []
        self.scalable: List[int] = []
        self.scalable_flags = bytearray(size)
        self.preds: List[List[int]] = [[] for _ in range(size)]
        self.succs: List[List[int]] = [[] for _ in range(size)]
        self.topo: List[int] = []
        self.topo_rank: List[int] = []
        self.pending = bytearray(size)
        self.est: List[float] = []
        self.finish: List[float] = []
        self.lft: List[float] = []
        self.latest_start: List[float] = []
        # Back-mapping: task name -> position (tasks folded into
        # segment chains are absent), first comm position (comms are
        # consecutive in schedule order), and per-task ordered segment
        # positions on shared-rail hardware.
        self.task_pos: Dict[str, int] = {}
        self.comm_base = 0
        self.task_segments: Dict[str, List[int]] = {}
        # True nominal duration per segment position.  The voltage
        # table's top entry is `(d·s)/s`, which can differ from `d` by
        # an ulp; the rebuild needs the exact original for energies.
        self.seg_nominal: Dict[int, float] = {}
        self.seg_pes: List[str] = []


# ----------------------------------------------------------------------
# Fast constructors (invariants hold by construction; see module doc)
# ----------------------------------------------------------------------


def _make_task(
    name: str,
    task_type: str,
    pe: str,
    start: float,
    end: float,
    energy: float,
    power: float,
    core_index: Optional[int],
    pieces: Tuple[Tuple[float, float], ...],
) -> ScheduledTask:
    task = ScheduledTask.__new__(ScheduledTask)
    values = task.__dict__
    values["name"] = name
    values["task_type"] = task_type
    values["pe"] = pe
    values["start"] = start
    values["end"] = end
    values["energy"] = energy
    values["power"] = power
    values["core_index"] = core_index
    values["pieces"] = pieces
    return task


def _make_comm(
    src: str,
    dst: str,
    link: Optional[str],
    start: float,
    end: float,
    energy: float,
) -> ScheduledComm:
    comm = ScheduledComm.__new__(ScheduledComm)
    values = comm.__dict__
    values["src"] = src
    values["dst"] = dst
    values["link"] = link
    values["start"] = start
    values["end"] = end
    values["energy"] = energy
    return comm


def _make_schedule(
    mode_name: str,
    tasks: Sequence[ScheduledTask],
    comms: Sequence[ScheduledComm],
) -> ModeSchedule:
    # Inputs derive one-to-one from an already-validated ModeSchedule,
    # so names/keys are unique and the duplicate checks of __init__
    # cannot fire.
    schedule = ModeSchedule.__new__(ModeSchedule)
    schedule.mode_name = mode_name
    schedule._tasks = {task.name: task for task in tasks}
    schedule._comms = {(comm.src, comm.dst): comm for comm in comms}
    return schedule


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------


def _build_vector_graph(
    problem: Problem,
    mode: Mode,
    schedule: ModeSchedule,
    shared_rail: bool,
    context: "DecodeContext",
) -> Tuple[
    _VectorGraph,
    Optional[Tuple[List[List[int]], List[List[int]], List[float]]],
]:
    """One fused pass: DVS graph arrays plus the shared replay graph.

    Returns the graph and, when Fig. 5 segment chains exist, the replay
    adjacency ``(preds, succs, durations)`` over task-level activities
    (tasks in schedule order, then comms) — collected alongside the DVS
    edges so the rebuild phase never re-derives the resource grouping.
    """
    architecture = problem.architecture
    mode_data = context.modes[mode.name]
    deadlines_of = mode_data.deadlines
    pe_objects = context.pes
    tables = context.duration_energy_tables
    hw_dvs = context.hw_dvs_pes if shared_rail else frozenset()
    dvs_pes = context.dvs_pes

    tasks = schedule.tasks
    comms = schedule.comms
    task_count = len(tasks)

    # --- single resource grouping, shared by DVS and replay graphs ----
    # Replicates ModeSchedule.tasks_on / comms_on exactly: filter by
    # resource, order by (start, name) / (start, key).
    tasks_by_pe: Dict[str, List[ScheduledTask]] = {}
    for task in tasks:
        tasks_by_pe.setdefault(task.pe, []).append(task)
    for placed in tasks_by_pe.values():
        placed.sort(key=_TASK_ORDER)
    comms_by_link: Dict[str, List[ScheduledComm]] = {}
    for comm in comms:
        if comm.link is not None:
            comms_by_link.setdefault(comm.link, []).append(comm)
    for carried in comms_by_link.values():
        carried.sort(key=_COMM_ORDER)

    # --- nodes: tasks off shared-rail DVS hardware --------------------
    folded = 0
    seg_pes: List[str] = []
    if hw_dvs:
        for pe_name in hw_dvs:
            group = tasks_by_pe.get(pe_name)
            if group:
                folded += len(group)
                seg_pes.append(pe_name)
        seg_pes.sort()

    graph = _VectorGraph(0)  # size fixed up after construction
    dur_tables = graph.dur_tables
    en_tables = graph.en_tables
    voltages = graph.voltages
    level = graph.level
    durations = graph.durations
    deadlines = graph.deadlines
    scalable = graph.scalable
    task_pos = graph.task_pos
    task_segments = graph.task_segments
    seg_nominal = graph.seg_nominal
    graph.seg_pes = seg_pes

    position = 0
    for task in tasks:
        pe_name = task.pe
        if pe_name in hw_dvs:
            continue
        task_pos[task.name] = position
        if pe_name in dvs_pes:
            dur_t, en_t = tables(pe_name, task.duration, task.energy)
            dur_tables.append(dur_t)
            en_tables.append(en_t)
            top = len(dur_t) - 1
            level.append(top)
            durations.append(dur_t[top])
            voltages.append(pe_objects[pe_name].voltage_levels)
            scalable.append(position)
        else:
            dur_tables.append(None)
            en_tables.append(None)
            voltages.append(None)
            level.append(0)
            durations.append(task.duration)
        deadlines.append(deadlines_of[task.name])
        position += 1

    # --- nodes: Fig. 5 segment chains on shared-rail hardware ---------
    task_first_seg: Dict[str, int] = {}
    task_last_seg: Dict[str, int] = {}
    edges: List[Tuple[int, int]] = []
    for pe_name in seg_pes:
        placed = tasks_by_pe[pe_name]
        pe = pe_objects[pe_name]
        starts = [t.start for t in placed]
        ends = [t.end for t in placed]
        powers = [t.power for t in placed]
        count = len(placed)
        breakpoints = sorted(set(starts) | set(ends))
        chain_prev = -1
        task_energy = 0.0
        for t in placed:
            task_energy += t.power * t.duration
        segment_energy = 0.0
        latest_segment = -_INF
        for left, right in zip(breakpoints, breakpoints[1:]):
            if right - left <= TIME_EPS:
                continue
            left_eps = left + TIME_EPS
            right_eps = right - TIME_EPS
            active = [
                i
                for i in range(count)
                if starts[i] <= left_eps and ends[i] >= right_eps
            ]
            if not active:
                continue
            power = 0.0
            for i in active:
                power += powers[i]
            seg_duration = right - left
            seg_energy = power * seg_duration
            segment_energy += seg_energy
            if right > latest_segment:
                latest_segment = right
            deadline = _INF
            for i in active:
                if abs(ends[i] - right) <= TIME_EPS:
                    candidate = deadlines_of[placed[i].name]
                    if candidate < deadline:
                        deadline = candidate
            dur_t, en_t = tables(pe_name, seg_duration, seg_energy)
            dur_tables.append(dur_t)
            en_tables.append(en_t)
            top = len(dur_t) - 1
            level.append(top)
            durations.append(dur_t[top])
            voltages.append(pe.voltage_levels)
            deadlines.append(deadline)
            scalable.append(position)
            seg_nominal[position] = seg_duration
            for i in active:
                name = placed[i].name
                segs = task_segments.get(name)
                if segs is None:
                    task_segments[name] = [position]
                    task_first_seg[name] = position
                else:
                    segs.append(position)
                task_last_seg[name] = position
            if chain_prev >= 0:
                edges.append((chain_prev, position))
            chain_prev = position
            position += 1
        # Transformation invariants (the seed path checks them via
        # transform._check_equivalence; same tolerances here).
        scale = task_energy if task_energy > 1.0 else 1.0
        if abs(task_energy - segment_energy) > 1e-9 * scale:
            raise VoltageScalingError(
                f"transformation broke energy equivalence: tasks "
                f"{task_energy}, segments {segment_energy}"
            )
        latest_task = -_INF
        for t in placed:
            if t.duration > TIME_EPS and t.end > latest_task:
                latest_task = t.end
        if latest_task > -_INF and latest_segment > -_INF:
            if abs(latest_task - latest_segment) > TIME_EPS:
                raise VoltageScalingError(
                    "transformation broke makespan equivalence"
                )

    # --- nodes and edges: communications ------------------------------
    comm_base = position
    graph.comm_base = comm_base
    replay: Optional[
        Tuple[List[List[int]], List[List[int]], List[float]]
    ] = None
    if seg_pes:
        replay_count = task_count + len(comms)
        replay_preds: List[List[int]] = [[] for _ in range(replay_count)]
        replay_succs: List[List[int]] = [[] for _ in range(replay_count)]
        replay_durations = [0.0] * replay_count
        replay_task_index = {
            task.name: index for index, task in enumerate(tasks)
        }
        for offset, comm in enumerate(comms):
            replay_durations[task_count + offset] = comm.duration
        replay = (replay_preds, replay_succs, replay_durations)
    for comm in comms:
        dur_tables.append(None)
        en_tables.append(None)
        voltages.append(None)
        level.append(0)
        durations.append(comm.duration)
        deadlines.append(_INF)
        src_anchor = task_last_seg.get(comm.src)
        if src_anchor is None:
            src_anchor = task_pos[comm.src]
        dst_anchor = task_first_seg.get(comm.dst)
        if dst_anchor is None:
            dst_anchor = task_pos[comm.dst]
        if src_anchor != position:
            edges.append((src_anchor, position))
        if dst_anchor != position:
            edges.append((position, dst_anchor))
        position += 1
    if replay is not None:
        replay_preds, replay_succs, _rd = replay
        for offset, comm in enumerate(comms):
            index = task_count + offset
            src_index = replay_task_index[comm.src]
            dst_index = replay_task_index[comm.dst]
            replay_succs[src_index].append(index)
            replay_preds[index].append(src_index)
            replay_succs[index].append(dst_index)
            replay_preds[dst_index].append(index)

    # --- edges: execution order on serial resources --------------------
    for pe in architecture.pes:
        pe_name = pe.name
        in_segments = pe_name in hw_dvs
        placed = tasks_by_pe.get(pe_name)
        if not placed:
            continue
        if pe.is_software:
            if not in_segments:
                prev = task_pos[placed[0].name]
                for nxt_task in placed[1:]:
                    nxt = task_pos[nxt_task.name]
                    edges.append((prev, nxt))
                    prev = nxt
            if replay is not None:
                prev = replay_task_index[placed[0].name]
                for nxt_task in placed[1:]:
                    nxt = replay_task_index[nxt_task.name]
                    replay_succs[prev].append(nxt)
                    replay_preds[nxt].append(prev)
                    prev = nxt
        else:
            by_core: Dict[Tuple[str, Optional[int]], List[ScheduledTask]]
            by_core = {}
            for task in placed:
                by_core.setdefault(
                    (task.task_type, task.core_index), []
                ).append(task)
            for group in by_core.values():
                group.sort(key=_START_ORDER)
                if not in_segments:
                    prev = task_pos[group[0].name]
                    for nxt_task in group[1:]:
                        nxt = task_pos[nxt_task.name]
                        edges.append((prev, nxt))
                        prev = nxt
                if replay is not None:
                    prev = replay_task_index[group[0].name]
                    for nxt_task in group[1:]:
                        nxt = replay_task_index[nxt_task.name]
                        replay_succs[prev].append(nxt)
                        replay_preds[nxt].append(prev)
                        prev = nxt
    if comms_by_link:
        comm_index = {comm.key: index for index, comm in enumerate(comms)}
        for link in architecture.links:
            carried = comms_by_link.get(link.name)
            if not carried:
                continue
            prev_i = comm_index[carried[0].key]
            for nxt_comm in carried[1:]:
                nxt_i = comm_index[nxt_comm.key]
                edges.append((comm_base + prev_i, comm_base + nxt_i))
                if replay is not None:
                    replay_succs[task_count + prev_i].append(
                        task_count + nxt_i
                    )
                    replay_preds[task_count + nxt_i].append(
                        task_count + prev_i
                    )
                prev_i = nxt_i

    # --- freeze: adjacency, topological order --------------------------
    size = position
    graph.size = size
    graph.scalable_flags = flags = bytearray(size)
    for pos in scalable:
        flags[pos] = 1
    preds: List[List[int]] = [[] for _ in range(size)]
    succs: List[List[int]] = [[] for _ in range(size)]
    for src, dst in edges:
        adjacent = succs[src]
        if dst not in adjacent:
            adjacent.append(dst)
            preds[dst].append(src)
    graph.preds = preds
    graph.succs = succs

    in_degree = [len(entry) for entry in preds]
    ready = [pos for pos in range(size) if not in_degree[pos]]
    topo: List[int] = []
    while ready:
        current = ready.pop()
        topo.append(current)
        for nxt in succs[current]:
            in_degree[nxt] -= 1
            if not in_degree[nxt]:
                ready.append(nxt)
    if len(topo) != size:
        raise VoltageScalingError("DVS graph contains a cycle")
    graph.topo = topo
    rank = [0] * size
    for ordinal, pos in enumerate(topo):
        rank[pos] = ordinal
    graph.topo_rank = rank
    graph.pending = bytearray(size)
    return graph, replay


# ----------------------------------------------------------------------
# Timing kernels
# ----------------------------------------------------------------------


def _forward_full(graph: _VectorGraph) -> None:
    """Earliest starts/finishes from scratch (exact max-accumulation)."""
    size = graph.size
    est = [0.0] * size
    finish = [0.0] * size
    durations = graph.durations
    preds = graph.preds
    for pos in graph.topo:
        arrival = 0.0
        for prev in preds[pos]:
            candidate = finish[prev]
            if candidate > arrival:
                arrival = candidate
        est[pos] = arrival
        finish[pos] = arrival + durations[pos]
    graph.est = est
    graph.finish = finish


def _backward_full(graph: _VectorGraph) -> None:
    """Latest finishes/starts from scratch (exact min-accumulation)."""
    size = graph.size
    lft = [0.0] * size
    latest_start = [0.0] * size
    durations = graph.durations
    succs = graph.succs
    deadlines = graph.deadlines
    for pos in reversed(graph.topo):
        bound = deadlines[pos]
        for nxt in succs[pos]:
            candidate = latest_start[nxt]
            if candidate < bound:
                bound = candidate
        lft[pos] = bound
        latest_start[pos] = bound - durations[pos]
    graph.lft = lft
    graph.latest_start = latest_start


def _flush_forward(graph: _VectorGraph, sources: List[int]) -> None:
    """Propagate all queued stretches downstream in one ranked wave.

    Every flagged node is recomputed with exactly the full-pass formula
    once all its updated predecessors have been recomputed (rank
    order), so the wave is bit-identical to a full forward pass while
    visiting only the union of the stretched nodes' cones.
    """
    est = graph.est
    finish = graph.finish
    durations = graph.durations
    preds = graph.preds
    succs = graph.succs
    topo = graph.topo
    rank = graph.topo_rank
    pending = graph.pending
    remaining = 0
    first_rank = graph.size
    for pos in sources:
        if not pending[pos]:
            pending[pos] = 1
            remaining += 1
            if rank[pos] < first_rank:
                first_rank = rank[pos]
    for ordinal in range(first_rank, len(topo)):
        if not remaining:
            break
        current = topo[ordinal]
        if not pending[current]:
            continue
        pending[current] = 0
        remaining -= 1
        arrival = 0.0
        for prev in preds[current]:
            candidate = finish[prev]
            if candidate > arrival:
                arrival = candidate
        est[current] = arrival
        updated = arrival + durations[current]
        # An unchanged finish stops the wave: downstream nodes only
        # ever read `finish`, never `est` directly.
        if updated != finish[current]:
            finish[current] = updated
            for nxt in succs[current]:
                if not pending[nxt]:
                    pending[nxt] = 1
                    remaining += 1


def _flush_backward(graph: _VectorGraph, sources: List[int]) -> None:
    """Mirror image of :func:`_flush_forward` for ``lft``."""
    lft = graph.lft
    latest_start = graph.latest_start
    durations = graph.durations
    preds = graph.preds
    succs = graph.succs
    topo = graph.topo
    rank = graph.topo_rank
    deadlines = graph.deadlines
    pending = graph.pending
    remaining = 0
    last_rank = -1
    for pos in sources:
        if not pending[pos]:
            pending[pos] = 1
            remaining += 1
            if rank[pos] > last_rank:
                last_rank = rank[pos]
    for ordinal in range(last_rank, -1, -1):
        if not remaining:
            break
        current = topo[ordinal]
        if not pending[current]:
            continue
        pending[current] = 0
        remaining -= 1
        bound = deadlines[current]
        for nxt in succs[current]:
            candidate = latest_start[nxt]
            if candidate < bound:
                bound = candidate
        lft[current] = bound
        updated = bound - durations[current]
        if updated != latest_start[current]:
            latest_start[current] = updated
            for prev in preds[current]:
                if not pending[prev]:
                    pending[prev] = 1
                    remaining += 1


# ----------------------------------------------------------------------
# Gradient descent
# ----------------------------------------------------------------------


def _descent(graph: _VectorGraph, need_final_est: bool) -> None:
    """Greedy energy-gradient descent over the array representation.

    Equivalent to the seed's scan loop (see the module docstring for
    the monotone-slack argument): the heap pops moves in exactly the
    scan's accept order.  The timing arrays are allowed to go stale
    across accepts; every pop is decided against a two-sided bound
    instead of an exact recompute:

    * stale slack *over*-estimates the true slack (queued stretches
      only ever shrink it), so a candidate that fails even the stale
      test is infeasible for good — discard, no flush;
    * ``stale_slack − Δ`` *under*-estimates it, where ``Δ`` is the sum
      of the *other* nodes' queued stretch deltas: a queued stretch at
      ``q ≠ p`` can raise ``est[p]`` (``q`` an ancestor) or sink
      ``lft[p]`` (``q`` a descendant) by at most its delta, and never
      both, while ``p``'s own stretches move neither — so the deltas
      bound the combined staleness additively and a candidate that
      fits under the bound is feasible for sure, accept without
      flushing.

    Only the narrow band in between (candidate within ``Δ`` of the
    stale slack — the tight end-game) pays for a flush, which replays
    all queued stretches in one rank-ordered wave per direction and
    re-tests exactly.  Accept decisions therefore match the
    always-exact seed loop bit for bit.

    ``need_final_est`` requests one last forward flush so ``est`` is
    exact on return (the direct-emission path reads it; the replay
    path does not).
    """
    dur_tables = graph.dur_tables
    en_tables = graph.en_tables
    level = graph.level
    durations = graph.durations
    est = graph.est
    lft = graph.lft

    heap: List[Tuple[float, float, int, float]] = []
    for pos in graph.scalable:
        current = level[pos]
        if current == 0:
            continue
        dur_t = dur_tables[pos]
        en_t = en_tables[pos]
        assert dur_t is not None and en_t is not None
        extra = dur_t[current - 1] - dur_t[current]
        saved = en_t[current] - en_t[current - 1]
        if saved <= 0:
            continue
        heap.append((-(saved / extra), -saved, pos, extra))
    if not heap:
        return
    heapify(heap)

    threshold = _SLACK_EPS + TIME_EPS
    pending: List[int] = []
    pending_delta: Dict[int, float] = {}
    delta = 0.0
    while heap:
        entry = heappop(heap)
        pos = entry[2]
        extra = entry[3]
        slack = lft[pos] - est[pos] - durations[pos]
        if extra > slack + threshold:
            continue
        if pending:
            # A node's own queued stretches move *other* nodes'
            # est/lft, never its own, so they drop out of the bound —
            # repeated stretches of one node never force a flush.
            stale = delta - pending_delta.get(pos, 0.0)
            if stale > 0.0 and extra > slack - stale + threshold:
                _flush_forward(graph, pending)
                _flush_backward(graph, pending)
                pending = []
                pending_delta = {}
                delta = 0.0
                slack = lft[pos] - est[pos] - durations[pos]
                if extra > slack + threshold:
                    continue
        # Accept: drop one level, queue the stretch, push the node's
        # next candidate move.
        current = level[pos] - 1
        level[pos] = current
        dur_t = dur_tables[pos]
        assert dur_t is not None
        durations[pos] = dur_t[current]
        if current > 0:
            en_t = en_tables[pos]
            assert en_t is not None
            next_extra = dur_t[current - 1] - dur_t[current]
            next_saved = en_t[current] - en_t[current - 1]
            if next_saved > 0:
                heappush(
                    heap,
                    (
                        -(next_saved / next_extra),
                        -next_saved,
                        pos,
                        next_extra,
                    ),
                )
        pending.append(pos)
        pending_delta[pos] = pending_delta.get(pos, 0.0) + extra
        delta += extra
    if pending and need_final_est:
        _flush_forward(graph, pending)
    # The backward arrays are not read after the descent, and the
    # replay path recomputes start times itself — leave whatever flush
    # is not needed unapplied.


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------


def _emit_direct(
    mode: Mode, schedule: ModeSchedule, graph: _VectorGraph
) -> ModeSchedule:
    """Materialise the scaled schedule straight from the graph arrays.

    Only valid without segment chains: every activity is its own node,
    so the final earliest starts *are* the replayed start times.
    """
    est = graph.est
    task_pos = graph.task_pos
    level = graph.level
    dur_tables = graph.dur_tables
    en_tables = graph.en_tables
    voltages = graph.voltages
    flags = graph.scalable_flags
    new_tasks: List[ScheduledTask] = []
    for task in schedule.tasks:
        pos = task_pos[task.name]
        start = est[pos]
        if flags[pos]:
            current = level[pos]
            dur_t = dur_tables[pos]
            en_t = en_tables[pos]
            volts = voltages[pos]
            assert (
                dur_t is not None and en_t is not None and volts is not None
            )
            duration = dur_t[current]
            energy = en_t[current]
            pieces: Tuple[Tuple[float, float], ...] = (
                (duration, volts[current]),
            )
        else:
            duration = task.duration
            energy = task.energy
            pieces = ()
            # An untouched activity re-emits the exact same floats —
            # reuse the immutable input object instead of rebuilding.
            if (
                start == task.start
                and start + duration == task.end
                and not task.pieces
            ):
                new_tasks.append(task)
                continue
        new_tasks.append(
            _make_task(
                task.name,
                task.task_type,
                task.pe,
                start,
                start + duration,
                energy,
                task.power,
                task.core_index,
                pieces,
            )
        )
    comm_base = graph.comm_base
    new_comms: List[ScheduledComm] = []
    for offset, comm in enumerate(schedule.comms):
        start = est[comm_base + offset]
        duration = comm.duration
        if start == comm.start and start + duration == comm.end:
            new_comms.append(comm)
            continue
        new_comms.append(
            _make_comm(
                comm.src,
                comm.dst,
                comm.link,
                start,
                start + duration,
                comm.energy,
            )
        )
    return _make_schedule(mode.name, new_tasks, new_comms)


def _rebuild_replay(
    problem: Problem,
    mode: Mode,
    schedule: ModeSchedule,
    graph: _VectorGraph,
    replay: Tuple[List[List[int]], List[List[int]], List[float]],
    context: "DecodeContext",
) -> ModeSchedule:
    """Map segment voltages back to tasks and replay the mode.

    Piece durations are read from the segment voltage tables (the exact
    floats ``scaled_duration`` produces — the tables were built from
    it) and piece energies reuse precomputed per-level ``(v/vmax)²``
    factors, matching ``scaled_energy``'s operation order.
    """
    replay_preds, replay_succs, replay_durations = replay
    tasks = schedule.tasks
    comms = schedule.comms
    task_count = len(tasks)
    task_pos = graph.task_pos
    task_segments = graph.task_segments
    seg_nominal = graph.seg_nominal
    level = graph.level
    dur_tables = graph.dur_tables
    voltages = graph.voltages
    flags = graph.scalable_flags
    durations = graph.durations

    # Per-PE (v/vmax)² table, shared by every task on that rail.
    energy_factors: Dict[str, Tuple[float, ...]] = {}
    for pe_name in graph.seg_pes:
        levels = context.pes[pe_name].voltage_levels
        vmax = levels[-1]
        energy_factors[pe_name] = tuple(
            (vdd / vmax) ** 2 for vdd in levels
        )

    scaled_duration_of = [0.0] * task_count
    scaled_energy_of = [0.0] * task_count
    scaled_pieces: List[Tuple[Tuple[float, float], ...]] = [
        ()
    ] * task_count
    for index, task in enumerate(tasks):
        segs = task_segments.get(task.name)
        if segs is not None:
            factors = energy_factors[task.pe]
            power = task.power
            pieces_list: List[Tuple[float, float]] = []
            duration = 0.0
            energy = 0.0
            for pos in segs:
                seg_level = level[pos]
                dur_t = dur_tables[pos]
                volts = voltages[pos]
                assert dur_t is not None and volts is not None
                piece = dur_t[seg_level]
                pieces_list.append((piece, volts[seg_level]))
                duration += piece
                # Nominal slice energy = task power · nominal segment
                # duration (the exact original, not the table's top
                # entry), then the (v/vmax)² scaling — the same float
                # ops scaled_energy performs.
                energy += (power * seg_nominal[pos]) * factors[seg_level]
            scaled_duration_of[index] = duration
            scaled_energy_of[index] = energy
            scaled_pieces[index] = tuple(pieces_list)
        else:
            pos = task_pos[task.name]
            if flags[pos]:
                current = level[pos]
                dur_t = dur_tables[pos]
                en_t = graph.en_tables[pos]
                volts = voltages[pos]
                assert (
                    dur_t is not None
                    and en_t is not None
                    and volts is not None
                )
                scaled_duration_of[index] = dur_t[current]
                scaled_energy_of[index] = en_t[current]
                scaled_pieces[index] = ((dur_t[current], volts[current]),)
            else:
                scaled_duration_of[index] = task.duration
                scaled_energy_of[index] = task.energy
        replay_durations[index] = scaled_duration_of[index]

    # Kahn replay: start times are exact max-accumulations, so visit
    # order cannot change a float.
    count = task_count + len(comms)
    in_degree = [len(entries) for entries in replay_preds]
    ready = [index for index in range(count) if not in_degree[index]]
    start = [0.0] * count
    finish = [0.0] * count
    visited = 0
    while ready:
        current = ready.pop()
        visited += 1
        arrival = 0.0
        for prev in replay_preds[current]:
            candidate = finish[prev]
            if candidate > arrival:
                arrival = candidate
        start[current] = arrival
        finish[current] = arrival + replay_durations[current]
        for nxt in replay_succs[current]:
            in_degree[nxt] -= 1
            if not in_degree[nxt]:
                ready.append(nxt)
    if visited != count:
        raise VoltageScalingError("replay graph contains a cycle")

    new_tasks: List[ScheduledTask] = []
    for index, task in enumerate(tasks):
        begin = start[index]
        duration = scaled_duration_of[index]
        # Untouched activities re-emit the exact same floats — reuse
        # the immutable input objects instead of rebuilding them.
        if (
            not scaled_pieces[index]
            and begin == task.start
            and begin + duration == task.end
            and not task.pieces
        ):
            new_tasks.append(task)
            continue
        new_tasks.append(
            _make_task(
                task.name,
                task.task_type,
                task.pe,
                begin,
                begin + duration,
                scaled_energy_of[index],
                task.power,
                task.core_index,
                scaled_pieces[index],
            )
        )
    new_comms: List[ScheduledComm] = []
    for offset, comm in enumerate(comms):
        begin = start[task_count + offset]
        duration = comm.duration
        if begin == comm.start and begin + duration == comm.end:
            new_comms.append(comm)
            continue
        new_comms.append(
            _make_comm(
                comm.src,
                comm.dst,
                comm.link,
                begin,
                begin + duration,
                comm.energy,
            )
        )
    return _make_schedule(mode.name, new_tasks, new_comms)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def vector_scale_schedule(
    problem: Problem,
    mode: Mode,
    schedule: ModeSchedule,
    shared_rail: bool = True,
    context: Optional["DecodeContext"] = None,
) -> ModeSchedule:
    """Array-kernel PV-DVS energy-gradient descent."""
    if context is None:
        from repro.engine.decode_cache import context_for

        context = context_for(problem)
    with _profiler().phase("dvs_vector", mode=mode.name):
        graph, replay = _build_vector_graph(
            problem, mode, schedule, shared_rail, context
        )
        _forward_full(graph)
        _backward_full(graph)
        _descent(graph, need_final_est=replay is None)
        if replay is None:
            return _emit_direct(mode, schedule, graph)
        return _rebuild_replay(
            problem, mode, schedule, graph, replay, context
        )


def vector_uniform_scale_schedule(
    problem: Problem,
    mode: Mode,
    schedule: ModeSchedule,
    context: Optional["DecodeContext"] = None,
) -> ModeSchedule:
    """Uniform-stretch baseline on the array graph (shared rails).

    Each bisection step sets every scalable node to the lowest level
    whose duration fits ``nominal × κ`` and checks all deadlines with
    one full forward pass — the same floats and comparisons as the seed
    loop, so the chosen ``κ`` and the emitted schedule are identical.
    """
    if context is None:
        from repro.engine.decode_cache import context_for

        context = context_for(problem)
    graph, replay = _build_vector_graph(
        problem, mode, schedule, True, context
    )
    dur_tables = graph.dur_tables
    level = graph.level
    durations = graph.durations
    deadlines = graph.deadlines
    scalable = graph.scalable

    def apply_factor(kappa: float) -> None:
        for pos in scalable:
            dur_t = dur_tables[pos]
            assert dur_t is not None
            budget = dur_t[-1] * kappa
            chosen = len(dur_t) - 1
            for index, duration in enumerate(dur_t):
                if duration <= budget + TIME_EPS:
                    chosen = index
                    break
            level[pos] = chosen
            durations[pos] = dur_t[chosen]
        _forward_full(graph)

    def feasible() -> bool:
        finish = graph.finish
        for pos in range(graph.size):
            if finish[pos] > deadlines[pos] + TIME_EPS:
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
    if replay is None:
        return _emit_direct(mode, schedule, graph)
    return _rebuild_replay(problem, mode, schedule, graph, replay, context)
