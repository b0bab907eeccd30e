"""Energy-gradient voltage selection over a scheduled mode (PV-DVS).

Given the nominal-voltage schedule of one mode, this module chooses
discrete supply voltages for every scalable activity so that the total
dynamic energy is minimised without violating deadlines.  It follows
the PV-DVS approach of paper ref. [10] — iteratively hand the available
slack to the activity with the steepest energy reduction per unit of
time — extended to hardware components as described in paper
Section 4.2: all cores of a DVS-enabled hardware component share one
supply rail, so the component's parallel activity is first transformed
into the equivalent sequential segment chain of Fig. 5 and voltages are
selected per *segment*.

The algorithm operates on the *order-augmented DAG*: task-graph
precedence (through the scheduled communications) plus the execution
order the list scheduler fixed on every serial resource.  Extending an
activity by no more than its slack — latest finish minus earliest
finish under the current durations — is always safe, and durations are
recomputed after every accepted move.

After voltage selection the scaled durations are mapped back to the
real tasks (a hardware task accumulates the stretched portions of every
segment it spans, possibly at different voltages) and the mode is
*replayed*: a forward pass over the order-augmented task-level DAG
rebuilds a consistent non-preemptive schedule with the new durations.

This module is the public facade; the implementation is the
struct-of-arrays kernels of :mod:`repro.dvs._kernels`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.dvs._kernels import (
    vector_scale_schedule,
    vector_uniform_scale_schedule,
)
from repro.problem import Problem
from repro.scheduling.schedule import ModeSchedule
from repro.specification.mode import Mode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.decode_cache import DecodeContext


def scale_schedule(
    problem: Problem,
    mode: Mode,
    schedule: ModeSchedule,
    shared_rail: bool = True,
    context: Optional["DecodeContext"] = None,
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

    ``context`` (see :mod:`repro.engine.decode_cache`) memoises the
    per-(PE, duration, energy) voltage tables across candidates; it is
    resolved per problem when omitted.
    """
    return vector_scale_schedule(
        problem, mode, schedule, shared_rail=shared_rail, context=context
    )


def uniform_scale_schedule(
    problem: Problem,
    mode: Mode,
    schedule: ModeSchedule,
    context: Optional["DecodeContext"] = None,
) -> ModeSchedule:
    """Naive DVS baseline: one global stretch factor for all activities.

    Every scalable activity is slowed to the lowest discrete level whose
    duration stays within ``nominal × κ``; the largest feasible κ is
    found by bisection on the DVS graph.  Serves as the ablation
    comparator for the gradient-based :func:`scale_schedule`.
    """
    return vector_uniform_scale_schedule(
        problem, mode, schedule, context=context
    )
