"""The three audit invariants, written once (DESIGN.md §7).

The timeline, fault, serving, cluster, integrity and trace auditors declare
what their *units*, *devices* and *gates* are; these checks own the logic
and the wording, so "exactly once", "not before its gate" and "not on a
lost device" mean the same thing in every layer:

* :func:`conservation` — each unit is accounted for exactly once;
* :func:`causality` — nothing happens before its gate;
* :func:`exclusion` — nothing runs on a lost device, or after the loss.

:func:`occupancy` lists what a timeline ran where, and
:func:`makespan_floor` is the latest instant any of it ran until, the
bound both schedule auditors hold a claimed makespan to.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from repro.engine.timeline import Timeline
from repro.verify.report import CheckResult


class Gate(NamedTuple):
    """``what`` happened at ``at_ms`` and may not precede ``gate`` at ``gate_ms``."""

    what: str
    at_ms: float
    gate: str
    gate_ms: float
    op: str | None = None
    address: str | None = None


class Occupancy(NamedTuple):
    """``what`` used ``device`` (a resource address) over ``[start_ms, end_ms]``."""

    what: str
    device: str
    start_ms: float
    end_ms: float
    op: str | None = None


def conservation(
    result: CheckResult,
    units: Iterable | None,
    claims: Iterable[tuple],
    noun: Callable[..., str],
    lost: str = "",
    op: Callable[..., str] | None = None,
    address: Callable[..., str] | None = None,
) -> None:
    """Conservation: each unit is accounted for exactly once.

    ``claims`` pairs a unit with what accounted for it (``"served"``,
    ``"shed"``, ``"consumed from r0:g1"``).  One violation per unit
    claimed more than once or claimed but not among ``units``, and one per
    unit nobody claimed, which ``lost`` describes.  ``units=None`` checks
    the at-most-once half only.  ``noun``, ``op`` and ``address`` render a
    unit for the message and the finding's location.
    """
    by_unit: dict = {}
    for unit, how in claims:
        by_unit.setdefault(unit, []).append(how)
    known = None if units is None else set(units)
    broken = []
    for unit, hows in sorted(by_unit.items()):
        claimed = " and ".join(hows)
        if known is not None and unit not in known:
            broken.append((unit, f"unknown {noun(unit)} {claimed}"))
        elif len(hows) > 1:
            times = "twice" if len(hows) == 2 else f"{len(hows)} times"
            broken.append((unit, f"{noun(unit)} {claimed} (counted {times}, at most once allowed)"))
    if known is not None:
        broken += [(unit, f"{noun(unit)} {lost}") for unit in sorted(known - by_unit.keys())]
    for unit, message in broken:
        result.add(
            message, op=op(unit) if op else None, address=address(unit) if address else None
        )


def causality(result: CheckResult, gates: Iterable[Gate], eps: float) -> None:
    """Causality: nothing happens before its gate (a gate never passed is at inf)."""
    for g in gates:
        if g.at_ms < g.gate_ms - eps:
            result.add(
                f"{g.what} at {g.at_ms:.6f} ms, before {g.gate} at {g.gate_ms:.6f} ms",
                op=g.op,
                address=g.address,
            )


def exclusion(
    result: CheckResult,
    uses: Iterable[Occupancy],
    losses: dict[str, tuple[float, str]],
    eps: float,
) -> None:
    """Exclusion: nothing runs on a lost device, or after the loss.

    ``losses`` maps a device to the instant it was lost and how
    (``"death"``, ``"quarantine"``).  Work that starts at or after the
    loss, or is still running past it, is a violation.
    """
    for use in uses:
        loss = losses.get(use.device)
        if loss is None:
            continue
        lost_ms, how = loss
        if use.start_ms >= lost_ms - eps:
            message = f"starts on {use.device} at {use.start_ms:.6f} ms, after"
        elif use.end_ms > lost_ms + eps:
            message = f"runs on {use.device} until {use.end_ms:.6f} ms, past"
        else:
            continue
        result.add(
            f"{use.what} {message} its {how} at {lost_ms:.6f} ms",
            op=use.op,
            address=use.device,
        )


def occupancy(timeline: Timeline) -> list[Occupancy]:
    """Every span and aborted retry attempt of ``timeline``, on its resource."""
    runs = [(s.task, s) for s in timeline.spans.values()]
    runs += [(f"{a.task}#attempt{a.attempt}", a) for a in timeline.attempts]
    return [
        Occupancy(label, f"resource:{r.resource.name}", r.start_ms, r.end_ms, label)
        for label, r in runs
    ]


def makespan_floor(timeline: Timeline) -> float:
    """The latest instant any work ran until: span ends, failures, aborted attempts."""
    ends = [use.end_ms for use in occupancy(timeline)]
    return max(ends + [f.at_ms for f in timeline.failures], default=0.0)
