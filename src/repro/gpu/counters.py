"""Event counters shared by the functional simulator and the analytic model.

Every phase of every engine reports its work through an
:class:`EventCounters` instance.  On small inputs the functional simulator
*measures* these counts; for paper-scale inputs the same fields are filled by
closed-form formulas — property tests check that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class EventCounters:
    """Work tallies for one execution (one GPU or the whole system)."""

    # elliptic-curve operations
    pacc: int = 0
    padd: int = 0
    pdbl: int = 0

    # scatter machinery
    global_atomics: int = 0
    shared_atomics: int = 0
    prefix_sums: int = 0  # block-level parallel prefix sums executed
    block_syncs: int = 0

    # memory traffic (bytes)
    device_bytes: int = 0
    shared_bytes: int = 0
    host_transfer_bytes: int = 0

    # host-side work
    cpu_padd: int = 0
    cpu_pdbl: int = 0

    # kernel launches (fixed overhead each)
    kernel_launches: int = 0

    def merge(self, other: "EventCounters") -> "EventCounters":
        """Accumulate another counter into this one (returns self)."""
        for name in _FIELD_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def scaled(self, factor: float) -> "EventCounters":
        """A copy with every tally multiplied by ``factor`` (rounded)."""
        out = EventCounters()
        for name in _FIELD_NAMES:
            setattr(out, name, int(round(getattr(self, name) * factor)))
        return out

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    def __repr__(self):
        nonzero = {k: v for k, v in self.as_dict().items() if v}
        return f"EventCounters({nonzero})"


#: the tally names, in declaration order: looked up once, not per merge
_FIELD_NAMES = tuple(f.name for f in fields(EventCounters))
