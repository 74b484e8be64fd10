"""Simulated autoscaler: queue depth drives node count.

The autoscaler is a *control-plane* component: at every control tick the
router feeds it the observable signals — total queued requests and
active node count — and the autoscaler answers with a target
active-node count.
The router then activates standby nodes (paying ``provision_ms`` before
they accept dispatches) or drains active ones (they finish their booked
work but receive nothing new).

Two stability mechanisms, both asserted by ``tests/cluster``:

* **cool-down** — after any scale action, further actions are suppressed
  for ``cooldown_ms``; a burst therefore produces a clean ramp, not a
  thrash, and a scale-up is never immediately reverted (no flapping);
* **hysteresis** — scale-down requires ``down_stable_ticks`` consecutive
  low-pressure observations, so a single quiet tick inside a diurnal
  trough never drops capacity.

State machine: ``steady`` (watching) → ``cooldown`` (action taken,
holding) → ``steady``.  Every tick is logged as a :class:`ScaleDecision`
so benchmarks and the trace recorder can show the autoscaler reacting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

STATE_STEADY = "steady"
STATE_COOLDOWN = "cooldown"

ACTION_UP = "up"
ACTION_DOWN = "down"
ACTION_HOLD = "hold"


@dataclass(frozen=True)
class AutoscaleConfig:
    """Policy knobs of the simulated autoscaler.

    ``queue_high`` / ``queue_low`` are queued-requests-per-active-node
    thresholds.  ``provision_ms`` is the delay before an activated node
    accepts dispatches.
    """

    min_nodes: int = 1
    max_nodes: int = 8
    control_interval_ms: float = 50.0
    queue_high: float = 4.0
    queue_low: float = 0.5
    cooldown_ms: float = 200.0
    provision_ms: float = 100.0
    down_stable_ticks: int = 3

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise ValueError(f"min_nodes must be >= 1, got {self.min_nodes}")
        if self.max_nodes < self.min_nodes:
            raise ValueError(
                f"max_nodes {self.max_nodes} below min_nodes {self.min_nodes}"
            )
        if self.control_interval_ms <= 0:
            raise ValueError(
                f"control_interval_ms must be > 0, got {self.control_interval_ms}"
            )
        if self.queue_high <= self.queue_low:
            raise ValueError(
                f"queue_high {self.queue_high} must exceed queue_low {self.queue_low}"
            )
        if self.cooldown_ms < 0 or self.provision_ms < 0:
            raise ValueError("cooldown_ms and provision_ms must be >= 0")
        if self.down_stable_ticks < 1:
            raise ValueError(
                f"down_stable_ticks must be >= 1, got {self.down_stable_ticks}"
            )


@dataclass(frozen=True)
class ScaleDecision:
    """One control-tick outcome, logged whether or not capacity changed."""

    at_ms: float
    action: str
    active: int
    target: int
    queued: int
    state: str
    reason: str


@dataclass
class Autoscaler:
    """The queue-depth controller with cool-down and hysteresis."""

    config: AutoscaleConfig = field(default_factory=AutoscaleConfig)
    decisions: list[ScaleDecision] = field(default_factory=list)
    _cooldown_until_ms: float = 0.0
    _low_ticks: int = 0

    def state(self, now_ms: float) -> str:
        return STATE_COOLDOWN if now_ms < self._cooldown_until_ms else STATE_STEADY

    def tick(self, now_ms: float, queued: int, active: int) -> int:
        """One control observation; returns the target active-node count.

        ``queued`` is the router's total queued-request count, ``active``
        the nodes currently accepting dispatches (activating and draining
        nodes excluded).
        """
        cfg = self.config
        state = self.state(now_ms)
        per_node = queued / active if active > 0 else float(queued)
        over = per_node >= cfg.queue_high or active == 0
        under = per_node <= cfg.queue_low and active > 0

        self._low_ticks = self._low_ticks + 1 if under else 0

        action, target, reason = ACTION_HOLD, active, "within thresholds"
        if over and active < cfg.max_nodes:
            if state == STATE_COOLDOWN:
                reason = "scale-up wanted but in cooldown"
            else:
                # pressure-proportional step: a deep queue jumps several
                # nodes at once instead of waiting out one cooldown per node
                step = max(1, int(per_node // cfg.queue_high)) if active else 1
                target = min(cfg.max_nodes, active + step)
                action = ACTION_UP
                reason = f"queue {per_node:.1f}/node >= {cfg.queue_high:.1f}"
        elif under and active > cfg.min_nodes:
            if self._low_ticks < cfg.down_stable_ticks:
                reason = (
                    f"low pressure {self._low_ticks}/{cfg.down_stable_ticks} ticks"
                )
            elif state == STATE_COOLDOWN:
                reason = "scale-down wanted but in cooldown"
            else:
                target = max(cfg.min_nodes, active - 1)
                action = ACTION_DOWN
                reason = (
                    f"queue {per_node:.1f}/node <= {cfg.queue_low:.1f} for "
                    f"{self._low_ticks} ticks"
                )

        if action != ACTION_HOLD:
            self._cooldown_until_ms = now_ms + cfg.cooldown_ms
            self._low_ticks = 0
        self.decisions.append(
            ScaleDecision(
                at_ms=now_ms,
                action=action,
                active=active,
                target=target,
                queued=queued,
                state=state,
                reason=reason,
            )
        )
        return target

    def actions(self, kind: str | None = None) -> list[ScaleDecision]:
        """The non-hold decisions (optionally only ``up`` or ``down``)."""
        picked = [d for d in self.decisions if d.action != ACTION_HOLD]
        if kind is not None:
            picked = [d for d in picked if d.action == kind]
        return picked
