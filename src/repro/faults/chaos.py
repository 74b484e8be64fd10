"""Seeded chaos: reproducible random fault plans.

``random_fault_plan(seed, num_gpus, horizon_ms)`` is the single entry point
the property tests and the recovery benchmark use: the same seed always
yields the same :class:`~repro.engine.faults.FaultPlan`, so every chaos run
— and every failure it uncovers — is replayable from one integer.

Generated plans are *always recoverable* by construction:

* transfer errors are always transient (a permanent error poisons a
  delivery unrecoverably, which is a policy decision for a hand-written
  plan, not random chaos);
* at most one straggler per GPU, never on a GPU that also dies;
* at most one Byzantine worker per GPU, never on a dead GPU, and at least
  one GPU always stays both alive and honest — so re-dispatching rejected
  chunks always has a trusted survivor to land on.
"""

from __future__ import annotations

import random

from repro.engine.faults import (
    BYZANTINE_MODES,
    ByzantineWorker,
    FaultEvent,
    FaultPlan,
    GpuFailure,
    Straggler,
    TransferError,
)

#: a random straggler runs between 1.1x and this many times slower
MAX_SLOWDOWN = 4.0


def random_fault_plan(
    seed: int,
    num_gpus: int,
    horizon_ms: float,
    gpus_per_node: int = 8,
    max_gpu_failures: int | None = None,
    straggler_probability: float = 0.3,
    transfer_error_probability: float = 0.5,
    byzantine_probability: float = 0.0,
    node_failure_probability: float = 0.0,
) -> FaultPlan:
    """Derive a reproducible fault schedule from ``seed``.

    Kills between 0 and ``max_gpu_failures`` GPUs (default: all but one —
    at least one GPU always survives, so recovery is always possible),
    optionally slows a few survivors (at most one :class:`Straggler` per
    GPU), sprinkles *transient* transfer errors over the node links within
    ``[0, horizon_ms)``, and — when ``byzantine_probability > 0`` — turns
    some surviving GPUs Byzantine with a random corruption mode (sometimes
    adaptively restricted to one round), always leaving at least one GPU
    alive *and* honest.

    ``node_failure_probability`` models a whole-box fail-stop for the
    cluster layer (:mod:`repro.cluster`): with that probability, every
    still-alive GPU of one randomly chosen node dies at the *same* event
    boundary — which is exactly the all-GPUs-dead signature
    :func:`repro.cluster.failover.split_fault_plan` detects as a
    :class:`~repro.cluster.failover.NodeDeath`.  The victim is never the
    last node with survivors, so the cluster always keeps a live box to
    fail over to.  All draws for this knob happen after the classic ones,
    so plans for existing seeds are unchanged when it is 0.
    """
    if num_gpus < 1:
        raise ValueError(f"need at least one GPU, got {num_gpus}")
    if horizon_ms <= 0:
        raise ValueError(f"horizon_ms must be > 0, got {horizon_ms}")
    if not 0.0 <= byzantine_probability <= 1.0:
        raise ValueError(
            f"byzantine_probability must be in [0, 1], got {byzantine_probability}"
        )
    if not 0.0 <= node_failure_probability <= 1.0:
        raise ValueError(
            f"node_failure_probability must be in [0, 1], "
            f"got {node_failure_probability}"
        )
    rng = random.Random(seed)
    events: list[FaultEvent] = []

    cap = num_gpus - 1 if max_gpu_failures is None else min(max_gpu_failures, num_gpus - 1)
    n_kills = rng.randint(0, cap) if cap > 0 else 0
    victims = set(rng.sample(range(num_gpus), n_kills))
    for gpu_id in sorted(victims):
        events.append(GpuFailure(round(rng.uniform(0.0, horizon_ms), 6), gpu_id))

    if node_failure_probability > 0.0 and rng.random() < node_failure_probability:
        members = {
            node: [
                g
                for g in range(node * gpus_per_node, min((node + 1) * gpus_per_node, num_gpus))
            ]
            for node in range(-(-num_gpus // gpus_per_node))
        }
        live_nodes = [
            node
            for node in sorted(members)
            if any(g not in victims for g in members[node])
        ]
        if len(live_nodes) >= 2:
            doomed = rng.choice(live_nodes)
            at_ms = round(rng.uniform(0.0, horizon_ms), 6)
            for gpu_id in members[doomed]:
                if gpu_id not in victims:
                    victims.add(gpu_id)
                    events.append(GpuFailure(at_ms, gpu_id))

    slowed: set[int] = set()
    for gpu_id in range(num_gpus):
        if gpu_id in victims or gpu_id in slowed:
            continue
        if rng.random() < straggler_probability:
            slowed.add(gpu_id)
            events.append(Straggler(gpu_id, round(rng.uniform(1.1, MAX_SLOWDOWN), 6)))

    nodes = -(-num_gpus // gpus_per_node)
    for node in range(nodes):
        if rng.random() < transfer_error_probability:
            for _ in range(rng.randint(1, 2)):
                events.append(
                    TransferError(
                        node,
                        round(rng.uniform(0.0, horizon_ms), 6),
                        transient=True,
                    )
                )

    if byzantine_probability > 0.0:
        alive = [g for g in range(num_gpus) if g not in victims]
        cheaters = [g for g in alive if rng.random() < byzantine_probability]
        if len(cheaters) == len(alive) and cheaters:
            # keep one alive GPU honest so rejected chunks have a trusted home
            cheaters.remove(rng.choice(cheaters))
        for gpu_id in cheaters:
            mode = rng.choice(BYZANTINE_MODES)
            rnd = rng.randint(0, 2) if rng.random() < 0.25 else None
            events.append(
                ByzantineWorker(
                    gpu_id, mode=mode, round=rnd, seed=rng.randrange(2**32)
                )
            )

    return FaultPlan(tuple(events))
