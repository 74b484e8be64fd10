"""Byzantine workers: deterministic result forgery and its audit trail.

A :class:`~repro.engine.faults.ByzantineWorker` event makes one GPU
return *forged* chunk results while meeting every deadline — the failure
mode the fail-stop machinery of PR 3 cannot see.  This module owns the
two halves that are not protocol math (that lives in
:mod:`repro.msm.outsource`):

* :func:`corrupt_partials` — the three corruption modes, applied
  deterministically (seeded per ``(seed, round, gpu)``) to the bucket
  partials a cheating worker delivers:

  - ``"wrong-result"`` — one weighted bucket replaced by an unrelated
    group element (a worker that skipped the work and made something up);
  - ``"bit-flip"`` — one bit flipped in a stored coordinate (silent
    memory corruption; the point may leave the curve entirely);
  - ``"off-by-one-bucket"`` — one slot's weighted buckets rotated by one
    index (the classic indexing bug, adversarially exploited).

  The function reports whether the corruption actually changed the
  chunk's *value* ``V`` (:func:`repro.msm.outsource.chunk_value`: the
  window-weighted sum of ``b * B_b`` over the chunk's slots): a
  value-preserving corruption (e.g. only bucket 0, which has weight zero)
  provably cannot change the final MSM point, because the chunk
  contributes exactly ``2^(s * w_min) * V`` to it — so "harmless"
  forgeries passing verification is soundness, not a gap.  An off-curve
  partial leaves the chunk without a value, which counts as a change.

* :class:`ByzantineReport` / :class:`ChunkOutcome` — the audit trail the
  orchestrator attaches to a :class:`~repro.core.distmsm.DistMsmResult`:
  every chunk's verdict and verification time, the quarantine decisions,
  and exactly which delivered execution each plan slot was consumed
  from.  :mod:`repro.verify.integritycheck` replays this trail against
  the timeline to prove no unverified or rejected result reached the
  returned point.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

from repro.curves.params import CurveParams
from repro.curves.point import AffinePoint, XyzzPoint, pmul, to_affine
from repro.msm.outsource import chunk_value

__all__ = [
    "ByzantineReport",
    "ChunkOutcome",
    "VERDICT_ACCEPTED",
    "VERDICT_LOST",
    "VERDICT_REJECTED",
    "VERDICT_UNVERIFIED",
    "corrupt_partials",
]

#: chunk verdicts recorded in a :class:`ChunkOutcome`
VERDICT_ACCEPTED = "accepted"  #: delivered and passed the response check
VERDICT_REJECTED = "rejected"  #: delivered but failed the response check
VERDICT_UNVERIFIED = "unverified"  #: delivered with verification disabled
VERDICT_LOST = "lost"  #: transfer never completed (fail-stop territory)


def _rng(seed: int, rnd: int, gpu: int) -> random.Random:
    return random.Random((seed, "byzantine", rnd, gpu).__repr__())


def _weighted_positions(partials: list) -> list:
    """Every ``(slot_index, bucket_index)`` with accumulation weight >= 1."""
    return [
        (si, b)
        for si, sums in enumerate(partials)
        for b in range(1, len(sums))
    ]


def corrupt_partials(
    mode: str,
    seed: int,
    rnd: int,
    gpu: int,
    partials: list,
    windows: list[int],
    window_size: int,
    curve: CurveParams,
) -> tuple[list, bool]:
    """Forge a chunk's bucket partials; returns ``(forged, value_changed)``.

    ``partials[i]`` are the bucket sums of a slot in window ``windows[i]``
    (window size ``window_size``).  Deterministic in ``(seed, round,
    gpu)``.  ``value_changed`` is exact: the honest and forged chunk values
    are compared in affine coordinates, so the caller knows whether this
    forgery can possibly affect the final point (and therefore whether
    the verifier *must* reject it).
    """
    positions = _weighted_positions(partials)
    if not positions:
        return partials, False
    rng = _rng(seed, rnd, gpu)
    forged = [list(sums) for sums in partials]
    if mode == "wrong-result":
        si, b = positions[rng.randrange(len(positions))]
        k = rng.randrange(1, max(2, curve.r))
        forged[si][b] = XyzzPoint.from_affine(
            pmul(AffinePoint(curve.gx, curve.gy), k, curve)
        )
    elif mode == "bit-flip":
        hit = [(si, b) for si, b in positions if not partials[si][b].is_identity]
        if not hit:  # flipping a bit of the identity encoding changes nothing
            return partials, False
        si, b = hit[rng.randrange(len(hit))]
        victim = partials[si][b]
        forged[si][b] = XyzzPoint(victim.x ^ 1, victim.y, victim.zz, victim.zzz)
    elif mode == "off-by-one-bucket":
        si = rng.randrange(len(partials))
        sums = forged[si]
        if len(sums) > 2:  # rotate the weighted buckets [1, B) by one index
            sums[1:] = sums[2:] + [sums[1]]
    else:
        raise ValueError(f"unknown byzantine mode {mode!r}")
    honest = chunk_value(partials, windows, window_size, curve)
    value = chunk_value(forged, windows, window_size, curve)
    changed = value is None or to_affine(honest, curve) != to_affine(value, curve)
    return forged, changed


@dataclass(frozen=True)
class ChunkOutcome:
    """One chunk's fate in a Byzantine-aware execution."""

    round: int
    gpu: int
    slots: tuple[int, ...]
    corrupted: bool  #: a forgery was applied AND changed the chunk value
    delivered: bool  #: its host transfer completed
    verdict: str  #: one of the ``VERDICT_*`` constants
    dispatched_at_ms: float  #: earliest start of the chunk's tasks
    verified_at_ms: float = -1.0  #: response-check completion (-1 = never)

    def __post_init__(self) -> None:
        if self.verdict not in (
            VERDICT_ACCEPTED,
            VERDICT_REJECTED,
            VERDICT_UNVERIFIED,
            VERDICT_LOST,
        ):
            raise ValueError(f"unknown chunk verdict {self.verdict!r}")


@dataclass(frozen=True)
class ByzantineReport:
    """Verification audit of one execution, attached to the result.

    ``consumed`` records, per plan slot, the ``(slot, round, gpu)`` of
    the one delivered execution whose partial the accumulation actually
    used — the integrity checker's ground truth for conservation of
    verified mass.  ``quarantined`` carries ``(gpu, at_ms)`` pairs: from
    ``at_ms`` on, no further work may be dispatched to that GPU.
    """

    challenge_seed: int
    scheme: str  #: "2g2t-rlc": one batched check per round, per chunk on failure
    soundness_bits: int  #: ``floor(log2 r)`` of the curve executed on
    verified: bool  #: False when verification was disabled for the run
    cheaters: tuple[int, ...]  #: GPUs with a ByzantineWorker event
    quarantined: tuple[tuple[int, float], ...]
    chunks: tuple[ChunkOutcome, ...]
    consumed: tuple[tuple[int, int, int], ...]
    chunk_checks: int = 0  #: individual response checks performed
    batch_checks: int = 0  #: amortised RLC checks performed
    rejected: int = 0  #: chunks whose response check failed

    @property
    def caught(self) -> bool:
        """True when at least one forged chunk was rejected."""
        return self.rejected > 0

    @property
    def quarantined_gpus(self) -> tuple[int, ...]:
        return tuple(sorted(g for g, _ in self.quarantined))

    def outcome_for(self, rnd: int, gpu: int) -> ChunkOutcome | None:
        for chunk in self.chunks:
            if chunk.round == rnd and chunk.gpu == gpu:
                return chunk
        return None

    def summary(self) -> str:
        parts = [
            f"{len(self.cheaters)} cheater(s)",
            f"{self.rejected} chunk(s) rejected",
            f"{len(self.quarantined)} GPU(s) quarantined",
            f"{self.chunk_checks}+{self.batch_checks} checks "
            f"(chunk+batch, {self.soundness_bits}-bit soundness)",
        ]
        if not self.verified:
            parts.insert(0, "verification DISABLED")
        return ", ".join(parts)

    def to_json(self) -> str:
        """Deterministic JSON export (sorted keys) for archiving runs."""
        record = asdict(self)
        record["chunks"] = [asdict(c) for c in self.chunks]
        record["quarantined"] = [list(q) for q in self.quarantined]
        record["consumed"] = [list(c) for c in self.consumed]
        record["cheaters"] = list(self.cheaters)
        for chunk in record["chunks"]:
            chunk["slots"] = list(chunk["slots"])
        return json.dumps(record, sort_keys=True)
