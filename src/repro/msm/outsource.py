"""Verifiable MSM outsourcing: constant-size chunk-result checks (2G2T).

The multi-GPU orchestrator dispatches scalar/point chunks to workers it
does not have to trust.  Following the 2G2T construction (PAPERS.md), the
dispatcher samples one random challenge scalar ``c`` per MSM; alongside
its real bucket pass over digits ``d_i``, every worker also runs the same
pass over the *blinded* digits ``y_i = c * d_i + m_i`` (the masks ``m_i``
are pseudorandom and known only to the dispatcher, folded into ``y_i`` so
the worker never sees ``c`` or ``m_i`` individually) and returns the
blinded chunk sum ``T``.  A chunk covers slots ``(window w, bucket range)``
of one window size ``s``; writing its *value* as

    ``V = sum_slots 2^(s * (w - w_min)) * sum_{b >= 1} b * B_b``

(each slot's weighted bucket sum — what the host's bucket-reduce makes of
it; bucket 0 has weight zero — scaled by the slot's window weight
relative to the chunk's lowest window ``w_min``), linearity gives
``T = c * V + M`` with the *mask commitment* ``M`` computable by the
dispatcher offline, before any work is dispatched.  The dispatcher
accepts a delivered chunk iff

    ``c * V' + M == T'``

where ``V'`` is re-derived from the delivered bucket partials (the same
2-PADD-per-bucket suffix sum the host performs during accumulation
anyway, plus ``s`` doublings per window the chunk spans); the response
check itself is O(1) group operations — one scalar multiplication and
one addition.  A forger who returns ``V' != V`` must produce
``T' = c * V' + M`` without knowing ``c``, which succeeds with
probability at most ``1/r`` over the challenge — ``log2(r)`` bits of
soundness (:func:`soundness_bits`).  A delivered partial off the curve
has no value: :func:`chunk_value` returns ``None`` and the chunk is
rejected, as it is for a response off the curve.

The host folds the windows with ``s`` doublings between them, so a
chunk's contribution to the final MSM point is exactly
``2^(s * w_min) * V``: a corruption that preserves ``V`` provably cannot
change the point — verifying the chunk values is verifying the result.
That is the "conservation of verified mass" invariant :mod:`repro.verify
.integritycheck` audits end to end.  Without the window weights it would
not hold: moving a point between bucket 1 of two windows keeps the
unweighted sum and changes the point.

Simulation shortcuts, documented honestly:

* the honest worker's response is computed here in collapsed form,
  ``T = c * V + M`` (:func:`make_response`) — algebraically identical to
  the blinded bucket pass but O(lambda) instead of O(n * lambda) Python
  group operations.  The *time* of the real blinded pass is still charged
  on the worker's GPU: one more scatter + bucket-sum + reduce of the chunk.
* the mask commitment is derived as ``M = h * G`` from a per-chunk
  pseudorandom scalar ``h`` (:func:`mask_scalar`) rather than as a literal
  mask MSM; any fixed secret point works for the algebra above, and
  ``h * G`` keeps it reproducible from the challenge seed.
* every quantity is computed once per MSM and protocol side.  A
  :class:`Session` lives for one MSM call: it derives each chunk's mask
  once, by ~lambda/3 mixed additions (NAF digits of ``h``) from a table of
  ``2^i * G`` it builds with the first mask.  The worker folds its
  partials once for its response; the dispatcher folds each delivered
  chunk once and hands that value to both :func:`verify_chunk` and the
  round's :func:`batch_verify`.  ``c * V`` and the ``rho`` multiples are
  width-4 NAF multiplications (:func:`repro.curves.point.xyzz_mul`).
  None of this changes what is modelled: the cost model below charges the
  protocol's operations, not the simulation's.

Many chunks amortise into one check through a random linear combination:
``sum(rho_j * T_j) == c * sum(rho_j * V_j) + sum(rho_j * M_j)`` with
short pseudorandom coefficients ``rho_j`` (:func:`batch_verify`); on
failure the dispatcher falls back to per-chunk checks to localise the
cheater.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.curves.params import CurveParams
from repro.curves.point import (
    AffinePoint,
    XyzzPoint,
    affine_neg,
    pdbl,
    to_affine,
    weighted_bucket_sum,
    xyzz_acc,
    xyzz_add,
    xyzz_mul,
    xyzz_neg,
    xyzz_on_curve,
)
from repro.curves.scalar import wnaf
from repro.msm.batch_affine import batch_inverse

__all__ = [
    "RHO_BITS",
    "Challenge",
    "ChunkClaim",
    "Session",
    "batch_verify",
    "chunk_value",
    "make_response",
    "mask_scalar",
    "response_padds",
    "rho_coeff",
    "sample_challenge",
    "soundness_bits",
    "verify_padds",
]

#: bit width of the batched check's random linear-combination coefficients
RHO_BITS = 16


@dataclass(frozen=True)
class Challenge:
    """One MSM's verification challenge: the secret scalar and its seed.

    The seed alone reproduces the challenge scalar, every per-chunk mask
    and every RLC coefficient, so a verification transcript is replayable
    from one integer (plus the curve).
    """

    seed: int
    c: int  #: challenge scalar in ``[1, r)``
    rho_bits: int = RHO_BITS

    def __post_init__(self) -> None:
        if self.c < 1:
            raise ValueError(f"challenge scalar must be >= 1, got {self.c}")
        if self.rho_bits < 1:
            raise ValueError(f"rho_bits must be >= 1, got {self.rho_bits}")


@dataclass(frozen=True)
class ChunkClaim:
    """What one worker returns for one chunk, beyond the bucket partials.

    Functional runs carry the real commitment response ``T``; analytic
    (modelled) runs carry ``response=None`` and the ground-truth
    ``modelled_corrupt`` flag instead — the detection outcome is then
    modelled as deterministic, which understates the true soundness error
    by exactly ``1/r`` (see DESIGN.md §14).
    """

    round: int
    gpu: int
    response: XyzzPoint | None = None
    modelled_corrupt: bool = False


def _rng(seed: int, *key: object) -> random.Random:
    """A deterministic PRG stream bound to ``(seed, key)``."""
    return random.Random((seed, *key).__repr__())


def sample_challenge(curve: CurveParams, seed: int) -> Challenge:
    """Sample the MSM's challenge: a uniform *unit* ``c`` in ``[1, r)``.

    On a prime-order group every nonzero scalar is a unit, so this is the
    textbook 2G2T challenge.  Insisting on ``gcd(c, r) == 1`` also keeps
    the check sound on *composite*-order groups (the toy test curve): a
    forged value differing by an on-curve element ``D != 0`` has
    ``c * D != 0`` exactly, because ``ord(D)`` divides ``r`` and ``c`` is
    invertible mod ``r`` — without the unit restriction, a ``D`` of small
    order ``d`` would slip through whenever ``d`` divides ``c``.
    """
    rng = _rng(seed, "challenge", curve.name)
    r = max(2, curve.r)
    while True:
        c = rng.randrange(1, r)
        if math.gcd(c, r) == 1:
            return Challenge(seed=seed, c=c)


def soundness_bits(curve: CurveParams) -> int:
    """Bits of soundness of one chunk check: ``floor(log2 r)``."""
    return max(0, curve.r.bit_length() - 1)


def mask_scalar(challenge: Challenge, rnd: int, gpu: int, curve: CurveParams) -> int:
    """The secret mask scalar ``h`` of chunk ``(round, gpu)``."""
    return _rng(challenge.seed, "mask", curve.name, rnd, gpu).randrange(
        1, max(2, curve.r)
    )


def rho_coeff(challenge: Challenge, rnd: int, gpu: int) -> int:
    """Chunk ``(round, gpu)``'s short RLC coefficient in ``[1, 2^rho_bits)``."""
    return _rng(challenge.seed, "rho", rnd, gpu).randrange(1, 1 << challenge.rho_bits)


class Session:
    """One MSM's verification state: its challenge on one curve, and each
    chunk's mask commitment ``M = h * G``, derived at most once.

    Build one per MSM call and drop it with the call.  The challenge seed
    is a constant, so masks kept across calls would be secrets carried
    from one MSM to the next (and would make every later call's masks
    free, hiding their cost).
    """

    def __init__(self, challenge: Challenge, curve: CurveParams) -> None:
        self.challenge = challenge
        self.curve = curve
        #: ``(2^i * G, -(2^i * G))`` in affine form, built with the first mask
        self._powers: list[tuple[AffinePoint, AffinePoint]] = []
        self._masks: dict[tuple[int, int], XyzzPoint] = {}

    def mask(self, rnd: int, gpu: int) -> XyzzPoint:
        """The mask commitment of chunk ``(round, gpu)``.

        Dispatcher-side and independent of the outsourced work, so in a
        real deployment it is precomputed offline before dispatch.
        """
        key = (rnd, gpu)
        if key not in self._masks:
            h = mask_scalar(self.challenge, rnd, gpu, self.curve)
            powers = self._generator_powers()
            acc = XyzzPoint.identity()
            for (power, negated), digit in zip(powers, wnaf(h, 2)):
                if digit:
                    acc = xyzz_acc(acc, power if digit > 0 else negated, self.curve)
            self._masks[key] = acc
        return self._masks[key]

    def _generator_powers(self) -> list[tuple[AffinePoint, AffinePoint]]:
        """``2^i * G`` and its negative for every NAF digit of a scalar
        below ``r``: doublings in XYZZ form, one shared inversion."""
        if not self._powers:
            curve = self.curve
            chain = [XyzzPoint.from_affine(AffinePoint(curve.gx, curve.gy))]
            for _ in range(max(2, curve.r).bit_length()):
                chain.append(pdbl(chain[-1], curve))
            p = curve.p
            inverses = batch_inverse([q.zz for q in chain] + [q.zzz for q in chain], p)
            for i, q in enumerate(chain):
                pt = AffinePoint.identity() if q.is_identity else AffinePoint(
                    q.x * inverses[i] % p, q.y * inverses[len(chain) + i] % p
                )
                self._powers.append((pt, affine_neg(pt, curve)))
        return self._powers


def chunk_value(
    partials: list, windows: list[int], window_size: int, curve: CurveParams
) -> XyzzPoint | None:
    """The chunk's value ``V = sum_slots 2^(s*(w - w_min)) sum_{b>=1} b*B_b``.

    ``partials[i]`` are the bucket sums of a slot in window
    ``windows[i]``.  Each slot is folded by the suffix sum the host's
    bucket-reduce uses (:func:`repro.curves.point.weighted_bucket_sum`)
    and the windows are combined by Horner's rule, highest first, with
    ``window_size`` doublings per window step.  Returns ``None`` when a
    partial is not a point of the curve: such a delivery has no value.
    """
    if not all(xyzz_on_curve(pt, curve) for sums in partials for pt in sums):
        return None
    total = XyzzPoint.identity()
    above = None  # the window of the slot folded last
    for i in sorted(range(len(partials)), key=lambda i: -windows[i]):
        if above is not None:
            for _ in range(window_size * (above - windows[i])):
                total = pdbl(total, curve)
        total = xyzz_add(total, weighted_bucket_sum(partials[i], curve), curve)
        above = windows[i]
    return total


def make_response(session: Session, value: XyzzPoint, rnd: int, gpu: int) -> XyzzPoint:
    """The honest worker's commitment response ``T = c * V + M``.

    Collapsed form of the blinded bucket pass ``sum(y_i * P_i)`` — see the
    module docstring for why the identity holds and why the simulation may
    use it (the real pass's cost is charged separately on the GPU).
    """
    return _commitment(session, value, rnd, gpu)


def _commitment(session: Session, value: XyzzPoint, rnd: int, gpu: int) -> XyzzPoint:
    """``c * value + M`` of chunk ``(round, gpu)``."""
    curve = session.curve
    return xyzz_add(
        xyzz_mul(value, session.challenge.c, curve), session.mask(rnd, gpu), curve
    )


def verify_chunk(
    session: Session,
    value: XyzzPoint | None,
    response: XyzzPoint,
    rnd: int,
    gpu: int,
) -> bool:
    """Accept iff ``c * value + M == response`` (compared in affine form).

    ``value`` must be re-derived by the dispatcher from the *delivered*
    bucket partials (:func:`chunk_value`), never taken from the worker —
    that is what binds the check to the data the accumulation consumes.
    A ``None`` value (an off-curve delivery) is rejected, and so is a
    response off the curve, before its coordinates are inverted.
    """
    if value is None or not xyzz_on_curve(response, session.curve):
        return False
    lhs = _commitment(session, value, rnd, gpu)
    return to_affine(lhs, session.curve) == to_affine(response, session.curve)


def batch_verify(session: Session, items: list) -> bool:
    """One RLC check over many chunks: ``sum rho_j T_j == c sum rho_j V_j + sum rho_j M_j``.

    ``items`` is a list of ``(round, gpu, value, response)`` tuples, each
    value the dispatcher's fold of the delivered partials.  Evaluated as
    ``sum rho_j (T_j - M_j) == c * sum rho_j V_j``.  A pass accepts every
    chunk at once; on failure (or a ``None`` value, or a response off the
    curve) the caller falls back to :func:`verify_chunk` per chunk to
    localise the forgery.  Trivially accepts an empty batch.
    """
    curve = session.curve
    lhs = XyzzPoint.identity()
    values = XyzzPoint.identity()
    for rnd, gpu, value, response in items:
        if value is None or not xyzz_on_curve(response, curve):
            return False
        rho = rho_coeff(session.challenge, rnd, gpu)
        unmasked = xyzz_add(response, xyzz_neg(session.mask(rnd, gpu), curve), curve)
        lhs = xyzz_add(lhs, xyzz_mul(unmasked, rho, curve), curve)
        values = xyzz_add(values, xyzz_mul(value, rho, curve), curve)
    rhs = xyzz_mul(values, session.challenge.c, curve)
    return to_affine(lhs, curve) == to_affine(rhs, curve)


# -- cost model (consumed by the orchestrator's timing layer) ----------------


def response_padds(scalar_bits: int) -> int:
    """Worker-side group ops of the collapsed response: one ``c``-sized
    scalar multiplication (~1.5 PADD-equivalents per bit under
    double-and-add) plus the mask addition.  The blinded bucket pass
    itself is charged separately, as a second pass of the chunk's work."""
    return (3 * scalar_bits) // 2 + 1


def verify_padds(buckets: int, scalar_bits: int, batched: bool) -> int:
    """Dispatcher-side group ops to verify one delivered chunk.

    Two parts: the value fold over the delivered buckets (2 PADDs per
    bucket — suffix-sum work the host's own bucket-reduce shares), and
    the response check — one full ``c``-sized scalar multiplication when
    checked individually, or one short ``rho``-sized multiplication as
    this chunk's share of the amortised RLC check.
    """
    fold = 2 * max(0, buckets)
    bits = RHO_BITS if batched else scalar_bits
    return fold + (3 * bits) // 2 + 2
