"""Verifiable MSM outsourcing: constant-size chunk-result checks (2G2T).

The multi-GPU orchestrator dispatches scalar/point chunks to workers it
does not have to trust.  Following the 2G2T construction (PAPERS.md), the
dispatcher samples one random challenge scalar ``c`` per MSM; alongside
its real bucket pass over digits ``d_i``, every worker also runs the same
pass over the *blinded* digits ``y_i = c * d_i + m_i`` (the masks ``m_i``
are pseudorandom and known only to the dispatcher, folded into ``y_i`` so
the worker never sees ``c`` or ``m_i`` individually) and returns the
blinded chunk sum ``T = sum(y_i * P_i)``.  Writing a chunk's *value* as

    ``V = sum_{b >= 1} b * B_b``

(the weighted bucket sum the host's bucket-reduce consumes — bucket 0 has
weight zero), linearity gives ``T = c * V + M`` with the *mask
commitment* ``M = sum(m_i * P_i)`` computable by the dispatcher offline,
before any work is dispatched.  The dispatcher accepts a delivered chunk
iff

    ``c * V' + M == T'``

where ``V'`` is re-derived from the delivered bucket partials (that fold
is the same 2-PADD-per-bucket suffix sum the host performs during
accumulation anyway); the response check itself is O(1) group operations
— one scalar multiplication and one addition.  A forger who returns
``V' != V`` must produce ``T' = c * V' + M`` without knowing ``c``,
which succeeds with probability at most ``1/r`` over the challenge —
``log2(r)`` bits of soundness (:func:`soundness_bits`).

Because every layer of the accumulation (per-window combine, suffix-sum
bucket-reduce, window fold) is *linear* in the per-chunk values, a
corruption that preserves ``V`` provably cannot change the final MSM
point — verifying the chunk values is verifying the result.  That is the
"conservation of verified mass" invariant :mod:`repro.verify
.integritycheck` audits end to end.

Simulation shortcuts, documented honestly:

* the honest worker's response is computed here in collapsed form,
  ``T = c * V + M`` (:func:`make_response`) — algebraically identical to
  the blinded bucket pass but O(lambda) instead of O(n * lambda) Python
  group operations.  The *time* of the real blinded pass is still charged
  on the worker's GPU: one more scatter + bucket-sum + reduce of the chunk.
* the mask commitment is derived as ``M = h * G`` from a per-chunk
  pseudorandom scalar ``h`` (:func:`mask_point`) rather than as a literal
  mask MSM; any fixed secret point works for the algebra above, and
  ``h * G`` keeps it reproducible from the challenge seed.

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
    pdbl,
    pmul,
    to_affine,
    xyzz_add,
)

__all__ = [
    "RHO_BITS",
    "Challenge",
    "ChunkClaim",
    "batch_verify",
    "chunk_value",
    "make_response",
    "mask_point",
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


def mask_point(challenge: Challenge, rnd: int, gpu: int, curve: CurveParams) -> XyzzPoint:
    """The mask commitment ``M = h * G`` of chunk ``(round, gpu)``.

    Dispatcher-side and independent of the outsourced work, so in a real
    deployment it is precomputed offline before dispatch.
    """
    h = mask_scalar(challenge, rnd, gpu, curve)
    return XyzzPoint.from_affine(pmul(AffinePoint(curve.gx, curve.gy), h, curve))


def rho_coeff(challenge: Challenge, rnd: int, gpu: int) -> int:
    """Chunk ``(round, gpu)``'s short RLC coefficient in ``[1, 2^rho_bits)``."""
    return _rng(challenge.seed, "rho", rnd, gpu).randrange(1, 1 << challenge.rho_bits)


def _xyzz_mul(pt: XyzzPoint, k: int, curve: CurveParams) -> XyzzPoint:
    """``k * pt`` on an XYZZ point via double-and-add (k >= 0)."""
    acc = XyzzPoint.identity()
    base = pt
    while k:
        if k & 1:
            acc = xyzz_add(acc, base, curve)
        base = pdbl(base, curve)
        k >>= 1
    return acc


def chunk_value(partials: list, curve: CurveParams) -> XyzzPoint:
    """The chunk's value ``V = sum_slots sum_{b>=1} b * B_b``.

    The exact functional the host's accumulation consumes: the same
    2-PADD-per-bucket suffix-sum fold as :func:`repro.core.bucket_reduce
    .cpu_bucket_reduce`, summed over the chunk's assignment slots.
    """
    total = XyzzPoint.identity()
    for sums in partials:
        running = XyzzPoint.identity()
        for b in range(len(sums) - 1, 0, -1):
            running = xyzz_add(running, sums[b], curve)
            total = xyzz_add(total, running, curve)
    return total


def make_response(
    challenge: Challenge, value: XyzzPoint, rnd: int, gpu: int, curve: CurveParams
) -> XyzzPoint:
    """The honest worker's commitment response ``T = c * V + M``.

    Collapsed form of the blinded bucket pass ``sum(y_i * P_i)`` — see the
    module docstring for why the identity holds and why the simulation may
    use it (the real pass's cost is charged separately on the GPU).
    """
    return xyzz_add(
        _xyzz_mul(value, challenge.c, curve),
        mask_point(challenge, rnd, gpu, curve),
        curve,
    )


def verify_chunk(
    challenge: Challenge,
    value: XyzzPoint,
    response: XyzzPoint,
    rnd: int,
    gpu: int,
    curve: CurveParams,
) -> bool:
    """Accept iff ``c * value + M == response`` (compared in affine form).

    ``value`` must be re-derived by the dispatcher from the *delivered*
    bucket partials (:func:`chunk_value`), never taken from the worker —
    that is what binds the check to the data the accumulation consumes.
    """
    lhs = xyzz_add(
        _xyzz_mul(value, challenge.c, curve),
        mask_point(challenge, rnd, gpu, curve),
        curve,
    )
    return to_affine(lhs, curve) == to_affine(response, curve)


def batch_verify(
    challenge: Challenge,
    items: list,
    curve: CurveParams,
) -> bool:
    """One RLC check over many chunks: ``sum rho_j T_j == c sum rho_j V_j + sum rho_j M_j``.

    ``items`` is a list of ``(round, gpu, value, response)`` tuples.  A
    pass accepts every chunk at once; on failure the caller falls back to
    :func:`verify_chunk` per chunk to localise the forgery.  Trivially
    accepts an empty batch.
    """
    lhs = XyzzPoint.identity()
    values = XyzzPoint.identity()
    masks = XyzzPoint.identity()
    for rnd, gpu, value, response in items:
        rho = rho_coeff(challenge, rnd, gpu)
        lhs = xyzz_add(lhs, _xyzz_mul(response, rho, curve), curve)
        values = xyzz_add(values, _xyzz_mul(value, rho, curve), curve)
        masks = xyzz_add(
            masks, _xyzz_mul(mask_point(challenge, rnd, gpu, curve), rho, curve), curve
        )
    rhs = xyzz_add(_xyzz_mul(values, challenge.c, curve), masks, curve)
    return to_affine(lhs, curve) == to_affine(rhs, curve)


# -- cost model (consumed by the orchestrator's timing layer) ----------------


def response_padds(scalar_bits: int) -> int:
    """Worker-side group ops of the collapsed response: one ``c``-sized
    scalar multiplication (~1.5 PADD-equivalents per bit under
    double-and-add) plus the mask addition.  The blinded bucket pass
    itself is charged separately, as a second pass of the chunk's work."""
    return (3 * scalar_bits) // 2 + 1


def verify_padds(buckets: int, scalar_bits: int, batched: bool, rho_bits: int = RHO_BITS) -> int:
    """Dispatcher-side group ops to verify one delivered chunk.

    Two parts: the value fold over the delivered buckets (2 PADDs per
    bucket — suffix-sum work the host's own bucket-reduce shares), and
    the response check — one full ``c``-sized scalar multiplication when
    checked individually, or one short ``rho``-sized multiplication as
    this chunk's share of the amortised RLC check.
    """
    fold = 2 * max(0, buckets)
    bits = rho_bits if batched else scalar_bits
    return fold + (3 * bits) // 2 + 2
