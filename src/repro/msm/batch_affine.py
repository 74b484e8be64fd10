"""Batched-affine bucket accumulation — the ZPrize winners' trick (§6).

Affine point addition needs a modular inversion, which is normally fatal on
a GPU; but when *many independent* additions are performed at once, all the
inversions collapse into a single one via Montgomery's batch-inversion
trick (3 multiplications per element plus one shared inversion).  An
amortised affine addition then costs ~6 multiplications — cheaper than
XYZZ's 10-14 — which is why ZPrize-grade implementations (Yrrid, sppark)
accumulate buckets in rounds of pairwise batched affine additions.

This module implements the scheme for real (with all edge cases: identity
operands, doubling, inverse pairs).  Its bare-pair core,
:func:`add_affine_pairs`, is the production-curve kernel of
:func:`repro.core.bucket_sum.bucket_sum`; :func:`batch_inverse` also serves
the 2G2T verifier (:mod:`repro.msm.outsource`).
"""

from __future__ import annotations


def batch_inverse(values: list[int], p: int) -> list[int]:
    """Invert many field elements with one modular inversion.

    Zeros are passed through as zeros (callers handle those cases
    separately).
    """
    out = [0] * len(values)
    nonzero = [i for i, v in enumerate(values) if v % p]
    if not nonzero:
        return out
    prefix = []  # product of the nonzero values before each one
    acc = 1
    for i in nonzero:
        prefix.append(acc)
        acc = acc * values[i] % p
    inv = pow(acc, -1, p)
    for i, before in zip(reversed(nonzero), reversed(prefix)):
        out[i] = inv * before % p
        inv = inv * values[i] % p
    return out


def add_affine_pairs(lhs: list, rhs: list, p: int, a: int) -> list:
    """``lhs[i] + rhs[i]`` for every ``i``, sharing one inversion.

    Points are bare ``(x, y)`` tuples with ``None`` for the identity, so a
    hot loop builds no object per addition.  Identity operands and inverse
    pairs are settled without joining the batched inversion; a doubling
    (``P == Q``) joins it with the tangent's denominator ``2y``.
    """
    out: list = [None] * len(lhs)
    todo = []  # indices that need the shared inversion
    denominators = []
    for i, (P, Q) in enumerate(zip(lhs, rhs)):
        if P is None:
            out[i] = Q
        elif Q is None:
            out[i] = P
        elif P[0] != Q[0]:
            todo.append(i)
            denominators.append(Q[0] - P[0])
        elif (P[1] + Q[1]) % p:
            todo.append(i)
            denominators.append(2 * P[1])
        # else an inverse pair: the sum stays the identity

    inverses = batch_inverse(denominators, p)
    for i, inv in zip(todo, inverses):
        (x1, y1), (x2, y2) = lhs[i], rhs[i]
        if x1 != x2:
            slope = (y2 - y1) * inv % p
        else:
            slope = (3 * x1 * x1 + a) * inv % p
        x3 = (slope * slope - x1 - x2) % p
        out[i] = (x3, (slope * (x1 - x3) - y1) % p)
    return out
