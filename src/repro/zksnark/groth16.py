"""Groth16 over BN254: setup, prove, verify — all real.

The prover's commitments run through this library's own MSM
(:func:`repro.msm.pippenger.pippenger_msm` for G1, the generic-group
Pippenger for G2), making the zkSNARK pipeline a genuine consumer of the
paper's kernel: Table 4's workloads execute this code at reduced scale, and
proofs verify through the from-scratch BN254 optimal-ate pairing.

Protocol (Groth, EUROCRYPT'16), with the usual CRS layout:

* proving key: ``[alpha]1, [beta]1, [beta]2, [delta]1, [delta]2``, per-variable
  ``[A_i(tau)]1``, ``[B_i(tau)]1``, ``[B_i(tau)]2``, private-variable
  ``[(beta A_i + alpha B_i + C_i)(tau)/delta]1`` and powers
  ``[tau^i Z(tau)/delta]1``;
* verification key: ``[alpha]1, [beta]2, [gamma]2, [delta]2`` and the public
  ``IC`` points;
* verification equation:
  ``e(A, B) = e(alpha, beta) e(IC(x), gamma) e(C, delta)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.curves.params import CurveParams, curve_by_name
from repro.curves.point import (
    AffinePoint,
    XyzzPoint,
    affine_neg,
    pmul,
    to_affine,
    xyzz_add,
)
from repro.msm.generic import GroupOps, pippenger_generic
from repro.msm.pippenger import pippenger_msm
from repro.zksnark.pairing import G2_GENERATOR, g2_add, g2_mul, pairing_check, point_neg
from repro.zksnark.qap import Qap
from repro.zksnark.r1cs import R1cs

BN254 = curve_by_name("BN254")


def g1_add(a: AffinePoint, b: AffinePoint, curve: CurveParams) -> AffinePoint:
    return to_affine(
        xyzz_add(XyzzPoint.from_affine(a), XyzzPoint.from_affine(b), curve), curve
    )


def g1_mul(a: AffinePoint, k: int, curve: CurveParams) -> AffinePoint:
    return pmul(a, k % curve.r, curve)


def _to_pairing_g1(pt: AffinePoint):
    return None if pt.infinity else (pt.x, pt.y)


@dataclass(frozen=True)
class Proof:
    """A Groth16 proof: two G1 points and one G2 point (~128 bytes)."""

    a: AffinePoint
    b: tuple  # G2 point over Fp2
    c: AffinePoint


@dataclass
class ProvingKey:
    alpha_g1: AffinePoint
    beta_g1: AffinePoint
    beta_g2: tuple
    delta_g1: AffinePoint
    delta_g2: tuple
    a_query: list  # [A_i(tau)]_1 per variable
    b_g1_query: list
    b_g2_query: list
    l_query: list  # private-variable query
    h_query: list  # [tau^i Z(tau) / delta]_1


@dataclass
class VerifyingKey:
    alpha_g1: AffinePoint
    beta_g2: tuple
    gamma_g2: tuple
    delta_g2: tuple
    ic: list  # public-input commitment points


class Groth16:
    """The Groth16 proving system for one R1CS instance.

    The R1CS must be built over BN254's scalar field.
    """

    def __init__(self, r1cs: R1cs):
        self.curve = BN254
        if r1cs.modulus != self.curve.r:
            raise ValueError("R1CS modulus must be the BN254 scalar field")
        self.r1cs = r1cs
        self.qap = Qap.from_r1cs(r1cs)

    # -- trusted setup -----------------------------------------------------

    def setup(self, rng: random.Random | None = None) -> tuple[ProvingKey, VerifyingKey]:
        """Run the (simulated) trusted setup; returns (pk, vk)."""
        rng = rng or random.Random(0xA11CE)
        curve = self.curve
        r = curve.r
        alpha, beta, gamma, delta, tau = (rng.randrange(1, r) for _ in range(5))
        gamma_inv = pow(gamma, -1, r)
        delta_inv = pow(delta, -1, r)

        g1 = AffinePoint(curve.gx, curve.gy)
        g2 = G2_GENERATOR

        a_polys, b_polys, c_polys = self.qap.variable_polynomials()
        a_at_tau = [_eval(poly, tau, r) for poly in a_polys]
        b_at_tau = [_eval(poly, tau, r) for poly in b_polys]
        c_at_tau = [_eval(poly, tau, r) for poly in c_polys]

        num_pub = self.r1cs.num_public
        ic, l_query = [], []
        for i in range(self.r1cs.num_variables):
            combined = (beta * a_at_tau[i] + alpha * b_at_tau[i] + c_at_tau[i]) % r
            if i <= num_pub:
                ic.append(g1_mul(g1, combined * gamma_inv % r, curve))
            else:
                l_query.append(g1_mul(g1, combined * delta_inv % r, curve))

        n = self.qap.domain.size
        z_tau = (pow(tau, n, r) - 1) % r
        h_query = []
        power = 1
        for _ in range(n - 1):
            h_query.append(g1_mul(g1, power * z_tau % r * delta_inv % r, curve))
            power = power * tau % r

        pk = ProvingKey(
            alpha_g1=g1_mul(g1, alpha, curve),
            beta_g1=g1_mul(g1, beta, curve),
            beta_g2=g2_mul(g2, beta),
            delta_g1=g1_mul(g1, delta, curve),
            delta_g2=g2_mul(g2, delta),
            a_query=[g1_mul(g1, v, curve) for v in a_at_tau],
            b_g1_query=[g1_mul(g1, v, curve) for v in b_at_tau],
            b_g2_query=[g2_mul(g2, v) for v in b_at_tau],
            l_query=l_query,
            h_query=h_query,
        )
        vk = VerifyingKey(
            alpha_g1=pk.alpha_g1,
            beta_g2=pk.beta_g2,
            gamma_g2=g2_mul(g2, gamma),
            delta_g2=pk.delta_g2,
            ic=ic,
        )
        return pk, vk

    # -- proving ----------------------------------------------------------------

    def prove(
        self,
        pk: ProvingKey,
        assignment: list[int],
        rng: random.Random | None = None,
    ) -> Proof:
        """Produce a proof for a satisfying assignment.

        The three G1 commitments are multi-scalar multiplications — the
        workload the whole library is about; the B-query's G2 MSM runs
        through the generic-group Pippenger.
        """
        if not self.r1cs.is_satisfied(assignment):
            raise ValueError("assignment does not satisfy the constraint system")
        rng = rng or random.Random(0xB11DED)
        curve = self.curve
        r_mod = curve.r
        r_blind = rng.randrange(r_mod)
        s_blind = rng.randrange(r_mod)

        h_coeffs = self.qap.quotient_coefficients(assignment)

        a_sum = pippenger_msm(list(assignment), pk.a_query, curve)
        proof_a = g1_add(
            g1_add(pk.alpha_g1, a_sum, curve),
            g1_mul(pk.delta_g1, r_blind, curve),
            curve,
        )

        b_g1_sum = pippenger_msm(list(assignment), pk.b_g1_query, curve)
        proof_b_g1 = g1_add(
            g1_add(pk.beta_g1, b_g1_sum, curve),
            g1_mul(pk.delta_g1, s_blind, curve),
            curve,
        )

        g2_ops = GroupOps(add=g2_add, neg=point_neg, identity=None)
        b_g2_sum = pippenger_generic(
            list(assignment), pk.b_g2_query, g2_ops, curve.scalar_bits
        )
        proof_b = g2_add(g2_add(pk.beta_g2, b_g2_sum), g2_mul(pk.delta_g2, s_blind))

        private = list(assignment[self.r1cs.num_public + 1 :])
        c_acc = pippenger_msm(private, pk.l_query, curve)
        if h_coeffs:
            h_part = pippenger_msm(
                [c % r_mod for c in h_coeffs], pk.h_query[: len(h_coeffs)], curve
            )
            c_acc = g1_add(c_acc, h_part, curve)
        c_acc = g1_add(c_acc, g1_mul(proof_a, s_blind, curve), curve)
        c_acc = g1_add(c_acc, g1_mul(proof_b_g1, r_blind, curve), curve)
        c_acc = g1_add(
            c_acc,
            affine_neg(g1_mul(pk.delta_g1, r_blind * s_blind % r_mod, curve), curve),
            curve,
        )
        return Proof(a=proof_a, b=proof_b, c=c_acc)

    # -- verification ------------------------------------------------------------

    def verify(self, vk: VerifyingKey, proof: Proof, public_inputs: list[int]) -> bool:
        """Check a proof against the public inputs (four pairings)."""
        if len(public_inputs) != self.r1cs.num_public:
            raise ValueError(
                f"expected {self.r1cs.num_public} public inputs, "
                f"got {len(public_inputs)}"
            )
        curve = self.curve
        acc = vk.ic[0]
        for value, pt in zip(public_inputs, vk.ic[1:]):
            acc = g1_add(acc, g1_mul(pt, value, curve), curve)
        return pairing_check(
            [
                (_to_pairing_g1(affine_neg(proof.a, curve)), proof.b),
                (_to_pairing_g1(vk.alpha_g1), vk.beta_g2),
                (_to_pairing_g1(acc), vk.gamma_g2),
                (_to_pairing_g1(proof.c), vk.delta_g2),
            ]
        )


def _eval(coefficients: list[int], x: int, modulus: int) -> int:
    acc = 0
    for c in reversed(coefficients):
        acc = (acc * x + c) % modulus
    return acc
