"""Poseidon-style hash: native vs gadget, structural properties."""

import random

import pytest

from repro.curves.params import curve_by_name
from repro.zksnark.builder import CircuitBuilder
from repro.zksnark.poseidon import (
    CONSTRAINTS_PER_HASH,
    FULL_ROUNDS,
    PARTIAL_ROUNDS,
    hash2,
    hash2_gadget,
    mds_matrix,
    permute,
    round_constants,
)

P = curve_by_name("BN254").r


class TestParameters:
    def test_constants_deterministic_and_in_field(self):
        consts = round_constants()
        assert consts == round_constants()
        assert len(consts) == (FULL_ROUNDS + PARTIAL_ROUNDS) * 3
        assert all(0 <= c < P for c in consts)

    def test_mds_is_invertible(self):
        """A Cauchy matrix is MDS; at minimum its determinant is non-zero."""
        m = mds_matrix()
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        ) % P
        assert det != 0

    def test_mds_no_zero_entries(self):
        assert all(all(e for e in row) for row in mds_matrix())


class TestPermutation:
    def test_width_checked(self):
        with pytest.raises(ValueError):
            permute([1, 2])

    def test_deterministic(self):
        assert permute([1, 2, 3]) == permute([1, 2, 3])

    def test_not_identity(self):
        assert permute([0, 0, 0]) != [0, 0, 0]

    def test_avalanche(self):
        """Single-input change flips the whole state."""
        a = permute([1, 2, 3])
        b = permute([1, 2, 4])
        assert all(x != y for x, y in zip(a, b))

    def test_hash2_collision_resistance_smoke(self):
        rng = random.Random(5)
        seen = set()
        for _ in range(200):
            h = hash2(rng.randrange(P), rng.randrange(P))
            assert h not in seen
            seen.add(h)


class TestGadget:
    def test_matches_native(self):
        builder = CircuitBuilder()
        a = builder.private(123456789)
        b = builder.private(987654321)
        out = hash2_gadget(builder, a, b)
        builder.public_output(out)
        r1cs, assignment = builder.synthesize()
        assert r1cs.is_satisfied(assignment)
        assert r1cs.public_inputs(assignment) == [hash2(123456789, 987654321)]

    def test_constraint_count(self):
        builder = CircuitBuilder()
        a = builder.private(1)
        b = builder.private(2)
        builder.public_output(hash2_gadget(builder, a, b))
        r1cs, _ = builder.synthesize()
        # all S-boxes plus the public binding, minus the first round's
        # capacity-lane S-box: its input is the constant 0, which the
        # builder folds away for free (3 constraints)
        assert r1cs.num_constraints == CONSTRAINTS_PER_HASH + 1 - 3

    def test_tampered_witness_rejected(self):
        builder = CircuitBuilder()
        a = builder.private(5)
        builder.public_output(hash2_gadget(builder, a, builder.constant(0)))
        r1cs, assignment = builder.synthesize()
        bad = list(assignment)
        bad[3] = (bad[3] + 1) % P  # corrupt an internal S-box wire
        assert not r1cs.is_satisfied(bad)
