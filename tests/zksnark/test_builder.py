"""Circuit-builder DSL: constraints and witnesses stay in lockstep."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves.params import curve_by_name
from repro.zksnark.builder import CircuitBuilder

BN_R = curve_by_name("BN254").r


class TestBasics:
    def test_docstring_cubic(self):
        c = CircuitBuilder()
        x = c.private(3)
        c.public_output(x * x * x + x + 5)
        r1cs, assignment = c.synthesize()
        assert r1cs.is_satisfied(assignment)
        assert r1cs.public_inputs(assignment) == [35]

    def test_additions_are_free(self):
        c = CircuitBuilder()
        x = c.private(3)
        y = c.private(4)
        c.public_output(x + y + 7 - 2)
        r1cs, assignment = c.synthesize()
        # only the public-binding constraint; no gates for + / constants
        assert r1cs.num_constraints == 1
        assert r1cs.public_inputs(assignment) == [12]

    def test_constant_multiplication_free(self):
        c = CircuitBuilder()
        x = c.private(5)
        c.public_output(3 * x)
        r1cs, assignment = c.synthesize()
        assert r1cs.num_constraints == 1
        assert r1cs.public_inputs(assignment) == [15]

    def test_each_wire_product_is_one_constraint(self):
        c = CircuitBuilder()
        x = c.private(2)
        y = x * x
        z = y * x
        c.public_output(z)
        r1cs, assignment = c.synthesize()
        assert r1cs.num_constraints == 3  # two muls + the output binding
        assert r1cs.is_satisfied(assignment)

    def test_constant_times_wire_optimised(self):
        c = CircuitBuilder()
        x = c.private(2)
        c.public_output(x * c.constant(6))
        r1cs, assignment = c.synthesize()
        assert r1cs.num_constraints == 1
        assert r1cs.public_inputs(assignment) == [12]

    def test_negation_and_rsub(self):
        c = CircuitBuilder()
        x = c.private(9)
        c.public_output(10 - x)
        c.public_output(-x)
        r1cs, assignment = c.synthesize()
        assert r1cs.public_inputs(assignment) == [1, (BN_R - 9) % BN_R]

    def test_bad_wire_type(self):
        c = CircuitBuilder()
        with pytest.raises(TypeError):
            c.wire_of("five")

    def test_synthesize_once(self):
        c = CircuitBuilder()
        c.public_output(c.private(1))
        c.synthesize()
        with pytest.raises(RuntimeError):
            c.synthesize()


class TestAssertions:
    def test_assert_boolean(self):
        c = CircuitBuilder()
        bit = c.private(1)
        c.assert_boolean(bit)
        r1cs, assignment = c.synthesize()
        assert r1cs.is_satisfied(assignment)

    def test_assert_boolean_refuses_non_bit(self):
        c = CircuitBuilder()
        with pytest.raises(ValueError):
            c.assert_boolean(c.private(2))

    def test_boolean_constraint_actually_binds(self):
        """Tampering the witness bit must violate the system."""
        c = CircuitBuilder()
        bit = c.private(1)
        c.assert_boolean(bit)
        c.public_output(bit)
        r1cs, assignment = c.synthesize()
        bad = list(assignment)
        bad_idx = assignment.index(1, 2)  # the private bit variable
        bad[bad_idx] = 2
        assert not r1cs.is_satisfied(bad)


class TestWitnessSoundness:
    @given(st.integers(0, BN_R - 1), st.integers(0, BN_R - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_polynomial_circuits(self, a, b):
        c = CircuitBuilder()
        x = c.private(a)
        y = c.private(b)
        expr = x * y + x * 3 + y * y - 7
        c.public_output(expr)
        r1cs, assignment = c.synthesize()
        assert r1cs.is_satisfied(assignment)
        expected = (a * b + 3 * a + b * b - 7) % BN_R
        assert r1cs.public_inputs(assignment) == [expected]

    def test_tampered_witness_rejected(self):
        c = CircuitBuilder()
        x = c.private(6)
        c.public_output(x * x)
        r1cs, assignment = c.synthesize()
        bad = list(assignment)
        bad[-1] = (bad[-1] + 1) % BN_R
        assert not r1cs.is_satisfied(bad)


@pytest.mark.slow
class TestBuilderThroughGroth16:
    def test_built_circuit_proves_and_verifies(self):
        from repro.zksnark.groth16 import Groth16

        c = CircuitBuilder()
        x = c.private(3)
        bit = c.private(1)
        c.assert_boolean(bit)
        c.public_output(x * x * x + bit * x + 5)
        r1cs, assignment = c.synthesize()

        groth = Groth16(r1cs)
        pk, vk = groth.setup(random.Random(41))
        proof = groth.prove(pk, assignment, random.Random(42))
        assert groth.verify(vk, proof, r1cs.public_inputs(assignment))
