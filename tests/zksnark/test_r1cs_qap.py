"""R1CS construction and the R1CS -> QAP lift."""

import pytest

from repro.curves.params import curve_by_name
from repro.zksnark.qap import Qap
from repro.zksnark.r1cs import R1cs
from repro.zksnark.workloads import hash_chain_circuit

from tests.zksnark.test_ntt import domain_elements, poly_eval

BN_R = curve_by_name("BN254").r


def cubic_circuit():
    """The classic x^3 + x + 5 = out example."""
    r1cs = R1cs(modulus=BN_R)
    out = r1cs.declare_public(1)[0]
    x = r1cs.new_variable()
    x2 = r1cs.new_variable()
    x3 = r1cs.new_variable()
    r1cs.enforce_product(x, x, x2)
    r1cs.enforce_product(x2, x, x3)
    r1cs.enforce_linear({x3: 1, x: 1, 0: 5}, out)
    x_val = 3
    assignment = [1, (x_val**3 + x_val + 5) % BN_R, x_val, x_val**2, x_val**3]
    return r1cs, assignment


class TestR1cs:
    def test_cubic_satisfied(self):
        r1cs, assignment = cubic_circuit()
        assert r1cs.is_satisfied(assignment)

    def test_wrong_witness_detected(self):
        r1cs, assignment = cubic_circuit()
        bad = list(assignment)
        bad[2] = 4  # x no longer matches x^2
        assert not r1cs.is_satisfied(bad)

    def test_public_inputs_extracted(self):
        r1cs, assignment = cubic_circuit()
        assert r1cs.public_inputs(assignment) == [35]

    def test_assignment_length_checked(self):
        r1cs, _ = cubic_circuit()
        with pytest.raises(ValueError):
            r1cs.is_satisfied([1, 2])

    def test_constant_wire_checked(self):
        r1cs, assignment = cubic_circuit()
        bad = [7] + assignment[1:]
        with pytest.raises(ValueError):
            r1cs.is_satisfied(bad)

    def test_unknown_variable_rejected(self):
        r1cs = R1cs(modulus=BN_R)
        with pytest.raises(ValueError):
            r1cs.add_constraint({5: 1}, {0: 1}, {0: 1})

    def test_publics_before_privates(self):
        r1cs = R1cs(modulus=BN_R)
        r1cs.new_variable()
        with pytest.raises(ValueError):
            r1cs.declare_public(1)

    def test_zero_coefficients_dropped(self):
        r1cs = R1cs(modulus=BN_R)
        x = r1cs.new_variable()
        r1cs.add_constraint({x: BN_R}, {0: 1}, {0: 0})  # coeff == 0 mod r
        assert r1cs.constraints[0].a == {}

    def test_repr(self):
        r1cs, _ = cubic_circuit()
        assert "3 constraints" in repr(r1cs)


class TestQap:
    def test_domain_size_padding(self):
        r1cs, _ = cubic_circuit()
        qap = Qap.from_r1cs(r1cs)
        assert qap.domain.size == 4  # 3 constraints -> next power of two

    def test_combined_evaluations_match_rows(self):
        r1cs, assignment = cubic_circuit()
        qap = Qap.from_r1cs(r1cs)
        a_e, b_e, c_e = qap.combined_evaluations(assignment)
        for k, constraint in enumerate(r1cs.constraints):
            assert a_e[k] == r1cs.row_dot(constraint.a, assignment)
            assert (a_e[k] * b_e[k] - c_e[k]) % BN_R == 0

    def test_quotient_divisibility(self):
        """(A*B - C) == h * Z as polynomials — the core QAP identity."""
        r1cs, assignment = cubic_circuit()
        qap = Qap.from_r1cs(r1cs)
        h = qap.quotient_coefficients(assignment)
        a_e, b_e, c_e = qap.combined_evaluations(assignment)
        a_c = qap.domain.intt(a_e)
        b_c = qap.domain.intt(b_e)
        c_c = qap.domain.intt(c_e)
        n = qap.domain.size
        # check at a few random off-domain points
        import random

        rng = random.Random(1)
        for _ in range(5):
            x = rng.randrange(BN_R)
            lhs = (
                poly_eval(a_c, x, BN_R) * poly_eval(b_c, x, BN_R)
                - poly_eval(c_c, x, BN_R)
            ) % BN_R
            z = (pow(x, n, BN_R) - 1) % BN_R
            rhs = poly_eval(h, x, BN_R) * z % BN_R
            assert lhs == rhs

    def test_bad_witness_rejected(self):
        r1cs, assignment = cubic_circuit()
        qap = Qap.from_r1cs(r1cs)
        bad = list(assignment)
        bad[2] = 7
        with pytest.raises(ValueError):
            qap.quotient_coefficients(bad)

    def test_variable_polynomials_interpolate_columns(self):
        r1cs, _ = cubic_circuit()
        qap = Qap.from_r1cs(r1cs)
        a_polys, b_polys, c_polys = qap.variable_polynomials()
        for k, constraint in enumerate(r1cs.constraints):
            w = domain_elements(qap.domain)[k]
            for var in range(r1cs.num_variables):
                assert poly_eval(a_polys[var], w, BN_R) == constraint.a.get(var, 0)
                assert poly_eval(b_polys[var], w, BN_R) == constraint.b.get(var, 0)
                assert poly_eval(c_polys[var], w, BN_R) == constraint.c.get(var, 0)

    def test_larger_circuit(self):
        r1cs, assignment = hash_chain_circuit(20, seed=9)
        qap = Qap.from_r1cs(r1cs)
        h = qap.quotient_coefficients(assignment)
        assert len(h) == qap.domain.size - 1
