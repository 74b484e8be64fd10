"""Circuit gadgets: range checks, selects, Merkle membership."""

import random

import pytest

from repro.curves.params import curve_by_name
from repro.zksnark.builder import CircuitBuilder
from repro.zksnark.gadgets import (
    merkle_membership_circuit,
    merkle_path,
    merkle_root,
    select,
    swap_on_bit,
)
from repro.zksnark.poseidon import hash2

P = curve_by_name("BN254").r


class TestSelect:
    @pytest.mark.parametrize("bit,expected", [(0, 20), (1, 10)])
    def test_select(self, bit, expected):
        builder = CircuitBuilder()
        b = builder.private(bit)
        builder.assert_boolean(b)
        out = select(builder, b, builder.constant(10), builder.constant(20))
        builder.public_output(out)
        r1cs, assignment = builder.synthesize()
        assert r1cs.is_satisfied(assignment)
        assert r1cs.public_inputs(assignment) == [expected]

    @pytest.mark.parametrize("bit", [0, 1])
    def test_swap(self, bit):
        builder = CircuitBuilder()
        b = builder.private(bit)
        left, right = swap_on_bit(
            builder, b, builder.constant(3), builder.constant(7)
        )
        assert (left.value, right.value) == ((3, 7) if bit == 0 else (7, 3))


class TestMerkleNative:
    def test_root_of_two(self):
        assert merkle_root([5, 9]) == hash2(5, 9)

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            merkle_root([1, 2, 3])
        with pytest.raises(ValueError):
            merkle_root([])

    def test_path_authenticates(self):
        leaves = [10, 20, 30, 40, 50, 60, 70, 80]
        for index in (0, 3, 7):
            path = merkle_path(leaves, index)
            acc = leaves[index]
            idx = index
            for sibling in path:
                acc = hash2(acc, sibling) if idx % 2 == 0 else hash2(sibling, acc)
                idx //= 2
            assert acc == merkle_root(leaves)

    def test_path_index_checked(self):
        with pytest.raises(ValueError):
            merkle_path([1, 2], 5)


class TestMembershipCircuit:
    @pytest.fixture(scope="class")
    def tree(self):
        rng = random.Random(13)
        return [rng.randrange(P) for _ in range(8)]

    @pytest.mark.parametrize("index", [0, 5, 7])
    def test_satisfying(self, tree, index):
        r1cs, assignment, root = merkle_membership_circuit(tree, index)
        assert r1cs.is_satisfied(assignment)
        assert r1cs.public_inputs(assignment) == [root]

    def test_constraint_budget(self, tree):
        """Three tree levels -> three Poseidon evaluations dominate."""
        r1cs, _, _ = merkle_membership_circuit(tree, 2)
        assert 3 * 200 < r1cs.num_constraints < 3 * 300

    def test_forged_leaf_rejected(self, tree):
        r1cs, assignment, _ = merkle_membership_circuit(tree, 2)
        bad = list(assignment)
        leaf_var = 1 + r1cs.num_public  # first private variable
        bad[leaf_var] = (bad[leaf_var] + 1) % P
        assert not r1cs.is_satisfied(bad)

    @pytest.mark.slow
    def test_zero_knowledge_membership_proof(self, tree):
        """The flagship application: prove membership without revealing the
        leaf — real Groth16 over the Merkle/Poseidon circuit."""
        from repro.zksnark.groth16 import Groth16

        r1cs, assignment, root = merkle_membership_circuit(tree, 5)
        groth = Groth16(r1cs)
        pk, vk = groth.setup(random.Random(81))
        proof = groth.prove(pk, assignment, random.Random(82))
        assert groth.verify(vk, proof, [root])
        # a different root (different tree) must not verify
        assert not groth.verify(vk, proof, [(root + 1) % P])
