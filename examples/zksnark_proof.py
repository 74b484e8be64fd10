#!/usr/bin/env python
"""End-to-end zkSNARK: build a circuit, prove with Groth16, verify.

Proves knowledge of a hash-chain preimage — a reduced-scale instance of the
paper's Zcash-Sprout workload (Table 4) — using the full real pipeline:
R1CS -> QAP -> Groth16 prove (the commitments are multi-scalar
multiplications through this library's Pippenger) -> pairing-based verify.

Run:  python examples/zksnark_proof.py
"""

import random
import time

from repro.zksnark.groth16 import Groth16
from repro.zksnark.pipeline import estimate_end_to_end
from repro.zksnark.workloads import ZCASH_SPROUT, hash_chain_circuit


def main() -> None:
    print("building a hash-chain circuit (Zcash-Sprout flavour)...")
    r1cs, assignment = hash_chain_circuit(length=12, seed=7)
    print(f"  {r1cs}")
    assert r1cs.is_satisfied(assignment)

    groth = Groth16(r1cs)

    t0 = time.time()
    pk, vk = groth.setup(random.Random(0xCAFE))
    print(f"trusted setup     {time.time() - t0:6.2f} s "
          f"({len(pk.a_query)} variable queries, {len(pk.h_query)} H powers)")

    t0 = time.time()
    proof = groth.prove(pk, assignment, random.Random(0xBEEF))
    print(f"prove             {time.time() - t0:6.2f} s "
          f"(three G1 MSMs + one G2 MSM)")

    public = r1cs.public_inputs(assignment)
    t0 = time.time()
    valid = groth.verify(vk, proof, public)
    print(f"verify            {time.time() - t0:6.2f} s -> {valid}")
    assert valid

    # a cheater with the wrong public value is caught by the pairing check
    forged_public = [(public[0] + 1) % r1cs.modulus]
    assert not groth.verify(vk, proof, forged_public)
    print("forged public input rejected\n")

    # what the same pipeline costs at production scale (paper Table 4)
    est = estimate_end_to_end(ZCASH_SPROUT, num_gpus=8)
    print(f"at production scale ({est.constraints:,} constraints):")
    print(f"  libsnark CPU  : {est.cpu_seconds:8.1f} s")
    print(f"  DistMSM 8xA100: {est.distmsm_seconds:8.1f} s "
          f"({est.speedup:.1f}x; paper: 25.0x)")
    print(f"  breakdown: MSM {est.msm_seconds:.2f} s, NTT {est.ntt_seconds:.2f} s, "
          f"others {est.others_seconds:.2f} s")


if __name__ == "__main__":
    main()
