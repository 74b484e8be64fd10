"""zkSNARK substrate: everything proof generation needs, for real.

The paper's end-to-end evaluation (Table 4) runs Groth16 provers; this
package implements the full stack from scratch so the MSM engines have a
genuine consumer:

* :mod:`repro.zksnark.ntt` — number-theoretic transforms over the curves'
  scalar fields (the evaluation's second-largest kernel).
* :mod:`repro.zksnark.r1cs` — rank-1 constraint systems.
* :mod:`repro.zksnark.qap` — R1CS -> quadratic arithmetic program.
* :mod:`repro.zksnark.pairing` — the BN254 optimal-ate pairing
  (Fp2/Fp6/Fp12 tower, Miller loop, final exponentiation).
* :mod:`repro.zksnark.groth16` — setup / prove / verify; the prover's
  commitments run through :mod:`repro.msm`.
* :mod:`repro.zksnark.workloads` — synthetic circuits standing in for the
  paper's Zcash-Sprout / Otti-SGD / ZEN-LeNet instances.
* :mod:`repro.zksnark.pipeline` — the end-to-end proving-time model
  reproducing Table 4.

The examples build their circuits with :mod:`repro.zksnark.builder` (a
circuit DSL with correct-by-construction witnesses) and
:mod:`repro.zksnark.gadgets`, and size their proofs with
:mod:`repro.zksnark.serialize` (the 128-byte compressed proof encoding).
"""

from repro.zksnark.builder import CircuitBuilder
from repro.zksnark.groth16 import Groth16, Proof
from repro.zksnark.ntt import NttDomain
from repro.zksnark.r1cs import R1cs
from repro.zksnark.serialize import serialize_proof

__all__ = [
    "Groth16",
    "Proof",
    "NttDomain",
    "R1cs",
    "CircuitBuilder",
    "serialize_proof",
]
