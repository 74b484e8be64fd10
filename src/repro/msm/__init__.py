"""Multi-scalar multiplication algorithms (functional references).

* :mod:`repro.msm.naive` — the definitionally correct ``sum(k_i * P_i)``.
* :mod:`repro.msm.pippenger` — serial Pippenger with unsigned or signed
  windows; the algorithmic baseline every engine is validated against.
* :mod:`repro.msm.precompute` — window-collapse precomputation tables
  (§2.3.1) used by competition-grade baselines.
* :mod:`repro.msm.outsource` — the 2G2T verifiable-outsourcing protocol:
  constant-size commitment checks over delivered chunk results, used by
  the multi-GPU engine's Byzantine-tolerant path (DESIGN.md §14).

The multi-GPU engine lives in :mod:`repro.core`; baselines in
:mod:`repro.baselines`.  Both must agree with :func:`repro.msm.naive.naive_msm`
on every input — tests enforce this.
"""

from repro.msm.naive import naive_msm
from repro.msm.outsource import (
    Challenge,
    ChunkClaim,
    Session,
    batch_verify,
    chunk_value,
    make_response,
    sample_challenge,
    soundness_bits,
    verify_chunk,
)
from repro.msm.pippenger import PippengerStats, pippenger_msm

__all__ = [
    "naive_msm",
    "pippenger_msm",
    "PippengerStats",
    "Challenge",
    "ChunkClaim",
    "Session",
    "batch_verify",
    "chunk_value",
    "make_response",
    "sample_challenge",
    "soundness_bits",
    "verify_chunk",
]
