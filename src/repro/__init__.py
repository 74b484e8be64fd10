"""DistMSM reproduction: multi-GPU multi-scalar multiplication for ZKPs.

A from-scratch Python implementation of the ASPLOS'24 paper "Accelerating
Multi-Scalar Multiplication for Efficient Zero Knowledge Proofs with
Multi-GPU Systems", with the GPU hardware replaced by a functional +
analytic simulator (see DESIGN.md).

Quickstart::

    from repro import DistMsm, MultiGpuSystem
    from repro.curves.sampling import msm_instance
    from repro.curves.params import curve_by_name

    curve = curve_by_name("BN254")
    scalars, points = msm_instance(curve, 1024, seed=1)
    result = DistMsm(MultiGpuSystem(8)).execute(scalars, points, curve)
    print(result.point, result.time_ms)

Package map (details in DESIGN.md):

* ``repro.fields`` / ``repro.curves`` / ``repro.msm`` — the cryptographic
  substrate: Montgomery arithmetic, XYZZ curve ops, Pippenger MSM.
* ``repro.kernels`` — the paper's §4 kernel techniques (register
  scheduling, explicit spilling, tensor-core Montgomery multiplication).
* ``repro.gpu`` — the simulated multi-GPU platform and timing model.
* ``repro.core`` — DistMSM itself (§3): hierarchical scatter, parallel
  bucket-sum, CPU bucket-reduce, multi-GPU planning.
* ``repro.baselines`` — the six baseline systems of Table 2.
* ``repro.zksnark`` — NTT, R1CS, QAP, BN254 pairing, Groth16.
* ``repro.analysis`` — one runner per paper table/figure.
"""

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm, DistMsmResult
from repro.curves.params import CurveParams, curve_by_name, list_curves
from repro.curves.point import AffinePoint
from repro.gpu.cluster import MultiGpuSystem
from repro.msm.naive import naive_msm
from repro.msm.pippenger import pippenger_msm
from repro.observe import Tracer

__version__ = "1.0.0"

__all__ = [
    "DistMsm",
    "DistMsmConfig",
    "DistMsmResult",
    "MultiGpuSystem",
    "CurveParams",
    "curve_by_name",
    "list_curves",
    "AffinePoint",
    "naive_msm",
    "pippenger_msm",
    "Tracer",
    "msm",
    "__version__",
]


def msm(scalars, points, curve=None):
    """Convenience MSM: returns the result point for ``sum(k_i * P_i)``.

    Uses the DistMSM engine on a simulated one-GPU system; the curve
    defaults to BN254.
    """
    if curve is None:
        curve = curve_by_name("BN254")
    engine = DistMsm(MultiGpuSystem(1))
    return engine.execute(list(scalars), list(points), curve).point
