"""Configuration for the DistMSM engine and its ablations."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernels.padd_kernel import KernelOptimisations


@dataclass(frozen=True)
class DistMsmConfig:
    """Tunable policy of one MSM engine instance.

    The defaults are the full DistMSM design; ablations (Figs. 10-12) toggle
    fields individually.

    Attributes
    ----------
    window_size:
        Pippenger window ``s``; ``None`` selects the per-thread-workload
        optimum for the system (§3.1).
    scatter:
        "hierarchical" (Alg. 3) or "naive" (one global atomic per point).
    bucket_reduce_on_cpu:
        Offload bucket-reduce to the host (§3.2.3); GPUs run it otherwise.
    multi_gpu:
        "bucket-split" (windows to GPUs, a window's buckets split across its
        GPU group — DistMSM's choice), "windows" (whole windows only), or
        "ndim" (each GPU takes N/N_gpu points over all windows — how the
        paper augments single-GPU baselines).
    kernel_opts:
        The §4 PADD kernel optimisations in force.
    threads_per_block / points_per_thread:
        Scatter launch geometry (Alg. 3's K is points_per_thread).
    threads_per_bucket_min:
        Lower bound (warp-granular) for the bucket-sum thread allocation.
    efficiency:
        Implementation-quality multiplier (1.0 = DistMSM; baselines < 1).
    """

    window_size: int | None = None
    scatter: str = "hierarchical"
    bucket_reduce_on_cpu: bool = True
    multi_gpu: str = "bucket-split"
    kernel_opts: KernelOptimisations = field(default_factory=KernelOptimisations.all)
    threads_per_block: int = 1024
    points_per_thread: int = 16
    threads_per_bucket_min: int = 32
    efficiency: float = 1.0
    signed_digits: bool = False
    precompute: bool = False
    #: GPU bucket-reduce scheme when not offloaded to the CPU:
    #: "scan" (work-efficient) or "simd" (the naive §3.1 formulation)
    gpu_reduce: str = "scan"
    #: toolchain the kernels were written in; HIP pays the platform
    #: penalty on AMD GPUs (paper Fig. 9) — DistMSM itself is HIP-based
    api: str = "hip"
    #: verify delivered chunk results through the 2G2T commitment protocol
    #: (repro.msm.outsource) before accumulating them.  ``"auto"`` (the
    #: default) turns verification on exactly when the fault plan contains
    #: a ByzantineWorker — the honest-cluster fast path stays untaxed;
    #: ``True`` always verifies (charging the verification overhead even on
    #: honest runs), ``False`` never does (a cheater then corrupts the
    #: returned point — the attack demo).
    verify_chunks: bool | str = "auto"

    def __post_init__(self):
        if self.scatter not in ("hierarchical", "naive"):
            raise ValueError(f"unknown scatter strategy {self.scatter!r}")
        if self.multi_gpu not in ("bucket-split", "windows", "ndim"):
            raise ValueError(f"unknown multi-GPU strategy {self.multi_gpu!r}")
        if self.window_size is not None and not 1 <= self.window_size <= 30:
            raise ValueError(f"window size out of range: {self.window_size}")
        if not 0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if self.gpu_reduce not in ("scan", "simd"):
            raise ValueError(f"unknown gpu_reduce mode {self.gpu_reduce!r}")
        if self.threads_per_block < 1:
            raise ValueError(f"threads_per_block must be >= 1, got {self.threads_per_block}")
        if self.points_per_thread < 1:
            raise ValueError(f"points_per_thread must be >= 1, got {self.points_per_thread}")
        if self.threads_per_bucket_min < 1:
            raise ValueError(
                f"threads_per_bucket_min must be >= 1, got {self.threads_per_bucket_min}"
            )
        # True and False by identity: ``1 in (True, False)`` holds, but the
        # readers test ``verify_chunks is True``, so 1 or numpy.True_ would
        # silently switch verification off
        mode = self.verify_chunks
        if not (mode is True or mode is False or mode == "auto"):
            raise ValueError(f"unknown verify_chunks mode {mode!r}")
