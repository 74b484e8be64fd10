"""The baseline interface: a named engine configuration + curve support."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm, DistMsmResult
from repro.core.workload import optimal_window_size
from repro.curves.params import CurveParams
from repro.gpu.cluster import MultiGpuSystem
from repro.gpu.specs import GpuSpec


@dataclass(frozen=True)
class BaselineMsm:
    """One published MSM implementation, as a simulator configuration.

    Attributes
    ----------
    name / ident:
        Display name and the numeric identifier of the paper's Table 2.
    curves:
        Supported curve names (Table 2's compatibility matrix).
    config:
        Engine policy encoding the implementation's design.
    window_policy:
        "single-gpu" — tuned for one GPU and kept when scaled out (the trait
        the paper criticises); "system" — re-tuned per GPU count.
    native_multi_gpu:
        Whether the implementation shipped multi-GPU support; when False the
        paper (and we) augment it by splitting along the N-dim.
    """

    name: str
    ident: int
    curves: tuple
    config: DistMsmConfig
    window_policy: str = "single-gpu"
    native_multi_gpu: bool = False
    #: per-curve efficiency overrides ((curve name, factor) pairs) — e.g.
    #: cuZK's sparse-matrix layout degrades disproportionately at 753 bits
    curve_efficiency: tuple = ()

    def supports(self, curve: CurveParams) -> bool:
        return curve.name in self.curves

    def efficiency_for(self, curve: CurveParams) -> float:
        for name, factor in self.curve_efficiency:
            if name == curve.name:
                return factor
        return self.config.efficiency

    def window_size_for(
        self, curve: CurveParams, n: int, num_gpus: int, spec: GpuSpec
    ) -> int | None:
        """The window size this implementation would pick.

        ``None`` means "let the engine auto-tune" (the ``autotune`` policy of
        well-engineered implementations like Yrrid's).
        """
        if self.config.window_size is not None:
            return self.config.window_size
        if self.window_policy == "autotune":
            return None
        if self.window_policy == "autotune-frozen":
            # precomputation bakes the window size into the offline tables
            # (2^{js} P_i), so the single-GPU choice is frozen at scale-out —
            # the root cause of Yrrid's poor multi-GPU scaling (Fig. 8)
            from repro.gpu.cluster import MultiGpuSystem

            probe = DistMsm(MultiGpuSystem(1, spec=spec), self.config)
            return probe.window_size_for(curve, n)
        threads = spec.concurrent_threads
        if self.window_policy == "single-gpu" or self.config.multi_gpu == "ndim":
            # tuned per GPU on its own point slice
            slice_n = max(2, n // (num_gpus if self.config.multi_gpu == "ndim" else 1))
            return optimal_window_size(slice_n, curve.scalar_bits, 1, threads)
        # "system": re-tuned per GPU count, capped at the practical s=16 of
        # shipping implementations
        return min(
            16, optimal_window_size(max(2, n), curve.scalar_bits, num_gpus, threads)
        )

    def engine(self, curve: CurveParams, n: int, system: MultiGpuSystem) -> DistMsm:
        """An engine instance configured for this baseline on this system."""
        if not self.supports(curve):
            raise ValueError(f"{self.name} does not support {curve.name}")
        s = self.window_size_for(curve, n, system.num_gpus, system.spec)
        return DistMsm(
            system,
            replace(self.config, window_size=s, efficiency=self.efficiency_for(curve)),
        )

    def estimate(self, curve: CurveParams, n: int, system: MultiGpuSystem) -> DistMsmResult:
        """Modelled execution time on the given system."""
        return self.engine(curve, n, system).estimate(curve, n)

    def __repr__(self):
        return f"BaselineMsm({self.name}, #{self.ident}, curves={list(self.curves)})"
