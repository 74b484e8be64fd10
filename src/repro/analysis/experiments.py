"""One runner per paper table/figure (see DESIGN.md §4).

Every function returns a structured result object with a ``render()`` method
producing the rows/series the paper reports.  Timing numbers come from the
calibrated analytic model over the simulated DGX platform; correctness-level
results (Fig. 3, Table 1/2, Fig. 11's feasibility wall, Fig. 12's register
counts) are computed, not transcribed.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace

from repro.analysis import paper_data
from repro.analysis.tables import format_table
from repro.baselines.registry import all_baselines, baseline_by_name, best_gpu
from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.core.scatter import (
    hierarchical_scatter_counts,
    naive_scatter_counts,
    scatter_time_ms,
)
from repro.core.workload import figure3_series
from repro.curves.params import curve_by_name, list_curves
from repro.gpu.cluster import MultiGpuSystem
from repro.gpu.device import SharedMemoryExceeded
from repro.gpu.specs import AMD_6900XT, NVIDIA_A100, RTX_4090
from repro.gpu.timing import ec_ops_time_ms
from repro.kernels.padd_kernel import KernelDescriptor, KernelOptimisations

CURVE_NAMES = ("BN254", "BLS12-377", "BLS12-381", "MNT4753")


# -- Table 1 -----------------------------------------------------------------


@dataclass
class Table1Result:
    rows: list

    def render(self) -> str:
        return format_table(
            ["EC", "scalar bits (k_i)", "point bits (P_i)", "limbs"],
            self.rows,
            title="Table 1: bit widths per elliptic curve",
        )


def table1() -> Table1Result:
    rows = [
        [c.name, c.scalar_bits, c.field_bits, c.num_limbs] for c in list_curves()
    ]
    return Table1Result(rows)


# -- Table 2 -----------------------------------------------------------------


@dataclass
class Table2Result:
    rows: list

    def render(self) -> str:
        return format_table(
            ["#", "Baseline", "Supported elliptic curves"],
            self.rows,
            title="Table 2: baseline GPU implementations",
        )


def table2() -> Table2Result:
    rows = [
        [b.ident, b.name, ", ".join(b.curves)] for b in all_baselines()
    ]
    return Table2Result(rows)


# -- Figure 3 -----------------------------------------------------------------


@dataclass
class Figure3Result:
    curves: list  # WorkloadCurve per GPU count

    def render(self) -> str:
        rows = []
        for curve in self.curves:
            rows.append(
                [
                    f"{curve.num_gpus} GPU(s)",
                    curve.optimal_s,
                    f"{min(curve.normalised_costs):.2f}",
                ]
            )
        return format_table(
            ["platform", "optimal s", "min normalised cost"],
            rows,
            title="Figure 3: per-thread workload vs window size",
        )


def figure3() -> Figure3Result:
    return Figure3Result(figure3_series())


# -- Table 3 -----------------------------------------------------------------


@dataclass
class Table3Cell:
    gpus: int
    bg_ms: float
    bg_ident: int
    dist_ms: float

    @property
    def speedup(self) -> float:
        return self.bg_ms / self.dist_ms


@dataclass
class Table3Row:
    curve: str
    log_n: int
    cells: list


@dataclass
class Table3Result:
    rows: list
    gpu_counts: tuple

    @property
    def average_multi_gpu_speedup(self) -> float:
        vals = [
            c.speedup for row in self.rows for c in row.cells if c.gpus > 1
        ]
        return statistics.mean(vals)

    def render(self) -> str:
        headers = ["curve", "size"]
        for g in self.gpu_counts:
            headers += [f"{g}xA100 BG", f"{g}xA100 DistMSM", "speedup"]
        out_rows = []
        for row in self.rows:
            cells = [row.curve, f"2^{row.log_n}"]
            for cell in row.cells:
                cells += [
                    f"{cell.bg_ms:.2f}({cell.bg_ident})",
                    f"{cell.dist_ms:.2f}",
                    f"{cell.speedup:.1f}x",
                ]
            out_rows.append(cells)
        table = format_table(headers, out_rows, title="Table 3: MSM execution time (ms)")
        return (
            table
            + f"\naverage multi-GPU speedup over BG: "
            + f"{self.average_multi_gpu_speedup:.2f}x "
            + f"(paper: {paper_data.AVERAGE_MULTI_GPU_SPEEDUP}x)"
        )


def table3() -> Table3Result:
    """Best single-GPU baseline against DistMSM on every curve at MSM sizes
    2^22-2^28 and the paper's GPU counts: the one definition of Table 3."""
    gpu_counts = paper_data.TABLE3_GPU_COUNTS
    rows = []
    for name in CURVE_NAMES:
        curve = curve_by_name(name)
        for log_n in (22, 24, 26, 28):
            n = 1 << log_n
            cells = []
            for g in gpu_counts:
                system = MultiGpuSystem(g)
                dist = DistMsm(system).estimate(curve, n)
                bg, impl = best_gpu(curve, n, system)
                cells.append(
                    Table3Cell(
                        gpus=g,
                        bg_ms=bg.time_ms,
                        bg_ident=impl.ident,
                        dist_ms=dist.time_ms,
                    )
                )
            rows.append(Table3Row(curve=name, log_n=log_n, cells=cells))
    return Table3Result(rows, gpu_counts)


# -- Figure 8 -----------------------------------------------------------------


@dataclass
class Figure8Series:
    method: str
    gpu_counts: tuple
    speedups: tuple  # over this method's single-GPU time


@dataclass
class Figure8Result:
    series: list
    gpu_counts: tuple

    def render(self) -> str:
        headers = ["method"] + [f"{g} GPUs" for g in self.gpu_counts]
        rows = [
            [s.method] + [f"{v:.2f}x" for v in s.speedups] for s in self.series
        ]
        return format_table(
            headers, rows, title="Figure 8: speedup of multi-GPU over single GPU"
        )


def figure8() -> Figure8Result:
    """Speedup over one GPU at 1-32 GPUs, geometric mean over the method's
    curves at MSM sizes 2^22-2^28: the one definition of Figure 8."""
    gpu_counts = (1, 2, 4, 8, 16, 32)
    log_sizes = (22, 24, 26, 28)
    series = []
    methods = [("DistMSM", None)] + [(b.name, b) for b in all_baselines()]
    for method_name, baseline in methods:
        per_gpu: dict = {g: [] for g in gpu_counts}
        curve_names = baseline.curves if baseline else CURVE_NAMES
        for cname in curve_names:
            curve = curve_by_name(cname)
            for log_n in log_sizes:
                n = 1 << log_n
                base_time = None
                for g in gpu_counts:
                    system = MultiGpuSystem(g)
                    if baseline is None:
                        t = DistMsm(system).estimate(curve, n).time_ms
                    else:
                        t = baseline.estimate(curve, n, system).time_ms
                    if g == 1:
                        base_time = t
                    per_gpu[g].append(base_time / t)
        series.append(
            Figure8Series(
                method=method_name,
                gpu_counts=gpu_counts,
                speedups=tuple(
                    statistics.geometric_mean(per_gpu[g]) for g in gpu_counts
                ),
            )
        )
    return Figure8Result(series, gpu_counts)


# -- Figure 9 -----------------------------------------------------------------


@dataclass
class Figure9Row:
    gpu: str
    int32_tops: float
    tc_int8_tops: float
    mem_bw_gbps: float
    bellperson_ms: float
    distmsm_ms: float

    @property
    def speedup(self) -> float:
        return self.bellperson_ms / self.distmsm_ms


@dataclass
class Figure9Result:
    rows: list
    log_n: int

    def render(self) -> str:
        headers = [
            "GPU", "int32 TOPS", "int8 TC TOPS", "mem GB/s",
            "Bellperson ms", "DistMSM ms", "speedup",
        ]
        out = [
            [
                r.gpu, r.int32_tops, r.tc_int8_tops, r.mem_bw_gbps,
                r.bellperson_ms, r.distmsm_ms, f"{r.speedup:.1f}x",
            ]
            for r in self.rows
        ]
        return format_table(
            headers, out,
            title=f"Figure 9: DistMSM vs Bellperson (BLS12-381, N=2^{self.log_n})",
        )


def figure9(log_n: int = 26) -> Figure9Result:
    curve = curve_by_name("BLS12-381")
    bellperson = baseline_by_name("Bellperson")
    n = 1 << log_n
    rows = []
    for spec in (NVIDIA_A100, RTX_4090, AMD_6900XT):
        system = MultiGpuSystem(1, spec=spec)
        bp = bellperson.estimate(curve, n, system).time_ms
        dist = DistMsm(system).estimate(curve, n).time_ms
        rows.append(
            Figure9Row(
                gpu=spec.name,
                int32_tops=spec.int32_tops,
                tc_int8_tops=spec.tc_int8_tops,
                mem_bw_gbps=spec.mem_bw_gbps,
                bellperson_ms=bp,
                distmsm_ms=dist,
            )
        )
    return Figure9Result(rows, log_n)


# -- Figure 10 ---------------------------------------------------------------


def no_opt_config(curve_name: str = "BLS12-381", n: int = 1 << 26) -> DistMsmConfig:
    """The Fig. 10 baseline: single-GPU Pippenger, no PADD optimisations.

    Multi-GPU support comes from the N-dim augmentation (each GPU runs the
    full single-GPU pipeline on its point slice), so every GPU repeats the
    complete SIMD bucket-reduce — "adding more GPUs reduces the workload
    for bucket-sum but not for bucket-reduce".  The window size is frozen
    at the single-GPU optimum: the "rigid adherence to the single-GPU
    design" the paper calls out.
    """
    probe_cfg = DistMsmConfig(
        scatter="naive",
        multi_gpu="ndim",
        bucket_reduce_on_cpu=False,
        gpu_reduce="simd",
        kernel_opts=KernelOptimisations.none(),
    )
    curve = curve_by_name(curve_name)
    s = DistMsm(MultiGpuSystem(1), probe_cfg).window_size_for(curve, n)
    return replace(probe_cfg, window_size=s)


@dataclass
class Figure10Row:
    gpus: int
    algo_speedup: float  # multi-GPU Pippenger alone
    kernel_speedup: float  # PADD optimisations alone
    calculated: float  # product of the two
    observed: float  # full DistMSM


@dataclass
class Figure10Result:
    rows: list
    curve: str
    log_n: int

    def render(self) -> str:
        headers = ["GPUs", "multi-GPU algo", "PADD opts", "calculated", "observed"]
        out = [
            [
                r.gpus,
                f"{r.algo_speedup:.2f}x",
                f"{r.kernel_speedup:.2f}x",
                f"{r.calculated:.2f}x",
                f"{r.observed:.2f}x",
            ]
            for r in self.rows
        ]
        return format_table(
            headers, out,
            title=(
                f"Figure 10: optimisation breakdown vs NO-OPT "
                f"({self.curve}, N=2^{self.log_n})"
            ),
        )


def figure10(log_n: int = 26) -> Figure10Result:
    """Fig. 10's breakdown on BLS12-381 at 1 to 32 GPUs."""
    curve_name = "BLS12-381"
    curve = curve_by_name(curve_name)
    n = 1 << log_n
    base_cfg = no_opt_config(curve_name, n)
    kernel_cfg = replace(base_cfg, kernel_opts=KernelOptimisations.all())
    algo_cfg = DistMsmConfig(kernel_opts=KernelOptimisations.none())
    full_cfg = DistMsmConfig()

    rows = []
    for g in (1, 2, 4, 8, 16, 32):
        system = MultiGpuSystem(g)
        t_base = DistMsm(system, base_cfg).estimate(curve, n).time_ms
        t_algo = DistMsm(system, algo_cfg).estimate(curve, n).time_ms
        t_kernel = DistMsm(system, kernel_cfg).estimate(curve, n).time_ms
        t_full = DistMsm(system, full_cfg).estimate(curve, n).time_ms
        algo_speedup = t_base / t_algo
        kernel_speedup = t_base / t_kernel
        rows.append(
            Figure10Row(
                gpus=g,
                algo_speedup=algo_speedup,
                kernel_speedup=kernel_speedup,
                calculated=algo_speedup * kernel_speedup,
                observed=t_base / t_full,
            )
        )
    return Figure10Result(rows, curve_name, log_n)


# -- Figure 11 ---------------------------------------------------------------


@dataclass
class Figure11Row:
    window_size: int
    naive_ms: float
    hierarchical_ms: float | None  # None = execution failure (shm)

    @property
    def speedup(self) -> float | None:
        if self.hierarchical_ms is None:
            return None
        return self.naive_ms / self.hierarchical_ms


@dataclass
class Figure11Result:
    rows: list
    log_n: int

    def render(self) -> str:
        headers = ["s", "naive (ms)", "hierarchical (ms)", "speedup"]
        out = []
        for r in self.rows:
            out.append(
                [
                    r.window_size,
                    r.naive_ms,
                    "FAIL" if r.hierarchical_ms is None else r.hierarchical_ms,
                    "-" if r.speedup is None else f"{r.speedup:.2f}x",
                ]
            )
        return format_table(
            headers, out,
            title=f"Figure 11: bucket-scatter step, one window, N=2^{self.log_n}",
        )


def figure11(log_n: int = 26) -> Figure11Result:
    """Fig. 11's scatter times on an A100 for windows of 6 to 24 bits."""
    spec = NVIDIA_A100
    n = 1 << log_n
    config = DistMsmConfig()
    rows = []
    active = spec.concurrent_threads
    for s in range(6, 25):
        buckets = 1 << s
        naive = scatter_time_ms(
            spec, naive_scatter_counts(n, buckets), buckets, active
        )
        try:
            counts = hierarchical_scatter_counts(n, buckets, config)
            hier = scatter_time_ms(spec, counts, buckets, active)
        except SharedMemoryExceeded:
            hier = None
        rows.append(Figure11Row(s, naive, hier))
    return Figure11Result(rows, log_n)


# -- Figure 12 ---------------------------------------------------------------


@dataclass
class Figure12Row:
    curve: str
    stage: str
    per_op_ms: float
    cumulative_speedup: float
    registers: int


@dataclass
class Figure12Result:
    rows: list

    def totals(self) -> dict:
        """Final cumulative speedup per curve."""
        out = {}
        for row in self.rows:
            out[row.curve] = row.cumulative_speedup
        return out

    def render(self) -> str:
        headers = ["curve", "stage", "regs/thread", "cumulative speedup"]
        out = [
            [r.curve, r.stage, r.registers, f"{r.cumulative_speedup:.3f}x"]
            for r in self.rows
        ]
        return format_table(
            headers, out, title="Figure 12: PADD kernel optimisation breakdown (A100)"
        )


def figure12() -> Figure12Result:
    """Fig. 12's cumulative PADD-kernel stages on an A100, per curve,
    each timed over a million PACCs."""
    ops = 1_000_000
    rows = []
    for name in CURVE_NAMES:
        curve = curve_by_name(name)
        base_ms = None
        for stage_name, opts in KernelOptimisations.cumulative_stages():
            desc = KernelDescriptor(curve, opts)
            t = ec_ops_time_ms(desc, "pacc", ops, NVIDIA_A100)
            if base_ms is None:
                base_ms = t
            rows.append(
                Figure12Row(
                    curve=name,
                    stage=stage_name,
                    per_op_ms=t / ops,
                    cumulative_speedup=base_ms / t,
                    registers=desc.registers_per_thread("pacc"),
                )
            )
    return Figure12Result(rows)
