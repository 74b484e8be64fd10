"""The analytic timing model: EC op costs, rates, platform effects."""

import pytest

from repro.curves.params import curve_by_name
from repro.gpu.specs import AMD_6900XT, NVIDIA_A100, RTX_4090
from repro.gpu.timing import (
    cpu_ec_time_ms,
    ec_op_cost,
    ec_op_rate,
    ec_ops_time_ms,
    host_transfer_time_ms,
    kernel_occupancy,
    launch_overhead_ms,
    memory_read_time_ms,
    reference_gpu_padd_rate,
    sustained_int32_rate,
)
from repro.kernels.padd_kernel import KernelDescriptor, KernelOptimisations

BN254 = curve_by_name("BN254")
MNT = curve_by_name("MNT4753")
BLS377 = curve_by_name("BLS12-377")

FULL = KernelOptimisations.all()
NONE = KernelOptimisations.none()


class TestEcOpCost:
    def test_pacc_cheaper_than_padd(self):
        desc = KernelDescriptor(BN254, FULL)
        pacc = ec_op_cost(desc, "pacc", NVIDIA_A100)
        padd = ec_op_cost(desc, "padd", NVIDIA_A100)
        assert pacc.cuda_instructions < padd.cuda_instructions

    def test_tc_moves_work_off_cuda(self):
        with_tc = KernelDescriptor(BN254, FULL)
        without = KernelDescriptor(
            BN254, KernelOptimisations(True, True, True, False, False)
        )
        c_tc = ec_op_cost(with_tc, "pacc", NVIDIA_A100)
        c_no = ec_op_cost(without, "pacc", NVIDIA_A100)
        assert c_tc.cuda_instructions < c_no.cuda_instructions
        assert c_tc.tc_int8_ops > 0
        assert c_no.tc_int8_ops == 0

    def test_no_tc_offload_on_amd(self):
        desc = KernelDescriptor(BN254, FULL)
        cost = ec_op_cost(desc, "pacc", AMD_6900XT)
        assert cost.tc_int8_ops == 0

    def test_naive_tc_pays_fragment_traffic(self):
        naive = KernelDescriptor(BN254, KernelOptimisations(True, True, True, True, False))
        compact = KernelDescriptor(BN254, FULL)
        t_naive = ec_op_cost(naive, "pacc", NVIDIA_A100)
        t_compact = ec_op_cost(compact, "pacc", NVIDIA_A100)
        assert (
            t_naive.overlap_traffic_bytes + t_naive.serial_traffic_bytes
            > t_compact.overlap_traffic_bytes + t_compact.serial_traffic_bytes
        )

    def test_spill_traffic_present_when_spilling(self):
        spilling = KernelDescriptor(BN254, KernelOptimisations(True, True, True))
        plain = KernelDescriptor(BN254, KernelOptimisations(True, True))
        assert ec_op_cost(spilling, "pacc", NVIDIA_A100).shm_traffic_bytes > 0
        assert ec_op_cost(plain, "pacc", NVIDIA_A100).shm_traffic_bytes == 0


class TestRates:
    def test_mnt_slower_per_op(self):
        """Paper: DistMSM's PADD kernel takes ~5.2x longer on MNT4753 than
        on BLS12-377 (4x the arithmetic + register pressure)."""
        mnt_rate = ec_op_rate(KernelDescriptor(MNT, FULL), "pacc", NVIDIA_A100)
        bls_rate = ec_op_rate(KernelDescriptor(BLS377, FULL), "pacc", NVIDIA_A100)
        ratio = bls_rate / mnt_rate
        assert 4.0 < ratio < 6.5

    def test_hip_platform_penalty(self):
        """HIP-compiled kernels pay the toolchain penalty on AMD; OpenCL
        kernels on the same GPU do not (paper Fig. 9's asymmetry)."""
        desc = KernelDescriptor(BN254, NONE)
        hip_rate = sustained_int32_rate(desc, "pacc", AMD_6900XT, api="hip")
        opencl_rate = sustained_int32_rate(desc, "pacc", AMD_6900XT, api="opencl")
        assert hip_rate < opencl_rate
        # on a CUDA platform the HIP path is native — no penalty
        cuda_hip = sustained_int32_rate(desc, "pacc", NVIDIA_A100, api="hip")
        cuda_native = sustained_int32_rate(desc, "pacc", NVIDIA_A100, api="cuda")
        assert cuda_hip == cuda_native

    def test_underfilled_gpu_loses_rate(self):
        desc = KernelDescriptor(BN254, FULL)
        full = sustained_int32_rate(desc, "pacc", NVIDIA_A100)
        starved = sustained_int32_rate(desc, "pacc", NVIDIA_A100, active_threads=1000)
        assert starved < full / 10

    def test_rtx4090_faster_than_a100(self):
        """Paper Fig. 9: RTX4090's higher int throughput wins for MSM."""
        desc = KernelDescriptor(BN254, FULL)
        assert ec_op_rate(desc, "pacc", RTX_4090) > ec_op_rate(desc, "pacc", NVIDIA_A100)

    def test_reference_rate_positive(self):
        assert reference_gpu_padd_rate(NVIDIA_A100) > 1e8


class TestTimeHelpers:
    def test_zero_count_zero_time(self):
        desc = KernelDescriptor(BN254, FULL)
        assert ec_ops_time_ms(desc, "pacc", 0, NVIDIA_A100) == 0.0

    def test_time_linear_in_count(self):
        desc = KernelDescriptor(BN254, FULL)
        t1 = ec_ops_time_ms(desc, "pacc", 1e6, NVIDIA_A100)
        t2 = ec_ops_time_ms(desc, "pacc", 2e6, NVIDIA_A100)
        assert t2 == pytest.approx(2 * t1)

    def test_cpu_time(self):
        assert cpu_ec_time_ms(1000, 0, 1e6) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            cpu_ec_time_ms(1, 1, 0)

    def test_transfer_and_launch(self):
        assert host_transfer_time_ms(25e9, NVIDIA_A100) == pytest.approx(1000.0)
        assert launch_overhead_ms(10, NVIDIA_A100) == pytest.approx(0.12)
        assert memory_read_time_ms(NVIDIA_A100.mem_bw_gbps * 1e9, NVIDIA_A100) == pytest.approx(1000.0)

    def test_occupancy_includes_spill_shm(self):
        spilling = KernelDescriptor(BLS377, FULL)
        occ = kernel_occupancy(spilling, "pacc", NVIDIA_A100)
        assert occ.occupancy > 0
