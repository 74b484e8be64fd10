"""Interval abstract interpretation: Montgomery bounds and peak re-derivation."""

from types import SimpleNamespace

import pytest

from repro.analyze.intervals import (
    PUBLISHED_PEAKS,
    Interval,
    analyze_kernels,
    derive_register_peaks,
    field_interval,
    interpret_dag,
    montmul_bounds,
    tc_accumulator_findings,
)
from repro.curves.params import curve_by_name, list_curves
from repro.fields.limbs import WORD_BITS
from repro.kernels.dag import build_pacc_dag, build_padd_dag


class TestInterval:
    def test_arithmetic_corners(self):
        a = Interval(1, 3)
        b = Interval(-2, 4)
        assert a + b == Interval(-1, 7)
        assert a - b == Interval(-3, 5)
        assert a * b == Interval(-6, 12)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(3, 1)

    def test_bits(self):
        assert Interval(0, 255).bits() == 8
        assert Interval(-256, 0).bits() == 9


class TestMontgomeryBounds:
    def test_one_conditional_subtraction_suffices(self):
        # the central claim: for every registered curve p < R, so
        # t = c + m*n < 2pR and u = t/R < 2p
        for curve in list_curves():
            r = 1 << (WORD_BITS * curve.num_limbs)
            x = field_interval(curve.p)
            bounds = montmul_bounds(x, x, curve.p, r)
            assert bounds.sum_t.hi < 2 * curve.p * r
            assert bounds.pre_subtract.hi < 2 * curve.p

    def test_all_registered_curves_discharge(self):
        for curve in list_curves():
            for dag in (build_padd_dag(), build_pacc_dag()):
                assert interpret_dag(dag, curve) == []

    def test_truncated_limb_allocation_refused(self):
        # p wider than R: the single conditional subtraction cannot hold
        real = curve_by_name("BLS12-381")
        fake = SimpleNamespace(name="BLS12-381/8", p=real.p, num_limbs=8)
        findings = interpret_dag(build_padd_dag(), fake, label="<t>")
        assert findings
        assert {f.rule for f in findings} == {"interval-overflow"}
        # both mul and sub intermediates blow the 8-limb claim
        assert any("reduction sum" in f.message for f in findings)
        assert any("modular-sub" in f.message for f in findings)

    def test_findings_carry_op_index_as_line(self):
        real = curve_by_name("BLS12-381")
        fake = SimpleNamespace(name="x", p=real.p, num_limbs=8)
        findings = interpret_dag(build_padd_dag(), fake)
        assert min(f.line for f in findings) == 1
        assert max(f.line for f in findings) <= len(build_padd_dag().ops)


class TestTcAccumulator:
    def test_registered_curves_fit_uint32(self):
        for curve in list_curves():
            assert tc_accumulator_findings(curve) == []

    def test_oversized_operand_overflows(self):
        # 2^32 / (255*255) ~ 66052 bytes; push past it and the u32 claim dies
        fake = SimpleNamespace(name="huge", num_limbs=17000)
        findings = tc_accumulator_findings(fake)
        assert [f.rule for f in findings] == ["interval-tc-accumulator"]


class TestRegisterPeaks:
    def test_rederivation_matches_paper(self):
        derived, findings = derive_register_peaks()
        assert findings == []
        assert derived == PUBLISHED_PEAKS
        assert derived["PADD"] == (11, 9)
        assert derived["PACC"] == (9, 7)

    def test_full_family_is_clean(self):
        findings, checks = analyze_kernels()
        assert findings == []
        # per-curve discharges for both DAGs plus TC plus the two peaks
        assert len(checks) == len(list_curves()) * 3 + 2

    @pytest.mark.parametrize("dag_name", sorted(PUBLISHED_PEAKS))
    def test_a_wrong_published_figure_is_flagged(self, dag_name, monkeypatch):
        written, optimal = PUBLISHED_PEAKS[dag_name]
        monkeypatch.setitem(PUBLISHED_PEAKS, dag_name, (written, optimal - 1))
        findings, checks = analyze_kernels()
        (finding,) = findings
        assert finding.rule == "interval-register-peak"
        assert finding.path == f"<{dag_name} dag>"
        assert f"optimal={optimal}" in finding.message
        assert not any(f"{dag_name} register peaks" in c for c in checks)
