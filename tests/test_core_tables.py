"""Regression tests: the paper's §6 worked examples (Tables 1-3).

These are the only ground-truth numbers in the paper, so they pin down the
formula-ambiguity resolutions documented in the README's "Design notes" §4.1–4.4.  All arithmetic
is exact (Fractions).
"""

from fractions import Fraction as F

import pytest

from repro.core.dp import AreaModel, DpTest, dp_test
from repro.core.gn1 import Gn1Test, Gn1Variant, gn1_test
from repro.core.gn2 import Gn2Test, gn2_test
from repro.core.workload import gn1_beta, gn2_beta, gn2_lambda_candidates


class TestAcceptRejectMatrix:
    """The headline claim of Tables 1-3: the three tests are incomparable."""

    def test_table1_dp_accepts(self, table1, fpga10):
        assert dp_test(table1, fpga10).accepted

    def test_table1_gn1_rejects(self, table1, fpga10):
        assert not gn1_test(table1, fpga10).accepted

    def test_table1_gn2_rejects(self, table1, fpga10):
        assert not gn2_test(table1, fpga10).accepted

    def test_table2_dp_rejects(self, table2, fpga10):
        assert not dp_test(table2, fpga10).accepted

    def test_table2_gn1_accepts(self, table2, fpga10):
        assert gn1_test(table2, fpga10).accepted

    def test_table2_gn2_rejects(self, table2, fpga10):
        assert not gn2_test(table2, fpga10).accepted

    def test_table3_dp_rejects(self, table3, fpga10):
        assert not dp_test(table3, fpga10).accepted

    def test_table3_gn1_rejects(self, table3, fpga10):
        assert not gn1_test(table3, fpga10).accepted

    def test_table3_gn2_accepts(self, table3, fpga10):
        assert gn2_test(table3, fpga10).accepted


class TestTable3WorkedNumbers:
    """§6 prints intermediate numbers for Table 3; reproduce them exactly."""

    def test_system_utilization_is_4_94(self, table3):
        assert table3.system_utilization == F("4.94")

    def test_dp_bound_for_tau2_is_4_85_ish(self, table3, fpga10):
        # (A(H) - Amax + 1)(1 - UT(τ2)) + US(τ2) = 4*(5/7) + 2 = 34/7
        res = dp_test(table3, fpga10)
        tau2 = next(v for v in res.per_task if v.task == "tau2")
        assert tau2.rhs == F(34, 7)
        assert not tau2.passed  # 4.94 > 34/7 ≈ 4.857

    def test_gn1_beta1_is_0_82(self, table3):
        # β1 = 4.1/5 — the paper normalizes by D_i (worked example).
        beta = gn1_beta(table3[0], table3[1])
        assert beta == F("4.1") / 5

    def test_gn1_lhs_is_5_for_tau2(self, table3, fpga10):
        res = gn1_test(table3, fpga10)
        tau2 = next(v for v in res.per_task if v.task == "tau2")
        assert tau2.lhs == 5  # 7 * min(0.82, 5/7) = 7 * 5/7
        assert tau2.rhs == F(20, 7)  # (10-7+1)*(1-2/7)
        assert not tau2.passed

    def test_gn2_betas_at_lambda_042(self, table3):
        lam = F("0.42")  # C1/T1
        tau1, tau2 = table3
        assert gn2_beta(tau1, tau1, lam) == F("0.42")
        # paper prints 0.29 (rounded); exact value is 2/7
        assert gn2_beta(tau2, tau1, lam) == F(2, 7)
        assert gn2_beta(tau1, tau2, lam) == F("0.42")
        assert gn2_beta(tau2, tau2, lam) == F(2, 7)

    def test_gn2_condition2_numbers(self, table3, fpga10):
        # (Abnd - Amin)(1-λ) + Amin = (4-7)(0.58) + 7 = 5.26
        # Σ A_i min(β,1) = 7*0.42 + 7*(2/7) = 4.94 < 5.26 -> accepted
        lam = F("0.42")
        abnd = 10 - 7 + 1
        amin = 7
        rhs = (abnd - amin) * (1 - lam) + amin
        assert rhs == F("5.26")
        lhs = 7 * F("0.42") + 7 * F(2, 7)
        assert lhs == F("4.94")
        assert lhs < rhs

    def test_gn2_witnesses_via_condition2(self, table3, fpga10):
        for k in range(2):
            witness = Gn2Test().find_witness(table3, fpga10, k)
            assert witness is not None
            assert witness.condition == 2
            assert witness.lam == F("0.42")


class TestTable1KnifeEdge:
    """Table 1 vs GN2 is an exact boundary: condition 2 holds with equality
    at λ = 0.19, so the printed `<=` would accept while the paper claims
    rejection.  README, "Design notes" §4.4."""

    def test_condition2_equality_at_lambda_019(self, table1):
        lam = F("0.19")
        tau1, tau2 = table1
        b1 = gn2_beta(tau1, tau1, lam)
        b2 = gn2_beta(tau2, tau1, lam)
        assert b1 == F("0.18")
        assert b2 == F("0.19")
        lhs = 9 * b1 + 6 * b2
        abnd, amin = 10 - 9 + 1, 6
        rhs = (abnd - amin) * (1 - lam) + amin
        assert lhs == rhs == F("2.76")

    def test_strict_variant_rejects_nonstrict_accepts(self, table1, fpga10):
        assert not Gn2Test(strict_condition2=True)(table1, fpga10).accepted
        assert Gn2Test(strict_condition2=False)(table1, fpga10).accepted

    def test_dp_equality_at_tau2_still_accepts(self, table1, fpga10):
        # DP's bound is `<=` and Table 1 also sits exactly on it for τ2.
        res = dp_test(table1, fpga10)
        tau2 = next(v for v in res.per_task if v.task == "tau2")
        assert tau2.lhs == tau2.rhs == F("2.76")
        assert res.accepted


class TestTable2Details:
    """Table 2 exercises the N_i = 0 carry-in-only path of Lemma 4."""

    def test_gn1_beta_with_zero_complete_jobs(self, table2):
        # window D1=8 < D2=9 -> N2 = 0, β2 = min(C2, D1)/D2 = 8/9
        beta = gn1_beta(table2[1], table2[0])
        assert beta == F(8, 9)

    def test_gn1_accepts_each_task(self, table2, fpga10):
        res = gn1_test(table2, fpga10)
        assert all(v.passed for v in res.per_task)

    def test_dp_rejects_at_tau1(self, table2, fpga10):
        res = dp_test(table2, fpga10)
        tau1 = next(v for v in res.per_task if v.task == "tau1")
        assert not tau1.passed
        # US(Γ) = 4.5*3/8 + 8*5/9 = 883/144
        assert tau1.lhs == F(27, 16) + F(40, 9)

    def test_gn2_rejects_for_tau1_regardless_of_lambda(self, table2, fpga10):
        assert Gn2Test().find_witness(table2, fpga10, 0) is None


class TestVariantSensitivity:
    """The "Design notes" §4.1–4.4 variants change verdicts only where expected."""

    def test_gn1_theorem_literal_still_matches_tables(self, table1, table2, table3, fpga10):
        literal = Gn1Test(Gn1Variant.THEOREM_LITERAL)
        assert not literal(table1, fpga10).accepted
        assert literal(table2, fpga10).accepted
        assert not literal(table3, fpga10).accepted

    def test_gn1_bcl_window_diverges_on_table1(self, table1, table2, table3, fpga10):
        # Normalizing the workload by the window D_k (BCL's convention)
        # instead of the printed D_i ACCEPTS Table 1 (β2 = 1.9/7 -> LHS
        # 1.6286 < 1.64) — evidence that the paper's own evaluation used
        # the printed /D_i form, which rejects it.
        bcl = Gn1Test(Gn1Variant.BCL_WINDOW)
        assert bcl(table1, fpga10).accepted
        assert bcl(table2, fpga10).accepted
        assert not bcl(table3, fpga10).accepted

    def test_dp_real_area_variant_rejects_table1(self, table1, fpga10):
        # With Danne's real-valued α the guaranteed-busy area drops from 2
        # to 1 column and Table 1 no longer fits — the integer-area
        # correction is exactly what makes DP accept it.
        assert not DpTest(AreaModel.REAL)(table1, fpga10).accepted

    def test_lambda_candidates_table3(self, table3):
        # D=T everywhere: candidates are the task utilizations >= C_k/T_k.
        cands = gn2_lambda_candidates(table3, table3[0])
        assert cands == [F("0.42")]
        cands2 = gn2_lambda_candidates(table3, table3[1])
        assert cands2 == [F(2, 7), F("0.42")]
