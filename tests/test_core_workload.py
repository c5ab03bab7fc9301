"""Tests for the interference workload bounds (Lemma 4 and Lemma 7)."""

from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

from repro.core.workload import (
    bcl_workload_bound,
    gn1_beta,
    gn2_beta,
    gn2_lambda_candidates,
    gn2_lambda_candidates_from_values,
    lambda_candidate_values,
    max_complete_jobs,
)
from repro.model.task import Task, TaskSet


def _t(c, d, t, a=1, name=None):
    return Task(wcet=c, deadline=d, period=t, area=a, name=name or f"{c}-{d}-{t}")


class TestMaxCompleteJobs:
    def test_aligned_windows(self):
        # window D_k = 7, task (D=5, T=5): one complete job fits
        assert max_complete_jobs(7, _t(1, 5, 5)) == 1

    def test_window_shorter_than_deadline(self):
        # D_k = 8 < D_i = 9 -> zero complete jobs (Table 2 case)
        assert max_complete_jobs(8, _t(8, 9, 9)) == 0

    def test_clamped_to_zero_for_tiny_windows(self):
        assert max_complete_jobs(1, _t(1, 20, 5)) == 0

    def test_many_jobs(self):
        assert max_complete_jobs(20, _t(1, 5, 5)) == 4

    @given(st.integers(1, 40), st.integers(1, 20), st.integers(1, 20))
    def test_nonnegative(self, dk, di, ti):
        assert max_complete_jobs(dk, _t(1, di, ti)) >= 0


class TestBclWorkloadBound:
    def test_table3_value(self):
        # W_1 in window 7: N=1 complete job (C=2.1) + carry-in min(2.1, 7-5)=2
        w = bcl_workload_bound(_t(F("2.1"), 5, 5), 7)
        assert w == F("4.1")

    def test_carry_in_capped_by_wcet(self):
        # window 12, task (C=1, D=5, T=5): N=2, slack 12-10=2 > C -> carry = C
        assert bcl_workload_bound(_t(1, 5, 5), 12) == 3

    def test_zero_complete_jobs_pure_carry_in(self):
        assert bcl_workload_bound(_t(8, 9, 9), 8) == 8

    def test_workload_never_exceeds_window(self):
        # sanity: time work within a window of length L cannot exceed L
        for dk in range(1, 30):
            w = bcl_workload_bound(_t(2, 5, 5), dk)
            assert w <= dk

    @given(
        st.integers(1, 10), st.integers(1, 20), st.integers(1, 20), st.integers(1, 40)
    )
    def test_monotone_in_window(self, c, d, t, dk):
        task = _t(min(c, d), d, t)
        assert bcl_workload_bound(task, dk) <= bcl_workload_bound(task, dk + 1)


class TestGn1Beta:
    def test_paper_denominator_is_di(self):
        beta = gn1_beta(_t(F("2.1"), 5, 5), _t(2, 7, 7))
        assert beta == F("4.1") / 5

    def test_window_denominator_is_dk(self):
        beta = gn1_beta(_t(F("2.1"), 5, 5), _t(2, 7, 7), window_denominator=True)
        assert beta == F("4.1") / 7


class TestGn2Beta:
    def test_case1_light_task(self):
        # u_i <= λ: deadline-aligned carry-in geometry
        ti = _t(2, 10, 10)  # u = 0.2
        tk = _t(1, 5, 5)
        beta = gn2_beta(ti, tk, F("0.5"))
        # max(0.2, 0.2*(1-2) + 2/5) = max(0.2, 0.2) = 0.2
        assert beta == F("0.2")

    def test_case1_max_picks_carry_term(self):
        ti = _t(2, 4, 10)  # u = 0.2, D < T
        tk = _t(1, 20, 20)
        beta = gn2_beta(ti, tk, F("0.5"))
        # alt = 0.2*(1 - 4/20) + 2/20 = 0.16 + 0.1 = 0.26 > 0.2
        assert beta == F("0.26")

    def test_case3_heavy_task(self):
        ti = _t(8, 9, 9)  # u = 8/9, δ = 8/9
        tk = _t(F("4.5"), 8, 8)
        lam = F("0.5625")
        beta = gn2_beta(ti, tk, lam)
        # u > λ, λ < δ: u + (C - λD)/D_k = 8/9 + (8 - 5.0625)/8
        assert beta == F(8, 9) + (8 - lam * 9) / 8

    def test_case2_requires_post_period_deadline(self):
        # u_i > λ and λ >= δ_i possible only when D_i > T_i
        ti = _t(4, 10, 5)  # u = 0.8, δ = 0.4
        tk = _t(1, 5, 5)
        beta = gn2_beta(ti, tk, F("0.5"))
        assert beta == F("0.8")  # corrected C_i/T_i

    def test_case2_literal_reproduces_printed_typo(self):
        ti = _t(4, 10, 5)
        tk = _t(1, 5, 5)
        beta = gn2_beta(ti, tk, F("0.5"), literal_case2=True)
        assert beta == F(1, 5)  # C_k/T_k as printed

    def test_continuity_at_case_boundary(self):
        # case 3 at λ -> δ_i tends to u_i, which is case 2's value
        ti = _t(4, 10, 5)
        tk = _t(1, 5, 5)
        delta = F(4, 10)
        just_below = gn2_beta(ti, tk, delta - F(1, 10**9))
        at_boundary = gn2_beta(ti, tk, delta)
        assert abs(just_below - at_boundary) < F(1, 10**6)

    @given(st.fractions(min_value=F(1, 10), max_value=1))
    def test_beta_nonincreasing_in_lambda(self, lam):
        # larger λ (busier interval) can only lower the load-rate bound
        ti = _t(4, 10, 5)
        tk = _t(1, 5, 5)
        assert gn2_beta(ti, tk, lam) >= gn2_beta(ti, tk, lam + F(1, 10))


class TestLambdaCandidates:
    def test_filters_below_minimum(self):
        ts = TaskSet([_t(1, 10, 10, name="lo"), _t(8, 10, 10, name="hi")])
        cands = gn2_lambda_candidates(ts, ts.by_name("hi"))
        assert all(lam >= F(8, 10) for lam in cands)
        assert F(8, 10) in cands

    def test_includes_density_for_post_period_deadlines(self):
        ts = TaskSet([_t(2, 10, 10, name="a"), _t(4, 10, 5, name="b")])
        cands = gn2_lambda_candidates(ts, ts.by_name("a"))
        assert F(4, 10) in cands  # density of b (D > T)
        assert F(8, 10) in cands  # utilization of b

    def test_sorted_unique(self):
        ts = TaskSet([_t(1, 5, 5, name="a"), _t(2, 10, 10, name="b")])
        cands = gn2_lambda_candidates(ts, ts.by_name("a"))
        assert cands == sorted(set(cands))

    def test_per_task_contributions(self):
        # D <= T: only the utilization; D > T adds the density.
        assert lambda_candidate_values(_t(2, 10, 10)) == [F(1, 5)]
        assert lambda_candidate_values(_t(2, 8, 10)) == [F(1, 5)]
        assert lambda_candidate_values(_t(4, 10, 5)) == [F(4, 5), F(2, 5)]

    def test_from_values_keeps_minimum_and_filters(self):
        pool = [F(1, 2), F(1, 10), F(3, 4), F(1, 2)]
        assert gn2_lambda_candidates_from_values(pool, F(1, 4)) == [F(1, 4), F(1, 2), F(3, 4)]
        assert gn2_lambda_candidates_from_values([], F(1, 3)) == [F(1, 3)]

    def test_from_values_matches_taskset_form(self):
        ts = TaskSet([_t(1, 5, 5, name="a"), _t(4, 10, 5, name="b"), _t(3, 12, 10, name="c")])
        pool = [v for t in ts for v in lambda_candidate_values(t)]
        for k in ts:
            assert gn2_lambda_candidates(ts, k) == gn2_lambda_candidates_from_values(
                pool, k.time_utilization
            )
