"""Unit tests for the failure-budget accounting."""

import math
from dataclasses import replace

import numpy as np
import pytest

from finitekey.bounds import BlockShape, SlackParams
from finitekey.optimizer import optimize
from finitekey.security import (
    EpsilonBreakdown,
    ProtocolSettings,
    SecurityBudget,
    correctness_bits,
    ec_leakage,
    eps_pa,
    feasible,
    max_ell_at,
    stream_budget,
)

REF_SHAPE = BlockShape(m=3100, k=1550)
REF_DELTA = 0.0451
REF_SLACK = SlackParams(nu=0.1141, xi=0.0693)


def ref_settings(ell=0, budget=None):
    budget = budget or SecurityBudget(6)
    return ProtocolSettings.for_budget(REF_SHAPE, REF_DELTA, budget, ell=ell)


class TestCorrectnessBits:
    def test_reference_values(self):
        assert correctness_bits(6) == 27
        assert correctness_bits(10) == 40

    def test_budget_fraction(self):
        # the correctness term stays within a percent of the target budget
        for s in range(1, 15):
            assert 2.0 ** (-correctness_bits(s)) <= 0.01 * 10.0 ** (-s)

    def test_errors(self):
        with pytest.raises(ValueError):
            correctness_bits(0)
        with pytest.raises(ValueError):
            correctness_bits(2.5)


class TestEcLeakage:
    def test_reference_values(self):
        assert ec_leakage(1550, 0.0451) == 490
        assert ec_leakage(1000, 0.5) == 1190

    def test_zero_rate(self):
        assert ec_leakage(100, 0.0) == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            ec_leakage(0, 0.1)
        with pytest.raises(ValueError):
            ec_leakage(100, 0.6)


class TestSecurityBudget:
    def test_derived_constants(self):
        b6 = SecurityBudget(6)
        assert b6.eps_qkd == 1e-6
        assert b6.t == 27
        assert b6.eps_correct == 2.0**-27
        assert SecurityBudget(10).t == 40

    def test_errors(self):
        with pytest.raises(ValueError):
            SecurityBudget(0)
        with pytest.raises(ValueError):
            SecurityBudget(6.0)

    def test_largest_budget_exponent(self):
        # t = 1020 at s = 305; t = 1024 at s = 306 makes eps_correct subnormal
        assert SecurityBudget(305).eps_correct == 2.0**-1020
        with pytest.raises(ValueError, match="at most 305"):
            SecurityBudget(306)


class TestProtocolSettings:
    def test_for_budget_fills_model_values(self):
        st = ref_settings(ell=6)
        assert st.r == 490
        assert st.ell == 6

    def test_leakage_is_derived(self):
        with pytest.raises(TypeError):
            ProtocolSettings(shape=REF_SHAPE, delta=0.1, r=490)
        assert not hasattr(ref_settings(), "t")

    def test_replace_derives_the_leakage_again(self):
        # a stale r would keep the 490 bits of n = 1550
        shape = BlockShape(m=4000, k=1000)
        st = replace(ref_settings(), shape=shape)
        assert st.r == ec_leakage(shape.n, REF_DELTA)
        assert st.r != 490
        assert replace(st, delta=0.1).r == ec_leakage(shape.n, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolSettings(shape=REF_SHAPE, delta=0.5)
        with pytest.raises(ValueError):
            ProtocolSettings(shape=REF_SHAPE, delta=0.1, ell=1551)


class TestEpsPa:
    def test_reference_value(self):
        got = eps_pa(ref_settings(ell=6), SecurityBudget(6), 0.1141)
        assert abs(got - 4.529736364786495e-08) / 4.529736364786495e-08 < 1e-12

    def test_increasing_in_ell(self):
        budget = SecurityBudget(6)
        vals = [eps_pa(ref_settings(ell=ell), budget, 0.1141) for ell in (0, 5, 50, 500)]
        assert vals == sorted(vals)
        assert vals[0] > 0.0

    def test_tag_length_comes_from_the_budget(self):
        # 13 more tag bits at s = 10 shrink the margin by 13 bits
        st = ref_settings(ell=6)
        s6, s10 = (eps_pa(st, SecurityBudget(s), 0.1141) for s in (6, 10))
        assert abs(s10 / s6 - 2.0**6.5) / 2.0**6.5 < 1e-12

    def test_clamped_to_one(self):
        # the whole raw key extracted at nu = 0.4 leaves a negative margin
        st = ProtocolSettings(shape=REF_SHAPE, delta=REF_DELTA, ell=REF_SHAPE.n)
        assert eps_pa(st, SecurityBudget(6), 0.4) == 1.0

    def test_errors(self):
        budget = SecurityBudget(6)
        with pytest.raises(ValueError):
            eps_pa(ref_settings(), budget, 0.0)
        with pytest.raises(ValueError):
            eps_pa(ref_settings(), budget, 0.96)
        with pytest.raises(ValueError):
            eps_pa(ref_settings(), budget, 0.5 - REF_DELTA)


class TestFeasible:
    def test_reference_point_two_term(self):
        bd, ok = feasible(ref_settings(ell=6), SecurityBudget(6), REF_SLACK, "lemma2")
        assert ok is True
        assert abs(bd.total - 8.798377393542362e-07) / 8.798377393542362e-07 < 1e-12
        assert bd.reason is None

    def test_reference_point_single_term(self):
        slack = SlackParams(nu=0.1141)
        bd, ok = feasible(ref_settings(ell=6), SecurityBudget(6), slack, "serfling")
        assert ok is False
        assert abs(bd.total - 8.361444088092846e-05) / 8.361444088092846e-05 < 1e-10

    def test_breakdown_identity(self):
        rng = np.random.default_rng(5)
        budget = SecurityBudget(6)
        for _ in range(50):
            m = int(rng.integers(50, 5000))
            k = int(rng.integers(1, m))
            shape = BlockShape(m=m, k=k)
            nu = rng.uniform(0.01, 0.45)
            xi = nu * rng.uniform(0.05, 0.95)
            delta = rng.uniform(0.01, 0.45)
            variant = "lemma2" if rng.random() < 0.5 else "serfling"
            st = ProtocolSettings.for_budget(shape, delta, budget)
            bd, _ = feasible(st, budget, SlackParams(nu=nu, xi=xi), variant)
            assert bd.eps_correct >= 0 and bd.eps_pe >= 0 and bd.eps_pa >= 0
            if math.isfinite(bd.total):
                assert bd.total == bd.eps_correct + 2.0 * bd.eps_pe + bd.eps_pa

    def test_precondition_reported_not_raised(self):
        shape = BlockShape(m=40, k=20)
        st = ProtocolSettings.for_budget(shape, 0.05, SecurityBudget(6))
        bd, ok = feasible(
            st, SecurityBudget(6), SlackParams(nu=0.06, xi=0.01), "lemma2"
        )
        assert ok is False
        assert bd.eps_pe == math.inf
        assert bd.reason is not None

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            feasible(ref_settings(), SecurityBudget(6), REF_SLACK, "hoeffding")
        with pytest.raises(ValueError):
            max_ell_at(ref_settings(), SecurityBudget(6), REF_SLACK, "hoeffding")

    def test_correctness_term_comes_from_the_budget(self):
        # settings built for s = 6 used to charge 2^-27 against 10^-10
        settings = ProtocolSettings.for_budget(
            REF_SHAPE, REF_DELTA, SecurityBudget(6), ell=6
        )
        budget = SecurityBudget(10)
        bd, _ = feasible(settings, budget, REF_SLACK, "lemma2")
        assert bd.eps_correct == budget.eps_correct == 2.0**-40
        assert bd.eps_pa == eps_pa(settings, budget, REF_SLACK.nu)


class TestMaxEll:
    def test_reference_point(self):
        budget = SecurityBudget(6)
        assert max_ell_at(ref_settings(), budget, REF_SLACK, "lemma2") == 9
        assert max_ell_at(ref_settings(), budget, SlackParams(nu=0.1141), "serfling") == 0

    def test_maximality(self):
        rng = np.random.default_rng(17)
        budget = SecurityBudget(3)
        checked = 0
        for _ in range(80):
            m = int(rng.integers(1500, 8000))
            k = int(rng.integers(m // 4, 3 * m // 4))
            shape = BlockShape(m=m, k=k)
            delta = rng.uniform(0.01, 0.06)
            nu = rng.uniform(0.05, 0.2)
            xi = nu * rng.uniform(0.2, 0.8)
            variant = "lemma2" if rng.random() < 0.5 else "serfling"
            st = ProtocolSettings.for_budget(shape, delta, budget)
            slack = SlackParams(nu=nu, xi=xi)
            ell = max_ell_at(st, budget, slack, variant)
            assert 0 <= ell <= shape.n
            if ell >= 1:
                assert feasible(replace(st, ell=ell), budget, slack, variant)[1]
                checked += 1
            if ell < shape.n:
                assert not feasible(replace(st, ell=ell + 1), budget, slack, variant)[1]
        assert checked > 10

    def test_matches_brute_force(self):
        budget = SecurityBudget(3)
        for m, k, delta, nu, xi, variant in (
            (60, 30, 0.05, 0.3, 0.1, "lemma2"),
            (60, 30, 0.05, 0.3, 0.0, "serfling"),
            (200, 100, 0.02, 0.2, 0.08, "lemma2"),
            (200, 60, 0.02, 0.25, 0.0, "serfling"),
        ):
            shape = BlockShape(m=m, k=k)
            st = ProtocolSettings.for_budget(shape, delta, budget)
            slack = SlackParams(nu=nu, xi=xi)
            brute = 0
            for ell in range(shape.n + 1):
                if feasible(replace(st, ell=ell), budget, slack, variant)[1]:
                    brute = ell
            got = max_ell_at(st, budget, slack, variant)
            assert got == brute

    def test_error_rate_past_half_has_no_key(self):
        # 1 - h2(delta + nu) grows again past 1/2: at nu = 0.9 this point
        # used to report 519 bits, where the best key at the block is 0
        budget = SecurityBudget(6)
        slack = SlackParams(nu=0.9)
        assert max_ell_at(ref_settings(), budget, slack, "serfling") == 0
        assert optimize(3100, REF_DELTA, budget, "serfling").ell == 0
        bd, ok = feasible(ref_settings(), budget, slack, "serfling")
        assert ok is False
        assert bd.total == math.inf
        assert "1/2" in bd.reason

    def test_zero_when_unavailable(self):
        shape = BlockShape(m=40, k=20)
        st = ProtocolSettings.for_budget(shape, 0.05, SecurityBudget(6))
        slack = SlackParams(nu=0.06, xi=0.01)
        assert max_ell_at(st, SecurityBudget(6), slack, "lemma2") == 0


class TestStreamBudget:
    def test_reference_values(self):
        assert stream_budget(1e-5, 1e-6) == 10
        assert stream_budget(1e-5, 3e-7) == 33

    def test_smaller_stream_than_attempt(self):
        assert stream_budget(1e-6, 1e-5) == 0

    def test_decimal_quotients_do_not_lose_an_attempt(self):
        assert stream_budget(1e-4, 1e-5) == 10
        assert stream_budget(3e-5, 1e-5) == 3

    def test_errors(self):
        with pytest.raises(ValueError):
            stream_budget(0.0, 1e-6)
        with pytest.raises(ValueError):
            stream_budget(1e-5, 0.0)
        with pytest.raises(ValueError):
            stream_budget(1e-5, -1e-6)
        with pytest.raises(ValueError):
            stream_budget(math.inf, 1e-6)

    @pytest.mark.parametrize("eps_qkd", [1e-300, 1e-10])
    def test_overflowing_quotient_rejected(self, eps_qkd):
        with pytest.raises(ValueError, match="overflows"):
            stream_budget(1e300, eps_qkd)
