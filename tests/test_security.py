"""Unit tests for the failure-budget accounting."""

import math
from dataclasses import replace

import numpy as np
import pytest

from finitekey import security
from finitekey.bounds import (
    BlockShape,
    SlackParams,
    binary_entropy,
    exact_joint_ppe,
    lemma2_ppe_bound,
    max_passing_pe_errors,
    min_alarming_key_errors,
    serfling_epe,
)
from finitekey.optimizer import OptimizationPoint, min_block_length, optimize
from finitekey.security import (
    EpsilonBreakdown,
    ProtocolSettings,
    SecurityBudget,
    ec_leakage,
    eps_pa,
    feasible,
    max_ell_at,
    stream_budget,
)
from finitekey.simulator import SimConfig, run

REF_SHAPE = BlockShape(m=3100, k=1550)
REF_DELTA = 0.0451
REF_SLACK = SlackParams(nu=0.1141, xi=0.0693)


def ref_settings(ell=0, budget=None):
    budget = budget or SecurityBudget(6)
    return ProtocolSettings.for_budget(REF_SHAPE, REF_DELTA, budget, ell=ell)


# Counts and what is computed from them, once as numpy integers and once as
# ints.  Numpy arithmetic on the raw counts wrapped: n k^2 at m = 5e6, s + 2
# at s = np.uint8(255), and n = m - k for unsigned types.
_COUNT_CASES = [
    ((5_000_000, 2_500_000), lambda m, k: serfling_epe(BlockShape(m, k), 0.01)),
    ((10**9, 5 * 10**8), lambda m, k: max_ell_at(
        ProtocolSettings(BlockShape(m, k), 0.0451), SecurityBudget(6), SlackParams(0.001),
        "serfling",
    )),
    ((10**9, 5 * 10**8, 207_406_026), lambda m, k, ell: feasible(
        ProtocolSettings(BlockShape(m, k), 0.0451, ell), SecurityBudget(6), SlackParams(0.001),
        "serfling",
    )),
    ((255,), lambda s: SecurityBudget(s).t),
    ((60, 30), lambda m, k: run(SimConfig(
        shape=BlockShape(m, k), w=12, delta=0.1, nu=0.3, trials=1000, seed=1,
    )).exact),
]


@pytest.mark.parametrize(
    "dtype",
    [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64],
    ids=lambda dtype: dtype.__name__,
)
def test_numpy_counts_are_kept_as_ints(dtype):
    info = np.iinfo(dtype)
    for values, case in _COUNT_CASES:
        if info.min <= min(values) and max(values) <= info.max:
            assert case(*map(dtype, values)) == case(*values), values
    shape = BlockShape(dtype(60), dtype(30))
    budget, settings = SecurityBudget(dtype(6)), ProtocolSettings(shape, 0.1, dtype(5))
    assert {type(v) for v in (shape.m, shape.k, budget.s, settings.ell)} == {int}
    # unsigned, 10 - 20 wrapped to n = 246
    with pytest.raises(ValueError, match="one key bit"):
        BlockShape(dtype(10), dtype(20))


# Every site that takes a count, called with the flag ``b`` as that count.
_SHAPE = BlockShape(60, 30)
_BOOL_COUNT_SITES = {
    "BlockShape.m": lambda b: BlockShape(b, 30),
    "BlockShape.k": lambda b: BlockShape(60, b),
    "SecurityBudget": lambda b: SecurityBudget(b),
    "ProtocolSettings.ell": lambda b: ProtocolSettings(_SHAPE, 0.1, b),
    "ec_leakage": lambda b: ec_leakage(b, 0.1),
    "SimConfig.w": lambda b: SimConfig(_SHAPE, b, 0.1, 0.3, 100, 1),
    "SimConfig.trials": lambda b: SimConfig(_SHAPE, 12, 0.1, 0.3, b, 1),
    "SimConfig.seed": lambda b: SimConfig(_SHAPE, 12, 0.1, 0.3, 100, b),
    "exact_joint_ppe": lambda b: exact_joint_ppe(_SHAPE, 0.1, 0.3, b),
    "optimize": lambda b: optimize(b, 0.0451, SecurityBudget(6), "serfling"),
    "min_block_length": lambda b: min_block_length(
        0.0451, SecurityBudget(6), "serfling", b, 20000
    ),
}


@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "np.bool"])
@pytest.mark.parametrize("site", list(_BOOL_COUNT_SITES))
def test_bools_are_not_counts(site, flag):
    # Python's bool is an int, so operator.index took True as 1
    with pytest.raises(ValueError, match="must be an integer"):
        _BOOL_COUNT_SITES[site](flag)


# Every site that takes a rate ``delta`` or a deviation ``nu`` through
# bounds.check_rate or bounds.check_deviation, with the flag ``b`` there.
_BOOL_RATE_SITES = {
    "SlackParams.nu": lambda b: SlackParams(b),
    "serfling_epe.nu": lambda b: serfling_epe(_SHAPE, b),
    "lemma2_ppe_bound.delta": lambda b: lemma2_ppe_bound(_SHAPE, b, SlackParams(0.3, 0.1)),
    "max_passing_pe_errors.delta": lambda b: max_passing_pe_errors(_SHAPE, b),
    "min_alarming_key_errors.delta": lambda b: min_alarming_key_errors(_SHAPE, b, 0.3),
    "min_alarming_key_errors.nu": lambda b: min_alarming_key_errors(_SHAPE, 0.1, b),
    "exact_joint_ppe.delta": lambda b: exact_joint_ppe(_SHAPE, b, 0.3, 12),
    "exact_joint_ppe.nu": lambda b: exact_joint_ppe(_SHAPE, 0.1, b, 12),
    "eps_pa.nu": lambda b: eps_pa(ProtocolSettings(_SHAPE, 0.1), SecurityBudget(6), b),
    "SimConfig.delta": lambda b: SimConfig(_SHAPE, 12, b, 0.3, 100, 1),
    "SimConfig.nu": lambda b: SimConfig(_SHAPE, 12, 0.1, b, 100, 1),
}
_RANGE_MESSAGES = {"delta": r"delta must lie in \[0, 1\]", "nu": r"nu must lie in \(0, 1\]"}


@pytest.mark.parametrize(
    "site, flag",
    [
        pytest.param(site, flag, id=f"{site}-{flag!r}")
        for site in _BOOL_RATE_SITES
        # False is 0, which a deviation refuses anyway
        for flag in ((True, np.True_, False) if site.endswith(".delta") else (True, np.True_))
    ],
)
def test_bools_are_not_rates_or_deviations(site, flag):
    # 0 <= True <= 1, so the range checks took a flag as 1
    with pytest.raises(ValueError, match=_RANGE_MESSAGES[site.rsplit(".", 1)[1]]):
        _BOOL_RATE_SITES[site](flag)


# Every other range rule, with the flag ``b`` there and the message it gives.
_BOOL_RANGE_SITES = {
    "binary_entropy": (binary_entropy, r"in \[0, 1\]"),
    "binary_entropy.array": (lambda b: binary_entropy([b, b]), r"in \[0, 1\]"),
    "stream_budget.eps_stream": (lambda b: stream_budget(b, 1e-6), "eps_stream must be"),
    "stream_budget.eps_qkd": (lambda b: stream_budget(1e-5, b), "eps_qkd must be"),
    "ec_leakage.delta": (lambda b: ec_leakage(10, b), r"delta must lie in \[0, 0.5\]"),
    "SlackParams.xi": (lambda b: SlackParams(0.3, xi=b), "xi must lie"),
    "OptimizationPoint.alpha": (
        lambda b: OptimizationPoint(alpha=b, beta=0.5, nu=0.1, xi=0.05), "alpha must lie"
    ),
}


@pytest.mark.parametrize(
    "flag", [True, False, np.True_, np.False_], ids=["True", "False", "np.True_", "np.False_"]
)
@pytest.mark.parametrize("site", list(_BOOL_RANGE_SITES))
def test_bools_are_refused_by_every_range_rule(site, flag):
    # each range admits 0 or 1, so it took a flag as that number
    call, message = _BOOL_RANGE_SITES[site]
    with pytest.raises(ValueError, match=message):
        call(flag)


class TestCorrectnessBits:
    """The tag length t = ceil((s + 2) log2 10) that SecurityBudget derives."""

    def test_reference_values(self):
        assert SecurityBudget(6).t == 27
        assert SecurityBudget(10).t == 40

    def test_budget_fraction(self):
        # the correctness term stays within a percent of the target budget
        for s in range(1, 15):
            assert 2.0 ** (-SecurityBudget(s).t) <= 0.01 * 10.0 ** (-s)

    def test_errors(self):
        with pytest.raises(ValueError):
            SecurityBudget(0)
        with pytest.raises(ValueError):
            SecurityBudget(2.5)

    def test_integer_types(self):
        # any integer type, as BlockShape takes; a float, even 6.0, is not
        assert SecurityBudget(np.int64(6)).t == 27
        with pytest.raises(ValueError, match="integer"):
            SecurityBudget(6.0)


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

    def test_block_length_must_be_an_integer(self):
        # any integer type, as BlockShape takes; a float, even 1550.0, is not
        assert ec_leakage(np.int64(1550), 0.0451) == 490
        for n in (1550.5, 1550.0):
            with pytest.raises(ValueError, match="integer"):
                ec_leakage(n, 0.0451)


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

    def test_numpy_integer_accepted(self):
        budget = SecurityBudget(np.int64(6))
        assert budget == SecurityBudget(6)
        assert (budget.t, budget.eps_qkd) == (27, 1e-6)

    def test_largest_budget_exponent(self):
        # t = 1020 at s = 305; t = 1024 at s = 306 makes eps_correct subnormal
        assert SecurityBudget(305).eps_correct == 2.0**-1020
        with pytest.raises(ValueError, match="at most 305"):
            SecurityBudget(306)
        # compared as an integer: 10.0 ** -s overflowed here
        with pytest.raises(ValueError, match="at most 305"):
            SecurityBudget(10**400)


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

    @pytest.mark.parametrize("ell", [2.5, 2.0])
    def test_non_integral_ell_rejected(self, ell):
        # eps_pa would charge 2.5 bits
        with pytest.raises(ValueError, match="integer"):
            ProtocolSettings(shape=REF_SHAPE, delta=REF_DELTA, ell=ell)

    def test_numpy_integer_ell_accepted(self):
        budget = SecurityBudget(6)
        st = ProtocolSettings(shape=REF_SHAPE, delta=REF_DELTA, ell=np.int64(6))
        assert eps_pa(st, budget, 0.1141) == eps_pa(ref_settings(ell=6), budget, 0.1141)


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

    # (m, k, delta, nu, xi, variant); the first four have no headroom and
    # return before the closed form, the last two have keys (137 and 178 bits)
    BRUTE_FORCE_CASES = (
        (60, 30, 0.05, 0.3, 0.1, "lemma2"),
        (60, 30, 0.05, 0.3, 0.0, "serfling"),
        (200, 100, 0.02, 0.2, 0.08, "lemma2"),
        (200, 60, 0.02, 0.25, 0.0, "serfling"),
        (2000, 1000, 0.02, 0.15, 0.07, "lemma2"),
        (1500, 700, 0.01, 0.15, 0.0, "serfling"),
    )

    def test_matches_brute_force(self):
        budget = SecurityBudget(3)
        for m, k, delta, nu, xi, variant in self.BRUTE_FORCE_CASES:
            shape = BlockShape(m=m, k=k)
            st = ProtocolSettings.for_budget(shape, delta, budget)
            slack = SlackParams(nu=nu, xi=xi)
            brute = 0
            for ell in range(shape.n + 1):
                if feasible(replace(st, ell=ell), budget, slack, variant)[1]:
                    brute = ell
            got = max_ell_at(st, budget, slack, variant)
            assert got == brute

    @pytest.mark.parametrize("error", [-1, -3, 2])
    def test_nudges_correct_the_closed_form(self, monkeypatch, error):
        # the closed form is exact to rounding, so the upward nudge never ran;
        # off by whole bits, the nudges must still reach the brute-force maximum
        bound = security._ell_bound
        monkeypatch.setattr(security, "_ell_bound", lambda *args: bound(*args) + error)
        self.test_matches_brute_force()

    def test_error_rate_past_half_has_no_key(self, monkeypatch):
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
        # past 1/2 the refusal comes before any PE bound is evaluated

        def unreachable(*args):
            raise AssertionError("a PE bound was evaluated past 1/2")

        monkeypatch.setattr(security, "serfling_epe", unreachable)
        monkeypatch.setattr(security, "new_epe", unreachable)
        for variant, split in (("serfling", slack), ("lemma2", SlackParams(0.9, 0.1))):
            bd, ok = feasible(ref_settings(), budget, split, variant)
            assert ok is False and "1/2" in bd.reason

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

    @pytest.mark.parametrize(
        "eps_stream, expected", [(9.9999999995e-6, 9), (2.9999999999e-6, 2)]
    )
    def test_no_attempt_beyond_the_stream_budget(self, eps_stream, expected):
        # a quotient just below an integer is not snapped up to it: one more
        # attempt of 1e-6 would spend more than eps_stream
        assert stream_budget(eps_stream, 1e-6) == expected

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
