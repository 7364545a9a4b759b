"""Unit tests for the tail bounds, their kernels and the exact oracle."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import finitekey.bounds
from finitekey.bounds import (
    BlockShape,
    BoundUnavailableError,
    SlackParams,
    _gamma_factor,
    _h2,
    _hush_scovel_factor,
    _hush_scovel_tail,
    _key_factor,
    _sample_rate,
    _serfling_rate,
    _serfling_tail,
    _window_tail,
    binary_entropy,
    exact_joint_ppe,
    lemma2_ppe_bound,
    lemma2_ppe_detail,
    max_passing_pe_errors,
    min_alarming_key_errors,
    new_epe,
    serfling_epe,
    snap_ceil,
    snap_floor,
)
from finitekey.security import (
    ProtocolSettings,
    SecurityBudget,
    _leakage,
    _margin,
    ec_leakage,
    eps_pa,
)
from finitekey.optimizer import OptimizationPoint
from finitekey.simulator import SimConfig

from oracle_utils import frac_window_tail, loop_window_tail, mp_window_tail

# Reference operating point used throughout: a 3100-bit block split in half,
# tolerated rate 0.0451, deviation 0.1141 split at 0.0693.
REF_SHAPE = BlockShape(m=3100, k=1550)
REF_DELTA = 0.0451
REF_SLACK = SlackParams(nu=0.1141, xi=0.0693)


def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestShapeTypes:
    def test_n_derived(self):
        shape = BlockShape(m=10, k=4)
        assert shape.n == 6

    def test_explicit_n_checked(self):
        # n is derived from m and k, never passed
        with pytest.raises(TypeError):
            BlockShape(m=10, k=4, n=6)

    def test_replace_derives_n_again(self):
        assert replace(BlockShape(m=10, k=4), k=5).n == 5

    @pytest.mark.parametrize("m", [60.5, 60.0])
    def test_non_integral_size_rejected(self, m):
        with pytest.raises(ValueError, match="integer"):
            BlockShape(m=m, k=30)
        with pytest.raises(ValueError, match="integer"):
            BlockShape(m=60, k=m / 2)

    def test_block_size_below_2_53(self):
        # above 2^53 a count is no longer exact in float64
        assert BlockShape(m=2**53 - 1, k=30).n == 2**53 - 31
        for m in (2**53, 10**20):
            with pytest.raises(ValueError, match="below 2\\^53"):
                BlockShape(m=m, k=30)

    def test_numpy_integer_accepted(self):
        shape = BlockShape(m=np.int64(60), k=30)
        assert shape.n == 30
        assert serfling_epe(shape, 0.1) == serfling_epe(BlockShape(m=60, k=30), 0.1)

    def test_degenerate_sides_rejected(self):
        with pytest.raises(ValueError):
            BlockShape(m=5, k=5)
        with pytest.raises(ValueError):
            BlockShape(m=5, k=0)

    def test_slack_validation(self):
        with pytest.raises(ValueError):
            SlackParams(nu=0.0)
        with pytest.raises(ValueError):
            SlackParams(nu=0.1, xi=0.1)
        with pytest.raises(ValueError):
            SlackParams(nu=0.1, xi=-0.01)
        with pytest.raises(ValueError):
            SlackParams(nu=math.nan)
        assert SlackParams(nu=0.2, xi=0.05).nu_prime == pytest.approx(0.15)

    @pytest.mark.parametrize("nu", [1.5, 1e308, math.nan, math.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda nu: SlackParams(nu=nu),
            lambda nu: serfling_epe(REF_SHAPE, nu),
            lambda nu: min_alarming_key_errors(REF_SHAPE, REF_DELTA, nu),
            lambda nu: exact_joint_ppe(REF_SHAPE, REF_DELTA, nu, 155),
            lambda nu: eps_pa(ProtocolSettings(REF_SHAPE, REF_DELTA), SecurityBudget(6), nu),
            lambda nu: SimConfig(REF_SHAPE, w=155, delta=REF_DELTA, nu=nu, trials=10, seed=0),
            lambda nu: OptimizationPoint(alpha=0.0, beta=0.5, nu=nu, xi=0.0),
        ],
        ids=[
            "SlackParams", "serfling_epe", "min_alarming_key_errors",
            "exact_joint_ppe", "eps_pa", "SimConfig", "OptimizationPoint",
        ],
    )
    def test_deviation_rule(self, build, nu):
        # one rule, 0 < nu <= 1, checked before any arithmetic: nu = 1e308
        # reached SimConfig's run, where (delta + nu) n overflowed
        with pytest.raises(ValueError, match=r"nu must lie in \(0, 1\], got"):
            build(nu)


class TestSnapHelpers:
    def test_products_snap(self):
        # 0.15 * 3100 is 464.99999999999994 in floats but means 465
        assert snap_floor(0.15 * 3100) == 465
        assert snap_ceil(0.15 * 3100) == 465
        assert snap_floor(0.1 * 30) == 3
        assert snap_ceil(1e-4 / 1e-5) == 10

    def test_plain_cases_unchanged(self):
        assert snap_floor(3.2) == 3
        assert snap_ceil(3.2) == 4
        assert snap_floor(-1.5) == -2
        assert snap_ceil(-1.5) == -1

    def test_positive_value_never_snaps_to_zero(self):
        # 1e-12 is within the tolerance of 0, but a positive count needs one
        assert snap_ceil(1e-12) == 1
        assert snap_floor(1e-12) == 0
        assert snap_ceil(0.0) == snap_floor(0.0) == 0


class TestBinaryEntropy:
    def test_reference_value(self):
        assert rel_err(binary_entropy(0.0451), 0.26520561658385877) < 1e-12
        assert rel_err(binary_entropy(0.0451), 0.2652) < 1e-4

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        xs = rng.uniform(1e-9, 1.0 - 1e-9, size=300)
        np.testing.assert_allclose(
            binary_entropy(xs), binary_entropy(1.0 - xs), rtol=1e-9, atol=1e-12
        )

    def test_array_shape(self):
        out = binary_entropy(np.array([[0.1, 0.2], [0.0, 1.0]]))
        assert out.shape == (2, 2)
        assert out[1, 0] == 0.0 and out[1, 1] == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)
        with pytest.raises(ValueError):
            binary_entropy(math.nan)


class TestSerflingEpe:
    def test_reference_value(self):
        got = serfling_epe(REF_SHAPE, 0.1141)
        assert rel_err(got, 4.1780846468341834e-05) < 1e-12

    def test_decreasing_in_nu(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            nu = rng.uniform(0.01, 0.4)
            step = rng.uniform(0.001, 0.05)
            assert serfling_epe(REF_SHAPE, nu + step) < serfling_epe(REF_SHAPE, nu)

    def test_range(self):
        assert 0.0 < serfling_epe(BlockShape(m=10, k=5), 0.01) <= 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            serfling_epe(REF_SHAPE, 0.0)
        with pytest.raises(ValueError):
            serfling_epe(REF_SHAPE, math.inf)


class TestSerflingLowerTail:
    """The two-term bound's sample term: `_serfling_tail` at `_sample_rate`."""

    def test_decreasing_in_xi(self):
        m, k, n = REF_SHAPE.m, REF_SHAPE.k, REF_SHAPE.n
        xi = np.array([0.01, 0.02, 0.05, 0.1])
        vals = _serfling_tail(_sample_rate(m, k, n), xi).tolist()
        assert vals == sorted(vals, reverse=True)


class TestGammaFactor:
    def test_reference_value(self):
        assert rel_err(_gamma_factor(100, 10), 0.1018981018981019) < 1e-12
        assert rel_err(_gamma_factor(100, 10), 0.10190) < 1e-4

    def test_decreasing_below_half(self):
        rng = np.random.default_rng(11)
        m = rng.integers(4, 5000, size=200)
        b = rng.integers(1, m // 2 + 1)
        a = rng.integers(0, b)
        assert np.all(_gamma_factor(m, a) >= _gamma_factor(m, b))

    def test_symmetry(self):
        for m in (10, 57, 200):
            a = np.arange(m + 1)
            np.testing.assert_allclose(_gamma_factor(m, a), _gamma_factor(m, m - a))

    @pytest.mark.parametrize("m", [100, 3101, 20000, 10**6])
    def test_slope_matches_derivative(self, m):
        # the xi-slope of gamma(m (delta + xi)), on both sides of m/4; gamma
        # itself is the plain call's, bit for bit
        m_err = np.array([m // 10, m // 5, m // 4 + 3, m // 3, m // 2 - 1], dtype=float)
        gamma, slope = _gamma_factor(float(m), m_err, slope=True)
        assert gamma.tobytes() == _gamma_factor(float(m), m_err).tobytes()
        delta = mp.mpf("0.0451")

        def exact(xi):
            errors = m * (delta + xi)
            return 1 / (errors + 1) + 1 / (m - errors + 1)

        with mp.workdps(40):
            for errors, got in zip(m_err, slope):
                want = mp.diff(exact, mp.mpf(errors) / m - delta)
                assert rel_err(got, float(want)) < 1e-10, errors

    @pytest.mark.parametrize("m", [10, 11, 3100, 3101])
    def test_form_switches_past_half(self, m):
        # gamma alone while m_err <= m // 2, the sharp max from m // 2 + 1 on
        k = m // 3
        sharp = 1.0 / (m - k + 1.0) + 1.0 / (k + 1.0)
        for m_err in range(m + 1):
            gamma = _gamma_factor(m, m_err)
            factor, relaxed = _key_factor(m, k, m_err)
            assert relaxed == (m_err <= m // 2)
            assert factor == (gamma if relaxed else max(sharp, gamma))


def _key_tail(shape, m_err, dev, relaxed):
    """The Hush-Scovel key-side tail at ``m_err`` errors, from the kernels."""
    gamma = _gamma_factor(shape.m, m_err)
    factor = gamma if relaxed else _hush_scovel_factor(shape.k, shape.n, gamma)
    return float(_hush_scovel_tail(factor, shape.n, dev))


class TestHushScovelTail:
    def test_relaxed_never_smaller(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(10, 2000))
            k = int(rng.integers(1, m))
            shape = BlockShape(m=m, k=k)
            m_err = int(rng.integers(0, m + 1))
            dev = rng.uniform(1.5 / shape.n, 1.0) if shape.n > 1 else 1.9
            if (shape.n * dev) ** 2 <= 1.0:
                continue
            sharp = _key_tail(shape, m_err, dev, relaxed=False)
            relaxed = _key_tail(shape, m_err, dev, relaxed=True)
            assert relaxed >= sharp

    def test_sound_against_exact_tail(self):
        # with m_err errors in the block, the chance of the key-side rate
        # exceeding m_err/m + dev must not exceed the bound
        for m, k in ((12, 6), (20, 5), (30, 15), (30, 10)):
            shape = BlockShape(m=m, k=k)
            n = shape.n
            for m_err in range(0, m + 1):
                for dev in (1.2 / n, 2.0 / n, 3.5 / n):
                    if (n * dev) ** 2 <= 1.0 or dev >= 1.0:
                        continue
                    j_lo = snap_ceil(n * (m_err / m + dev))
                    exact = float(frac_window_tail(m, m_err, n, j_lo))
                    for relaxed in (False, True):
                        bound = _key_tail(shape, m_err, dev, relaxed=relaxed)
                        assert exact <= bound + 1e-15


class TestKernels:
    def test_arrays_match_scalar_api(self):
        # one kernel call on arrays equals the scalar API element by element
        rng = np.random.default_rng(23)
        size = 300
        m = rng.integers(10, 20001, size=size)
        k = rng.integers(1, m // 2 + 1)
        n = m - k
        nu = rng.uniform(0.005, 0.45, size=size)
        xi = nu * rng.uniform(0.02, 0.98, size=size)
        dev = nu - xi
        delta = rng.uniform(0.0, 0.5, size=size)
        mf, kf, nf = (v.astype(float) for v in (m, k, n))
        epe = _serfling_tail(_serfling_rate(mf, kf, nf), nu)
        # the two-term bound's terms at its own m_err = ceil(m (delta + xi))
        m_err = np.array([snap_ceil(v) for v in (mf * (delta + xi)).tolist()])
        lower = _serfling_tail(_sample_rate(mf, kf, nf), xi)
        factor, relaxed = _key_factor(mf, kf, m_err)
        key = _hush_scovel_tail(factor, nf, dev)
        entropy = _h2(nu)
        leak = np.ceil(_leakage(nf, _h2(delta)))
        checked = 0
        forms = set()
        for i in range(size):
            shape = BlockShape(m=int(m[i]), k=int(k[i]))
            assert epe[i] == serfling_epe(shape, float(nu[i]))
            assert entropy[i] == binary_entropy(float(nu[i]))
            assert leak[i] == ec_leakage(int(n[i]), float(delta[i]))
            if (n[i] * dev[i]) ** 2 > 1.0:
                checked += 1
                slack = SlackParams(nu=float(nu[i]), xi=float(xi[i]))
                d = lemma2_ppe_detail(shape, float(delta[i]), slack)
                assert d["m_err"] == m_err[i]
                assert d["alpha_form"] is not bool(relaxed[i])
                assert d["sample_term"] == lower[i]
                assert d["key_term"] == key[i]
                forms.add(d["alpha_form"])
        assert checked > size // 2
        # both forms of the factor occur where the bound is defined
        assert forms == {False, True}
        # the leakage's kernel route agrees with binary_entropy, endpoints too
        for i, d in enumerate([*delta.tolist(), 0.0, 0.5]):
            ni = int(n[i % size])
            assert ec_leakage(ni, d) == math.ceil(1.19 * binary_entropy(d) * ni)
        # eps_pa is (1/2) 2^((ell - margin) / 2), clamped to one
        budget = SecurityBudget(6)
        ell = rng.integers(0, n + 1)
        q = delta + nu
        margin = _margin(nf, _h2(q), leak, budget.t)
        inside = np.flatnonzero((delta > 0.0) & (q < 0.5))
        for i in inside:
            shape = BlockShape(m=int(m[i]), k=int(k[i]))
            settings = ProtocolSettings(shape, float(delta[i]), int(ell[i]))
            half = 0.5 * (int(ell[i]) - float(margin[i]))
            want = 1.0 if half >= 1.0 else 0.5 * 2.0**half
            assert eps_pa(settings, budget, float(nu[i])) == want
        assert len(inside) > size // 4


class TestLemma2Bound:
    def test_reference_value(self):
        got = lemma2_ppe_bound(REF_SHAPE, REF_DELTA, REF_SLACK)
        assert rel_err(got, 1.710193822935469e-13) < 1e-12

    def test_detail_fields(self):
        d = lemma2_ppe_detail(REF_SHAPE, REF_DELTA, REF_SLACK)
        assert d["m_err"] == 355
        assert d["alpha_form"] is False
        assert d["clamped"] is False
        assert d["value"] == d["sample_term"] + d["key_term"]
        assert rel_err(d["sample_term"], 1.1940677834177585e-13) < 1e-12
        assert rel_err(d["key_term"], 5.1612603951771043e-14) < 1e-12

    def test_clamped_case(self):
        # loose parameters at tiny m push the raw sum past one
        d = lemma2_ppe_detail(
            BlockShape(m=10, k=5), 0.4, SlackParams(nu=0.5, xi=0.25)
        )
        assert d["raw"] > 1.0
        assert d["clamped"] is True
        assert d["value"] == 1.0
        assert d["alpha_form"] is True

    def test_new_epe_is_sqrt(self):
        got = new_epe(REF_SHAPE, REF_DELTA, REF_SLACK)
        bound = lemma2_ppe_bound(REF_SHAPE, REF_DELTA, REF_SLACK)
        assert rel_err(got * got, bound) < 1e-13

    def test_xi_zero_rejected(self):
        with pytest.raises(ValueError):
            lemma2_ppe_bound(REF_SHAPE, REF_DELTA, SlackParams(nu=0.1141))

    def test_unavailable_when_window_too_tight(self):
        # n (nu - xi) = 1 exactly is still unavailable
        with pytest.raises(BoundUnavailableError):
            lemma2_ppe_bound(
                BlockShape(m=40, k=20), 0.05, SlackParams(nu=0.06, xi=0.01)
            )

    def test_delta_errors(self):
        with pytest.raises(ValueError):
            lemma2_ppe_bound(REF_SHAPE, -0.1, REF_SLACK)
        with pytest.raises(ValueError):
            lemma2_ppe_bound(REF_SHAPE, 0.995, SlackParams(nu=0.01, xi=0.006))


class TestThresholds:
    def test_pe_threshold(self):
        shape = BlockShape(m=30, k=15)
        assert max_passing_pe_errors(shape, 0.1) == 1
        assert max_passing_pe_errors(shape, 0.0) == 0
        assert max_passing_pe_errors(shape, 1.0) == 15

    @pytest.mark.parametrize("k", [2**52 - 1, 2**52, 2**52 + 1])
    def test_pe_threshold_never_exceeds_k(self, k):
        # no cap at k is needed: delta <= 1, and the product and the
        # rounding are monotone while k < 2^53 is exact
        shape = BlockShape(m=2**53 - 1, k=k)
        assert max_passing_pe_errors(shape, 1.0) == k
        assert max_passing_pe_errors(shape, 1.0 - 2.0**-53) <= k

    def test_key_threshold(self):
        shape = BlockShape(m=30, k=15)
        assert min_alarming_key_errors(shape, 0.1, 0.3) == 6
        assert min_alarming_key_errors(shape, 0.0, 1.0) == 15
        # above-n thresholds are representable; the event is just empty
        assert min_alarming_key_errors(shape, 0.9, 0.9) == 27

    def test_tiny_positive_key_threshold_is_one(self):
        # n (delta + nu) = 5e-10 is within the snap tolerance of 0, but the
        # alarm needs one key error: a key with none is not a bad event
        shape = BlockShape(m=1000, k=500)
        assert min_alarming_key_errors(shape, 0.0, 1e-12) == 1
        assert exact_joint_ppe(shape, 0.0, 1e-12, 0) == 0.0


def _limits(m, w, n):
    """``lo``, ``hi`` and the clamped mode of the key-side count."""
    lo, hi = max(0, w - (m - n)), min(w, n)
    return lo, hi, min(max((n + 1) * (w + 1) // (m + 2), lo), hi)


def _random_windows(seed, count, m_min, m_max):
    """Seeded ``(m, w, n, j_lo)``, ``m`` log-uniform on ``[m_min, m_max]``.

    Half the error counts are uniform on ``[0, m]``, half at rates up to 0.2
    as at the operating points.  Half the thresholds are uniform on
    ``[lo, hi + 1]``, half within ten standard deviations of the mode.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        m = int(round(math.exp(rng.uniform(math.log(m_min), math.log(m_max)))))
        n = int(rng.integers(1, m))
        if rng.random() < 0.5:
            w = int(rng.integers(0, m + 1))
        else:
            w = int(m * rng.uniform(0.0, 0.2))
        lo, hi, mode = _limits(m, w, n)
        if rng.random() < 0.5:
            j_lo = int(rng.integers(lo, hi + 2))
        else:
            sd = math.sqrt(n * (m - n) * w * (m - w) / (m * m * (m - 1.0)))
            j_lo = mode + int(rng.normal() * 10.0 * max(sd, 1.0))
        cases.append((m, w, n, j_lo))
    return cases


def _edge_windows(sizes):
    """Extreme ``w``, ``k`` and ``n``, with the thresholds at the run ends."""
    cases = []
    for m in sizes:
        for n in sorted({1, m // 2, m - 1}):  # n = m - 1 is k = 1
            for w in sorted({0, 1, m // 20, m // 3, m - 1, m}):
                lo, hi, mode = _limits(m, w, n)
                for j_lo in sorted({lo + 1, mode, mode + 1, hi, hi + 1}):
                    cases.append((m, w, n, j_lo))
    return cases


def _loop_reference_windows():
    """2,000 random cases, the edge windows and every window up to m = 12.

    A call at m = 1e6 costs about 10 ms in the loop, so 100 of the random
    cases span 1e5..1e6 and the rest 2..1e5.
    """
    small = [
        (m, w, n, j_lo)
        for m in range(2, 13)
        for n in range(1, m)
        for w in range(m + 1)
        for j_lo in range(-1, n + 2)
    ]
    return (
        _random_windows(8, 1900, 2, 100_000)
        + _random_windows(9, 100, 100_000, 1_000_000)
        + _edge_windows(TestWindowTail.EDGE_SIZES)
        + small
    )


def _block_end_windows(block):
    """The windows checked with ``block`` terms per numpy block."""
    return _random_windows(block, 300, 2, 2000) + _edge_windows((2, 3, 10, 100))


def _first_blocks(end):
    """First-block sizes to form a run with that keeps ``end`` products.

    Small sizes, the size whose block holds every product kept, so that the
    product that ends the run opens the second block, and `_BLOCK`.
    """
    return (1, 2, 7, max(end, 1), finitekey.bounds._BLOCK)


def _uncut_run(ratio, js):
    """The run of `_products` with no cut, as a list of Python floats.

    It ends before its first product below `_TINY`, so it holds every term
    that the reference sums of `_window_tail` take: the form in which the
    tests compare a run with a scalar loop and a cut sum with the uncut one.
    """
    return finitekey.bounds._products(ratio, js, -1, 0.0, finitekey.bounds._BLOCK).tolist()


def _audit_calls(m):
    """The 50 ``exact_joint_ppe`` calls of the bench's audit at ``m``, seed 1.

    ``k = m/2``, ``delta = 0.0451``, ``nu = 0.01`` and ``w`` on ``0.0451 m
    .. 0.0551 m``, at an offset drawn for each of the sizes 1e3..1e6 in
    turn.
    """
    m_index = (10**3, 10**4, 10**5, 10**6).index(m)
    rng = random.Random(1)
    u = [rng.random() for _ in range(m_index + 1)][-1]
    delta, nu = 0.0451, 0.01
    offset, step = m * delta, m * nu / 50
    shape = BlockShape(m=m, k=m // 2)
    return [(shape, delta, nu, int(offset + (i + u) * step)) for i in range(50)]


def _far_windows(seed, count, m_max):
    """Seeded ``(m, w, n, j_lo)`` with ``j_lo`` 30 to 45 sd past the mode.

    ``m`` is log-uniform on ``[1000, m_max]``, and half the error counts
    are at rates up to 0.2, as in `_random_windows`.  The Gaussian term at
    ``j_lo`` would fall below 2^-1022 at 37.6 sd.
    """
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        m = int(round(math.exp(rng.uniform(math.log(1000), math.log(m_max)))))
        n = int(rng.integers(1, m))
        if rng.random() < 0.5:
            w = int(rng.integers(1, m))
        else:
            w = max(1, int(m * rng.uniform(0.0, 0.2)))
        lo, hi, mode = _limits(m, w, n)
        sd = math.sqrt(n * (m - n) * w * (m - w) / (m * m * (m - 1)))
        j_lo = mode + int(rng.uniform(30.0, 45.0) * sd)
        if mode < j_lo <= hi:
            cases.append((m, w, n, j_lo))
    return cases


# The oracle leaves out the pmf terms below 2^-1022 that the loop keeps:
# fewer than 2^53 of them, against a total of at least 1.
_BAND = 2.0**-969


def assert_matches_loop(case):
    """The oracle equals the scalar loop bit for bit where the loop's value is
    at least 2^-969, and is within 2^-969 of it below."""
    got, want = _window_tail(*case), loop_window_tail(*case)
    if want >= _BAND:
        assert got == want, case
    else:
        assert abs(got - want) < _BAND, case


class TestWindowTail:
    def test_hand_value(self):
        # both errors of a 4-bit block land in the 2 key bits: 1 of C(4, 2)
        assert rel_err(_window_tail(4, 2, 2, 2), 1.0 / 6.0) < 1e-15

    def test_tail_at_zero_is_one(self):
        for m, k, w in ((10, 4, 3), (50, 25, 20), (1000, 400, 250)):
            assert _window_tail(m, w, m - k, 0) == 1.0

    def test_monotone_partition(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = int(rng.integers(4, 200))
            k = int(rng.integers(1, m))
            n = m - k
            w = int(rng.integers(0, m + 1))
            tails = [_window_tail(m, w, n, j) for j in range(0, n + 2)]
            assert tails[0] == 1.0
            for a, b in zip(tails, tails[1:]):
                assert a >= b
            assert tails[-1] == 0.0 or min(w, n) == n

    def test_against_fraction_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            m = int(rng.integers(4, 61))
            k = int(rng.integers(1, m))
            n = m - k
            w = int(rng.integers(0, m + 1))
            j_lo = int(rng.integers(0, n + 1))
            ref = frac_window_tail(m, w, n, j_lo)
            got = _window_tail(m, w, n, j_lo)
            if ref == 0:
                assert got == 0.0
            else:
                assert rel_err(got, float(ref)) < 1e-13

    def test_midsize_fraction_oracle(self):
        for m, w, n, j_lo in ((2000, 700, 900, 340), (2000, 700, 900, 380)):
            ref = float(frac_window_tail(m, w, n, j_lo))
            assert rel_err(_window_tail(m, w, n, j_lo), ref) < 1e-12

    def test_million_scale_precision(self):
        cases = (
            (1_000_000, 300_000, 500_000, 150_600),
            (1_000_000, 300_000, 500_000, 151_200),
            (1_000_000, 500_000, 500_000, 250_800),
        )
        for m, w, n, j_lo in cases:
            ref = float(mp_window_tail(m, w, n, j_lo))
            assert rel_err(_window_tail(m, w, n, j_lo), ref) < 1e-12

    # The numpy runs must match the scalar loop they replaced, under the
    # contract of `assert_matches_loop`.
    EDGE_SIZES = (2, 3, 10, 1000, 1_000_000)

    def test_matches_loop_reference(self):
        for case in _loop_reference_windows():
            assert_matches_loop(case)

    # m = 1e7, k = m/2, w = m/20: each run keeps 12,968 normal terms, and the
    # loop goes on to term 79,588 (mode 250,000), stalling at 4, 3, 2 and 1
    # times 5e-324.  The up-run slices start past the cut, where the loop's
    # value is subnormal; the down-run slices end past it.  Each case costs
    # the loop about 0.1 s.
    DEEP_CASES = (
        (10**7, 500_000, 5_000_000, 250_001 + 15_000),
        (10**7, 500_000, 5_000_000, 250_001 + 20_000),
        (10**7, 500_000, 5_000_000, 250_001 + 50_000),
        (10**7, 500_000, 5_000_000, 250_000 - 18_000),
        (10**7, 500_000, 5_000_000, 250_000 - 25_000),
    )

    def test_deep_tails_match_loop_reference(self):
        for case in self.DEEP_CASES:
            assert_matches_loop(case)

    def test_no_rounding_artifacts_below_the_band(self):
        # Hoeffding's bound over the w draws, exp(-2 w (j_lo/w - n/m)^2),
        # puts this tail below 1e-672, so the nearest float is 0.0; the loop
        # returns 4.4e-323, a sum of products stalled at 5e-324
        assert _window_tail(10**6, 58_565, 500_000, 36_015) == 0.0
        # below the band, the oracle stays within it of the exact value
        for case in (
            (2490, 1323, 1381, 1172),
            (3888, 2215, 1291, 1243),
            (8988, 1663, 4479, 1485),
        ):
            assert abs(Fraction(_window_tail(*case)) - frac_window_tail(*case)) < _BAND

    def test_edge_cases_reach_both_run_ends(self):
        # the edge list puts the mode at lo and at hi of a nontrivial range
        at_lo = at_hi = False
        for m, w, n, _ in _edge_windows(self.EDGE_SIZES):
            lo, hi, mode = _limits(m, w, n)
            at_lo |= lo == mode < hi
            at_hi |= lo < mode == hi
        assert at_lo and at_hi

    def test_mode_lies_in_its_support(self):
        # _window_tail anchors both runs at the mode without clamping it
        for m in range(1, 121):
            n, w = np.mgrid[0 : m + 1, 0 : m + 1]
            mode = (n + 1) * (w + 1) // (m + 2)
            assert (np.maximum(0, w - (m - n)) <= mode).all()
            assert (mode <= np.minimum(w, n)).all()
        # Python ints at any scale below 2^53, m log-uniform
        rng = np.random.default_rng(31)
        ms = np.minimum(2.0 ** rng.uniform(0.0, 53.0, 20_000), 2**53 - 1).astype(np.int64)
        ns, ws = rng.integers(0, ms + 1), rng.integers(0, ms + 1)
        for m, n, w in zip(ms.tolist(), ns.tolist(), ws.tolist()):
            assert max(0, w - (m - n)) <= (n + 1) * (w + 1) // (m + 2) <= min(w, n)

    def test_run_evaluates_one_block_at_a_time(self):
        # a long range that underflows early costs one block of ratios
        sizes = []

        def half(j):
            sizes.append(j.size)
            return np.full(j.size, 0.5)

        terms = _uncut_run(half, range(10**7))
        # 2^-1, ..., 2^-1022: the run ends before 2^-1023, a subnormal
        assert len(terms) == 1022 and terms[-1] == 2.0**-1022
        assert sizes == [finitekey.bounds._BLOCK]

    # Constant ratios of 0.5, 0.7 and 0.9 reach the cut after 1,022, 1,986
    # and 145 products, at and between the block ends of every size tested.
    # A first ratio below 2^-1022 ends a run before its first product.
    SYNTHETIC_RATIOS = (
        np.full(1100, 0.5),
        np.full(3000, 0.7),
        np.concatenate(([2.0**-1000], np.full(999, 0.9))),
        np.concatenate(([2.0**-1060], np.full(999, 0.99))),
        np.concatenate(([2.0**-1060], np.full(3999, 0.999))),
        np.concatenate(([2.0**-1050], 1.0 - np.arange(1, 1100) / 2000.0)),
    )

    # Each of these tests also runs at every first-block size of
    # `_first_blocks`, the later blocks doubling up to `_BLOCK`.
    @pytest.mark.parametrize("block", [1, 2, 7, 4096])
    def test_run_matches_loop_products(self, monkeypatch, block):
        monkeypatch.setattr(finitekey.bounds, "_BLOCK", block)
        for qs in self.SYNTHETIC_RATIOS:
            want, t = [], 1.0
            for q in qs.tolist():
                t *= q
                if t < 2.0**-1022:
                    break
                want.append(t)

            def ratio(j):
                return qs[j.astype(int)]

            assert _uncut_run(ratio, range(qs.size)) == want
            for first in _first_blocks(len(want)):
                run = finitekey.bounds._products(ratio, range(qs.size), -1, 0.0, first)
                assert run.tolist() == want, first

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_block_ends_match_loop_reference(self, monkeypatch, block):
        monkeypatch.setattr(finitekey.bounds, "_BLOCK", block)
        for case in _block_end_windows(block):
            assert_matches_loop(case)
        real = finitekey.bounds._products
        for pick in range(len(_first_blocks(0))):

            def products(ratio, js, keep, floor, first):
                end = real(ratio, js, keep, floor, finitekey.bounds._BLOCK).size
                return real(ratio, js, keep, floor, _first_blocks(end)[pick])

            monkeypatch.setattr(finitekey.bounds, "_products", products)
            for case in _block_end_windows(block):
                assert_matches_loop(case)

    # The certified cut must leave every value as it was.  A cut of 2^-1
    # fails the certificate wherever a term is dropped, and one of 2^1023
    # ends every run right after the term that its sum is scaled by, so
    # both fall back on the uncut sums wherever the cut drops a term.
    @pytest.mark.parametrize("cut", [1, -1023])
    def test_fallback_matches_loop_reference(self, monkeypatch, cut):
        cases = (
            _loop_reference_windows()
            + list(self.DEEP_CASES)
            + [case for block in (1, 2, 7) for case in _block_end_windows(block)]
        )
        want = [_window_tail(*case) for case in cases]
        failed = []

        def certified_fsum(terms, bound):
            total = certify(terms, bound)
            failed.append(total is None)
            return total

        certify = finitekey.bounds._certified_fsum
        monkeypatch.setattr(finitekey.bounds, "_certified_fsum", certified_fsum)
        monkeypatch.setattr(finitekey.bounds, "_CUT", cut)
        for case, value in zip(cases, want):
            assert _window_tail(*case) == value, case
            assert_matches_loop(case)
        assert any(failed)

    @staticmethod
    def _heads(m, w, n):
        """The mode, and the terms that the total keeps of each run.

        Each run that is not empty must drop a term, so that its head ends
        at the cut.
        """
        k = m - n
        lo, hi, mode = _limits(m, w, n)
        floor = 2.0**-finitekey.bounds._CUT
        first = finitekey.bounds._BLOCK
        up = finitekey.bounds._products(
            finitekey.bounds._pmf_ratio(w, n, k), range(mode, hi), -1, floor, first
        ).size
        down = finitekey.bounds._products(
            finitekey.bounds._pmf_ratio(w, k, n), range(w - mode, w - lo), -1, floor, first
        ).size
        assert up < hi - mode or hi == mode
        assert down < mode - lo or mode == lo
        return mode, up, down

    def test_cut_edges_match_loop_reference(self):
        # j_lo at the last term that the total keeps of each run, and one
        # term on each side of it
        cases = []
        for m, w, n in ((10**4, 500, 5_000), (10**6, 50_100, 500_000), (10**6, 30_000, 200_000)):
            mode, up, down = self._heads(m, w, n)
            cases += [(m, w, n, mode + up + d) for d in (-1, 0, 1)]
            cases += [(m, w, n, mode - down + d) for d in (-1, 0, 1)]
        # heads of a single term: at m = 2^52, w = 2 and n = 10, the up-run's
        # second term is about 1e-15 of its first, and so is the down-run's
        # at n = m - 10
        m = 2**52
        up_heads = self._heads(m, 2, 10)
        down_heads = self._heads(m, 2, m - 10)
        assert up_heads == (0, 1, 0) and down_heads == (2, 0, 1)
        cases += [(m, 2, n, j_lo) for n in (10, m - 10) for j_lo in (1, 2)]
        # a tail that starts past the first subnormal term of the up-run
        cases.append((10**6, 58_565, 500_000, 36_015))
        for case in cases:
            assert_matches_loop(case)
        assert _window_tail(10**6, 58_565, 500_000, 36_015) == 0.0

    def test_cut_run_reaches_its_keep_index(self):
        # the cut applies only past keep: with a floor of 2^1023 each run
        # stops right after the product at keep, also across a block end
        w, n, k = 500_000, 5_000_000, 5_000_000
        js = range(250_000, w)
        ratio = finitekey.bounds._pmf_ratio(w, n, k)
        uncut = _uncut_run(ratio, js)
        for keep in (-1, 0, 5, 4095, 4096, 10_000):
            for first in _first_blocks(keep + 1):
                run = finitekey.bounds._products(ratio, js, keep, 2.0**1023, first)
                assert run.tolist() == uncut[: keep + 1], (keep, first)

    def test_bounds_cover_the_terms_left_out(self, monkeypatch):
        # Each sum's bound is at least what the uncut sum adds to it.  At
        # (1e6, 5000, 995000) the up-run keeps all of its 25 terms and the
        # down-run 68 of 4,975, so the tails below its head drop down-run
        # terms alone.
        cases = _random_windows(3, 200, 1000, 10**6)
        cases += [(10**6, 5_000, 995_000, 4_975 - 68 - d) for d in (-1, 0, 1, 5, 100)]
        for m, w, n in ((10**4, 500, 5_000), (10**6, 50_100, 500_000)):
            mode, up, down = self._heads(m, w, n)
            cases += [(m, w, n, j_lo) for j_lo in (mode - down - 1, mode + 5, mode + up + 1)]
        sums = []

        def certified_fsum(terms, bound):
            sums.append((terms, bound))
            return certify(terms, bound)

        certify = finitekey.bounds._certified_fsum
        monkeypatch.setattr(finitekey.bounds, "_certified_fsum", certified_fsum)
        for m, w, n, j_lo in cases:
            lo, hi, mode = _limits(m, w, n)
            if not lo < j_lo <= hi:
                continue
            sums.clear()
            _window_tail(m, w, n, j_lo)
            k = m - n
            up = _uncut_run(finitekey.bounds._pmf_ratio(w, n, k), range(mode, hi))
            down = _uncut_run(finitekey.bounds._pmf_ratio(w, k, n), range(w - mode, w - lo))
            # the total, then the tail unless the up-run ends before j_lo
            uncut_sums = [[1.0] + up + down]
            if j_lo <= mode:
                uncut_sums.append([1.0] + up + down[: mode - j_lo])
            elif j_lo - mode - 1 < len(up):
                uncut_sums.append(up[j_lo - mode - 1 :])
            for (terms, bound), uncut in zip(sums, uncut_sums):
                left_out = math.fsum(uncut + [-t for t in terms])
                assert 0.0 <= left_out <= bound, (m, w, n, j_lo)

    @staticmethod
    def _count_fsum(monkeypatch):
        """Patch `math.fsum` to record the length of each list it sums."""
        sizes = []

        def fsum(terms):
            sizes.append(len(terms))
            return real(terms)

        real = math.fsum
        monkeypatch.setattr(math, "fsum", fsum)
        return sizes

    def test_certified_sums_take_less_work(self, monkeypatch):
        # the 50 windows of the bench's audit at m = 1e6 and seed 1.  The
        # uncut sums hand math.fsum 434,945 floats there, the certified ones
        # 248,729, so a path that skips the cut or falls back on every call
        # fails.
        sizes = self._count_fsum(monkeypatch)
        for call in _audit_calls(10**6):
            exact_joint_ppe(*call)
        assert sum(sizes) < 0.6 * 434_945

    def test_runs_form_few_ratios_past_their_cut(self, monkeypatch):
        # On the bench's audit windows at seed 1, whole blocks of 4,096
        # ratios with no zero certificate evaluate 250,750 ratios at m = 1e5
        # and 454,656 at 1e6.  First blocks sized to the cut and the
        # certificate make 45,753 and 175,287; without the sizing the first
        # count stays at 250,750, and without the certificate the second is
        # 292,012.  No block is longer than _BLOCK.
        sizes = []
        real = finitekey.bounds._pmf_ratio

        def pmf_ratio(w, n, k):
            ratio = real(w, n, k)

            def counted(j):
                sizes.append(j.size)
                return ratio(j)

            return counted

        monkeypatch.setattr(finitekey.bounds, "_pmf_ratio", pmf_ratio)
        for m, parent, share in ((10**5, 250_750, 0.3), (10**6, 454_656, 0.5)):
            sizes.clear()
            for call in _audit_calls(m):
                exact_joint_ppe(*call)
            assert sum(sizes) < share * parent, m
            assert max(sizes) <= finitekey.bounds._BLOCK

    def test_zero_tails_form_no_run(self, monkeypatch):
        # 17 of the bench's 50 audit windows at m = 1e6, seed 1, are 0.0,
        # and each is certified before a run is formed
        calls = _audit_calls(10**6)
        values = [exact_joint_ppe(*call) for call in calls]
        formed = []
        real = finitekey.bounds._products

        def products(*args):
            formed.append(args)
            return real(*args)

        monkeypatch.setattr(finitekey.bounds, "_products", products)
        zeros = 0
        for call, value in zip(calls, values):
            formed.clear()
            assert exact_joint_ppe(*call) == value
            if value == 0.0:
                zeros += 1
                assert not formed, call
        assert zeros == 17

    def test_zero_certificate_is_sound(self, monkeypatch):
        # windows 30 to 45 sd past the mode, where the tails turn 0.0: each
        # value equals the call with no certificate, and wherever the
        # certificate fires, the uncut up-run ends before the term at j_lo
        cases = _far_windows(41, 400, 10**7)
        with monkeypatch.context() as patch:
            patch.setattr(finitekey.bounds, "_zero_tail", lambda *args: False)
            want = [_window_tail(*case) for case in cases]
        fired = []
        real = finitekey.bounds._zero_tail

        def zero_tail(*args):
            certified = real(*args)
            if certified:
                fired.append(args)
            return certified

        monkeypatch.setattr(finitekey.bounds, "_zero_tail", zero_tail)
        for case, value in zip(cases, want):
            assert _window_tail(*case) == value, case
        for w, n, k, mode, j_lo in fired:
            ratio = finitekey.bounds._pmf_ratio(w, n, k)
            up = _uncut_run(ratio, range(mode, min(w, n)))
            assert len(up) <= j_lo - mode - 1, (w, n, k, j_lo)
        zeros = sum(value == 0.0 for value in want)
        assert zeros > 100 and len(fired) > 0.8 * zeros

    def test_zero_certificate_holds_far_out(self):
        # up to m = 2^52, where the runs are too long to form: wherever the
        # certificate fires, log2 of pmf(j_lo) / pmf(mode) is below -1022
        def log2_pmf_ratio(m, w, n, j, mode):
            def log_comb(a, b):
                return mp.loggamma(a + 1) - mp.loggamma(b + 1) - mp.loggamma(a - b + 1)

            return (
                log_comb(w, j) + log_comb(m - w, n - j)
                - log_comb(w, mode) - log_comb(m - w, n - mode)
            ) / mp.log(2)

        fired = 0
        for m, w, n, j_lo in _far_windows(43, 300, 2**52):
            mode = _limits(m, w, n)[2]
            if finitekey.bounds._zero_tail(w, n, m - n, mode, j_lo):
                fired += 1
                with mp.workdps(60):
                    assert log2_pmf_ratio(m, w, n, j_lo, mode) < -1022, (m, w, n, j_lo)
        assert fired > 100

    def test_no_second_sum_when_nothing_is_dropped(self, monkeypatch):
        # up to m = 60 every term is above 2^-70 of the mode's, so each run
        # reaches its range end and the total and the tail are summed once
        sizes = self._count_fsum(monkeypatch)
        calls = 0
        for m in (10, 37, 60):
            for n in range(1, m, 3):
                for w in range(0, m + 1, 3):
                    lo, hi, mode = _limits(m, w, n)
                    for j_lo in {lo + 1, mode, mode + 1, hi} & set(range(lo + 1, hi + 1)):
                        _window_tail(m, w, n, j_lo)
                        calls += 1
        assert calls > 1000 and len(sizes) == 2 * calls


class TestExactJoint:
    def test_reference_value(self):
        got = exact_joint_ppe(BlockShape(m=30, k=15), 0.1, 0.3, 6)
        assert rel_err(got, float(Fraction(11, 1305))) < 1e-13
        assert rel_err(got, 0.00843) < 1e-3

    def test_reference_value_against_mc(self):
        # independent statistical check with numpy's own hypergeometric sampler
        rng = np.random.default_rng(20260821)
        draws = rng.hypergeometric(ngood=6, nbad=24, nsample=15, size=4_000_000)
        # bad event: at least 6 errors land key-side and at most 1 PE-side
        freq = np.mean(draws >= 6)
        exact = exact_joint_ppe(BlockShape(m=30, k=15), 0.1, 0.3, 6)
        sigma = math.sqrt(exact * (1 - exact) / 4_000_000)
        assert abs(freq - exact) < 5 * sigma

    def test_empty_event_cases(self):
        shape = BlockShape(m=30, k=15)
        assert exact_joint_ppe(shape, 0.9, 0.9, 10) == 0.0  # threshold above n
        assert exact_joint_ppe(shape, 0.0, 1.0, 0) == 0.0  # no errors to place
        assert exact_joint_ppe(shape, 0.0, 1.0, 30) == 0.0  # PE cannot be clean

    def test_w_bounds_checked(self):
        with pytest.raises(ValueError):
            exact_joint_ppe(BlockShape(m=30, k=15), 0.1, 0.3, 31)

    def test_w_must_be_an_integer(self):
        shape = BlockShape(m=30, k=15)
        for w in (6.5, 6.0):
            with pytest.raises(ValueError, match="integer"):
                exact_joint_ppe(shape, 0.1, 0.3, w)
        assert exact_joint_ppe(shape, 0.1, 0.3, np.int64(6)) == exact_joint_ppe(
            shape, 0.1, 0.3, 6
        )
