"""Unit tests for the tail bounds, their kernels and the exact oracle."""

import math
from dataclasses import replace
from fractions import Fraction

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
    _sample_rate,
    _serfling_rate,
    _serfling_tail,
    _window_tail,
    binary_entropy,
    exact_joint_ppe,
    hush_scovel_tail,
    lemma2_ppe_bound,
    lemma2_ppe_detail,
    max_passing_pe_errors,
    min_alarming_key_errors,
    new_epe,
    serfling_epe,
    serfling_lower_tail,
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
    def test_reference_value(self):
        got = serfling_lower_tail(REF_SHAPE, 0.0693)
        assert rel_err(got, 1.1940677834177585e-13) < 1e-12

    def test_decreasing_in_xi(self):
        vals = [serfling_lower_tail(REF_SHAPE, xi) for xi in (0.01, 0.02, 0.05, 0.1)]
        assert vals == sorted(vals, reverse=True)

    def test_errors(self):
        with pytest.raises(ValueError):
            serfling_lower_tail(REF_SHAPE, 0.0)


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

    def test_errors(self):
        # the kernel is unchecked; the scalar bound rejects m_err outside [0, m]
        shape = BlockShape(m=10, k=5)
        with pytest.raises(ValueError):
            hush_scovel_tail(shape, 11, 0.5)
        with pytest.raises(ValueError):
            hush_scovel_tail(shape, -1, 0.5)


class TestHushScovelTail:
    def test_reference_value(self):
        dev = 0.1141 - 0.0693
        got = hush_scovel_tail(REF_SHAPE, 355, dev, relaxed=True)
        assert rel_err(got, 5.1612603951771043e-14) < 1e-12

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
            sharp = hush_scovel_tail(shape, m_err, dev, relaxed=False)
            relaxed = hush_scovel_tail(shape, m_err, dev, relaxed=True)
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
                        bound = hush_scovel_tail(shape, m_err, dev, relaxed=relaxed)
                        assert exact <= bound + 1e-15

    def test_unavailable(self):
        with pytest.raises(BoundUnavailableError):
            hush_scovel_tail(BlockShape(m=20, k=10), 5, 0.05)

    def test_errors(self):
        with pytest.raises(ValueError):
            hush_scovel_tail(REF_SHAPE, 10, 0.0)
        with pytest.raises(ValueError):
            hush_scovel_tail(REF_SHAPE, 4000, 0.1)


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
        m_err = rng.integers(0, m + 1)
        delta = rng.uniform(0.0, 0.5, size=size)
        mf, kf, nf = (v.astype(float) for v in (m, k, n))
        epe = _serfling_tail(_serfling_rate(mf, kf, nf), nu)
        lower = _serfling_tail(_sample_rate(mf, kf, nf), xi)
        gamma = _gamma_factor(mf, m_err.astype(float))
        sharp = _hush_scovel_tail(_hush_scovel_factor(kf, nf, gamma, False), nf, dev)
        relaxed = _hush_scovel_tail(_hush_scovel_factor(kf, nf, gamma, True), nf, dev)
        entropy = _h2(nu)
        leak = np.ceil(_leakage(nf, _h2(delta)))
        checked = 0
        for i in range(size):
            shape = BlockShape(m=int(m[i]), k=int(k[i]))
            assert epe[i] == serfling_epe(shape, float(nu[i]))
            assert lower[i] == serfling_lower_tail(shape, float(xi[i]))
            assert entropy[i] == binary_entropy(float(nu[i]))
            assert leak[i] == ec_leakage(int(n[i]), float(delta[i]))
            if (n[i] * dev[i]) ** 2 > 1.0:
                checked += 1
                args = (shape, int(m_err[i]), float(dev[i]))
                assert sharp[i] == hush_scovel_tail(*args, relaxed=False)
                assert relaxed[i] == hush_scovel_tail(*args, relaxed=True)
        assert checked > size // 2
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

    def test_key_threshold(self):
        shape = BlockShape(m=30, k=15)
        assert min_alarming_key_errors(shape, 0.1, 0.3) == 6
        assert min_alarming_key_errors(shape, 0.0, 1.0) == 15
        # above-n thresholds are representable; the event is just empty
        assert min_alarming_key_errors(shape, 0.9, 0.9) == 27


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

    # The numpy runs must equal the scalar loop they replaced, bit for bit.
    EDGE_SIZES = (2, 3, 10, 1000, 1_000_000)

    def test_matches_loop_reference(self):
        # 2,000 random cases; a call at m = 1e6 costs about 10 ms in the
        # loop, so 100 of them span 1e5..1e6 and the rest 2..1e5
        small = [
            (m, w, n, j_lo)
            for m in range(2, 13)
            for n in range(1, m)
            for w in range(m + 1)
            for j_lo in range(-1, n + 2)
        ]
        cases = (
            _random_windows(8, 1900, 2, 100_000)
            + _random_windows(9, 100, 100_000, 1_000_000)
            + _edge_windows(self.EDGE_SIZES)
            + small
        )
        for case in cases:
            assert _window_tail(*case) == loop_window_tail(*case), case

    def test_edge_cases_reach_both_run_ends(self):
        # the edge list puts the mode at lo and at hi of a nontrivial range
        at_lo = at_hi = False
        for m, w, n, _ in _edge_windows(self.EDGE_SIZES):
            lo, hi, mode = _limits(m, w, n)
            at_lo |= lo == mode < hi
            at_hi |= lo < mode == hi
        assert at_lo and at_hi

    def test_run_evaluates_one_block_at_a_time(self):
        # a long range that underflows early costs one block of ratios
        sizes = []

        def half(j):
            sizes.append(j.size)
            return np.full(j.size, 0.5)

        terms = finitekey.bounds._run(half, range(10**7))
        assert len(terms) == 1074 and terms[-1] == 2.0**-1074
        assert sizes == [finitekey.bounds._BLOCK]

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_block_ends_match_loop_reference(self, monkeypatch, block):
        monkeypatch.setattr(finitekey.bounds, "_BLOCK", block)
        cases = _random_windows(block, 300, 2, 2000) + _edge_windows((2, 3, 10, 100))
        for case in cases:
            assert _window_tail(*case) == loop_window_tail(*case), case


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
