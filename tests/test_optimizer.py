"""Tests for the parameter search and block-length threshold scan."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from oracle_utils import single_term_threshold

import finitekey.optimizer as optimizer
from finitekey.bounds import BlockShape, SlackParams
from finitekey.optimizer import (
    _Model,
    min_block_length,
    optimize,
)
from finitekey.security import ProtocolSettings, SecurityBudget, feasible

BUDGET6 = SecurityBudget(6)
BUDGET10 = SecurityBudget(10)


def assert_tight(res, budget):
    """``feasible`` accepts ``res.ell`` at the returned point and rejects one more."""
    shape = BlockShape(m=res.m, k=round(res.point.beta * res.m))
    st = ProtocolSettings.for_budget(shape, 0.0451, budget, ell=res.ell)
    slack = SlackParams(nu=res.point.nu, xi=res.point.xi)
    bd, ok = feasible(st, budget, slack, res.variant)
    assert ok
    assert bd.total <= budget.eps_qkd
    _, ok1 = feasible(replace(st, ell=res.ell + 1), budget, slack, res.variant)
    assert not ok1


class TestOptimize:
    def test_reference_block_two_term(self):
        res = optimize(3100, 0.0451, BUDGET6, "lemma2")
        assert res.feasible
        # feasible accepts ell = 10 at k = 1548, nu = 0.11405, xi = 0.06942
        # and rejects 11; no k <= 1550 admits 11
        assert res.ell == 10
        pt = res.point
        assert abs(pt.beta - 0.5) / 0.5 < 0.06
        assert abs(pt.nu - 0.1145) / 0.1145 < 0.06
        assert abs(pt.xi - 0.0694) / 0.0694 < 0.06

    def test_reference_block_single_term(self):
        res = optimize(3100, 0.0451, BUDGET6, "serfling")
        assert not res.feasible
        assert res.ell == 0

    def test_tiny_block_infeasible(self):
        res = optimize(100, 0.0451, BUDGET6, "lemma2")
        assert res.ell == 0
        assert not res.feasible

    def test_result_reverifies(self):
        # the reported optimum must satisfy the budget when rechecked from
        # scratch, and one extra bit must break it
        for variant in ("lemma2", "serfling"):
            res = optimize(4000, 0.0451, BUDGET6, variant)
            if not res.feasible:
                continue
            assert_tight(res, BUDGET6)

    @pytest.mark.parametrize(
        "m, variant, ell",
        [
            # k = 2888, nu = 0.12270: the single-term threshold at s = 10
            (6402, "serfling", 1),
            # k = 2888, nu = 0.12255
            (6421, "serfling", 2),
            # k = 2399, nu = 0.11661, xi = 0.07098: the two-term threshold
            (4807, "lemma2", 1),
            # k = 2408, nu = 0.11645, xi = 0.07087
            (4819, "lemma2", 2),
        ],
    )
    def test_keys_between_grid_points_found(self, m, variant, ell):
        # a fixed grid over (beta, nu, xi) with two refine rounds returned
        # 0 at all four; each key sits between its grid points
        res = optimize(m, 0.0451, BUDGET10, variant)
        assert res.feasible
        assert res.ell == ell
        assert_tight(res, BUDGET10)

    def test_alpha_consistent_with_ell(self):
        res = optimize(3100, 0.0451, BUDGET6, "lemma2")
        assert round(res.point.alpha * res.m) == res.ell

    def test_breakdown_attached(self):
        res = optimize(3100, 0.0451, BUDGET6, "lemma2")
        assert res.breakdown is not None
        assert res.breakdown.total <= BUDGET6.eps_qkd

    def test_deterministic(self):
        a = optimize(3100, 0.0451, BUDGET6, "lemma2")
        b = optimize(3100, 0.0451, BUDGET6, "lemma2")
        assert a == b

    def test_errors(self):
        with pytest.raises(ValueError):
            optimize(5, 0.0451, BUDGET6, "lemma2")
        with pytest.raises(ValueError):
            optimize(3100, 0.6, BUDGET6, "lemma2")
        with pytest.raises(ValueError):
            optimize(3100, 0.0451, BUDGET6, "chernoff")


class TestKeylessInputs:
    @pytest.mark.parametrize("variant", ["lemma2", "serfling"])
    @pytest.mark.parametrize("m", [11, 20, 50, 100, 500, 3100])
    def test_no_raise_up_to_half(self, m, variant):
        # an unavailable two-term bound must leave no headroom; otherwise a
        # point with xi <= 0 or n (nu - xi) <= 1 reaches SlackParams
        for delta in np.linspace(0.05, 0.4999, 8):
            res = optimize(m, float(delta), BUDGET6, variant)
            if res.point is None:
                assert res.ell == 0 and res.breakdown is None and not res.feasible
                continue
            pt = res.point
            SlackParams(nu=pt.nu, xi=pt.xi)
            if variant == "lemma2":
                n = m - round(pt.beta * m)
                assert pt.xi > 0.0 and n * (pt.nu - pt.xi) > 1.0


class TestSearchOverK:
    """The window over k against every k, at block sizes of the operating regime."""

    @pytest.mark.parametrize(
        "m, s, variant",
        [
            (3100, 6, "lemma2"),
            (3967, 6, "serfling"),
            (7000, 6, "lemma2"),
            (4807, 10, "lemma2"),
            (6402, 10, "serfling"),
            (7000, 10, "serfling"),
        ],
    )
    def test_no_k_outside_the_window_wins(self, m, s, variant):
        budget = SecurityBudget(s)
        res = optimize(m, 0.0451, budget, variant)
        model = _Model(m, 0.0451, budget, variant)
        ks = np.arange(1, m // 2 + 1, dtype=float)
        gain, _, xi, _ = model.best_nu(ks)
        length = gain - model.leakage(ks)
        # the smooth length bounds each two-term piece's: where it reaches
        # one bit more than optimize found, the pieces decide
        reach = length >= res.ell + 1
        if model.two_term and reach.any():
            pieces = model.best_piece(ks[reach], xi[reach])[0]
            length[reach] = pieces - model.leakage(ks[reach])
        assert length.max() < res.ell + 1

    @pytest.mark.parametrize(
        "m, s",
        [(3100, 6), (5000, 6), (7000, 6), (4807, 10), (6421, 10), (7000, 10)],
    )
    def test_single_term_length_exact(self, m, s):
        # the reference decides every k <= m/2 by branch and bound over nu
        res = optimize(m, 0.0451, SecurityBudget(s), "serfling")
        assert single_term_threshold(0.0451, s, m, m, ell=res.ell + 1) is None
        if res.ell >= 1:
            assert single_term_threshold(0.0451, s, m, m, ell=res.ell) is not None


class TestMinBlockLength:
    def test_threshold_neighbours_s6(self):
        m_min = min_block_length(0.0451, BUDGET6, "lemma2", m_lo=2900, m_hi=3200)
        # feasible accepts ell = 1 at m = 3006, k = 1501, nu = 0.11612,
        # xi = 0.07064; at m = 3005 the best point falls 0.08 bit short
        assert m_min == 3006
        assert optimize(m_min - 1, 0.0451, BUDGET6, "lemma2").ell == 0
        assert optimize(m_min, 0.0451, BUDGET6, "lemma2").ell >= 1

    def test_not_found(self):
        assert min_block_length(0.0451, BUDGET6, "lemma2", m_lo=100, m_hi=500) is None

    def test_stride_does_not_skip_boundary(self):
        # wide range exercises the coarse-then-backtrack scan
        m_min = min_block_length(0.0451, BUDGET6, "serfling", m_lo=1000, m_hi=8000)
        # feasible accepts ell = 1 at m = 3967, k = 1787, nu = 0.12215
        assert m_min == 3967
        assert optimize(m_min - 1, 0.0451, BUDGET6, "serfling").ell == 0

    @pytest.mark.parametrize("s, m_lo, m_hi", [(6, 3000, 5000), (10, 5000, 8000)])
    def test_single_term_threshold_exact(self, s, m_lo, m_hi):
        # the reference shows that no block size from m_lo up to its
        # threshold has a key, deciding every k of each
        ref = single_term_threshold(0.0451, s, m_lo, m_hi)
        got = min_block_length(0.0451, SecurityBudget(s), "serfling", m_lo, m_hi)
        assert got == ref[0]

    @pytest.mark.parametrize(
        "variant, lo, threshold, hi",
        [("lemma2", 4700, 4807, 4848), ("serfling", 6328, 6402, 6476)],
    )
    def test_key_is_a_step_inside_the_threshold_stride(self, variant, lo, threshold, hi):
        # on the 1000..20000 grid (stride 148) at s = 10, the threshold lies
        # in (lo, hi]; where the key is a step in m there, the bisection
        # returns the block size that a walk down from hi would
        keyed = [m for m in range(lo + 1, hi + 1)
                 if optimize(m, 0.0451, BUDGET10, variant).ell >= 1]
        assert keyed == list(range(threshold, hi + 1))

    def test_errors(self):
        with pytest.raises(ValueError):
            min_block_length(0.0451, BUDGET6, "lemma2", m_lo=5, m_hi=100)
        with pytest.raises(ValueError):
            min_block_length(0.0451, BUDGET6, "lemma2", m_lo=500, m_hi=100)


def _grid(m_lo, m_hi):
    """min_block_length's forward grid: strides from m_lo, then m_hi."""
    stride = max(1, min(500, (m_hi - m_lo) // 128))
    grid = list(range(m_lo, m_hi + 1, stride))
    if grid[-1] != m_hi:
        grid.append(m_hi)
    return stride, grid


class TestMinBlockSearch:
    """The search over m against a step oracle standing in for `optimize`."""

    @staticmethod
    def search(monkeypatch, m_lo, m_hi, keyed):
        calls = []

        def oracle(m, delta, budget, variant):
            calls.append(m)
            return SimpleNamespace(ell=int(keyed(m)))

        monkeypatch.setattr(optimizer, "optimize", oracle)
        return min_block_length(0.0451, BUDGET6, "lemma2", m_lo, m_hi), calls

    @pytest.mark.parametrize(
        "m_lo, m_hi, threshold",
        [
            (1000, 20000, 1000),  # at m_lo
            (1000, 20000, 1001),  # one past m_lo
            (1000, 20000, 2480),  # on a grid point
            (1000, 20000, 2481),  # one past a grid point
            (1000, 20000, 20000),  # at m_hi, after the short last stride
            (1000, 20000, 20001),  # above m_hi
            (100, 200, 150),  # stride 1
            (500, 500, 500),  # one block size, with a key
            (500, 500, 501),  # one block size, without
        ],
    )
    def test_step(self, monkeypatch, m_lo, m_hi, threshold):
        got, calls = self.search(monkeypatch, m_lo, m_hi, lambda m: m >= threshold)
        stride, grid = _grid(m_lo, m_hi)
        if threshold > m_hi:
            assert got is None
            assert calls == grid
            return
        assert got == threshold
        if threshold == m_lo:
            assert calls == [m_lo]
        forward = sum(1 for g in grid if g < threshold) + 1
        assert len(calls) <= forward + math.ceil(math.log2(stride))

    @pytest.mark.parametrize("island", [2950, 2998])
    def test_island_below_threshold(self, monkeypatch, island):
        # one keyed m inside the stride (2924, 3072] below the threshold 3000
        def keyed(m):
            return m >= 3000 or m == island

        got, _ = self.search(monkeypatch, 1000, 20000, keyed)
        assert keyed(got)
        assert got == 1000 or not keyed(got - 1)
        assert not any(keyed(g) for g in _grid(1000, 20000)[1] if g < got)


class TestSweep:
    def test_key_length_nondecreasing_in_m(self):
        for variant in ("lemma2", "serfling"):
            ms = range(2000, 20001, 500)
            ells = [optimize(m, 0.0451, BUDGET6, variant).ell for m in ms]
            assert ells == sorted(ells), f"{variant}: {ells}"
