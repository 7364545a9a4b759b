"""Tests for the parameter search and block-length threshold scan."""

import itertools
import math
import random
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_utils import single_term_threshold

import finitekey.optimizer as optimizer
from finitekey.bounds import (
    BlockShape, BoundUnavailableError, SlackParams, _gamma_factor, _h2, _hush_scovel_factor,
    _sample_rate, _serfling_rate, lemma2_ppe_detail,
)
from finitekey.optimizer import (
    OptimizationPoint,
    _Model,
    min_block_length,
    optimize,
)
from finitekey.security import (
    ProtocolSettings, SecurityBudget, _ell_bound, _headroom, _leakage, feasible,
    max_ell_at,
)

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

    def test_non_integral_m_rejected_before_search(self, monkeypatch):
        searches = count_root_searches(monkeypatch)
        with pytest.raises(ValueError, match="integer"):
            optimize(3100.0, 0.0451, BUDGET6, "lemma2")
        assert searches == []
        res = optimize(np.int64(3100), 0.0451, BUDGET6, "lemma2")
        assert (res.m, res.ell) == (3100, 10)
        assert type(res.m) is int

    @pytest.mark.parametrize("m", [2**53 - 1, 10**12])
    @pytest.mark.parametrize("variant", ["lemma2", "serfling"])
    def test_largest_block_sizes_in_little_memory(self, m, variant):
        # the search over k is sparse: a table per k would need m/2 entries
        tracemalloc.start()
        try:
            res = optimize(m, 0.0451, BUDGET6, variant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.feasible and res.ell >= 1
        assert peak < 16 * 2**20

    def test_m_beyond_float64_rejected_before_search(self, monkeypatch):
        # counts at or above 2^53 are not exact in the search's float arrays
        searches = count_root_searches(monkeypatch)
        for m in (2**53, 2**63, 10**20):
            with pytest.raises(ValueError, match="below 2\\^53"):
                optimize(m, 0.0451, BUDGET6, "lemma2")
        assert searches == []


def count_root_searches(monkeypatch):
    """Record the ``k`` of each `_Model.best_nu` call from now on."""
    searches = []
    best_nu = _Model.best_nu

    def counted(self, m, k, piece=None):
        searches.append(np.asarray(k))
        return best_nu(self, m, k, piece)

    monkeypatch.setattr(_Model, "best_nu", counted)
    return searches


def count_root_evaluations(monkeypatch):
    """Count the slope evaluations (`_Model.gain` calls) of root searches from now on."""
    count = [0]
    search = optimizer._chandrupatla

    def counted(evaluate, *bracket):
        def tally(x):
            count[0] += 1
            return evaluate(x)
        return search(tally, *bracket)

    monkeypatch.setattr(optimizer, "_chandrupatla", counted)
    return count


# Analytic slopes with known roots, as (slope, root, bracket): a linear one;
# a steep one-sided one, like the gain's where the PE tail is exponential;
# one that is +inf below 0.08, like the gain's below the headroom edge; and
# one whose root is the bracket's midpoint, the first step.
SLOPES = {
    "linear": (lambda x: 0.3 - x, 0.3, (0.01, 0.45)),
    "steep": (lambda x: np.expm1(-200.0 * (x - 0.1)), 0.1, (0.01, 0.4)),
    "no-headroom": (
        lambda x: np.where(x < 0.08, np.inf, np.log(0.1 / x)), 0.1, (0.02, 0.44)
    ),
    "zero-first": (lambda x: 1.0 - x, 1.0, (0.5, 1.5)),
}


def root_search(names, points=None):
    """`_chandrupatla` on one row per slope of ``names``: ``(x, found, steps)``.

    The points of each step are appended to ``points``, if given.
    """
    slopes = [SLOPES[name][0] for name in names]
    steps = [] if points is None else points

    def evaluate(x):
        steps.append(x.copy())
        slope = np.array([float(f(v)) for f, v in zip(slopes, x)])
        return -x, slope

    a, b = (np.array([SLOPES[name][2][i] for name in names]) for i in range(2))
    fa, fb = evaluate(a)[1], evaluate(b)[1]
    steps.clear()
    live = np.ones(len(names), dtype=bool)
    x, found = optimizer._chandrupatla(evaluate, a, b, fa, fb, live)
    return x, found, len(steps)


class TestRootSearch:
    @pytest.mark.parametrize("name", sorted(SLOPES))
    def test_root_within_tolerance(self, name):
        x, (_, slope), steps = root_search([name])
        root = SLOPES[name][1]
        assert math.isclose(x[0], root, rel_tol=optimizer._ROOT_TOL), (x[0], root)
        assert steps < optimizer._ROOT_STEPS
        if name == "zero-first":
            assert steps == 1 and slope[0] == 0.0

    def test_rows_of_analytic_slopes_do_not_depend_on_their_batch(self):
        names = sorted(SLOPES)
        x, found, _ = root_search(names)
        for i, name in enumerate(names):
            x1, found1, _ = root_search([name])
            assert x[i:i + 1].tobytes() == x1.tobytes(), name
            for column, single in zip(found, found1):
                assert column[i:i + 1].tobytes() == single.tobytes(), name

    def test_stopped_row_steps_in_place(self):
        # zero-first stops at its first step, steep runs on; each later
        # step evaluates zero-first at its stop point, so it keeps what it
        # gets alone
        points = []
        x, found, steps = root_search(["zero-first", "steep"], points)
        x1, found1, _ = root_search(["zero-first"])
        assert steps > 1
        assert all(point[:1].tobytes() == x1.tobytes() for point in points)
        assert x[:1].tobytes() == x1.tobytes()
        for column, single in zip(found, found1):
            assert column[:1].tobytes() == single.tobytes()

    def test_gain_evaluations_do_not_grow(self, monkeypatch):
        # the Illinois search that this one replaced made 412 evaluations,
        # and the window widened by doubling 277
        count = count_root_evaluations(monkeypatch)
        for variant in ("lemma2", "serfling"):
            for m in (2151, 11105, 19686):
                optimize(m, 0.0451, BUDGET6, variant)
        assert count[0] <= 227

    def test_root_searches_do_not_grow(self, monkeypatch):
        # a round is one root search whatever its rows: 31 for these eight
        # calls, and 9, 6, 9 and 6 for the four min_block_length calls,
        # which search no block size that _keyless certifies and steer
        # their batches by the lengths already searched (13, 12, 12 and 10
        # with a forward batch and a bisection tree; 19, 19, 21 and 21 when
        # they searched every size they read)
        searches = count_root_searches(monkeypatch)
        for variant in ("lemma2", "serfling"):
            for m in (2151, 11105, 18251, 19686):
                optimize(m, 0.0451, BUDGET6, variant)
        assert len(searches) <= 31
        searches.clear()
        for budget in (BUDGET6, BUDGET10):
            for variant in ("lemma2", "serfling"):
                min_block_length(0.0451, budget, variant, 1000, 20000)
        assert len(searches) <= 30

    def test_verifications_do_not_grow(self, monkeypatch):
        # a search returns its best row and the rows that its smooth bound
        # cannot rule out, and _verify reads at most _VERIFY of them: 13
        # for the eight optimize calls above and 39 for the four
        # min_block_length calls, which read no block size that _keyless
        # certifies (133 when they read every one, 50 when the two-term
        # certificate charged gamma at floor(m delta))
        calls = [0]
        max_ell_at = optimizer.max_ell_at

        def counted(*args):
            calls[0] += 1
            return max_ell_at(*args)

        monkeypatch.setattr(optimizer, "max_ell_at", counted)
        for variant in ("lemma2", "serfling"):
            for m in (2151, 11105, 18251, 19686):
                optimize(m, 0.0451, BUDGET6, variant)
        assert calls[0] <= 13
        calls[0] = 0
        for budget in (BUDGET6, BUDGET10):
            for variant in ("lemma2", "serfling"):
                min_block_length(0.0451, budget, variant, 1000, 20000)
        assert calls[0] <= 39

    @pytest.mark.parametrize("variant", ["lemma2", "serfling"])
    @pytest.mark.parametrize("m", [20000, 10**6, 10**9, 10**12, 2**53 - 1])
    def test_root_search_rows_stay_bounded(self, monkeypatch, m, variant):
        # each end of the window moves by at most _K_POINTS per round; a
        # window that doubled its width each round reached 461 rows at 10^9
        searches = count_root_searches(monkeypatch)
        optimize(m, 0.0451, BUDGET6, variant)
        assert max(len(k) for k in searches) <= 2 * optimizer._K_POINTS

    @pytest.mark.parametrize("variant", ["lemma2", "serfling"])
    @pytest.mark.parametrize("m", [20000, 10**6, 10**12, 2**53 - 1])
    def test_no_smooth_k_searched_twice(self, monkeypatch, m, variant):
        # each zoom round after the first searched again the k it shared
        # with the round before, its ends at least: 3 repeats at m = 20000
        # and 21 at 2^53 - 1
        smooth = []
        best_nu = _Model.best_nu

        def recorded(self, m, k, piece=None):
            if piece is None:
                smooth.append(np.asarray(k))
            return best_nu(self, m, k, piece)

        monkeypatch.setattr(_Model, "best_nu", recorded)
        optimize(m, 0.0451, BUDGET6, variant)
        ks = np.concatenate(smooth)
        assert len(np.unique(ks)) == len(ks)

    @pytest.mark.parametrize("variant", ["lemma2", "serfling"])
    @pytest.mark.parametrize("m", [20000, 10**6, 10**12, 2**53 - 1])
    def test_no_piece_searched_twice(self, monkeypatch, m, variant):
        # each refined k asks for each of its pieces once (two-term: 3, 4, 3
        # and 12 refined k at these m); the single-term bound's pieces are
        # its smooth rows, so it asks for none
        rows = []
        best_nu = _Model.best_nu

        def recorded(self, m, k, piece=None):
            if piece is not None:
                rows.extend(zip(np.asarray(k).tolist(), np.asarray(piece).tolist()))
            return best_nu(self, m, k, piece)

        monkeypatch.setattr(_Model, "best_nu", recorded)
        optimize(m, 0.0451, BUDGET6, variant)
        if variant == "serfling":
            assert rows == []
            return
        assert rows and len(set(rows)) == len(rows)
        ks = [k for k, _ in rows]
        assert {ks.count(k) for k in ks} == {len(optimizer._PIECES)}

    @pytest.mark.parametrize(
        "m, s, variant",
        [
            (3100, 6, "lemma2"),
            (4524, 6, "serfling"),
            (6402, 10, "serfling"),
            (4807, 10, "lemma2"),
            (20000, 6, "lemma2"),
            # rows of different block sizes in one batch
            pytest.param((3100, 4807, 20000), 10, "lemma2", id="mixed-10-lemma2"),
            pytest.param((3100, 4807, 20000), 6, "serfling", id="mixed-6-serfling"),
        ],
    )
    def test_row_does_not_depend_on_its_batch(self, m, s, variant):
        # each row stops where its own bracket converges, so the batch a k
        # is searched in cannot move its result by a bit
        model = _Model(0.0451, SecurityBudget(s), variant)
        ms = np.atleast_1d(m)
        ks = np.concatenate([np.linspace(1, size // 2, 17).round() for size in ms])
        ms = np.repeat(ms, 17)
        batch = model.best_nu(ms, ks)
        for i in range(len(ks)):
            alone = model.best_nu(ms[i:i + 1], ks[i:i + 1])
            for column, single in zip(batch, alone):
                assert column[i:i + 1].tobytes() == single.tobytes(), (ms[i], ks[i], i)

    @pytest.mark.parametrize("variant", ["lemma2", "serfling"])
    def test_lock_step_matches_each_search_alone(self, monkeypatch, variant):
        # block sizes that take different numbers of rounds share root
        # searches, and each gets the rows it gets alone
        ms = [20000, 259, 4807, 3100, 20]
        searches = count_root_searches(monkeypatch)
        model = _Model(0.0451, BUDGET10, variant)
        together = optimizer._lock_step(model, ms)
        shared = len(searches)
        alone = [optimizer._lock_step(model, [m]) for m in ms]
        assert together == [rows for (rows,) in alone]
        assert shared < len(searches) - shared


def count_models(monkeypatch):
    """Count the `_Model` instances built from now on."""
    built = [0]
    init = _Model.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(_Model, "__init__", counted)
    return built


class TestQuery:
    """A query builds one `_Model`, which every stage receives and which refuses a bad query."""

    @pytest.mark.parametrize("variant", ["lemma2", "serfling"])
    def test_one_model_per_query(self, monkeypatch, variant):
        # each _lock_step batch built its own model: 6 for the 37 block
        # sizes, and 4 (two-term) and 3 (single-term) for min_block_length
        built = count_models(monkeypatch)
        optimize(3100, 0.0451, BUDGET6, variant)
        assert built[0] == 1
        built[0] = 0
        list(optimizer._optimize_each(range(2000, 20001, 500), 0.0451, BUDGET6, variant))
        assert built[0] == 1
        built[0] = 0
        min_block_length(0.0451, BUDGET10, variant, 1000, 20000)
        assert built[0] == 1

    @pytest.mark.parametrize(
        "variant, delta, message",
        [
            ("chernoff", 0.0451, "unknown variant"),
            ("lemma2", 0.6, "delta must lie in \\(0, 0.5\\)"),
            ("chernoff", 0.6, "unknown variant"),
        ],
    )
    def test_refused_query_does_no_work(self, monkeypatch, variant, delta, message):
        searches = count_root_searches(monkeypatch)
        certificates = []
        monkeypatch.setattr(optimizer, "_keyless", lambda model, m: certificates.append(m))
        queries = [
            lambda: min_block_length(delta, BUDGET6, variant, 1000, 20000),
            lambda: optimize(3100, delta, BUDGET6, variant),
            lambda: list(optimizer._optimize_each([], delta, BUDGET6, variant)),
        ]
        for query in queries:
            with pytest.raises(ValueError, match=message):
                query()
        assert searches == [] and certificates == []

    def test_min_block_length_refusal_order(self):
        # the block sizes, then m_lo <= m_hi, then the variant, then delta,
        # then the floor of 10
        cases = [
            ((3000.0, 100), "chernoff", 0.6, "integer"),
            ((500, 100), "chernoff", 0.6, "need m_lo <= m_hi"),
            ((5, 100), "chernoff", 0.6, "unknown variant"),
            ((5, 100), "lemma2", 0.6, "delta must lie"),
            ((5, 100), "lemma2", 0.0451, "at least 10"),
        ]
        for (m_lo, m_hi), variant, delta, message in cases:
            with pytest.raises(ValueError, match=message):
                min_block_length(delta, BUDGET6, variant, m_lo, m_hi)


def record_smooth_errors(monkeypatch):
    """Record ``(m, m_err)`` of each `_gamma_factor` call asked for its slope from now on."""
    asked = []
    gamma_factor = optimizer._gamma_factor

    def recorded(m, m_err, slope=False):
        if slope:
            asked.append(np.broadcast_arrays(m, m_err))
        return gamma_factor(m, m_err, slope)

    monkeypatch.setattr(optimizer, "_gamma_factor", recorded)
    return asked


class TestSmoothFactor:
    @pytest.mark.parametrize("s", [1, 6, 10])
    @pytest.mark.parametrize("delta", [0.0451, 0.45, 0.4999])
    @pytest.mark.parametrize("m", [10, 11, 261, 262, 3100, 20000, 10**12, 2**53 - 1])
    def test_smooth_errors_stay_at_most_half(self, monkeypatch, m, delta, s):
        # the smooth split takes gamma as its factor and gamma's slope as
        # dc: that is _key_factor's form only while m_err <= m // 2.  A NaN
        # iterate (no defined split, as at delta = 0.4999 and m = 10) is
        # NaN in either form, so only the numbers are checked
        asked = record_smooth_errors(monkeypatch)
        model = _Model(delta, SecurityBudget(s), "lemma2")
        model.best_nu(m, np.unique(np.linspace(1, m // 2, 17).round()))
        for k in (1, m // 2):
            model.gain(np.array([m], dtype=float), np.array([k], dtype=float),
                       np.array([model.nu_hi]))
        assert any(np.isfinite(m_err).any() for _, m_err in asked)
        for ms, m_err in asked:
            assert not np.any(m_err > ms // 2), (np.nanmax(m_err), ms.max())


class TestPieceRow:
    def test_piece_row_is_the_scalar_two_term_bound(self):
        # a piece row's eps_pe^2 is lemma2_ppe_detail's raw sum at the row's
        # own xi, for the two pieces that _search asks for around the smooth
        # optimum.  At a piece's left end the scalar path rounds m (delta +
        # xi) down to the piece before, whose factor is larger, so there it
        # may only be lower
        rng = np.random.default_rng(25)
        compared = left_ends = 0
        for delta in (0.01, 0.0451, 0.2, 0.4):
            for s in (1, 6, 10):
                model = _Model(delta, SecurityBudget(s), "lemma2")
                m = rng.choice([20, 100, 3100, 4807, 20000, 10**6, 10**9, 10**12], 250)
                m = m.astype(float)
                k = np.floor(rng.uniform(1.0, m // 2 + 1.0))
                # eps_pe^2's exponents then run from about 1 to 10^4
                nu = np.minimum(np.sqrt(delta * 10.0 ** rng.uniform(0.0, 4.0, m.size) / m),
                                model.nu_hi)
                with np.errstate(all="ignore"):
                    smooth_xi = model._split(m, k, nu, None)[2]
                    piece = np.ceil(m * (delta + smooth_xi)) + rng.integers(-1, 1, m.size)
                    p, _, xi = model._split(m, k, nu, piece)
                for row in np.flatnonzero(np.isfinite(p)):
                    detail = lemma2_ppe_detail(
                        BlockShape(int(m[row]), int(k[row])), delta,
                        SlackParams(float(nu[row]), float(xi[row])),
                    )
                    if detail["m_err"] == piece[row]:
                        compared += 1
                        assert math.isclose(detail["raw"], p[row], rel_tol=1e-13), row
                    else:
                        left_ends += 1
                        assert detail["raw"] <= p[row], row
        assert compared > 2000 and left_ends > 0, (compared, left_ends)


class TestOptimizationPoint:
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_at_its_ends_accepted(self, alpha):
        assert OptimizationPoint(alpha=alpha, beta=0.5, nu=0.1, xi=0.05).alpha == alpha

    @pytest.mark.parametrize("alpha", [-1e-9, 1.0 + 1e-9, -1.0, 2.0, math.nan])
    def test_alpha_outside_unit_interval_refused(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            OptimizationPoint(alpha=alpha, beta=0.5, nu=0.1, xi=0.05)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_beta_outside_open_interval_refused(self, beta):
        with pytest.raises(ValueError, match="beta must lie in"):
            OptimizationPoint(alpha=0.5, beta=beta, nu=0.1, xi=0.05)

    def test_k_comes_back_from_a_printed_beta(self):
        # The CLI prints beta = k/m in shortest round-trip form, and a reader
        # takes k = round(beta * m).  Check it for 1 <= k <= m // 2 at every
        # magnitude of m from 10 to 2^53 - 1, and near the top with k near
        # m // 2, where beta * m is largest.
        rng = random.Random(20261019)
        top = 2**53 - 1
        ms = [rng.randrange(max(10, 2 ** (e - 1)), 2**e) for e in range(4, 54)
              for _ in range(150)]
        ms += [top - rng.randrange(2**20) for _ in range(300)] + [top]
        pairs = []
        for m in ms:
            half = m // 2
            pairs += [(m, 1), (m, half), (m, rng.randint(1, half))]
            pairs += [(m, max(1, half - rng.randrange(2**10))) for _ in range(3)]
        assert len(pairs) > 40_000
        wrong = [(m, k) for m, k in pairs if round(float(str(k / m)) * m) != k]
        assert wrong == []


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
            # the zoom takes two rounds here
            (20000, 6, "lemma2"),
            (20000, 6, "serfling"),
            # the window took 3-4 widening rounds here when it doubled
            (18251, 6, "lemma2"),
            (19686, 6, "serfling"),
        ],
    )
    def test_no_k_outside_the_window_wins(self, m, s, variant):
        budget = SecurityBudget(s)
        res = optimize(m, 0.0451, budget, variant)
        model = _Model(0.0451, budget, variant)
        ks = np.arange(1, m // 2 + 1, dtype=float)
        gain, _, xi, _ = model.best_nu(m, ks)
        leakage = np.ceil(_leakage(m - ks, model.h))
        length = gain - leakage
        # the smooth length bounds each two-term piece's: where it reaches
        # one bit more than optimize found, the pieces decide
        reach = length >= res.ell + 1
        if model.two_term and reach.any():
            width = len(optimizer._PIECES)
            pieces = np.ceil(m * (0.0451 + xi[reach])) + np.array(optimizer._PIECES)[:, None]
            gains = model.best_nu(m, np.tile(ks[reach], width), pieces.ravel())[0]
            length[reach] = gains.reshape(width, -1).max(axis=0) - leakage[reach]
        assert length.max() < res.ell + 1

    @pytest.mark.parametrize("m", [20, 101, 259, 261])
    @pytest.mark.parametrize("variant", ["lemma2", "serfling"])
    def test_small_blocks_searched_exhaustively(self, monkeypatch, m, variant):
        # up to m // 2 = 130 no zoom round runs: the first root search
        # visits every k, so no single-peak assumption is needed there
        searches = count_root_searches(monkeypatch)
        optimize(m, 0.0451, BUDGET6, variant)
        assert searches[0].tolist() == list(range(1, m // 2 + 1))

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


# the block sizes of the bench's keyrate workload at seed 1
KEYRATE_SIZES = [2151, 4078, 5109, 5661, 7057, 8130, 9483, 10762, 11105, 12156,
                 14190, 14861, 16357, 16627, 18251, 19686]


def scalar_length(res, budget):
    """The unrounded length at ``res``'s point, through the scalar path."""
    m, point = res.m, res.point
    settings = ProtocolSettings(BlockShape(m, round(point.beta * m)), 0.0451)
    slack = SlackParams(nu=point.nu, xi=point.xi)
    bd, _ = feasible(settings, budget, slack, res.variant)
    h = float(_h2(0.0451 + point.nu))
    return _ell_bound(settings.shape.n, h, settings.r, budget.t, _headroom(budget.room, bd.eps_pe))


class TestCandidateRows:
    """`_search` returns its best piece row, then only rows its bound cannot rule out."""

    @pytest.mark.parametrize("variant", ["lemma2", "serfling"])
    def test_rows_after_the_first_reach_its_length(self, variant):
        # rows admitted under an earlier, lower target used to stay: at m =
        # 7057 (two-term) k = 2881, whose smooth length 530.4226 is below
        # the best piece's 530.4264
        model = _Model(0.0451, BUDGET6, variant)
        found = optimizer._lock_step(model, KEYRATE_SIZES)
        for m, rows in zip(KEYRATE_SIZES, found):
            ks = np.array([row[1] for row in rows[1:]], dtype=float)
            smooth = model.best_nu(m, ks)[0] - np.ceil(_leakage(m - ks, model.h))
            assert np.all(smooth >= rows[0][0]), (m, ks[smooth < rows[0][0]])

    @pytest.mark.parametrize(
        "m, s, least",
        [
            # k = 868415290, searched ahead of the leader, holds the best
            # piece; returning only the rows admitted one k at a time gave
            # k = 868415534 at 418104332342.4155 bits, with the same ell
            (10**12, 10, 418104332342.42),
            # k = 710582847 against 710583129 at .8665 bits
            (2079420981037, 1, 870796268558.867),
        ],
    )
    def test_best_piece_searched_is_kept(self, m, s, least):
        budget = SecurityBudget(s)
        res = optimize(m, 0.0451, budget, "lemma2")
        assert res.ell == math.floor(least)
        assert scalar_length(res, budget) >= least


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

    def test_non_integral_range_rejected(self, monkeypatch):
        searches = count_root_searches(monkeypatch)
        for m_lo, m_hi in [(3000.0, 3100), (3000, 3100.0)]:
            with pytest.raises(ValueError, match="integer"):
                min_block_length(0.0451, BUDGET6, "lemma2", m_lo, m_hi)
        assert searches == []

    def test_range_beyond_float64_rejected_before_search(self, monkeypatch):
        searches = count_root_searches(monkeypatch)
        with pytest.raises(ValueError, match="m_hi must be below 2\\^53"):
            min_block_length(0.0451, BUDGET6, "lemma2", 1000, 10**20)
        assert searches == []


def _grid(m_lo, m_hi):
    """min_block_length's forward grid: strides from m_lo, then m_hi."""
    stride = max(1, min(500, (m_hi - m_lo) // 128))
    grid = list(range(m_lo, m_hi + 1, stride))
    if grid[-1] != m_hi:
        grid.append(m_hi)
    return stride, grid


def sequential_search(m_lo, m_hi, keyed):
    """The forward scan and bisection read one block size at a time.

    Returns the result and the block sizes read, in order.
    """
    _, grid = _grid(m_lo, m_hi)
    read = []
    bad = m_lo - 1
    for good in grid:
        read.append(good)
        if keyed(good):
            break
        bad = good
    else:
        return None, read
    while good - bad > 1:
        mid = (bad + good) // 2
        read.append(mid)
        if keyed(mid):
            good = mid
        else:
            bad = mid
    return good, read


class TestMinBlockSearch:
    """The search over m against a step oracle.

    The oracle stands in for both halves of a probe: the batched search
    (`optimizer._lock_step`), which records each batch of block sizes and
    gives each size one row of its unrounded length, ``length(m)``, and
    the read of one block size (`optimizer._verify`), which records it in
    ``calls`` and says whether it has a key.  The lengths only steer which
    sizes are searched; by default a size's length is 1 where it has a key
    and 0 where it has none.  A fake certificate (`optimizer._keyless`)
    certifies the block sizes of ``certified``, none unless a test names
    some; a certified size is never searched.  Each batch is followed by
    at least one read before the next batch, and every batch, read and
    certificate of one search receives the same model.
    """

    @staticmethod
    def search(monkeypatch, m_lo, m_hi, keyed, certified=frozenset(), length=None):
        calls, batches, reads_before, models = [], [], [], []
        length = length or (lambda m: float(keyed(m)))

        def lock_step(model, ms):
            models.append(model)
            batches.append(list(ms))
            reads_before.append(len(calls))
            # each block size's rows: one row of its length, then the size itself
            return [[(length(m), m)] for m in ms]

        def read(model, m, rows):
            models.append(model)
            assert rows[0][1] == m  # the rows of m, from a batch already searched
            calls.append(m)
            return SimpleNamespace(m=m, ell=int(keyed(m)))

        def keyless(model, m):
            models.append(model)
            return m in certified

        monkeypatch.setattr(optimizer, "_lock_step", lock_step)
        monkeypatch.setattr(optimizer, "_verify", read)
        monkeypatch.setattr(optimizer, "_keyless", keyless)
        got = min_block_length(0.0451, BUDGET6, "lemma2", m_lo, m_hi)
        assert all(model is models[0] for model in models)
        for batch in batches:
            assert 1 <= len(batch) <= 7
            assert len(set(batch)) == len(batch)
            assert all(m_lo <= m <= m_hi for m in batch)
            assert not certified.intersection(batch)
        assert all(a < b for a, b in zip(reads_before, reads_before[1:] + [len(calls)]))
        return got, calls, batches

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
        # a length linear in m that reaches 1 at the threshold, exact in floats
        got, calls, batches = self.search(
            monkeypatch, m_lo, m_hi, lambda m: m >= threshold,
            length=lambda m: 1.0 + (m - threshold) / 8,
        )
        stride, grid = _grid(m_lo, m_hi)
        if threshold > m_hi:
            assert got is None
            assert calls == grid
            assert len(batches) == math.ceil(len(grid) / 7)
            return
        assert got == threshold
        if threshold == m_lo:
            assert calls == [m_lo]
        forward = sum(1 for g in grid if g < threshold) + 1
        assert len(calls) <= forward + math.ceil(math.log2(stride))
        # seven grid points per batch, three bisection steps per batch
        steps = math.ceil(math.log2(stride))
        assert len(batches) <= math.ceil(forward / 7) + math.ceil(steps / 3)

    @pytest.mark.parametrize("island", [2950, 2998])
    def test_island_below_threshold(self, monkeypatch, island):
        # one keyed m inside the stride (2924, 3072] below the threshold 3000
        def keyed(m):
            return m >= 3000 or m == island

        got, _, _ = self.search(monkeypatch, 1000, 20000, keyed)
        assert keyed(got)
        assert got == 1000 or not keyed(got - 1)
        assert not any(keyed(g) for g in _grid(1000, 20000)[1] if g < got)

    @pytest.mark.parametrize("seed", range(12))
    def test_non_monotone_key_matches_sequential_search(self, monkeypatch, seed):
        # keyed block sizes scattered at random, islands everywhere: the
        # batches must read what the sequential search reads and return
        # what it returns
        rng = np.random.default_rng(seed)
        m_lo = int(rng.integers(10, 3000))
        m_hi = m_lo + int(rng.integers(0, 30000))
        density = float(rng.choice([0.003, 0.01, 0.1, 0.5]))
        keyed = set((m_lo + np.flatnonzero(rng.random(m_hi - m_lo + 1) < density)).tolist())
        got, calls, _ = self.search(monkeypatch, m_lo, m_hi, keyed.__contains__)
        assert (got, calls) == sequential_search(m_lo, m_hi, keyed.__contains__)

    @pytest.mark.parametrize("seed", range(12))
    def test_certified_sizes_match_sequential_search(self, monkeypatch, seed):
        # a seeded share of the keyless sizes is certified: the search
        # returns what the sequential search returns, and reads what it
        # reads except the certified sizes
        rng = np.random.default_rng(seed)
        m_lo = int(rng.integers(10, 3000))
        m_hi = m_lo + int(rng.integers(0, 30000))
        density = float(rng.choice([0.003, 0.01, 0.1, 0.5]))
        share = float(rng.choice([0.3, 0.7, 1.0]))
        keyed_mask = rng.random(m_hi - m_lo + 1) < density
        keyed = set((m_lo + np.flatnonzero(keyed_mask)).tolist())
        drawn = ~keyed_mask & (rng.random(m_hi - m_lo + 1) < share)
        certified = frozenset((m_lo + np.flatnonzero(drawn)).tolist())
        got, calls, _ = self.search(monkeypatch, m_lo, m_hi, keyed.__contains__, certified)
        want, reads = sequential_search(m_lo, m_hi, keyed.__contains__)
        assert got == want
        assert calls == [m for m in reads if m not in certified]

    @pytest.mark.parametrize("seed", range(12))
    def test_misleading_lengths_match_sequential_search(self, monkeypatch, seed):
        # a step in m with a seeded share of its keys flipped, and lengths
        # that contradict the keys: high where a size is keyless and low
        # where it is keyed.  A wrong prediction costs batches, but the
        # reads and the result are those of the sequential search, and each
        # batch still leads to a read
        rng = np.random.default_rng(seed)
        m_lo = int(rng.integers(10, 3000))
        m_hi = m_lo + int(rng.integers(0, 30000))
        sizes = np.arange(m_lo, m_hi + 1)
        threshold = int(rng.integers(m_lo, m_hi + 2))
        flipped = rng.random(len(sizes)) < float(rng.choice([0.0, 0.01, 0.1]))
        keyed_mask = (sizes >= threshold) ^ flipped
        keyed = set(sizes[keyed_mask].tolist())
        lengths = np.where(
            keyed_mask,
            rng.uniform(-3.0, 0.5, len(sizes)),
            rng.uniform(1.5, 4.0, len(sizes)),
        )
        got, calls, _ = self.search(
            monkeypatch, m_lo, m_hi, keyed.__contains__,
            length=lambda m: float(lengths[m - m_lo]),
        )
        assert (got, calls) == sequential_search(m_lo, m_hi, keyed.__contains__)

    def test_certified_size_past_the_hit(self, monkeypatch):
        # the grid runs 1000, 1148, ..., 2480, 2628, 2776, 2924; the key
        # starts at 2481, but 2776 is keyless and certified, so the keyless
        # branch of the hit 2628 passes it and the batch reaches 2924.  The
        # bisection starts from 2480, the grid point before the hit, not
        # from 2776.
        certified = frozenset([2332, 2480, 2776])

        def keyed(m):
            return m >= 2481 and m != 2776

        got, calls, batches = self.search(monkeypatch, 1000, 20000, keyed, certified)
        want, reads = sequential_search(1000, 20000, keyed)
        assert got == want == 2481
        assert calls == [m for m in reads if m not in certified]
        assert batches[1] == [1592, 1740, 1888, 2036, 2184, 2628, 2924]

    def test_bisection_batch_all_certified(self, monkeypatch):
        # the hit 2628 has a key and every size below it is certified, so
        # the bisection reads no size and adds no batch: the one batch holds
        # the hit and the uncertified sizes of the tree above it
        certified = frozenset(range(1000, 2628))
        got, calls, batches = self.search(
            monkeypatch, 1000, 20000, lambda m: m >= 2628, certified
        )
        assert got == 2628
        assert calls == [2628]
        assert batches == [[2628, 2776, 2924, 2702, 3072, 2850, 2739]]


def random_runs(rng, m):
    """256 runs ``[k1, k2]`` in ``[1, m // 2]`` and one ``k`` in each.

    Both the start and the length are log-uniform, so narrow runs and
    small ``k`` are drawn as often as wide ones.
    """
    half = m // 2
    k1 = np.floor(np.exp(rng.random(256) * math.log(half)))
    k2 = np.minimum(k1 + np.floor(np.exp(rng.random(256) * math.log(half))) - 1.0, half)
    k = np.floor(k1 + rng.random(256) * (k2 - k1 + 1.0))
    return k1, k2, k


def edge_of_each_k(model, m, k):
    """`_Model._edge` of one ``k`` per row, with ``n = m - k`` formed once."""
    n = m - k
    need = 2.0 * math.log(2.0 / model.room)
    if not model.two_term:
        return np.sqrt(0.5 * need / _serfling_rate(m, k, n))
    c_max = _hush_scovel_factor(k, n, _gamma_factor(m, np.floor(m * model.delta)))
    sample = np.sqrt(need / _sample_rate(m, k, n))
    return sample + np.sqrt(need / (2.0 * c_max) + 1.0) / n


# The certificate's reach at delta = 0.0451, by variant and s: the
# threshold, and every block size below it that _keyless certifies.
REACH = {
    ("lemma2", 10): (4807, [*range(10, 4593), 4595, 4596]),
    ("lemma2", 6): (3006, list(range(10, 2830))),
    ("serfling", 10): (6402, list(range(10, 6191))),
    ("serfling", 6): (3967, list(range(10, 3805))),
}


class TestKeyless:
    """`optimizer._keyless`, the closed-form certificate that a block size has no key."""

    @pytest.mark.parametrize("variant", ["lemma2", "serfling"])
    @pytest.mark.parametrize("s", [1, 6, 10])
    @pytest.mark.parametrize("delta", [0.01, 0.0451, 0.2])
    def test_largest_certified_sizes_have_no_key(self, delta, s, variant):
        # at delta = 0.2 the leakage exceeds the entropy, so every size of
        # the grid is certified, 10^7 included
        budget = SecurityBudget(s)
        model = _Model(delta, budget, variant)
        grid = np.unique(np.geomspace(10, 10**7, 200).astype(int)).tolist()
        certified = [m for m in grid if optimizer._keyless(model, m)]
        assert certified
        for m in certified[-2:]:
            assert optimize(m, delta, budget, variant).ell == 0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        m=st.integers(10, 20000),
        beta=st.floats(0.05, 0.5),
        nu=st.floats(0.005, 0.45),
        split=st.floats(0.05, 0.95),
        delta=st.sampled_from([0.01, 0.0451, 0.2]),
        s=st.sampled_from([1, 6, 10]),
        variant=st.sampled_from(["lemma2", "serfling"]),
    )
    def test_no_certificate_where_a_point_has_a_key(self, m, beta, nu, split, delta, s, variant):
        budget = SecurityBudget(s)
        shape = BlockShape(m=m, k=max(1, min(m // 2, round(beta * m))))
        slack = SlackParams(nu=nu, xi=split * nu if variant == "lemma2" else 0.0)
        if max_ell_at(ProtocolSettings(shape, delta), budget, slack, variant) >= 1:
            assert not optimizer._keyless(_Model(delta, budget, variant), m)

    @pytest.mark.parametrize("s, m_lo, m_hi", [(6, 3000, 5000), (10, 5000, 8000)])
    def test_single_term_certificates_below_the_exact_threshold(self, s, m_lo, m_hi):
        threshold = single_term_threshold(0.0451, s, m_lo, m_hi)[0]
        model = _Model(0.0451, SecurityBudget(s), "serfling")
        certified = [m for m in range(m_lo, m_hi + 1) if optimizer._keyless(model, m)]
        assert certified and max(certified) < threshold

    @pytest.mark.parametrize("delta", [0.0451, 0.2])
    @pytest.mark.parametrize("variant", ["lemma2", "serfling"])
    def test_largest_block_size_in_little_memory(self, delta, variant):
        # the runs over k are at most _K_POINTS, whatever m is
        model = _Model(delta, BUDGET6, variant)
        tracemalloc.start()
        try:
            keyless = optimizer._keyless(model, 2**53 - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert keyless == (delta == 0.2)
        assert peak < 16 * 8 * (optimizer._K_POINTS + 1)

    @pytest.mark.parametrize("variant", ["lemma2", "serfling"])
    @pytest.mark.parametrize("delta, s", [(0.0451, 6), (0.01, 10), (0.2, 1)])
    def test_edge_of_a_run_bounds_each_k_in_it(self, delta, s, variant):
        # each factor is taken at its worse end of [k1, k2], so the run's
        # edge is at most the edge of every k in it, as _seed takes it and
        # as the certificate does; runs start and end log-uniformly, so
        # narrow runs and small k are drawn too
        model = _Model(delta, SecurityBudget(s), variant)
        rng = np.random.default_rng(20261019)
        for m in (300, 3100, 20000, 10**6, 10**12, 2**53 - 1):
            k1, k2, k = random_runs(rng, m)
            m = float(m)
            for headroom in (False, True):
                run = model._edge(m, k1, k2, headroom=headroom)
                for each in (k, k1, k2):
                    assert np.all(run <= model._edge(m, each, each, headroom=headroom)), m

    @pytest.mark.parametrize("headroom", [False, True])
    @pytest.mark.parametrize("delta, s", [(0.0451, 6), (0.01, 10), (0.2, 1), (0.4, 10)])
    def test_key_half_of_a_run_edge_bounds_each_k_in_it(self, delta, s, headroom):
        # the two-term edge is a sample half plus a key half, and each half
        # of a run's edge is at most the same half of every k in it.  The
        # whole edge hides a c_max taken at (k2, m - k1): the sample half
        # at k2 and the key half's 1/(m - k1) keep the run's edge below
        # each k's, but where 1/(k1 + 1) exceeds gamma, the key half of
        # the run then exceeds that of k1
        model = _Model(delta, SecurityBudget(s), "lemma2")
        need = 2.0 * math.log(2.0 / model.room)
        rng = np.random.default_rng(20261021)
        for m in (300, 3100, 20000, 10**6, 10**12, 2**53 - 1):
            k1, k2, k = random_runs(rng, m)
            m = float(m)

            def key_half(a, b):
                edge = model._edge(m, a, b, headroom=headroom)
                return edge - np.sqrt(need / _sample_rate(m, b, m - b)), edge

            run, edge = key_half(k1, k2)
            for each in (k, k1, k2):
                half, each_edge = key_half(each, each)
                ulps = 4.0 * np.spacing(np.maximum(edge, each_edge))
                assert np.all(run <= half + ulps), m

    @pytest.mark.parametrize("variant", ["lemma2", "serfling"])
    @pytest.mark.parametrize("delta, s", [(0.0451, 6), (0.01, 10), (0.2, 1), (0.4, 10)])
    def test_bound_of_a_run_bounds_each_k_in_it(self, delta, s, variant):
        # the certificate's bound over a run is at least the bound of each
        # k in it: a factor taken at the wrong end of the run, say r at
        # m - k1, lowers it below the bound of some k
        model = _Model(delta, SecurityBudget(s), variant)
        rng = np.random.default_rng(20261020)
        for m in (300, 3100, 20000, 10**6, 10**12, 2**53 - 1):
            k1, k2, k = random_runs(rng, m)
            m = float(m)
            run = optimizer._run_bound(model, m, k1, k2)
            # the bounds are sums of terms of size m, rounded to its spacing
            ulps = 4.0 * np.spacing(m)
            for each in (k, k1, k2):
                assert np.all(run >= optimizer._run_bound(model, m, each, each) - ulps), m

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        log_m=st.floats(math.log(10), math.log(10**9)),
        log_k=st.floats(0.0, 1.0),
        log_lift=st.floats(-9.0, 0.0),
        delta=st.sampled_from([0.01, 0.0451, 0.2, 0.4]),
        s=st.sampled_from([1, 6, 10]),
    )
    def test_headroom_lies_above_the_certificate_edge(self, log_m, log_k, log_lift, delta, s):
        # the scalar two-term bound leaves headroom only where each of its
        # terms is below (room/2)^2; wherever both are, nu is at least the
        # certificate's edge at [k, k], which charges gamma at the least
        # error count that the sample term allows.  xi is drawn just above
        # the least xi that the sample term allows, where that count is
        # tight, and nu is the least deviation at that xi where both terms
        # are below, to 1e-12 relative by bisection
        budget = SecurityBudget(s)
        m = round(math.exp(log_m))
        shape = BlockShape(m=m, k=round(math.exp(log_k * math.log(m // 2))))
        n, k = shape.n, shape.k
        least = math.sqrt(2.0 * math.log(2.0 / budget.room) * (n + 1) / (2.0 * m * k))
        xi = least * (1.0 + 10.0**log_lift)
        cap = (0.5 * budget.room) ** 2

        def below(nu):
            try:
                detail = lemma2_ppe_detail(shape, delta, SlackParams(nu=nu, xi=xi))
            except BoundUnavailableError:
                return False
            return detail["sample_term"] < cap and detail["key_term"] < cap

        lo, hi = xi, (0.5 - delta) * (1.0 - 1e-12)
        if not (lo < hi and below(hi)):
            return
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if below(mid) else (mid, hi)
        model = _Model(delta, budget, "lemma2")
        assert hi >= model._edge(float(m), float(k), float(k), headroom=True)

    @pytest.mark.parametrize(
        "delta, s, threshold",
        [(0.01, 6, 974), (0.01, 10, 1550), (0.0451, 6, 3006), (0.0451, 10, 4807)],
    )
    def test_largest_two_term_certificates_below_the_threshold(self, delta, s, threshold):
        # the thresholds are test_acceptance's; the 25 certified sizes
        # nearest below each have no key
        budget = SecurityBudget(s)
        model = _Model(delta, budget, "lemma2")
        below = (m for m in range(threshold - 1, 9, -1) if optimizer._keyless(model, m))
        certified = list(itertools.islice(below, 25))
        assert len(certified) == 25
        for m in certified:
            assert optimize(m, delta, budget, "lemma2").ell == 0, m

    @pytest.mark.parametrize("s, threshold, reach", [
        (10, *REACH["lemma2", 10]),
        (6, *REACH["lemma2", 6]),
    ])
    def test_two_term_reach(self, s, threshold, reach):
        # the package's own reach at delta = 0.0451, pinned against drift:
        # the certificate covers about 95% of the way to the threshold
        model = _Model(0.0451, SecurityBudget(s), "lemma2")
        assert [m for m in range(10, threshold) if optimizer._keyless(model, m)] == reach

    @pytest.mark.parametrize("s, threshold, reach", [
        (10, *REACH["serfling", 10]),
        (6, *REACH["serfling", 6]),
    ])
    def test_single_term_reach(self, s, threshold, reach):
        # the README's single-term reach at delta = 0.0451, pinned against
        # drift: the certificate covers about 96% of the way to the threshold
        model = _Model(0.0451, SecurityBudget(s), "serfling")
        assert [m for m in range(10, threshold) if optimizer._keyless(model, m)] == reach

    def test_readme_states_the_reach(self):
        # the README gives each reach as the end of its run of sizes from
        # 10 and the sizes certified past that run, in this order
        def told(reach):
            run = next(i for i, m in enumerate(reach + [None]) if m != 10 + i)
            return [reach[run - 1], *reach[run:]]

        (t2, two), (t1, one) = REACH["lemma2", 10], REACH["serfling", 10]
        (t2_6, two_6), (t1_6, one_6) = REACH["lemma2", 6], REACH["serfling", 6]
        stated = [
            10, *told(two), *told(one), 10, t2, t1, *told(two_6), *told(one_6), 6, t2_6, t1_6,
        ]
        readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
        sentence = re.search(r"certifies every block size (.*?\(thresholds \d+ and \d+\))", readme)
        assert [int(x) for x in re.findall(r"\d+", sentence[1])] == stated

    @pytest.mark.parametrize("variant", ["lemma2", "serfling"])
    @pytest.mark.parametrize("delta, s", [(0.0451, 6), (0.01, 10), (0.4999, 1)])
    def test_edge_of_one_k_unchanged(self, delta, s, variant):
        # _seed calls the interval edge at [k, k]: its grid must stay bit for bit
        model = _Model(delta, SecurityBudget(s), variant)
        for m in (10, 3100, 4807, 20000, 10**12, 2**53 - 1):
            k = np.unique(np.round(np.geomspace(1, m // 2, 300)))
            m = np.full(k.shape, float(m))
            assert model._edge(m, k, k).tobytes() == edge_of_each_k(model, m, k).tobytes()


class TestSweep:
    def test_key_length_nondecreasing_in_m(self):
        for variant in ("lemma2", "serfling"):
            ms = range(2000, 20001, 500)
            ells = [optimize(m, 0.0451, BUDGET6, variant).ell for m in ms]
            assert ells == sorted(ells), f"{variant}: {ells}"
