"""Parameter search: best extractable key length over (k, nu, xi).

For a fixed block size ``m``, tolerated error rate ``delta`` and failure
budget, `optimize` searches the PE sample size ``k``, the deviation ``nu``
and the split ``xi`` for the point that maximises the extractable length
``ell``.  At fixed ``k`` the closed-form length is a function of ``nu``
alone once ``xi`` is chosen best: for the single-term bound ``xi`` plays no
part, and for the two-term bound the best ``xi`` minimises the PE term,
which is solved piece by piece of ``m_err = ceil(m (delta + xi))``.  The
best ``nu`` is then a bracketed root of the length's derivative.  Over
``k``, a zoom on the smooth envelope finds its peak, and a window of
integers around the peak widens until the envelope at both of its ends
falls short of the best length found.  This takes the envelope to have a
single peak in ``k``.  The leading candidates are re-evaluated through the
scalar `security` functions, so the reported result never rests on the
vectorised path alone.

`min_block_length` inverts the search over ``m``: forward strides find the
first grid point whose optimised ``ell`` reaches one, and a bisection inside
that stride finds a block size with a key whose predecessor has none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bounds import (
    BlockShape, SlackParams, binary_entropy,
    _gamma_factor, _h2, _hush_scovel_factor, _hush_scovel_tail,
    _sample_rate, _serfling_rate, _serfling_tail,
)
from .security import (
    VARIANTS, EpsilonBreakdown, ProtocolSettings, SecurityBudget,
    feasible, max_ell_at, _ell_bound, _headroom, _leakage,
)
from .security import ec_leakage  # unused; the benchmark traces it here

__all__ = [
    "OptimizationPoint",
    "KeyRateResult",
    "optimize",
    "min_block_length",
]

# Block sizes per zoom round over k, and log-spaced deviations that seed
# the bracket of the best nu at each k.
_K_POINTS = 17
_NU_POINTS = 24
# m_err pieces searched: the one holding the smooth optimum of xi and the
# one before it (see _Model.best_piece); Newton steps for the best xi at
# one (k, nu).
_PIECES = (-1, 0)
_SPLIT_STEPS = 5
# Bracketed root search for the best nu: iteration cap and tolerance.
_ROOT_STEPS = 60
_ROOT_TOL = 1e-9
# Candidates re-evaluated through the scalar path.
_VERIFY = 3
_LOG2E = 1.0 / math.log(2.0)


@dataclass(frozen=True)
class OptimizationPoint:
    """One parameter point: key fraction ``alpha = ell/m`` plus the knobs."""

    alpha: float
    beta: float
    nu: float
    xi: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not self.nu > 0.0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if not 0.0 <= self.xi < self.nu:
            raise ValueError(f"xi must lie in [0, nu), got {self.xi}")


@dataclass(frozen=True)
class KeyRateResult:
    """Outcome of `optimize` at one block size.

    ``point`` and ``breakdown`` are None when no parameter point admitted a
    defined bound at all.  ``feasible`` reports whether the best point
    satisfies the budget condition at the returned ``ell``; an ``ell`` of
    zero with ``feasible=True`` means the attempt passes but yields no key.
    """

    m: int
    variant: str
    ell: int
    point: Optional[OptimizationPoint]
    breakdown: Optional[EpsilonBreakdown]
    feasible: bool


class _Model:
    """The closed-form key length at one block size, vectorised over (k, nu).

    `gain` is ``ell + r`` before rounding: ``n (1 - h2(delta + nu)) - t +
    2 log2(2 (eps_qkd - 2^-t - 2 eps_pe))``, the largest length the budget
    condition allows, with the error-correction leakage ``r`` left out
    because it depends on ``k`` alone.  For the two-term bound, ``xi`` is
    chosen to minimise ``eps_pe`` at each ``(k, nu)``: within one piece of
    ``m_err = ceil(m (delta + xi))`` when ``piece`` is given, and with the
    Hush-Scovel factor taken as a smooth function of ``xi`` when it is not.
    Where ``m_err <= m/2`` the factor falls as ``m_err`` grows, so the
    smooth factor is never below the factor of the piece, and the smooth
    gain bounds every piece's gain from above.  Every formula of the model
    is a kernel of `bounds` or `security`, shared with the scalar API; only
    the derivatives that steer the search are this class's own.
    """

    def __init__(self, m: int, delta: float, budget: SecurityBudget, variant: str):
        self.m = m
        self.delta = delta
        self.two_term = variant == "lemma2"
        self.t = budget.t
        self.room = budget.room
        self.h = binary_entropy(delta)
        self.nu_hi = (0.5 - delta) * (1.0 - 1e-9)

    def leakage(self, k):
        """`ec_leakage` at PE sample sizes ``k``, without its validation."""
        return np.ceil(_leakage(self.m - k, self.h))

    def _factor(self, k, m_err, slope=False):
        """Hush-Scovel factor at ``m_err`` errors, in lemma2_ppe_detail's form.

        With ``slope``, also its derivative in xi when ``m_err = m (delta +
        xi)`` varies smoothly.
        """
        m = self.m
        gamma = _gamma_factor(m, m_err)
        c = _hush_scovel_factor(k, m - k, gamma, m_err <= m // 2)
        if not slope:
            return c
        dgamma = m * (1.0 / (m - m_err + 1.0) ** 2 - 1.0 / (m_err + 1.0) ** 2)
        return c, np.where(c == gamma, dgamma, 0.0)

    def _split(self, k, nu, piece):
        """Best xi at ``(k, nu)``; returns ``(eps_pe^2, its d/dnu, xi)``.

        With ``c`` the Hush-Scovel factor, ``eps_pe^2 = exp(-a xi^2) +
        exp(-2 c ((n (nu - xi))^2 - 1))`` is convex in xi, and its minimum
        solves ``phi = 0`` below (the log of the ratio of the two terms'
        slopes, with ``dc`` the slope of a smooth ``c``), found by Newton
        steps from the point where both exponents are equal.  In a piece,
        ``c`` is the piece's and xi is clipped to the piece; its left end is
        charged the piece's factor, which is never smaller than the truth
        there.
        """
        m, delta = self.m, self.delta
        n = m - k
        a = _sample_rate(m, k, n)
        xi_max = nu - 1.0 / n
        fixed = piece is not None
        c = self._factor(k, piece if fixed else m * (delta + 0.5 * nu))
        root = np.sqrt(2.0 * c) * n
        xi = np.minimum(np.maximum(nu * root / (np.sqrt(a) + root), 1e-9), xi_max)
        dc = 0.0
        for _ in range(_SPLIT_STEPS):
            if not fixed:
                c, dc = self._factor(k, m * (delta + xi), slope=True)
            b = 2.0 * c * n * n
            u = nu - xi
            q = (n * u) ** 2 - 1.0
            phi = np.log(a * xi / (b * u - dc * q)) - a * xi * xi + 2.0 * c * q
            slope = 1.0 / xi - 2.0 * a * xi + 1.0 / u - 2.0 * b * u
            xi = np.minimum(np.maximum(xi - phi / slope, 1e-3 * xi), 0.5 * (xi + xi_max))
        if fixed:
            xi = np.minimum(np.maximum(xi, (piece - 1.0) / m - delta), piece / m - delta)
        else:
            c = self._factor(k, m * (delta + xi))
        u = nu - xi
        key = _hush_scovel_tail(c, n, u)
        tail = _serfling_tail(a, xi)
        # NaN where the bound is undefined (the scalar path rejects xi <= 0
        # and n (nu - xi) <= 1): it survives gain's clamp to 1
        p = np.where((xi > 0.0) & (n * u > 1.0), tail + key, np.nan)
        return p, -4.0 * c * n * n * u * key, xi

    def gain(self, k, nu, piece=None):
        """``(gain, slope, xi, headroom)``; gain is -inf without headroom.

        The headroom is ``eps_qkd - 2^-t - 2 eps_pe``, or -inf where the
        bound is unavailable.  The slope is ``d gain / d nu`` times the
        headroom, which keeps its sign and stays finite where the headroom
        vanishes; it is +inf where the gain is -inf, which points a bracket
        towards larger deviations.
        """
        n = self.m - k
        with np.errstate(all="ignore"):
            if self.two_term:
                p, dp, xi = self._split(k, nu, piece)
                pe = np.sqrt(np.minimum(p, 1.0))
                dp_pe = np.where(pe > 0.0, dp / pe, 0.0)
            else:
                rate = _serfling_rate(self.m, k, n)
                pe = _serfling_tail(rate, nu)
                dp_pe = -4.0 * rate * nu * pe
                xi = np.zeros(pe.shape)
            room = np.where(np.isfinite(pe), _headroom(self.room, pe), -np.inf)
            q = self.delta + nu
            ok = room > 0.0
            # gain is ell + r: the leakage is charged per k by the caller
            g = np.where(ok, _ell_bound(n, _h2(q), 0, self.t, room), -np.inf)
            # d gain / d nu times the headroom: same sign, bounded at the edge
            dg = np.where(
                ok, -n * np.log2((1.0 - q) / q) * room - 2.0 * _LOG2E * dp_pe, np.inf
            )
        return g, dg, xi, room

    def _edge(self, k):
        """A deviation below which no point has headroom.

        Headroom needs each exponential term of ``eps_pe^2`` below
        ``(room/2)^2``; the smallest nu that allows this, with the largest
        Hush-Scovel factor, is returned.
        """
        m = self.m
        n = m - k
        need = 2.0 * math.log(2.0 / self.room)
        if not self.two_term:
            return np.sqrt(0.5 * need / _serfling_rate(m, k, n))
        gamma = _gamma_factor(m, math.floor(m * self.delta))
        c_max = _hush_scovel_factor(k, n, gamma, False)
        sample = np.sqrt(need / _sample_rate(m, k, n))
        return sample + np.sqrt(need / (2.0 * c_max) + 1.0) / n

    def _seed(self, k, piece):
        """A log grid over nu above `_edge`: the best point and a bracket.

        Returns ``(a, b, slope(a), slope(b), best)`` with ``best`` the
        ``(gain, nu, xi, headroom)`` of the best grid point.  The bracket
        holds the first point past the edge where the gain turns down,
        which is the interior maximum; the gain can rise again towards
        ``nu = 1/2 - delta``, and the grid's best point covers that end.
        """
        lo = np.minimum(self._edge(k), 0.99 * self.nu_hi)
        steps = np.linspace(0.0, 1.0, _NU_POINTS)
        grid = lo[:, None] * (self.nu_hi / lo[:, None]) ** steps
        column = None if piece is None else piece[:, None]
        g, dg, xi, room = self.gain(k[:, None], grid, column)
        rows = np.arange(len(k))
        i = _argbest(g, room)
        down = np.argmax(dg < 0.0, axis=1)
        left = np.maximum(down - 1, 0)
        best = (g[rows, i], grid[rows, i], xi[rows, i], room[rows, i])
        return grid[rows, left], grid[rows, down], dg[rows, left], dg[rows, down], best

    def best_nu(self, k, piece=None):
        """Best nu at each k: `_seed` brackets the maximum, a root search polishes it.

        Returns ``(gain, nu, xi, headroom)`` arrays; where nothing has
        headroom, the point with the most headroom.
        """
        k = np.asarray(k, dtype=float)
        a, b, fa, fb, best = self._seed(k, piece)
        live = (fa > 0.0) & (fb < 0.0) & (b > a)
        if live.any():
            nu, found = _illinois(lambda x: self.gain(k, x, piece), a, b, fa, fb, live)
            better = live & (found[0] > best[0])
            best = tuple(
                np.where(better, f, old)
                for f, old in zip((found[0], nu, found[2], found[3]), best)
            )
        return best

    def best_piece(self, k, xi):
        """Best ``(gain, nu, xi, headroom)`` over the pieces around ``xi``.

        ``xi`` is the smooth optimum at each k.  The smooth gain,
        maximised over nu, is unimodal in xi, bounds every piece's gain
        and meets it at the piece's right end.  A piece after the one
        holding the smooth optimum lies where the smooth gain falls, so it
        stays below that piece's right end; the best piece is the one
        holding the optimum or the one before it.
        """
        j = np.ceil(self.m * (self.delta + xi)) + np.array(_PIECES)[:, None]
        width = len(_PIECES)
        rows = self.best_nu(np.tile(k, width), j.ravel())
        g, nus, xis, room = (v.reshape(width, -1) for v in rows)
        i = _argbest(g.T, room.T)[None]
        return tuple(np.take_along_axis(v, i, axis=0)[0] for v in (g, nus, xis, room))


def _argbest(g, room):
    """Per row, the index of the largest gain; rows without one go by headroom."""
    top = g.max(axis=1)
    by_room = np.argmax(np.where(g == top[:, None], room, -np.inf), axis=1)
    return np.where(np.isfinite(top), np.argmax(g, axis=1), by_room)


def _illinois(evaluate, a, b, fa, fb, live):
    """Root of the slope in ``[a, b]`` where ``slope(a) > 0 > slope(b)``.

    ``evaluate(x)`` returns a tuple whose second item is the slope.  The
    Illinois variant of false position, vectorised, with a bisection step
    where the false position is undefined.  Returns the last point and its
    ``evaluate`` tuple; rows that are not ``live`` are evaluated but not
    searched.
    """
    side = np.zeros(a.shape, dtype=int)
    for _ in range(_ROOT_STEPS):
        with np.errstate(all="ignore"):
            x = b - fb * (b - a) / (fb - fa)
        x = np.where(np.isfinite(x) & (x > a) & (x < b), x, 0.5 * (a + b))
        found = evaluate(x)
        fx = found[1]
        up = fx > 0.0
        a, fa = np.where(up, x, a), np.where(up, fx, fa)
        b, fb = np.where(up, b, x), np.where(up, fb, fx)
        # halve the stale end after two moves on the same side
        fb = np.where(up & (side == 1), 0.5 * fb, fb)
        fa = np.where(~up & (side == -1), 0.5 * fa, fa)
        side = np.where(up, 1, -1)
        if np.all((b - a <= _ROOT_TOL * b) | (fx == 0.0) | ~live):
            break
    return x, found


def _search(model, half):
    """Best ``(length, k, nu, xi, headroom)`` rows over integer ``1 <= k <= half``.

    A zoom on the smooth envelope ``gain - 1.19 h2(delta) n`` finds its
    peak.  The envelope bounds the length ``gain - r`` from above, so a k
    whose envelope falls short of the best length found cannot win; the
    window of integers around the peak widens until the envelope at both
    of its ends falls short.  The k outside the window are not visited:
    this assumes that the envelope has a single peak in k, so that it
    stays short beyond a window end where it is short.  The assumption is
    not proven; tests/test_optimizer.py checks it against every k at block
    sizes of the operating regime.  The two-term bound's pieces are searched
    only at the k whose smooth length reaches the best piece length found.
    Returns the rows of every k searched in its pieces, best first.
    """
    smooth, leak = {}, {}

    def visit(ks):
        new = sorted(set(int(k) for k in ks) - smooth.keys())
        if not new:
            return
        rows = model.best_nu(np.array(new, dtype=float))
        for idx, k in enumerate(new):
            smooth[k] = tuple(float(col[idx]) for col in rows)
        leak.update(zip(new, model.leakage(np.array(new)).tolist()))

    def envelope(k):
        return smooth[k][0] - _leakage(model.m - k, model.h)

    lo, hi = 1, half
    while True:
        ks = np.unique(np.round(np.linspace(lo, hi, _K_POINTS)).astype(int))
        visit(ks)
        i = int(np.argmax([envelope(int(k)) for k in ks]))
        new_lo, new_hi = int(ks[max(i - 1, 0)]), int(ks[min(i + 1, len(ks) - 1)])
        done = new_hi - new_lo <= _K_POINTS or (new_lo, new_hi) == (lo, hi)
        lo, hi = new_lo, new_hi
        if done:
            break
    visit(range(lo, hi + 1))

    exact = {}

    def refine(ks):
        """Piece rows for the k in ``ks`` that have none yet."""
        new = [k for k in ks if k not in exact]
        if not new:
            return
        rows = [np.array([smooth[k][i] for k in new]) for i in range(4)]
        if model.two_term:
            rows = model.best_piece(np.array(new, dtype=float), rows[2])
        for idx, k in enumerate(new):
            exact[k] = (float(rows[0][idx]) - leak[k], k) + tuple(
                float(col[idx]) for col in rows[1:]
            )

    def length(k):
        return smooth[k][0] - leak[k]

    width = hi - lo + 1
    while True:
        # the smooth lengths bound the piece lengths: refine the leaders
        order = sorted(smooth, key=length, reverse=True)
        refine(order[:1])
        target = max(row[0] for row in exact.values())
        refine([k for k in order if length(k) >= target])
        target = max(row[0] for row in exact.values())
        if target == -math.inf:
            break  # no k has headroom: no window can hold a key
        grow = []
        if lo > 1 and envelope(lo) >= target:
            grow.extend(range(max(1, lo - width), lo))
            lo = max(1, lo - width)
        if hi < half and envelope(hi) >= target:
            grow.extend(range(hi + 1, min(half, hi + width) + 1))
            hi = min(half, hi + width)
        if not grow:
            break
        visit(grow)
        width *= 2
    return sorted(exact.values(), key=lambda row: (row[0], row[4], -row[1]), reverse=True)


def optimize(m: int, delta: float, budget: SecurityBudget, variant: str) -> KeyRateResult:
    """Best extractable length at block size ``m`` for one bound variant.

    The search domain is every integer PE sample size ``1 <= k <=
    floor(m/2)``, every deviation ``0 < nu < 1/2 - delta`` and, for the
    two-term bound, every split ``0 < xi < nu`` with ``(n (nu - xi))^2 >
    1``; the single-term bound takes ``xi = 0``.  The cap ``k <= m/2``
    keeps at least half of the block for the key; it binds near the
    two-term thresholds, and lifting it is a change of the model, not of
    the search.

    At each ``k`` the best ``(nu, xi)`` is found to within rounding (see
    `_Model`).  Over ``k``, the search visits a window around the peak of
    the smooth envelope, which bounds the length from above, and widens it
    until the envelope at both ends falls short of the best length found.
    Every ``k`` in the window whose envelope reaches that length is
    searched.  No ``k`` outside the window can do better provided the
    envelope has a single peak in ``k``; that is assumed, not proven (see
    `_search`).  The leading candidates are re-evaluated with `max_ell_at`
    and `feasible`.
    Ties in ``ell`` go to the larger unrounded length.  Deterministic.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if m < 10:
        raise ValueError(f"m must be at least 10, got {m}")
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 0.5), got {delta}")

    model = _Model(m, delta, budget, variant)
    best = None
    for length, k, nu, xi, room in _search(model, m // 2)[:_VERIFY]:
        if room == -math.inf:
            continue
        settings = ProtocolSettings(shape=BlockShape(m=m, k=k), delta=delta)
        slack = SlackParams(nu=nu, xi=xi)
        ell = max_ell_at(settings, budget, slack, variant)
        bd, ok = feasible(replace(settings, ell=ell), budget, slack, variant)
        if best is None or (ok, ell) > best[0]:
            best = ((ok, ell), k, nu, xi, bd)
    if best is None:
        return KeyRateResult(
            m=m, variant=variant, ell=0, point=None, breakdown=None, feasible=False
        )
    (ok, ell), k, nu, xi, bd = best
    point = OptimizationPoint(alpha=ell / m, beta=k / m, nu=nu, xi=xi)
    return KeyRateResult(
        m=m, variant=variant, ell=ell, point=point, breakdown=bd, feasible=ok
    )


def min_block_length(
    delta: float,
    budget: SecurityBudget,
    variant: str,
    m_lo: int,
    m_hi: int,
) -> Optional[int]:
    """Smallest m in [m_lo, m_hi] whose optimised ell reaches one, else None.

    Coarse forward strides from ``m_lo`` (plus ``m_hi`` itself) locate the
    first grid point with a positive key.  A bisection then runs between
    the grid point before it, which has no key, and the hit, keeping a
    keyless lower end and a keyed upper end until they are adjacent.  The
    result is guaranteed only locally: the returned ``m`` has a key, and
    ``m - 1`` (when it is in range) has none.  It is the smallest such
    ``m`` in the range when the optimised ``ell`` does not fall back to
    zero as ``m`` grows.  The search costs about the forward probes up to
    the hit plus ``log2(stride)`` calls of `optimize`.
    """
    if not 10 <= m_lo <= m_hi:
        raise ValueError(f"need 10 <= m_lo <= m_hi, got [{m_lo}, {m_hi}]")
    stride = max(1, min(500, (m_hi - m_lo) // 128))
    grid = list(range(m_lo, m_hi + 1, stride))
    if grid[-1] != m_hi:
        grid.append(m_hi)
    # bad has no key and good has one; m_lo - 1 stands for below the range
    bad = m_lo - 1
    for good in grid:
        if optimize(good, delta, budget, variant).ell >= 1:
            break
        bad = good
    else:
        return None
    while good - bad > 1:
        mid = (bad + good) // 2
        if optimize(mid, delta, budget, variant).ell >= 1:
            good = mid
        else:
            bad = mid
    return good

