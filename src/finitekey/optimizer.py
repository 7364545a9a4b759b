"""Parameter search: best extractable key length over (k, nu, xi).

For a fixed block size ``m``, tolerated error rate ``delta`` and failure
budget, `optimize` searches the PE sample size ``k``, the deviation ``nu``
and the split ``xi`` for the point that maximises the extractable length
``ell``.  At fixed ``k`` the closed-form length is a function of ``nu``
alone once ``xi`` is chosen best: for the single-term bound ``xi`` plays no
part, and for the two-term bound the best ``xi`` minimises the PE term,
which is solved piece by piece of ``m_err = ceil(m (delta + xi))``.  The
best ``nu`` is then a bracketed root of the length's derivative, found by
Chandrupatla's method (`_chandrupatla`), and each ``k`` stops its root
search on its own, so its result does not depend on which other ``k``
share its batch.  Over ``k``, a zoom of `_K_POINTS` block sizes per
round on the smooth envelope finds its peak, and a window of integers
around the peak widens until the envelope at both of its ends falls short
of the best length found: each end that reaches it moves, in one round,
to the nearest visited ``k`` beyond it that falls short, but by at most
`_K_POINTS`.  For ``m <= 261`` no zoom round runs and the first root
search visits every ``k``, so the search is exhaustive; above that it
takes the envelope to have a single peak in ``k``.  The leading
candidates are re-evaluated through the scalar `security` functions, so
the reported result never rests on the vectorised path alone.

Each layer has one job.  `_Model.best_nu` is the root search over nu at
rows of ``(m, k)``, with one ``m_err`` piece per row or none for the
smooth gain.  `_search` is the search over ``k`` at one block size: a
generator that yields the rows it needs searched and returns the best
piece row it searched, then every row that its smooth bound cannot rule
out.  `_lock_step` answers the requests of several block sizes with one
`best_nu` call per kind and round; a row does not depend on its batch, so
each block size gets the rows it gets alone.  `_optimize_each` batches a
sequence of block sizes, `_BATCH` at a time, and `optimize` runs it on
one block size.  Each query builds one `_Model`, which checks ``delta``
and the variant and is handed to every stage; `_check_sizes` checks the
block sizes.
`min_block_length` inverts the search over ``m``.  A block size that
`_keyless` certifies, by a closed-form bound on the length over runs of
``k``, is read as keyless with no search.  One loop walks the decision
tree of a forward scan and a bisection: it reads block sizes in their
sequential order, and hands `_lock_step` the uncertified nodes ahead that
the lengths already searched predict it will read.  Each result is
verified only when it is read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bounds import (
    BlockShape, SlackParams, binary_entropy, _check_block_size,
    _gamma_factor, _h2, _hush_scovel_factor, _hush_scovel_tail, _key_factor,
    _sample_rate, _serfling_rate, _serfling_tail, is_flag,
)
from .security import (
    EpsilonBreakdown, ProtocolSettings, SecurityBudget, check_protocol_rate,
    check_variant, feasible, max_ell_at, _ell_bound, _headroom, _leakage,
)
from .security import ec_leakage  # unused; the benchmark traces it here

__all__ = [
    "OptimizationPoint",
    "KeyRateResult",
    "optimize",
    "min_block_length",
]

# Block sizes per zoom round over k (one root search covers them all, at
# about the cost of one k), and log-spaced deviations that seed the bracket
# of the best nu at each k.
_K_POINTS = 129
_NU_POINTS = 24
# m_err pieces searched: the one holding the smooth optimum of xi and the
# one before it (see _Model); Newton steps for the best xi at one (k, nu).
_PIECES = (-1, 0)
_SPLIT_STEPS = 5
# Bracketed root search for the best nu: iteration cap and tolerance.
_ROOT_STEPS = 60
_ROOT_TOL = 1e-9
# Candidates re-evaluated through the scalar path.
_VERIFY = 3
# Block sizes searched in lock step: the batch of _optimize_each, and the
# nodes of min_block_length's decision tree searched at once.
_BATCH = 7
_LOG2E = 1.0 / math.log(2.0)


@dataclass(frozen=True)
class OptimizationPoint:
    """One parameter point: key fraction ``alpha = ell/m`` plus the knobs.

    ``beta = k/m`` is the PE fraction, and ``round(beta * m)`` gives back
    ``k`` for every ``m`` below 2^53.  ``(nu, xi)`` is checked as
    `SlackParams` checks it.
    """

    alpha: float
    beta: float
    nu: float
    xi: float

    def __post_init__(self):
        if is_flag(self.alpha) or not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        SlackParams(nu=self.nu, xi=self.xi)


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
    """The closed-form key length, vectorised over rows of ``(m, k)`` and over nu.

    `gain` is ``ell + r`` before rounding: ``n (1 - h2(delta + nu)) - t +
    2 log2(2 (eps_qkd - 2^-t - 2 eps_pe))``, the largest length the budget
    condition allows, with the error-correction leakage ``r`` left out
    because it depends on ``k`` alone.  For the two-term bound, ``xi`` is
    chosen to minimise ``eps_pe`` at each ``(k, nu)``: within one piece of
    ``m_err = ceil(m (delta + xi))`` when ``piece`` is given, and with the
    Hush-Scovel factor taken as a smooth function of ``xi`` when it is not.
    The smooth path keeps ``m (delta + xi)`` below ``m // 2`` (see
    `_split`), where the factor is gamma (`_gamma_factor`) and falls as
    ``m_err`` grows, so the smooth factor is never below the factor of the
    piece.  The smooth gain bounds each piece's gain from above only up to
    `_split`'s last Newton iterate, whose ``eps_pe`` may sit above its
    minimum over xi, and up to rounding.  That gap is not always a few
    float spacings: at ``s = 1`` a piece's length exceeds the smooth length
    of ``k = 1659513095`` at ``m = 7421877367005`` and ``delta = 0.0451``
    by 0.073 bit, and that of ``k = 594716622`` at ``m = 2079420981037``
    and ``delta = 0.01`` by 0.038 bit.
    Maximised over nu, the smooth gain is unimodal in xi and meets each
    piece's gain at the piece's right end, so a piece after the one holding
    the smooth optimum stays below that piece's right end: the best piece
    is the one holding the optimum or the one before it (`_PIECES`).
    Every formula of the model is a kernel of `bounds` or `security`,
    shared with the scalar API, and so is gamma's slope (`_gamma_factor`);
    only the other derivatives that steer the search are this class's own.
    Each row has its own block size ``m``, and a row's result does not
    depend on the other rows of its call; ``delta``, the budget and the
    variant are the model's, checked when it is built, so one model is one
    valid query, which every stage of a search receives.  The model
    searches nu at given rows; which rows and pieces to search is
    `_search`'s choice.
    """

    def __init__(self, delta: float, budget: SecurityBudget, variant: str):
        check_variant(variant)
        check_protocol_rate(delta)
        self.delta = delta
        self.budget = budget
        self.variant = variant
        self.two_term = variant == "lemma2"
        self.t = budget.t
        self.room = budget.room
        self.h = binary_entropy(delta)
        self.nu_hi = (0.5 - delta) * (1.0 - 1e-9)

    def _split(self, m, k, nu, piece):
        """Best xi at ``(k, nu)``; returns ``(eps_pe^2, its d/dnu, xi)``.

        With ``c`` the Hush-Scovel factor, ``eps_pe^2 = exp(-a xi^2) +
        exp(-2 c ((n (nu - xi))^2 - 1))`` is convex in xi, and its minimum
        solves ``phi = 0`` below (the log of the ratio of the two terms'
        slopes, with ``dc`` the slope of ``c``), found by Newton steps from
        the point where both exponents are equal.  Both kinds of row take
        ``c`` and ``dc`` from ``factor``.  In a piece, ``c`` is the piece's,
        formed once by `_key_factor`, ``dc`` is 0, and xi is clipped to the
        piece after the steps; its left end is charged the piece's factor,
        which is never smaller than the truth there.  Without a piece, every
        iterate keeps ``xi <= nu - 1/n`` and ``nu < 1/2 - delta``, so ``m
        (delta + xi) < m/2 - 1 < m // 2``: `_key_factor` would take its
        relaxed form, and ``c`` and ``dc`` are gamma and its slope
        (`_gamma_factor`).
        """
        delta = self.delta
        n = m - k
        a = _sample_rate(m, k, n)
        xi_max = nu - 1.0 / n
        if piece is None:
            def factor(xi, slope=False):
                return _gamma_factor(m, m * (delta + xi), slope)
        else:
            frozen = _key_factor(m, k, piece)[0]
            factor = lambda xi, slope=False: (frozen, 0.0) if slope else frozen  # noqa: E731
        # a smooth factor passes m // 2 only where nu < 1/m, so xi_max < 0
        # and the clip below takes xi_max whatever c is
        c = factor(0.5 * nu)
        root = np.sqrt(2.0 * c) * n
        xi = np.minimum(np.maximum(nu * root / (np.sqrt(a) + root), 1e-9), xi_max)
        for _ in range(_SPLIT_STEPS):
            c, dc = factor(xi, slope=True)
            c2 = 2.0 * c
            u = nu - xi
            q = (n * u) ** 2 - 1.0
            ax, bu = a * xi, c2 * n * n * u
            phi = np.log(ax / (bu - dc * q)) - ax * xi + c2 * q
            slope = 1.0 / xi - 2.0 * ax + 1.0 / u - 2.0 * bu
            xi = np.minimum(np.maximum(xi - phi / slope, 1e-3 * xi), 0.5 * (xi + xi_max))
            # a seed grid's arrays are large: free this step's before the
            # next factor is formed, so the peak memory does not grow
            del c2, u, q, ax, bu, phi, slope
        if piece is not None:
            xi = np.minimum(np.maximum(xi, (piece - 1.0) / m - delta), piece / m - delta)
        c = factor(xi)
        u = nu - xi
        key = _hush_scovel_tail(c, n, u)
        tail = _serfling_tail(a, xi)
        # NaN where the bound is undefined (the scalar path rejects xi <= 0
        # and n (nu - xi) <= 1): it survives gain's clamp to 1
        p = np.where((xi > 0.0) & (n * u > 1.0), tail + key, np.nan)
        return p, -4.0 * c * n * n * u * key, xi

    def gain(self, m, k, nu, piece=None):
        """``(gain, slope, xi, headroom)``; gain is -inf without headroom.

        The headroom is ``eps_qkd - 2^-t - 2 eps_pe``, or -inf where the
        bound is unavailable.  The slope is ``d gain / d nu`` times the
        headroom, which keeps its sign and stays finite where the headroom
        vanishes; it is +inf where the gain is -inf, which points a bracket
        towards larger deviations.
        """
        n = m - k
        with np.errstate(all="ignore"):
            if self.two_term:
                p, dp, xi = self._split(m, k, nu, piece)
                pe = np.sqrt(np.minimum(p, 1.0))
                dp_pe = np.where(pe > 0.0, dp / pe, 0.0)
            else:
                rate = _serfling_rate(m, k, n)
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

    def _edge(self, m, k1, k2, *, headroom=False):
        """A deviation below which no point with ``k1 <= k <= k2`` has headroom.

        Headroom needs each exponential term of ``eps_pe^2`` below
        ``(room/2)^2``, that is each exponent above ``need = 2 ln(2/room)``:
        for the single-term bound ``rate nu^2``; for the two-term bound ``a
        xi^2``, with ``a`` the sample rate, and ``2 c ((n (nu - xi))^2 -
        1)``, with ``c`` the Hush-Scovel factor.  The smallest nu that
        allows this is returned, with each factor at its worse end of the
        interval: the rates at ``k2``, the single-term rate with ``n = m -
        k1``, the largest factor ``c_max`` (gamma at ``e0 = floor(m
        delta)`` errors, ``1/(n + 1)`` at ``n = m - k2`` and ``1/(k + 1)``
        at ``k1``), and the key term divided by ``m - k1``.  At ``[k, k]``
        it is the edge of that ``k``, as `_seed` takes it.

        With ``headroom``, which only the certificate sets (`_run_bound`,
        for `_keyless`), gamma is charged at the least error count that
        headroom allows instead: ``e1 = min(max(floor(m (delta + sample))
        - 1, e0), m // 2)``, where ``sample = sqrt(need / a)`` is the first
        term of the edge, with ``a`` at ``k2``.  The headroom of the sample
        term already forces ``xi`` above ``sample``, so ``m_err`` cannot
        fall below ``e1`` (see `_keyless`), and gamma falls as ``m_err``
        grows.
        """
        n_lo, n_hi = m - k2, m - k1
        need = 2.0 * math.log(2.0 / self.room)
        if not self.two_term:
            return np.sqrt(0.5 * need / _serfling_rate(m, k2, n_hi))
        sample = np.sqrt(need / _sample_rate(m, k2, n_lo))
        errors = np.floor(m * self.delta)
        if headroom:
            errors = np.minimum(
                np.maximum(np.floor(m * (self.delta + sample)) - 1.0, errors), m // 2
            )
        c_max = _hush_scovel_factor(k1, n_lo, _gamma_factor(m, errors))
        return sample + np.sqrt(need / (2.0 * c_max) + 1.0) / n_hi

    def _seed(self, m, k, piece):
        """A log grid over nu above `_edge`: the best point and a bracket.

        Returns ``(a, b, slope(a), slope(b), best)`` with ``best`` the
        ``(gain, nu, xi, headroom)`` of the best grid point.  The bracket
        holds the first point past the edge where the gain turns down,
        which is the interior maximum; the gain can rise again towards
        ``nu = 1/2 - delta``, and the grid's best point covers that end.
        """
        lo = np.minimum(self._edge(m, k, k), 0.99 * self.nu_hi)
        steps = np.linspace(0.0, 1.0, _NU_POINTS)
        grid = lo[:, None] * (self.nu_hi / lo[:, None]) ** steps
        column = None if piece is None else piece[:, None]
        g, dg, xi, room = self.gain(m[:, None], k[:, None], grid, column)
        rows = np.arange(len(k))
        i = _argbest(g, room)
        down = np.argmax(dg < 0.0, axis=1)
        left = np.maximum(down - 1, 0)
        best = (g[rows, i], grid[rows, i], xi[rows, i], room[rows, i])
        return grid[rows, left], grid[rows, down], dg[rows, left], dg[rows, down], best

    def best_nu(self, m, k, piece=None):
        """Best nu at each row ``(m, k)``: `_seed` brackets it, a root search polishes it.

        The root search is Chandrupatla's method (`_chandrupatla`) on the
        slope inside the bracket.  ``m`` is one block size or one per row,
        and ``piece`` is None for the smooth gain or one ``m_err`` per row.
        Returns ``(gain, nu, xi, headroom)`` arrays; where nothing has
        headroom, the point with the most headroom.
        """
        k = np.asarray(k, dtype=float)
        m = np.broadcast_to(np.asarray(m, dtype=float), k.shape)
        a, b, fa, fb, best = self._seed(m, k, piece)
        live = (fa > 0.0) & (fb < 0.0) & (b > a)
        if live.any():
            nu, found = _chandrupatla(lambda x: self.gain(m, k, x, piece), a, b, fa, fb, live)
            better = live & (found[0] > best[0])
            best = tuple(
                np.where(better, f, old)
                for f, old in zip((found[0], nu, found[2], found[3]), best)
            )
        return best


def _argbest(g, room):
    """Per row, the index of the largest gain; rows without one go by headroom."""
    top = g.max(axis=1)
    by_room = np.argmax(np.where(g == top[:, None], room, -np.inf), axis=1)
    return np.where(np.isfinite(top), np.argmax(g, axis=1), by_room)


def _chandrupatla(evaluate, a, b, fa, fb, live):
    """Root of the slope in ``[a, b]`` where ``slope(a) > 0 > slope(b)``.

    ``evaluate(x)`` returns a tuple whose second item is the slope.
    Chandrupatla's method, vectorised (T. R. Chandrupatla, Adv. Eng. Softw.
    28 (1997) 145-149): each step is an inverse quadratic interpolation
    through the bracket's ends and the end it last dropped, or a bisection
    where that is not finite or fails Chandrupatla's validity test, and it
    keeps at least half the tolerance from both ends, so a step next to the
    root closes the bracket.  Each row stops on its own, at the step where
    its bracket is at most `_ROOT_TOL` times its upper end or its slope is
    exactly 0.  A stopped row then takes ``t = 0``: it steps in place and
    is evaluated again at its own point, and since a row's evaluation
    depends on that point alone, it keeps its point and ``evaluate`` tuple
    bit for bit, and its result does not depend on the other rows of its
    batch.  The loop ends when every row has stopped.  Returns the points
    and their ``evaluate`` tuples; rows that are not ``live`` are evaluated
    at the bracket's midpoint but not searched.
    """
    # x1 is the newest point, x2 the other end of the bracket and x3 the
    # end dropped at the last step
    x1, x2, f1, f2 = a, b, fa, fb
    t = 0.5
    done = ~live
    for _ in range(_ROOT_STEPS):
        x = x1 + t * (x2 - x1)
        found = evaluate(x)
        ft = found[1]
        same = (ft > 0.0) == (f1 > 0.0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, ft
        width = np.abs(x2 - x1)
        tol = _ROOT_TOL * np.maximum(x1, x2)
        done = done | (width <= tol) | (ft == 0.0)
        if done.all():
            break
        with np.errstate(all="ignore"):
            # Chandrupatla's test: the inverse quadratic through the three
            # points is monotone across the bracket where phi^2 < xi and
            # (1 - phi)^2 < 1 - xi
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            t = f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3)
            quadratic = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi) & np.isfinite(t)
            edge = 0.5 * tol / width
            t = np.minimum(np.maximum(np.where(quadratic, t, 0.5), edge), 1.0 - edge)
        t = np.where(done, 0.0, t)
    return x, found


def _spread(lo, hi, count):
    """``count`` evenly spaced points from ``lo`` to ``hi``, rounded, each value once."""
    points = np.round(np.linspace(lo, hi, count))
    return points[np.concatenate(([True], points[1:] != points[:-1]))]


def _search(model, m):
    """Best ``(length, k, nu, xi, headroom)`` rows over integer ``1 <= k <= m // 2``.

    A generator: each root search it needs is a request ``(ks, piece)``
    of float arrays that it yields, and the caller sends back
    `_Model.best_nu`'s rows of those ``k`` at block size ``m``, with
    ``piece`` as its ``piece``: None for smooth rows.  `_lock_step`
    answers the requests of many block sizes at once.  The search returns
    (as ``StopIteration.value``) the best piece row it searched, then the
    piece rows of every other visited k whose smooth length reaches that
    row's length, best first.

    A zoom on the smooth envelope ``gain - 1.19 h2(delta) n`` finds its
    peak, one root search on up to `_K_POINTS` block sizes per round: one
    round up to ``m`` of about 16,500, two up to 20,000.  Each round
    narrows ``[lo, hi]`` to the neighbours of the envelope's peak, and once
    at most ``_K_POINTS + 1`` integers are left they are all visited.  The
    envelope's factor bounds each piece's from above, so the envelope
    bounds the length ``gain - r`` from above up to the last Newton iterate
    and rounding (see `_Model`), and a k whose envelope falls short of the
    best length found is taken not to win.  Each end of
    the window of integers around the peak whose envelope reaches that
    length moves out in one round: to the nearest visited k beyond it whose
    envelope falls short, or to the end of the range, but by at most
    `_K_POINTS`; the window is visited again (only its new k are searched),
    and this repeats until both ends fall short.  Where ``m // 2 <=
    _K_POINTS + 1`` (``m <= 261``) no zoom round runs: the first root
    search visits every k and the search is exhaustive.  Above that the k
    outside the window are not visited: this assumes that the envelope has
    a single peak in k, so that it stays short beyond a window end where it
    is short.  The assumption is not proven; tests/test_optimizer.py checks
    it against every k at block sizes of the operating regime.  A k's row
    does not depend on the batch it is searched in (see `_chandrupatla`),
    so no k is searched twice: a round asks only for the k that ``seen``
    lacks, and a zoom round reads the envelope of its points, ends
    included, from ``seen``.

    The two-term bound's pieces are searched only at the k whose smooth
    length reaches the best piece length found: both pieces of `_PIECES`
    around the smooth optimum of xi, of which the better is kept.  The
    leader, the k of the largest smooth length (the smallest such k), is
    searched first; when it has no piece row yet, the request that
    searches its pieces also searches those of the next leaders, up to
    `_VERIFY` in all.  Each visited k has one row of ``seen``, an array
    sorted by k and sparse in it, since ``m`` may be as large as 2^53 - 1:
    its smooth row, then its best piece row once it is refined.  A
    single-term row is its own best piece, so `visit` stores it as refined
    and no piece of it is requested.  ``target`` is the best piece length.
    Which rows are returned depends on ``target`` alone, not on the order
    of the search: a k whose smooth length falls short of it is taken as
    ruled out, and the best row is returned whatever its smooth length,
    which the last Newton iterate and rounding can put below it (see
    `_Model`).
    """
    half = m // 2
    # columns: k, length, nu, xi, headroom, leakage, envelope, then the best
    # piece's length, nu, xi and headroom, NaN until the k is refined
    seen = np.empty((0, 11))

    def visit(ks):
        """Searches and records the smooth rows of the k in ``ks`` not visited yet."""
        nonlocal seen
        ks = ks[seen[:, 0].searchsorted(ks) == seen[:, 0].searchsorted(ks, "right")]
        if len(ks):
            gain, nu, xi, room = yield ks, None
            leakage = _leakage(m - ks, model.h)
            r = np.ceil(leakage)
            # a single-term row is its own best piece, so it is refined at once
            row = (gain - r, nu, xi, room)
            refined = [np.full(len(ks), np.nan)] * 4 if model.two_term else row
            new = np.array((ks, *row, r, gain - leakage, *refined)).T
            seen = np.concatenate((seen, new))
            seen = seen[seen[:, 0].argsort(kind="stable")]

    def search_pieces(i):
        """Puts in their rows of ``seen`` the best pieces of the rows ``i`` not refined yet."""
        i = i[np.isnan(seen[i, 7])]
        if len(i):
            errs = np.ceil(m * (model.delta + seen[i, 3])) + np.array(_PIECES)[:, None]
            reply = yield np.tile(seen[i, 0], len(_PIECES)), errs.ravel()
            cols = [col.reshape(len(_PIECES), -1) for col in reply]
            best = _argbest(cols[0].T, cols[3].T)
            gain, nu, xi, room = (col[best, np.arange(len(i))] for col in cols)
            seen[i, 7:] = np.array((gain - seen[i, 5], nu, xi, room)).T

    lo, hi = 1, half
    while hi - lo > _K_POINTS:
        ks = _spread(lo, hi, _K_POINTS)
        yield from visit(ks)
        i = int(np.argmax(seen[seen[:, 0].searchsorted(ks), 6]))
        lo, hi = int(ks[max(i - 1, 0)]), int(ks[min(i + 1, len(ks) - 1)])

    while True:
        yield from visit(np.arange(lo, hi + 1, dtype=float))
        # the smooth lengths bound the piece lengths: search the leader's
        # pieces, with the next leaders' in the same request, then those of
        # every k whose smooth length reaches the best piece length (the
        # leader has a piece by then, so the piece column is not all NaN)
        if math.isnan(seen[seen[:, 1].argmax(), 7]):
            yield from search_pieces((-seen[:, 1]).argsort(kind="stable")[:_VERIFY])
        yield from search_pieces(np.flatnonzero(seen[:, 1] >= np.fmax.reduce(seen[:, 7])))
        target = np.fmax.reduce(seen[:, 7])
        if target == -math.inf:
            break  # no k has headroom: no window can hold a key
        # the nearest visited k at or beyond each end whose envelope falls
        # short, with the ends of the range standing in where there is none
        short = np.concatenate(([1], seen[seen[:, 6] < target, 0], [half]))
        i, j = short.searchsorted((lo + 1, hi))
        ends = max(int(short[i - 1]), lo - _K_POINTS), min(int(short[j]), hi + _K_POINTS)
        if ends == (lo, hi):
            break
        lo, hi = ends
    rows = seen[~np.isnan(seen[:, 7])]
    rows = rows[np.lexsort((rows[:, 0], -rows[:, 10], -rows[:, 7]))].tolist()
    # the best row, then every other row whose smooth length reaches it
    rows = rows[:1] + [row for row in rows[1:] if row[1] >= target]
    return [(row[7], int(row[0]), *row[8:]) for row in rows]


def _lock_step(model, ms):
    """`_search`'s rows of ``model``'s query at each block size of ``ms``, in lock step.

    Each round, every search still running yields one request; ``running``
    maps each such search to the reply it is sent next.  The round's smooth
    requests share one `_Model.best_nu` call and its piece requests
    another, so a round costs at most two root searches however many block
    sizes it serves.  A row does not depend on its batch, so
    each block size gets the rows it would get alone.  The block sizes
    have passed `_check_sizes`.
    """
    searches = [_search(model, m) for m in ms]
    results = [None] * len(ms)
    running = dict.fromkeys(range(len(ms)))
    while running:
        asks = {}
        for i, reply in running.items():
            try:
                ks, pieces = searches[i].send(reply)
            except StopIteration as stop:
                results[i] = stop.value
            else:
                asks.setdefault(pieces is None, []).append((i, ks, pieces))
        running = {}
        for smooth, group in asks.items():
            m = np.concatenate([np.full(len(ks), ms[i], dtype=float) for i, ks, _ in group])
            k = np.concatenate([ks for _, ks, _ in group])
            pieces = None if smooth else np.concatenate([p for _, _, p in group])
            rows = model.best_nu(m, k, pieces)
            end = 0
            for i, ks, _ in group:
                start, end = end, end + len(ks)
                running[i] = tuple(col[start:end] for col in rows)
    return results


def _verify(model, m, rows) -> KeyRateResult:
    """The result of ``model``'s query at block size ``m`` from its `_search` rows.

    Each of the leading `_VERIFY` candidates with a defined bound (headroom
    above -inf) is re-evaluated with `max_ell_at` and `feasible` into a
    `KeyRateResult`.  The first with the largest ``(feasible, ell)`` is
    returned, so ties in ``ell`` go to the larger unrounded length; with no
    such candidate, the result has ``ell = 0`` and no point.
    """
    delta, budget, variant = model.delta, model.budget, model.variant
    results = []
    for length, k, nu, xi, room in rows[:_VERIFY]:
        if room == -math.inf:
            continue
        settings = ProtocolSettings(shape=BlockShape(m=m, k=k), delta=delta)
        slack = SlackParams(nu=nu, xi=xi)
        ell = max_ell_at(settings, budget, slack, variant)
        bd, ok = feasible(replace(settings, ell=ell), budget, slack, variant)
        point = OptimizationPoint(alpha=ell / m, beta=k / m, nu=nu, xi=xi)
        results.append(KeyRateResult(
            m=m, variant=variant, ell=ell, point=point, breakdown=bd, feasible=ok
        ))
    empty = KeyRateResult(
        m=m, variant=variant, ell=0, point=None, breakdown=None, feasible=False
    )
    return max(results, key=lambda result: (result.feasible, result.ell), default=empty)


def _check_sizes(ms):
    """The block sizes of ``ms`` as a list, each an integer below 2^53 and at least 10."""
    ms = [_check_block_size(m, "m") for m in ms]
    if min(ms, default=10) < 10:
        raise ValueError(f"m must be at least 10, got {min(ms)}")
    return ms


def _optimize_each(ms, delta, budget, variant):
    """`optimize` at each block size of ``ms``, yielded in order.

    One `_Model`, which checks the variant and ``delta`` even when ``ms``
    is empty, serves every block size.  They are searched in lock step,
    `_BATCH` at a time and each batch checked by `_check_sizes` first, so
    the rows of one root search stay bounded however many block sizes
    there are, and each result is verified only when it is read.
    """
    model = _Model(delta, budget, variant)
    ms = iter(ms)
    while batch := _check_sizes(itertools.islice(ms, _BATCH)):
        for m, rows in zip(batch, _lock_step(model, batch)):
            yield _verify(model, m, rows)


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
    `_Model`).  Over ``k``, a window around the peak of the smooth
    envelope is searched (`_search` describes the zoom and the window).
    For ``m <= 261`` every ``k`` is visited, so the search is exhaustive.
    Above that, no ``k`` outside the window can do better provided the
    envelope has a single peak in ``k``; that is assumed, not proven.  The
    leading `_VERIFY` candidates are re-evaluated with `max_ell_at` and
    `feasible`, and ties in ``ell`` go to the larger unrounded length.
    Deterministic, and each ``k``'s result is the same whichever other
    ``k`` or block sizes it is searched with.

    ``variant`` is one of `security.VARIANTS`, ``0 < delta < 1/2``, and
    ``m`` an integer of any integer type below 2^53 and at least 10, so a
    float ``m``, even ``3100.0``, is refused.  A refused input raises
    ``ValueError`` before any search.
    """
    return next(_optimize_each([m], delta, budget, variant))


def _keyless(model, m):
    """Whether a closed-form bound shows that no point at ``m`` has ``ell >= 1``.

    The bound, at each ``k`` with ``n = m - k``:

    - A feasible ``ell >= 1`` needs ``eps_pa(ell) <= headroom = room - 2
      eps_pe``, so ``ell <= _ell_bound(n, h2(delta + nu), r, t,
      headroom)``.
    - Headroom needs ``nu >= _Model._edge(m, k, k)``.  The two-term edge
      takes the largest Hush-Scovel factor ``c_max``, the larger of ``1/(n
      + 1) + 1/(k + 1)`` and gamma at ``e0 = floor(m delta)`` errors.  No
      factor the scalar path forms exceeds it: with ``0 < xi < nu < 1/2 -
      delta``, the float ``m (delta + xi)`` lies in ``[fl(m delta), m/2]``
      and the snap moves it by at most 1e-9, so ``m_err = snap_ceil(m
      (delta + xi))`` lies in ``[e0, ceil(m/2)]``.  In `_key_factor`'s
      relaxed form, ``m_err <= m // 2``, and gamma falls on ``[0, m/2]``;
      in its sharp form, gamma at ``m_err`` equals gamma at ``m - m_err``,
      which lies in ``[e0, m/2]``, and the other term is ``c_max``'s own.
      The single-term edge is ``sqrt(ln(2/room) / rate)``.
    - The certificate charges gamma at ``e1 = min(max(floor(m (delta +
      sample)) - 1, e0), m // 2)`` errors instead (``_edge``'s
      ``headroom``), with ``sample = sqrt(need / a(k2))`` the sample-term
      half of the run's edge.  Headroom needs ``2 eps_pe < room``, so
      ``exp(-a xi^2) < (room/2)^2`` and ``xi > sqrt(need / a) >= sample``,
      since ``a = 2 m k / (n + 1)`` is largest at ``k2``.  Then ``m_err >=
      m (delta + xi) - 1e-9``, so ``m_err >= e1``; the ``- 1`` also covers
      a rounded ``xi`` below ``sample``, by up to ``1/m``.  In the relaxed
      form, ``e1 <= m_err <= m // 2``, and gamma falls on ``[0, m/2]``.  In
      the sharp form, gamma at ``m_err`` is gamma at ``m - m_err >= floor(m
      / 2) >= e1``, and the other term is ``c_max``'s own.  Where ``delta +
      sample`` reaches 1/2, no ``xi < nu < 1/2 - delta`` has headroom at
      all, and the clip to ``m // 2`` keeps the steps above valid there.
    - ``h2(delta + nu)`` rises in nu below 1/2, and ``headroom <= room``,
      so ``ell <= U(k) = _ell_bound(n, h2(delta + edge), r, t, room)``.
      Where ``delta + edge`` reaches 1/2, no deviation at or above the edge
      keeps ``delta + nu < 1/2``, which `eps_pa` requires.

    ``U`` is bounded on at most `_K_POINTS` runs ``[k1, k2]`` of
    consecutive ``k`` that cover ``[1, m // 2]`` (`_run_bound`), so the
    cost does not grow with ``m``.

    ``m`` is certified when, on every run, the edge reaches ``1/2 -
    delta`` or the bound is below ``1 - 1e-9 m``; a NaN bound does not
    certify.  The margin covers rounding, both here and in the scalar
    path's evaluation of the budget condition.  The exponents there are
    rounded by a few parts in 1e16, which moves the edge by as much,
    relative to nu, and so ``h2(delta + nu)`` by less than ``q log2(1/q)
    <= 0.54`` times that; ``n (1 - h2)`` and ``r`` are at most about ``1.2
    m`` bits each and ``t`` at most 1020, each rounded to a few parts in
    1e16; and ``eps_pa``'s sum with the other terms moves its limit by a
    few parts in 1e16 of ``room``, a few 1e-15 bit.  Together that stays
    below 1e-12 ``m`` bits for ``m >= 10``.  A deviation that rounding puts
    just below an edge that reaches ``1/2 - delta`` leaves ``1 - h2(delta +
    nu)`` below ``3 (1/2 - delta - nu)^2``, so its bound is below ``-t``.
    ``r``, ``floor(m delta)`` and ``floor(m (delta + sample))`` are formed
    by rounded operations that keep their order, as in the scalar path.
    """
    ends = _spread(1.0, m // 2 + 1.0, _K_POINTS + 1)
    bound = _run_bound(model, float(m), ends[:-1], ends[1:] - 1.0)
    return bool(np.all(bound < 1.0 - 1e-9 * m))


def _run_bound(model, m, k1, k2):
    """`_keyless`'s bound on ``U`` over each run ``[k1, k2]``; -inf where the edge reaches 1/2.

    Each factor is taken at its worse end of the run: ``n <= m - k1``; ``r
    >= ceil(1.19 h2(delta) (m - k2))``, since ``r`` grows with ``n``; the
    edge from below by ``_edge(m, k1, k2)``; and ``n (1 - h2)`` as the
    larger of its values at ``n = m - k1`` and ``n = m - k2``, which also
    holds where a rounded ``1 - h2`` is negative.  So the bound of a run
    is at least the bound at ``[k, k]`` of each ``k`` in it, up to a few
    float spacings of ``m``, which `_keyless`'s margin covers.
    """
    n_lo, n_hi = m - k2, m - k1
    q = model.delta + model._edge(m, k1, k2, headroom=True)
    r = np.ceil(_leakage(n_lo, model.h))
    with np.errstate(all="ignore"):
        h = _h2(q)
        bound = np.maximum(
            _ell_bound(n_hi, h, r, model.t, model.room),
            _ell_bound(n_lo, h, r, model.t, model.room),
        )
    return np.where(q >= 0.5, -np.inf, bound)


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
    zero as ``m`` grows.

    A block size that `_keyless` certifies is read as keyless without a
    search: the closed-form bound shows that no point there has ``ell >=
    1``, so `optimize` would give ``ell = 0`` there.  Every other block
    size is searched, `_BATCH` at a time in lock step (`_lock_step`), and
    the block sizes are read in the order of the sequential scan and
    bisection; only those read are verified as `optimize` verifies them, so
    the result is the one the sequential search returns.

    Each batch holds the next `_BATCH` uncertified nodes of the sequential
    search's decision tree, below the next block size to read.  A node is
    a block size, and its two successors are the sizes read next when it
    has a key and when it has none; a certified size passes at once to its
    keyless successor.  The nodes are taken in order of how many branches
    on their path go against the predicted outcome, then by depth, the
    keyless branch first.  The prediction compares with 1 the best
    unrounded length of the searched sizes, interpolated linearly between
    the nearest on either side; past the last it is keyless, as in a
    forward scan.  Only the sizes searched from the keyless end of the
    search to its keyed end (or ``m_hi``) are kept, and with none there is
    no prediction.  A prediction chooses only which sizes are searched,
    never what is read.  Near the threshold the best length is close to
    linear in ``m``, so after the first batch or two the predicted path
    holds the rest of the reads; a batch costs a few rounds of root
    searches, and a certificate is spent on each node visited.

    The input is checked as `optimize` checks it before any block size is
    certified, so a certificate cannot hide a refusal.  ``m_lo`` and
    ``m_hi`` are integers below 2^53 with ``m_lo <= m_hi``.  The grid is
    not built, and a certificate's cost does not grow with ``m``, so
    neither does the search's memory.
    """
    m_lo, m_hi = _check_block_size(m_lo, "m_lo"), _check_block_size(m_hi, "m_hi")
    if m_lo > m_hi:
        raise ValueError(f"need m_lo <= m_hi, got [{m_lo}, {m_hi}]")
    model = _Model(delta, budget, variant)
    _check_sizes([m_lo])
    stride = max(1, min(500, (m_hi - m_lo) // 128))

    # a state (bad, good) of the sequential search: bad is the last size
    # read as keyless, with m_lo - 1 standing for below the range.  While
    # good is None the forward scan reads the grid point after bad (strides
    # from m_lo, then m_hi), and then the bisection the midpoint of (bad,
    # good)
    def probe(state):
        """The block size that ``state`` reads next; None where the search ends."""
        bad, good = state
        if good is None:
            if bad < m_lo:
                return m_lo
            return min(bad + stride, m_hi) if bad < m_hi else None
        return (bad + good) // 2 if good - bad > 1 else None

    def step(state, m, keyed):
        """The state after ``state`` reads ``m``."""
        return (state[0], m) if keyed else (m, state[1])

    def guess(m):
        """Whether the lengths searched put a key at ``m``; None with none searched."""
        searched = [x for x, rows in known.items() if rows is not None]
        if not searched:
            return None
        a = max((x for x in searched if x < m), default=None)
        b = min((x for x in searched if x > m), default=None)
        if a is None or b is None:
            return False
        return known[a][0][0] * (b - m) + known[b][0][0] * (m - a) >= b - a

    def search(root):
        """Searches the next `_BATCH` uncertified nodes of the tree below ``root``."""
        # nodes (misses, depth, order, state), the least taken first
        nodes, batch, order = [(0, 0, 0, root)], [], itertools.count(1)
        while nodes and len(batch) < _BATCH:
            nodes.sort(reverse=True)
            misses, depth, _, state = nodes.pop()
            m = probe(state)
            if m is None:
                continue
            if batch and _keyless(model, m):  # the root is known to be uncertified
                known[m] = None
                nodes.append((misses, depth, next(order), step(state, m, False)))
                continue
            batch.append(m)
            likely = guess(m)
            for keyed in (False, True):
                miss = likely is not None and likely != keyed
                nodes.append((misses + miss, depth + 1, next(order), step(state, m, keyed)))
        known.update(zip(batch, _lock_step(model, batch)))

    # the block sizes known so far: each searched one with its `_search`
    # rows, each that `_keyless` certified with None
    known = {}
    state = (m_lo - 1, None)
    while (m := probe(state)) is not None:
        if m not in known and not _keyless(model, m):
            # no size outside [bad, top] is read again, and none steers a
            # guess, so the record keeps only the sizes between them
            bad, good = state
            top = m_hi if good is None else good
            known = {x: rows for x, rows in known.items() if bad <= x <= top}
            search(state)
            continue
        rows = known.get(m)
        state = step(state, m, rows is not None and _verify(model, m, rows).ell >= 1)
    return state[1]
