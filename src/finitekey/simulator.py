"""Monte Carlo audit of the parameter-estimation tail bounds.

`run` plants a fixed number of errors in a block, draws the number of them
that a uniform PE subset takes, counts how often the joint bad event fires
(PE sample passes while the key side is noisy) and reports the frequency
with its exact 99% Clopper-Pearson interval, whatever the count, next to
the exact hypergeometric value.  The draw is numpy's hypergeometric
sampler, which shares no code with the exact tail in `bounds`, so the
audit stays independent of what it checks.  A case whose bad event
cannot happen makes no draw (see `run`); that is 29 of the 50 cases of
`default_validation_grid`.
`validate_bounds` runs a whole grid of such cases and checks each one
against both closed-form bounds.  It looks `serfling_epe` and
`lemma2_ppe_bound` up by module name at call time, so a test can swap one
for a broken double (``monkeypatch``) and prove that the check would catch
it.

The audit is coarse.  On the 21 default cases that can fire, at 100,000
trials, the interval's half-width is a median 104% of the exact value and
4.8% at best, and both bounds are at least 11.4 times the exact value; so
it catches an error of the exact oracle only above about 5% relative.
The sharp checks of the oracle are the enumeration and the rational and
high-precision references of the tests.

The Clopper-Pearson limits need no library beyond the standard one.  Each
limit inverts a binomial tail, that is a regularized incomplete beta
function, by Newton steps in the log-odds of the limit, held inside a
bracket.  The tail is Lentz's continued fraction in the contracted,
cancellation-free form of DiDonato and Morris, and its prefactor is
Loader's saddle-point form of the binomial density.  On every tested
case, up to 10^12 trials, each tail is within 1e-9 relative of 0.5%, or a
limit near 1 is within one float spacing of the exact one; an interval
costs 60-190 µs at 100,000 trials (see `_confidence_interval`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .bounds import (
    BlockShape,
    SlackParams,
    check_deviation,
    check_error_count,
    check_integer,
    check_rate,
    exact_joint_ppe,
    lemma2_ppe_bound,
    max_passing_pe_errors,
    min_alarming_key_errors,
    serfling_epe,
)

__all__ = [
    "SimConfig",
    "SimReport",
    "ValidationCase",
    "ValidationRow",
    "run",
    "validate_bounds",
    "default_validation_grid",
]

# Trials per chunk.  Fixed, so the substream layout depends only on the
# trial count, never on the block size or the host.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """One simulation: block shape, planted errors and thresholds.

    ``w``, ``trials`` and ``seed`` are integers of any integer type, stored
    as ``int``; a float, even ``100.0``, raises ``ValueError``.  ``delta``
    and ``nu`` are checked by the rules of `bounds`, `check_rate` (``0 <=
    delta <= 1``) and `check_deviation` (``0 < nu <= 1``), when the config
    is built.
    """

    shape: BlockShape
    w: int
    delta: float
    nu: float
    trials: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "w", check_error_count(self.w, self.shape.m))
        check_rate(self.delta)
        check_deviation(self.nu)
        object.__setattr__(self, "trials", check_integer(self.trials, "trials"))
        object.__setattr__(self, "seed", check_integer(self.seed, "seed"))
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class SimReport:
    """Frequency estimate of the bad event with its exact counterpart."""

    trials: int
    seed: int
    bad_event_count: int
    frequency: float
    ci_low: float
    ci_high: float
    exact: float


@dataclass(frozen=True)
class ValidationCase(SimConfig):
    """One grid entry for `validate_bounds`: a `SimConfig` plus the split ``xi``.

    ``nu`` and ``xi`` are checked as `SlackParams` checks them, when the case
    is built, so a bad case never reaches `validate_bounds`.
    """

    xi: float

    def __post_init__(self):
        super().__post_init__()
        SlackParams(nu=self.nu, xi=self.xi)


@dataclass(frozen=True)
class ValidationRow:
    """Outcome of one case: simulated, exact and both bound values.

    The numbers stay NaN on a row whose bound precondition failed.
    """

    case: ValidationCase
    passed: bool
    exact: float = math.nan
    frequency: float = math.nan
    ci_low: float = math.nan
    ci_high: float = math.nan
    serfling_bound: float = math.nan
    lemma2_bound: float = math.nan
    note: Optional[str] = None


# Log of the mass of each tail of the 99% interval, and the standard normal
# quantile that leaves that mass, for the starting point of each search.
_LOG_TAIL = math.log(0.005)
_Z = 2.5758293035489004

# Newton steps in the log-odds stop when one moves it by at most _LOG_ODDS_TOL,
# which moves the limit and its complement by at most that much relative.
# At most 5 steps get there on every tested case; _NEWTON_STEPS is a guard.
_LOG_ODDS_TOL = 1e-12
_NEWTON_STEPS = 64
_FRACTION_TERMS = 10_000

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SMALL_STIRLERR = [
    math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _LOG_SQRT_2PI for n in range(1, 16)
]


def _stirlerr(n):
    """``log(n!) - log(sqrt(2 pi n) (n / e)^n)`` for an integer ``n >= 1``.

    ``lgamma`` below 16, where the difference loses no more than 1e-14; the
    Stirling series above, where five terms are exact to rounding.
    """
    if n < 16:
        return _SMALL_STIRLERR[n - 1]
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x, mu):
    """``x log(x / mu) + mu - x`` without its cancellation near ``x = mu``.

    There it is the series ``(x - mu) v + 2 x sum_{j >= 1} v^(2j+1) / (2j+1)``
    in ``v = (x - mu) / (x + mu)`` (C. Loader, "Fast and accurate
    computation of binomial probabilities", 2000).
    """
    d = x - mu
    if abs(d) >= 0.1 * (x + mu):
        return x * math.log(x / mu) - d
    v = d / (x + mu)
    s, term, v2, j = d * v, 2.0 * x * v, v * v, 3
    while True:
        term *= v2
        nxt = s + term / j
        if nxt == s:
            return s
        s, j = nxt, j + 2


def _beta_density(k, n, p, q):
    """``p^k q^(n-k+1) / B(k, n-k+1)``, which is ``k q P[Bin(n, p) = k]``.

    For ``1 <= k < n`` and ``p + q = 1``, each given to full relative
    precision.  Loader's saddle-point form, within 1e-14 relative up to
    ``10^12``.  It takes no difference of ``lgamma`` values, whose rounding
    grows with ``n`` (1.5e-8 relative at ``10^7``, 1.6e-3 at ``10^12``), and
    forms no power of ``q`` from ``p`` or back.
    """
    exponent = (
        _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * p) - _bd0(n - k, n * q)
    )
    return k * q * math.exp(exponent) * math.sqrt(n / (2.0 * math.pi * k * (n - k)))


def _beta_fraction(a, b, x, y, lam):
    """``I_x(a, b) B(a, b) / (x^a y^b)`` by a continued fraction.

    ``y = 1 - x`` and ``lam = (a + b) y - b >= 0``, that is ``x`` at or
    below the mean of Beta(a, b).  This is Lentz's fraction (W. J. Lentz,
    Appl. Opt. 15 (1976) 668-671; *Numerical Recipes* sec. 6.4) contracted
    to its even part, in the form of A. R. DiDonato and A. H. Morris (ACM
    TOMS 18 (1992) 360-373, ``bfrac``): ``y`` enters through ``lam`` alone,
    and every ``beta`` term is a sum of positive terms, so an ``x`` near 1
    cancels nothing.  Evaluated to 1e-15 relative, in at most 63 terms on
    the tested cases and on 5,000 random ones up to 10^12 trials.
    """
    c = lam + 1.0
    c0 = b / a
    c1 = 1.0 / a + 1.0
    yp1 = y + 1.0
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, _FRACTION_TERMS):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (t + 1.0) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = t + 1.0
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= 1e-15 * r:
            return r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    raise ArithmeticError(f"beta continued fraction did not converge at a={a}, b={b}")


def _upper_tail(k, n, p, q):
    """``P[Bin(n, p) >= k]`` and its derivative in the log-odds ``log(p / q)``.

    For ``1 <= k < n`` and ``p`` at or below ``k / (n + 1)``, the mean of
    Beta(k, n - k + 1).  The tail is ``I_p(k, n - k + 1)``, formed by the
    fraction at ``p``, and the derivative is the prefactor of that fraction.
    Above the mean it raises ``ArithmeticError``: `_lower_log_odds` never
    asks there.  Its search starts at the Wilson score limit, below the
    mean, and the log-tail is concave, so a Newton step from below never
    passes the root and one from above lands below it; every point it asks
    for lies at or below the root.  Over every count at 2 to 59 trials and
    20,000 random intervals up to 10^12 trials, no tail was asked above the
    mean.
    """
    a, b = k, n - k + 1
    lam = (n + 1) * q - b if a > b else a - (n + 1) * p
    if lam < 0.0:
        raise ArithmeticError(f"binomial tail asked above its mean at p={p}, {k} of {n}")
    slope = _beta_density(k, n, p, q)
    return slope * _beta_fraction(a, b, p, q, lam), slope


def _lower_log_odds(count, trials):
    """Log-odds of the lower Clopper-Pearson limit at ``0 < count < trials``.

    The root ``v`` of ``log P[Bin(trials, p) >= count] = log 0.005`` at ``p
    = 1 / (1 + exp(-v))``.  That log-tail is increasing and concave in
    ``v`` (the log-CDF of a log-concave density), so Newton steps reach the
    root from below without passing it, and pass it at most once from
    above.  A step that leaves the bracket of the points seen so far, which
    only rounding or an underflowed tail can cause, is replaced by
    bisection.  The search starts at the Wilson score limit.  It raises
    when it does not converge.
    """
    n, c = trials, count
    half = 0.5 * _Z * _Z
    h = _Z * math.sqrt(c * (n - c) / n + 0.5 * half)
    v = math.log(c * c * (n + 2.0 * half) / (n * (c + half + h) * (n - c + half + h)))
    below, above = -math.inf, math.inf
    for _ in range(_NEWTON_STEPS):
        tail, slope = _upper_tail(c, n, _probability(v), _probability(-v))
        if tail > 0.0:
            miss = math.log(tail) - _LOG_TAIL
            nxt = v - miss * tail / slope
        else:
            miss = nxt = -math.inf
        if miss < 0.0:
            below = v
        else:
            above = v
        if abs(nxt - v) <= _LOG_ODDS_TOL:
            return nxt
        if not below < nxt < above:
            nxt = 0.5 * (below + above)
            if not math.isfinite(nxt):
                break
        v = nxt
    raise ArithmeticError(f"Clopper-Pearson limit did not converge at {count} of {trials}")


def _probability(v):
    """The probability of log-odds ``v``.

    Above 1/2 it is one minus its complement, which rounds once; so the
    probabilities of ``v`` and ``-v`` sum to 1 up to that rounding.
    """
    if v > 0.0:
        return 1.0 - 1.0 / (1.0 + math.exp(v))
    return 1.0 / (1.0 + math.exp(-v))


def _confidence_interval(count: int, trials: int):
    """Exact two-sided 99% Clopper-Pearson interval for a binomial proportion.

    At every count, ``Bin(trials, lo)`` puts 0.5% of its mass at or above
    ``count`` and ``Bin(trials, hi)`` 0.5% at or below it; ``lo`` is 0 at a
    count of 0 and ``hi`` is 1 at ``trials`` (C. J. Clopper and E. S.
    Pearson, Biometrika 26 (1934) 404-413).  The other limit at those two
    counts has a closed form.  Otherwise ``hi`` at ``count`` is one minus
    ``lo`` at ``trials - count``, so both come from `_lower_log_odds`, and
    the log-odds carries the small side of a limit near 1 to full precision.

    Accuracy: on every tested case, up to 10^12 trials, each tail is within
    1e-9 relative of 0.5%.  A limit near 1 is a float64 with a spacing of
    1.1e-16, which can move a tail by more than that; there the limit is
    within one float spacing of the exact one.  Cost: at most 5 tail
    evaluations per limit, 60-190 µs per interval at 100,000 trials on a
    shared 2-vCPU VM.
    """
    if count == 0:
        lo = 0.0
    elif count == trials:
        lo = math.exp(_LOG_TAIL / trials)
    else:
        lo = _probability(_lower_log_odds(count, trials))
    if count == trials:
        hi = 1.0
    elif count == 0:
        hi = -math.expm1(_LOG_TAIL / trials)
    else:
        hi = _probability(-_lower_log_odds(trials - count, trials))
    return lo, hi


def _count_bad(rng, size, shape, w, limit):
    """Bad events among ``size`` trials, one hypergeometric draw per trial.

    The number of the ``w`` planted errors that a uniform k-subset of the
    ``m`` positions takes is hypergeometric with ``w`` good and ``m - w``
    bad items and ``k`` draws; that is the PE error count of one trial, and
    the rest of the errors land on the key side.  A trial is bad when that
    count is at most ``limit`` (see `run`).  The cost per trial does not
    depend on ``m``.
    """
    pe_errors = rng.hypergeometric(w, shape.m - w, shape.k, size=size)
    return int(np.count_nonzero(pe_errors <= limit))


def run(config: SimConfig) -> SimReport:
    """Estimate the joint bad-event probability at fixed error count ``w``.

    Deterministic for a given config: the trials are split into chunks of
    ``_CHUNK`` (the last one shorter), and chunk ``i`` draws from
    ``SeedSequence(seed, spawn_key=(i,))``, which is child ``i`` of
    ``SeedSequence(seed).spawn``; so the streams depend on the seed and the
    trial count alone.  Each chunk's seed is made when the chunk runs, so
    memory does not grow with the trial count.

    A trial is bad when its PE error count ``x`` passes (``x <= pe_max``)
    and the key side alarms (``w - x >= key_min``), that is when ``x <=
    limit = min(pe_max, w - key_min)``.  ``x`` is never below ``max(0, w -
    n)``, the errors that the key side cannot hold, so when that exceeds
    ``limit`` the event is impossible: no draw is made and the count is 0.
    This is the rule under which `exact_joint_ppe` is 0.  Skipping a case
    moves no other case's stream, since each config seeds its own chunks.
    """
    shape = config.shape
    w = config.w
    pe_max = max_passing_pe_errors(shape, config.delta)
    key_min = min_alarming_key_errors(shape, config.delta, config.nu)
    limit = min(pe_max, w - key_min)
    bad = 0
    if max(0, w - shape.n) <= limit:
        for i, first in enumerate(range(0, config.trials, _CHUNK)):
            size = min(_CHUNK, config.trials - first)
            rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(i,)))
            bad += _count_bad(rng, size, shape, w, limit)
    freq = bad / config.trials
    ci_low, ci_high = _confidence_interval(bad, config.trials)
    exact = exact_joint_ppe(shape, config.delta, config.nu, w)
    return SimReport(
        trials=config.trials,
        seed=config.seed,
        bad_event_count=bad,
        frequency=freq,
        ci_low=ci_low,
        ci_high=ci_high,
        exact=exact,
    )


def validate_bounds(cases: Sequence[ValidationCase]) -> List[ValidationRow]:
    """Check every case: exact value within CI and below both bounds.

    A row passes when the simulated CI contains the exact probability and
    the exact probability does not exceed either closed-form bound.  Cases
    where a bound precondition fails are reported as failed rows with a
    note rather than raised, so one bad grid entry cannot hide the rest.
    The bounds are the square of `serfling_epe`, capped at 1, and
    `lemma2_ppe_bound`, looked up in this module at call time; tests
    monkeypatch them.
    """
    rows = []
    for case in cases:
        slack = SlackParams(nu=case.nu, xi=case.xi)
        try:
            s_bound = min(1.0, serfling_epe(case.shape, case.nu) ** 2)
            l_bound = lemma2_ppe_bound(case.shape, case.delta, slack)
        except ValueError as exc:
            rows.append(ValidationRow(case=case, passed=False, note=str(exc)))
            continue
        report = run(case)
        passed = (
            report.exact <= s_bound
            and report.exact <= l_bound
            and report.ci_low <= report.exact <= report.ci_high
        )
        rows.append(
            ValidationRow(
                case=case,
                passed=passed,
                exact=report.exact,
                frequency=report.frequency,
                ci_low=report.ci_low,
                ci_high=report.ci_high,
                serfling_bound=s_bound,
                lemma2_bound=l_bound,
            )
        )
    return rows


def default_validation_grid(trials: int = 100_000, seed: int = 20260821):
    """The standard 50-case audit grid.

    Block sizes 20, 40 and 60 with half the block given to PE, two tolerated
    rates, a spread of planted error counts, and a fixed slack split chosen
    so the two-term bound is defined at every entry (n (nu - xi) > 1).
    """
    nu, xi = 0.35, 0.12
    cases = []
    w_lists = {
        20: (1, 3, 5, 7, 9, 11, 13, 15),
        40: (2, 6, 10, 14, 18, 22, 26, 30),
        60: (3, 9, 15, 21, 27, 33, 39, 45, 51),
    }
    for m in (20, 40, 60):
        for delta in (0.05, 0.1):
            for w in w_lists[m]:
                cases.append(
                    ValidationCase(
                        shape=BlockShape(m=m, k=m // 2),
                        w=w,
                        delta=delta,
                        nu=nu,
                        xi=xi,
                        trials=trials,
                        seed=seed + len(cases),
                    )
                )
    return cases
