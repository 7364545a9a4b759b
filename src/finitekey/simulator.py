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
against both closed-form bounds.  It looks the bounds up by module name at
call time, so a test can swap one for a broken double (``monkeypatch``)
and prove that the check would catch it.

The audit is coarse.  On the 21 default cases that can fire, at 100,000
trials, the interval's half-width is a median 104% of the exact value and
4.8% at best, and both bounds are at least 11.4 times the exact value; so
it catches an error of the exact oracle only above about 5% relative.
The sharp checks of the oracle are the enumeration and the rational and
high-precision references of the tests.
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
    "default_serfling_bound",
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


def _confidence_interval(count: int, trials: int):
    """Exact two-sided 99% Clopper-Pearson interval for a binomial proportion.

    At every count, ``Bin(trials, lo)`` puts 0.5% of its mass at or above
    ``count`` and ``Bin(trials, hi)`` 0.5% at or below it; ``lo`` is 0 at a
    count of 0 and ``hi`` is 1 at ``trials`` (C. J. Clopper and E. S.
    Pearson, Biometrika 26 (1934) 404-413).  scipy is imported here, not at
    start-up: only the audit needs it.
    """
    from scipy.special import betaincinv

    lo = 0.0 if count == 0 else float(betaincinv(count, trials - count + 1, 0.005))
    hi = 1.0 if count == trials else float(betaincinv(count + 1, trials - count, 0.995))
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


def default_serfling_bound(
    shape: BlockShape, delta: float, slack: SlackParams
) -> float:
    """Single-application bound on the bad-event probability: epe squared."""
    return min(1.0, serfling_epe(shape, slack.nu) ** 2)


def validate_bounds(cases: Sequence[ValidationCase]) -> List[ValidationRow]:
    """Check every case: exact value within CI and below both bounds.

    A row passes when the simulated CI contains the exact probability and
    the exact probability does not exceed either closed-form bound.  Cases
    where a bound precondition fails are reported as failed rows with a
    note rather than raised, so one bad grid entry cannot hide the rest.
    The bounds are `default_serfling_bound` and `lemma2_ppe_bound`, looked
    up in this module at call time; tests monkeypatch them.
    """
    rows = []
    for case in cases:
        slack = SlackParams(nu=case.nu, xi=case.xi)
        try:
            s_bound = default_serfling_bound(case.shape, case.delta, slack)
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
