"""Monte Carlo audit of the parameter-estimation tail bounds.

`run` plants a fixed number of errors in a block, draws the number of them
that a uniform PE subset takes, counts how often the joint bad event fires
(PE sample passes while the key side is noisy) and reports the frequency
with a 99% confidence interval next to the exact hypergeometric value.  The
draw is numpy's hypergeometric sampler, which shares no code with the
exact tail in `bounds`, so the audit stays independent of what it checks.
`validate_bounds` runs a whole grid of such cases and checks each one
against both closed-form bounds.  It looks the bounds up by module name at
call time, so a test can swap one for a broken double (``monkeypatch``)
and prove that the check would catch it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy.special import betaincinv

from .bounds import (
    BlockShape,
    BoundUnavailableError,
    SlackParams,
    check_error_count,
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

# Two-sided 99% normal quantile.
_Z99 = 2.5758293035489004
# Below this count the normal interval is replaced by Clopper-Pearson.
_EXACT_CI_COUNT = 30
# Trials per chunk.  Fixed, so the substream layout depends only on the
# trial count, never on the block size or the host.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """One simulation: block shape, planted errors and thresholds."""

    shape: BlockShape
    w: int
    delta: float
    nu: float
    trials: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "w", check_error_count(self.w, self.shape.m))
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")
        if not self.nu > 0.0:
            raise ValueError(f"nu must be positive, got {self.nu}")
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
    """One grid entry for `validate_bounds`: a `SimConfig` plus the split ``xi``."""

    xi: float


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
    """Two-sided 99% interval for a binomial proportion.

    Normal approximation with continuity correction; exact Clopper-Pearson
    when the count (or its complement) is small enough that the normal shape
    cannot be trusted.
    """
    p = count / trials
    if count < _EXACT_CI_COUNT or trials - count < _EXACT_CI_COUNT:
        lo = 0.0 if count == 0 else float(betaincinv(count, trials - count + 1, 0.005))
        hi = 1.0 if count == trials else float(betaincinv(count + 1, trials - count, 0.995))
        return lo, hi
    half = _Z99 * math.sqrt(p * (1.0 - p) / trials) + 0.5 / trials
    return max(0.0, p - half), min(1.0, p + half)


def _count_bad(rng, size, shape, w, pe_max, key_min):
    """Bad events among ``size`` trials, one hypergeometric draw per trial.

    The number of the ``w`` planted errors that a uniform k-subset of the
    ``m`` positions takes is hypergeometric with ``w`` good and ``m - w``
    bad items and ``k`` draws; that is the PE error count of one trial, and
    the rest of the errors land on the key side.  The cost per trial does
    not depend on ``m``.
    """
    pe_errors = rng.hypergeometric(w, shape.m - w, shape.k, size=size)
    key_errors = w - pe_errors
    return int(np.count_nonzero((pe_errors <= pe_max) & (key_errors >= key_min)))


def run(config: SimConfig) -> SimReport:
    """Estimate the joint bad-event probability at fixed error count ``w``.

    Deterministic for a given config: the trials are split into chunks of
    ``_CHUNK`` (the last one shorter), and chunk ``i`` draws from child
    ``i`` of ``SeedSequence(seed).spawn``, so the streams depend on the seed
    and the trial count alone.  When the key side cannot hold enough errors
    to alarm, no draw is made and the count is 0.
    """
    shape = config.shape
    pe_max = max_passing_pe_errors(shape, config.delta)
    key_min = min_alarming_key_errors(shape, config.delta, config.nu)
    n_chunks = (config.trials + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(config.seed).spawn(n_chunks)
    bad = 0
    if key_min <= shape.n:
        for i, child in enumerate(children):
            size = min(_CHUNK, config.trials - i * _CHUNK)
            rng = np.random.default_rng(child)
            bad += _count_bad(rng, size, shape, config.w, pe_max, key_min)
    freq = bad / config.trials
    ci_low, ci_high = _confidence_interval(bad, config.trials)
    exact = exact_joint_ppe(shape, config.delta, config.nu, config.w)
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
        except (BoundUnavailableError, ValueError) as exc:
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
