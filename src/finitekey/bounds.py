"""Tail bounds and exact tail probabilities for sampling without replacement.

A sifted block of ``m`` bits contains ``w`` errors at unknown positions.  A
uniformly random subset of ``k`` positions is published for parameter
estimation (PE); the remaining ``n = m - k`` positions form the raw key.
Everything in this module quantifies one bad event: the PE sample looks clean
(error rate at most ``delta``) while the raw key is in fact noisy (error rate
at least ``delta + nu``).

Two independent routes are provided:

* Closed-form exponential bounds.  ``serfling_epe`` is the PE error function
  obtained from a single application of Serfling's inequality for sampling
  without replacement.  ``lemma2_ppe_bound`` is a sharper two-term bound that
  splits the deviation ``nu`` into a sample-side part ``xi`` (handled by
  ``serfling_lower_tail``) and a key-side part ``nu - xi`` (handled by the
  Hush-Scovel hypergeometric tail, ``hush_scovel_tail``).
* An exact oracle.  ``exact_joint_ppe`` evaluates the same tail event
  exactly from the hypergeometric law.

The exact route exists to audit the closed-form route, so the two share no
kernel: the oracle generates its pmf terms with numpy too, but it calls none
of the closed-form kernels (`_h2` and the rate, factor and tail kernels).

Each closed-form formula is one unchecked array kernel (a leading
underscore), called at size one by the validating public functions and on
whole arrays by the optimizer.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlockShape",
    "SlackParams",
    "BoundUnavailableError",
    "binary_entropy",
    "serfling_epe",
    "serfling_lower_tail",
    "hush_scovel_tail",
    "lemma2_ppe_bound",
    "lemma2_ppe_detail",
    "new_epe",
    "exact_joint_ppe",
    "max_passing_pe_errors",
    "min_alarming_key_errors",
]

# Tolerance for recognising float products that should be integers, e.g.
# 0.15 * 3100 = 464.99999999999994 must round to 465 before ceil/floor.
_INT_SNAP_TOL = 1e-9


def snap_ceil(x):
    """Ceiling that first snaps values within 1e-9 of an integer."""
    r = round(x)
    if abs(x - r) <= _INT_SNAP_TOL:
        return int(r)
    return math.ceil(x)


def snap_floor(x):
    """Floor that first snaps values within 1e-9 of an integer."""
    r = round(x)
    if abs(x - r) <= _INT_SNAP_TOL:
        return int(r)
    return math.floor(x)


class BoundUnavailableError(ValueError):
    """A closed-form bound does not apply at the requested parameters.

    Raised instead of returning a vacuous value so that callers can tell
    "bound equals one" apart from "bound not defined here".
    """


@dataclass(frozen=True)
class BlockShape:
    """Partition of one sifted block: ``k`` PE bits, ``n = m - k`` key bits.

    ``m`` and ``k`` are integers of any integer type (``np.int64(60)`` is
    accepted, ``60.0`` is not); ``n`` is derived, also by ``replace``.
    """

    m: int
    k: int

    def __post_init__(self):
        try:
            operator.index(self.m), operator.index(self.k)
        except TypeError:
            raise ValueError(
                f"m and k must be integers, got m={self.m!r}, k={self.k!r}"
            ) from None
        if self.k < 1 or self.n < 1:
            raise ValueError(
                f"need at least one PE bit and one key bit, got k={self.k}, n={self.n}"
            )

    @property
    def n(self) -> int:
        return self.m - self.k


@dataclass(frozen=True)
class SlackParams:
    """Deviation budget ``nu`` and its split point ``xi``.

    ``nu`` is the total tolerated gap between the PE estimate and the key
    error rate.  ``xi`` is the part charged to the PE sample itself; the
    remainder ``nu_prime = nu - xi`` is charged to the key.  The two-term
    bound requires ``0 < xi < nu``.  The single-term Serfling route never
    looks at ``xi``, so ``xi = 0`` is accepted for that use.
    """

    nu: float
    xi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.nu) and math.isfinite(self.xi)):
            raise ValueError("nu and xi must be finite")
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"nu must lie in (0, 1], got {self.nu}")
        if not 0.0 <= self.xi < self.nu:
            raise ValueError(f"xi must lie in [0, nu), got xi={self.xi}, nu={self.nu}")

    @property
    def nu_prime(self) -> float:
        return self.nu - self.xi


def _h2(x):
    """``-x log2 x - (1 - x) log2(1 - x)``; unchecked, NaN at 0 and 1."""
    return -(x * np.log2(x) + (1.0 - x) * np.log2(1.0 - x))


def binary_entropy(x):
    """Binary entropy in bits.

    Parameters
    ----------
    x : float or array_like
        Probability or array of probabilities in [0, 1].

    Returns
    -------
    float or ndarray
        ``-x log2 x - (1 - x) log2(1 - x)``, with the endpoint value 0.
    """
    arr = np.asarray(x, dtype=float)
    if np.any((arr < 0.0) | (arr > 1.0)) or np.any(~np.isfinite(arr)):
        raise ValueError("binary_entropy requires arguments in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where((arr > 0.0) & (arr < 1.0), _h2(arr), 0.0)
    if np.ndim(x) == 0:
        return float(out)
    return out


def _serfling_tail(rate, dev):
    """``exp(-rate dev^2)``, with `_serfling_rate` or `_sample_rate`; unchecked.

    R. J. Serfling, Probability inequalities for the sum in sampling without
    replacement, Ann. Statist. 2 (1974) 39-48.
    """
    return np.exp(-rate * dev * dev)


def _serfling_rate(m, k, n):
    """Rate ``n k^2 / (m (k + 1))`` of `serfling_epe`; unchecked."""
    return n * k * k / (m * (k + 1.0))


def _sample_rate(m, k, n):
    """Rate ``2 m k / (n + 1)`` of `serfling_lower_tail`; unchecked."""
    return 2.0 * m * k / (n + 1.0)


def _gamma_factor(m, m_err):
    """``1/(m_err + 1) + 1/(m - m_err + 1)``, falling on [0, m/2]; unchecked."""
    return 1.0 / (m_err + 1.0) + 1.0 / (m - m_err + 1.0)


def _hush_scovel_factor(k, n, gamma, relaxed):
    """``max(1/(n + 1) + 1/(k + 1), gamma)``, or ``gamma`` if ``relaxed``; unchecked."""
    sharp = np.maximum(1.0 / (n + 1.0) + 1.0 / (k + 1.0), gamma)
    return np.where(relaxed, gamma, sharp)


def _hush_scovel_tail(c, n, dev):
    """``exp(-2 c ((n dev)^2 - 1))``, for ``(n dev)^2 > 1``; unchecked.

    D. Hush and C. Scovel, Concentration of the hypergeometric distribution,
    Stat. Probab. Lett. 75 (2005) 127-132.
    """
    return np.exp(-2.0 * c * ((n * dev) ** 2 - 1.0))


def serfling_epe(shape: BlockShape, nu: float) -> float:
    """PE error function from a single Serfling tail application.

    Returns ``exp(-n k^2 nu^2 / (m (k + 1)))``.  The square of this value
    bounds the probability, uniformly over the block error count, that the PE
    sample passes at rate ``delta`` while the key error rate still exceeds
    ``delta + nu``.
    """
    if not (math.isfinite(nu) and nu > 0.0):
        raise ValueError(f"nu must be positive and finite, got {nu}")
    return float(_serfling_tail(_serfling_rate(shape.m, shape.k, shape.n), nu))


def serfling_lower_tail(shape: BlockShape, xi: float) -> float:
    """Probability bound for the PE sample undershooting the block rate by xi.

    Returns ``exp(-2 m k xi^2 / (n + 1))``, the Serfling bound on the chance
    that the observed PE error rate sits ``xi`` or more below the error rate
    of the whole block.
    """
    if not (math.isfinite(xi) and xi > 0.0):
        raise ValueError(f"xi must be positive and finite, got {xi}")
    return float(_serfling_tail(_sample_rate(shape.m, shape.k, shape.n), xi))


def hush_scovel_tail(
    shape: BlockShape, m_err: int, dev: float, relaxed: bool = False
) -> float:
    """Hush-Scovel upper bound on the hypergeometric key-side tail.

    Bounds the probability that, with exactly ``m_err`` errors in the block,
    the key error rate exceeds its expectation by ``dev`` or more.  The sharp
    form uses ``max(1/(n+1) + 1/(k+1), gamma)`` in the exponent, with the
    curvature factor ``gamma = 1/(m_err + 1) + 1/(m - m_err + 1)``;
    ``relaxed=True`` drops the first argument of the max, which can only
    increase the returned value.

    Raises
    ------
    BoundUnavailableError
        If ``(n * dev)^2 <= 1``; the bound carries no information there and
        callers must not mistake that for a valid value.
    """
    if not (math.isfinite(dev) and dev > 0.0):
        raise ValueError(f"dev must be positive and finite, got {dev}")
    if not 0 <= m_err <= shape.m:
        raise ValueError(f"m_err must lie in [0, m], got m_err={m_err}, m={shape.m}")
    if (shape.n * dev) ** 2 - 1.0 <= 0.0:
        raise BoundUnavailableError(
            f"hypergeometric tail bound needs (n*dev)^2 > 1, got "
            f"n={shape.n}, dev={dev}"
        )
    gamma = _gamma_factor(shape.m, m_err)
    factor = _hush_scovel_factor(shape.k, shape.n, gamma, relaxed)
    return float(_hush_scovel_tail(factor, shape.n, dev))


def lemma2_ppe_detail(shape: BlockShape, delta: float, slack: SlackParams) -> dict:
    """Two-term PE failure bound, with its intermediate quantities.

    The bound covers the bad event uniformly over the unknown block error
    count by splitting on whether the block error rate reaches
    ``delta + xi``.  Below the split, at most ``ceil(m (delta + xi)) - 1``
    errors are in play and the key-side tail is controlled by the Hush-Scovel
    bound at deviation ``nu - xi``; at or above it, the PE sample itself must
    have undershot by ``xi``, which ``serfling_lower_tail`` controls.  The
    Hush-Scovel factor is taken at ``m_err = ceil(m (delta + xi))`` in its
    relaxed (gamma only) form while ``m_err <= m // 2``, where the gamma
    factor is still decreasing; past that point the sharp (max) form is used.

    Returns
    -------
    dict
        Keys ``value`` (clamped to 1), ``raw`` (unclamped sum), ``clamped``,
        ``sample_term``, ``key_term``, ``m_err`` and ``alpha_form``.

    Raises
    ------
    ValueError
        If ``xi = 0``; the split is degenerate there.
    BoundUnavailableError
        If ``(n (nu - xi))^2 <= 1``.
    """
    if slack.xi <= 0.0:
        raise ValueError("the two-term bound requires xi > 0")
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    if delta + slack.xi >= 1.0:
        raise ValueError(f"delta + xi must stay below 1, got {delta + slack.xi}")
    nu_p = slack.nu_prime
    if (shape.n * nu_p) ** 2 <= 1.0:
        raise BoundUnavailableError(
            f"two-term bound needs (n*(nu - xi))^2 > 1, got n={shape.n}, "
            f"nu-xi={nu_p}"
        )
    m_err = snap_ceil(shape.m * (delta + slack.xi))
    alpha_form = m_err > shape.m // 2
    key_term = hush_scovel_tail(shape, m_err, nu_p, relaxed=not alpha_form)
    sample_term = serfling_lower_tail(shape, slack.xi)
    raw = sample_term + key_term
    return {
        "value": min(raw, 1.0),
        "raw": raw,
        "clamped": raw > 1.0,
        "sample_term": sample_term,
        "key_term": key_term,
        "m_err": m_err,
        "alpha_form": alpha_form,
    }


def lemma2_ppe_bound(shape: BlockShape, delta: float, slack: SlackParams) -> float:
    """Two-term bound on the PE failure probability, clamped to [0, 1].

    See `lemma2_ppe_detail` for the construction and the intermediate values.
    """
    return lemma2_ppe_detail(shape, delta, slack)["value"]


def new_epe(shape: BlockShape, delta: float, slack: SlackParams) -> float:
    """PE error function of the two-term route: sqrt of `lemma2_ppe_bound`."""
    return math.sqrt(lemma2_ppe_bound(shape, delta, slack))


def check_error_count(w, m: int) -> int:
    """The block error count ``w`` as an int, checked to lie in ``[0, m]``.

    Any integer type is accepted (``np.int64(6)`` gives 6); a float, even
    ``6.0``, raises ``ValueError``.
    """
    try:
        w = operator.index(w)
    except TypeError:
        raise ValueError(f"w must be an integer, got {w!r}") from None
    if not 0 <= w <= m:
        raise ValueError(f"w must lie in [0, m], got w={w}, m={m}")
    return w


def max_passing_pe_errors(shape: BlockShape, delta: float) -> int:
    """Largest PE error count that still passes the rate-``delta`` test."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    return min(snap_floor(delta * shape.k), shape.k)


def min_alarming_key_errors(shape: BlockShape, delta: float, nu: float) -> int:
    """Smallest key error count at or above rate ``delta + nu``.

    May exceed ``n``, in which case the alarm event is empty.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if not (math.isfinite(nu) and nu > 0.0):
        raise ValueError(f"nu must be positive and finite, got {nu}")
    return snap_ceil((delta + nu) * shape.n)


# Terms per numpy block in `_window_tail`.  A run's range is as long as
# min(w, n), but its ratios are evaluated one block at a time, and the run
# stops in the block where its terms underflow to 0.0.
_BLOCK = 4096


def _run(ratio, js: range) -> list:
    """Running products ``ratio(j0)``, ``ratio(j0) ratio(j1)``, ... over ``js``.

    The run ends before its first product that is exactly 0.0.  ``ratio``
    is evaluated on float64 arrays of ``j``, one block of at most `_BLOCK`
    terms at a time.  The product carried in from the previous block is
    folded into the block's first ratio, which is the same as prepending it,
    so ``np.multiply.accumulate`` forms every product left to right exactly
    as a scalar loop would.
    """
    terms = []
    t = 1.0
    for b in range(0, len(js), _BLOCK):
        block = js[b : b + _BLOCK]
        r = ratio(np.arange(block.start, block.stop, block.step, dtype=float))
        r[0] *= t
        np.multiply.accumulate(r, out=r)
        if r[-1] == 0.0:  # every ratio is positive, so 0.0 ends a prefix of nonzeros
            terms += r[: np.count_nonzero(r)].tolist()
            break
        terms += r.tolist()
        t = terms[-1]
    return terms


def _window_tail(m: int, w: int, n: int, j_lo: int) -> float:
    """Pr[at least j_lo of the w special items land in a sample of size n].

    Exact up to rounding.  Terms of the hypergeometric pmf are generated by
    the ratio recurrence anchored at the mode (so no term overflows or
    underflows near the mass), summed with compensated summation, and
    normalised by the same-method total so the anchor scale cancels.

    One run goes up from the mode to ``hi`` and one down to ``lo``.  Each
    ends at its first term that underflows to exactly 0.0, which is left
    out, so memory grows with the terms kept, not with ``min(w, n)``.  A
    term at the smallest subnormal only reaches 0.0 once a ratio falls
    below 1/2, so a run can keep many subnormal terms: at ``m = 1e6``,
    ``w = 0.05 m`` and ``k = m/2``, 3,878 of each run's 7,974.

    `_run` forms each run in numpy blocks of `_BLOCK` terms.  The values are
    bit-identical to a scalar loop that multiplies Python ratios one by one,
    provided ``m < 2^53``: every integer in a ratio is then exact in
    float64, so each product of two of them is rounded once, as Python
    rounds the exact integer product when it divides it by a float, and the
    running product is formed in the same order.  The three sums are
    `math.fsum` over the same lists as that loop's.
    """
    k = m - n
    lo = max(0, w - k)
    hi = min(w, n)
    if j_lo <= lo:
        return 1.0
    if j_lo > hi:
        return 0.0
    mode = (n + 1) * (w + 1) // (m + 2)
    mode = min(max(mode, lo), hi)
    # terms at j = mode+1 .. hi
    up = _run(
        lambda j: ((w - j) * (n - j)) / ((j + 1.0) * (k - w + j + 1)),
        range(mode, hi),
    )
    # terms at j = mode-1 .. lo, in decreasing j order
    down = _run(
        lambda j: (j * (k - w + j)) / ((w - j + 1.0) * (n - j + 1)),
        range(mode, lo, -1),
    )
    total = math.fsum([1.0] + up + down)
    if j_lo <= mode:
        tail = math.fsum([1.0] + up + down[: mode - j_lo])
    else:
        tail = math.fsum(up[j_lo - mode - 1 :])
    return tail / total


def exact_joint_ppe(shape: BlockShape, delta: float, nu: float, w: int) -> float:
    """Exact probability of the joint bad event at fixed block error count.

    The event: the PE sample passes at rate ``delta`` while the key carries
    at least ``ceil(n (delta + nu))`` errors, with exactly ``w`` errors in
    the block.  Both conditions pin down the key-side error count, so the
    probability is a single hypergeometric window sum.
    """
    w = check_error_count(w, shape.m)
    pe_max = max_passing_pe_errors(shape, delta)
    key_min = min_alarming_key_errors(shape, delta, nu)
    if key_min > shape.n:
        return 0.0
    j_lo = max(key_min, w - pe_max)
    return _window_tail(shape.m, w, shape.n, j_lo)
