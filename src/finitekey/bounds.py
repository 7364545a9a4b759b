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
  splits the deviation ``nu`` into a sample-side part ``xi`` (a Serfling
  lower tail at the rate `_sample_rate`) and a key-side part ``nu - xi``
  (the Hush-Scovel hypergeometric tail, `_hush_scovel_tail`, with the
  factor of `_key_factor`).
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
    "lemma2_ppe_bound",
    "lemma2_ppe_detail",
    "new_epe",
    "exact_joint_ppe",
    "max_passing_pe_errors",
    "min_alarming_key_errors",
]

# Block sizes stop below 2^53: every count up to there is exact in float64,
# which `_window_tail` and the optimizer's float arrays rely on.
_M_LIMIT = 2**53
# Tolerance for recognising float products that should be integers, e.g.
# 0.15 * 3100 = 464.99999999999994 must round to 465 before ceil/floor.
_INT_SNAP_TOL = 1e-9


def _snap(x, rounding):
    """The integer within 1e-9 of ``x``, if nonzero, or else ``rounding(x)``.

    A positive value never snaps to 0, so a tiny positive count still
    rounds up to 1 under `math.ceil`.
    """
    r = round(x)
    return int(r) if r != 0 and abs(x - r) <= _INT_SNAP_TOL else rounding(x)


def snap_ceil(x):
    """Ceiling after the snap of `_snap`."""
    return _snap(x, math.ceil)


def snap_floor(x):
    """Floor after the snap of `_snap`."""
    return _snap(x, math.floor)


class BoundUnavailableError(ValueError):
    """A closed-form bound does not apply at the requested parameters.

    Raised instead of returning a vacuous value so that callers can tell
    "bound equals one" apart from "bound not defined here".
    """


@dataclass(frozen=True)
class BlockShape:
    """Partition of one sifted block: ``k`` PE bits, ``n = m - k`` key bits.

    ``m`` and ``k`` are integers of any integer type (``np.int64(60)`` is
    accepted, ``60.0`` is not), stored as ``int``, and ``m < 2^53`` (see
    `_check_block_size`); ``n`` is derived, also by ``replace``.
    """

    m: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "m", _check_block_size(self.m, "m"))
        object.__setattr__(self, "k", check_integer(self.k, "k"))
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
    error rate, checked by `check_deviation` (``0 < nu <= 1``).  ``xi`` is
    the part charged to the PE sample itself; the remainder ``nu_prime = nu
    - xi`` is charged to the key.  The two-term bound requires ``0 < xi <
    nu``.  The single-term Serfling route never looks at ``xi``, so ``xi =
    0`` is accepted for that use.
    """

    nu: float
    xi: float = 0.0

    def __post_init__(self):
        check_deviation(self.nu)
        if is_flag(self.xi) or not 0.0 <= self.xi < self.nu:
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
        Probability or array of probabilities in [0, 1]; not a flag (see
        `is_flag`).

    Returns
    -------
    float or ndarray
        ``-x log2 x - (1 - x) log2(1 - x)``, with the endpoint value 0.
    """
    arr = np.asarray(x, dtype=float)
    if is_flag(x) or np.any((arr < 0.0) | (arr > 1.0)) or np.any(~np.isfinite(arr)):
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
    """Rate ``2 m k / (n + 1)`` of the two-term bound's sample term; unchecked.

    With it, `_serfling_tail` bounds the chance that the PE error rate sits
    ``xi`` or more below the error rate of the whole block.
    """
    return 2.0 * m * k / (n + 1.0)


def _gamma_factor(m, m_err, slope=False):
    """``1/(m_err + 1) + 1/(m - m_err + 1)``, falling on [0, m/2]; unchecked.

    With ``slope``, returns ``(gamma, dgamma)``, ``dgamma`` its derivative
    in xi when ``m_err = m (delta + xi)`` varies smoothly.  While ``m_err <=
    m // 2``, gamma is the relaxed form of `_key_factor`, so the two-term
    split's smooth path, which keeps ``m_err`` below ``m // 2``, takes its
    factor and slope from here.
    """
    lo, hi = m_err + 1.0, m - m_err + 1.0
    gamma = 1.0 / lo + 1.0 / hi
    if not slope:
        return gamma
    return gamma, m * (1.0 / hi ** 2 - 1.0 / lo ** 2)


def _hush_scovel_factor(k, n, gamma):
    """The sharp factor ``max(1/(n + 1) + 1/(k + 1), gamma)``; unchecked."""
    return np.maximum(1.0 / (n + 1.0) + 1.0 / (k + 1.0), gamma)


def _key_factor(m, k, m_err):
    """The two-term bound's Hush-Scovel factor at ``m_err`` errors, and its form.

    With ``gamma = _gamma_factor(m, m_err)``, the relaxed form (gamma
    alone) is taken while ``m_err <= m // 2``, where gamma is still
    falling, and the sharp form (`_hush_scovel_factor`) past it.  Returns
    ``(factor, relaxed)``; unchecked.
    """
    gamma = _gamma_factor(m, m_err)
    relaxed = m_err <= m // 2
    return np.where(relaxed, gamma, _hush_scovel_factor(k, m - k, gamma)), relaxed


def _hush_scovel_tail(c, n, dev):
    """``exp(-2 c ((n dev)^2 - 1))``, for ``(n dev)^2 > 1``; unchecked.

    With ``c`` from `_key_factor` at ``m_err``, it bounds the chance
    that, with exactly ``m_err`` errors in the block, the key error rate
    exceeds its expectation by ``dev`` or more.

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
    check_deviation(nu)
    return float(_serfling_tail(_serfling_rate(shape.m, shape.k, shape.n), nu))


def lemma2_ppe_detail(shape: BlockShape, delta: float, slack: SlackParams) -> dict:
    """Two-term PE failure bound, with its intermediate quantities.

    The bound covers the bad event uniformly over the unknown block error
    count by splitting on whether the block error rate reaches
    ``delta + xi``.  Below the split, at most ``ceil(m (delta + xi)) - 1``
    errors are in play and the key-side tail is controlled by the Hush-Scovel
    bound at deviation ``nu - xi``; at or above it, the PE sample itself must
    have undershot by ``xi``, which Serfling's lower tail controls.  The
    Hush-Scovel factor is taken at ``m_err = ceil(m (delta + xi))`` in the
    form that `_key_factor` picks.  The kernels are unchecked: the checks
    here keep ``m_err`` in ``[0, m]``, `SlackParams` keeps ``nu - xi``
    positive, and so every term is defined.

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
    check_rate(delta)
    # xi > 0, so this also refuses delta = 1
    if delta + slack.xi >= 1.0:
        raise ValueError(f"delta + xi must stay below 1, got {delta + slack.xi}")
    m, k, n = shape.m, shape.k, shape.n
    nu_p = slack.nu_prime
    if (n * nu_p) ** 2 <= 1.0:
        raise BoundUnavailableError(
            f"two-term bound needs (n*(nu - xi))^2 > 1, got n={n}, nu-xi={nu_p}"
        )
    m_err = snap_ceil(m * (delta + slack.xi))
    factor, relaxed = _key_factor(m, k, m_err)
    key_term = float(_hush_scovel_tail(factor, n, nu_p))
    sample_term = float(_serfling_tail(_sample_rate(m, k, n), slack.xi))
    raw = sample_term + key_term
    return {
        "value": min(raw, 1.0),
        "raw": raw,
        "clamped": raw > 1.0,
        "sample_term": sample_term,
        "key_term": key_term,
        "m_err": m_err,
        "alpha_form": not relaxed,
    }


def lemma2_ppe_bound(shape: BlockShape, delta: float, slack: SlackParams) -> float:
    """Two-term bound on the PE failure probability, clamped to [0, 1].

    See `lemma2_ppe_detail` for the construction and the intermediate values.
    """
    return lemma2_ppe_detail(shape, delta, slack)["value"]


def new_epe(shape: BlockShape, delta: float, slack: SlackParams) -> float:
    """PE error function of the two-term route: sqrt of `lemma2_ppe_bound`."""
    return math.sqrt(lemma2_ppe_bound(shape, delta, slack))


def is_flag(value) -> bool:
    """Whether ``value`` is a ``bool`` (``True``, ``np.True_``) or an array of them.

    Python's ``bool`` is an ``int`` and compares as 0 or 1, so a range test
    alone takes ``True`` for a number.  Every input rule refuses a flag
    through this test: a flag is not a count, a rate or a probability.
    """
    return np.asarray(value).dtype == np.bool_


def check_integer(value, name: str) -> int:
    """``value`` as an int, or ``ValueError`` naming it as ``name``.

    Any integer type is accepted (``np.int64(6)`` gives 6); a float, even
    ``6.0``, is not, and neither is a flag (see `is_flag`).
    """
    try:
        if is_flag(value):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_block_size(m, name: str) -> int:
    """The block size ``m`` as an int (see `check_integer`) below 2^53."""
    m = check_integer(m, name)
    if m >= _M_LIMIT:
        raise ValueError(f"{name} must be below 2^53, got {m}")
    return m


def check_deviation(nu) -> None:
    """``ValueError`` unless the deviation ``nu`` lies in ``(0, 1]``.

    NaN and infinities fail the comparison, so no finiteness test is needed.
    A flag is refused (see `is_flag`).
    """
    if is_flag(nu) or not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")


def check_rate(delta) -> None:
    """``ValueError`` unless the error rate ``delta`` lies in ``[0, 1]``.

    A flag is refused (see `is_flag`).
    """
    if is_flag(delta) or not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")


def check_error_count(w, m: int) -> int:
    """The block error count ``w`` as an int (see `check_integer`) in ``[0, m]``."""
    w = check_integer(w, "w")
    if not 0 <= w <= m:
        raise ValueError(f"w must lie in [0, m], got w={w}, m={m}")
    return w


def max_passing_pe_errors(shape: BlockShape, delta: float) -> int:
    """Largest PE error count that still passes the rate-``delta`` test."""
    check_rate(delta)
    # at most k: delta <= 1, and the product and the rounding are monotone
    return snap_floor(delta * shape.k)


def min_alarming_key_errors(shape: BlockShape, delta: float, nu: float) -> int:
    """Smallest key error count at or above rate ``delta + nu``.

    May exceed ``n``, in which case the alarm event is empty.
    """
    check_rate(delta)
    check_deviation(nu)
    return snap_ceil((delta + nu) * shape.n)


# The longest numpy block in `_products`.  A run's range is as long as
# min(w, n), but its ratios are evaluated one block at a time, so memory
# grows with the products formed, not with the range, and `_window_tail`
# turns into Python floats only the slices that it sums.  `_window_tail`
# sizes a run's first block to reach the run's expected end, and each later
# block doubles, up to this cap.  A run stops in the block where its product
# falls below `_TINY` or its cut, so it forms at most one block of products
# that it does not keep.
_BLOCK = 4096
# The smallest normal float64: every run stops before its first product
# below it.
_TINY = 2.0**-1022
# The certified cut of `_window_tail`: a sum may stop where what is left of
# its run is below 2^-_CUT of its scale.
_CUT = 70
# The most segments of `_zero_tail`'s bound, each charged the ratio at its
# start.  Near a Gaussian, the bound loses about 1/_SEGMENTS of the
# exponent, so it certifies zero tails from about 37.8 standard deviations
# past the mode, against 37.6 for the term itself to fall below `_TINY`.
_SEGMENTS = 128


def _products(ratio, js: range, keep: int, floor: float, first: int) -> np.ndarray:
    """Running products ``ratio(j0)``, ``ratio(j0) ratio(j1)``, ... over ``js``.

    Every ratio lies in ``(0, 1]``, as the oracle's do on runs that lead
    away from the mode, so the products never increase.  The run ends
    before its first product below `_TINY`.  It also ends before its first
    product ``p_i`` with ``p_i (len(js) - i) < scale floor``, the float
    ``scale floor`` being its cut: ``scale`` is the product at index
    ``keep``, or 1.0, the anchor before the first product, when ``keep`` is
    -1.  The cut applies only past ``keep``, so the run reaches ``keep``
    unless a product below `_TINY` ends it first.  With ``floor = 0`` only
    `_TINY` ends it.  Returns the products before the end as a float array.

    ``ratio`` is evaluated on float64 arrays of ``j``, one block at a time:
    the first of ``first`` terms, each later one twice as long as the last,
    and none longer than `_BLOCK`.  A caller that knows where the run will
    end sizes its first block to reach there, so most runs form one block.
    The product carried in from the previous block is folded into the
    block's first ratio, which is the same as prepending it, so
    ``np.multiply.accumulate`` forms every product left to right exactly as
    a scalar loop would, whatever the block sizes.
    """
    size = len(js)
    cut = floor if keep < 0 else 0.0
    blocks = []
    t = 1.0
    b, step = 0, min(first, _BLOCK)
    while b < size:
        block = js[b : b + step]
        r = ratio(np.arange(block.start, block.stop, block.step, dtype=float))
        r[0] *= t
        np.multiply.accumulate(r, out=r)
        if 0 <= keep - b < r.size:
            cut = float(r[keep - b]) * floor
        count = _count(r, size - b, cut, keep - b + 1)
        blocks.append(r[:count])
        if count < r.size:
            break
        t = r[-1]
        b += step
        step = min(2 * step, _BLOCK)
    if len(blocks) == 1:
        return blocks[0]
    return np.concatenate(blocks) if blocks else np.empty(0)


def _count(terms: np.ndarray, left: int, cut: float, first: int = 0) -> int:
    """How many running products come before the first one that ends a run.

    The products ``p_0, p_1, ...`` of ``terms`` have ``left, left - 1, ...``
    terms left in their run's range.  A run ends before its first product
    below `_TINY`, or with ``p_i (left - i) < cut`` at ``i >= first``.  The
    products never increase and rounding is monotone, so both tests pass on
    a prefix, and its end is found by bisection.  The first look is at the
    last product: every block of a run but its last passes whole.
    """
    lo, hi = 0, terms.size
    i = hi - 1
    while lo < hi:
        p = float(terms[i])
        if p >= _TINY and (i < first or p * (left - i) >= cut):
            lo = i + 1
        else:
            hi = i
        i = (lo + hi) // 2
    return lo


def _certified_fsum(terms: list, bound: float):
    """``math.fsum(terms)`` if no addend up to ``bound`` can change it, else None.

    `math.fsum` rounds the exact sum once to nearest, and rounding is
    monotone.  So when the sum with ``bound`` added rounds to the same
    float, so does the sum with any addend in ``[0, bound]``.
    """
    total = math.fsum(terms)
    if bound and math.fsum(terms + [bound]) != total:
        return None
    return total


def _pmf_ratio(w: int, n: int, k: int):
    """The hypergeometric ratio ``j -> pmf(j + 1) / pmf(j)`` on arrays of ``j``.

    The ratio is ``(w - j)(n - j) / ((j + 1)(k - w + j + 1))``, where
    ``pmf(j)`` is the probability that ``j`` of ``w`` special items land in
    the ``n`` part of a block of ``n + k``.  Swapping ``n`` and ``k`` and
    reading at ``w - j`` gives ``pmf(j - 1) / pmf(j)``.  Below 2^53 every
    factor is an exact integer in float64, so that is the same float as the
    down-ratio written out in ``j``.
    """
    # k - w + 1 folded into one addend, exact like every partial sum below
    # 2^53; and in place: four arrays, where the formula written out makes
    # eight
    c = k - w + 1

    def ratio(j):
        r = w - j
        r *= n - j
        den = j + 1.0
        den *= j + c
        r /= den
        return r

    return ratio


def _zero_tail(w: int, n: int, k: int, mode: int, j_lo: int) -> bool:
    """Whether the up-run from ``mode`` surely ends before the term at ``j_lo``.

    ``j_lo > mode``.  The term at ``j_lo`` is the run's product at ``keep =
    j_lo - mode - 1``: the product of the ``d = j_lo - mode`` up-ratios
    ``r(j)`` over ``[mode, j_lo)``.  When the run of `_products` ends
    before ``keep`` (it meets a product below `_TINY` first), the tail of
    `_window_tail` is 0.0, as the reference's is.  This decides that
    without forming the run.

    The bound.  ``r(j) = (w - j)(n - j) / ((j + 1)(k - w + j + 1))`` falls
    in ``j``: its numerator falls and its denominator grows.  So the exact
    product over ``[mode, j_lo)`` is at most ``prod_s r(a_s)^len_s`` over
    segments ``[a_s, a_s + len_s)`` of that range, each charged the ratio
    at its start: at most `_SEGMENTS` of them, all ``step = ceil(d /
    _SEGMENTS)`` long but the last.  Its log2, ``L = sum_s len_s log2
    r(a_s)``, is a sum of terms at most 0, so it has no cancellation.  The
    call certifies a zero tail when the computed ``L`` is below ``-1023 -
    d 2^-49``.

    The proof.  Suppose that the float run reached ``keep``.  Then every
    product up to it is at least `_TINY`, and so is every ratio (each
    product is at most the ratio that formed it), so all are normal floats
    and each rounding is within a factor ``1 +- u``, ``u = 2^-53``.  A
    float ratio is two exact integer products, each rounded once, and their
    rounded quotient; each running product is rounded once.  So the float
    product at ``keep`` is at most the exact one times ``((1 + u)^3 / (1 -
    u))^d``, which is under ``2^(5.78 d u)``: under e^4, 5.8 bits, for
    ``d < 2^53``.  The charged ratios here are the same float ratios
    (`_pmf_ratio`), so each log2 is off by under ``4.33 u`` through the
    ratio, ``4.33 d u`` bits over the sum, and by a relative error of order
    ``_SEGMENTS u`` through ``log2``, the products by the lengths and the
    sum: well under a bit at the ~1,023 bits in question.  The margin ``1 +
    d 2^-49 = 1 + 16 d u`` bits covers all three, so the float product at
    ``keep`` would be below 2^-1022 = `_TINY`, and the run would have ended
    before it.
    """
    d = j_lo - mode
    step = -(-d // _SEGMENTS)
    ratios = _pmf_ratio(w, n, k)(np.arange(mode, j_lo, step, dtype=float)).tolist()
    # every segment is step long but the last, which ends at j_lo.  Python's
    # log2: numpy's would load more of its code and add to peak memory.
    last = d - step * (len(ratios) - 1)
    bits = step * sum(map(math.log2, ratios[:-1])) + last * math.log2(ratios[-1])
    return bits < -1023.0 - d * 2.0**-49


def _window_tail(m: int, w: int, n: int, j_lo: int) -> float:
    """Pr[at least j_lo of the w special items land in a sample of size n].

    Terms of the hypergeometric pmf are generated by the ratio recurrence
    anchored at the mode (so no term overflows or underflows near the mass),
    summed with compensated summation, and normalised by the same-method
    total so the anchor scale cancels.

    One run goes up from the mode to ``hi`` and one down to ``lo``.  The
    reference sums take each run up to its first term below `_TINY`
    (2^-1022), which is left out with every term past it.  Fewer than 2^53
    terms are dropped, each below 2^-1022, and the total is at least 1 (the
    mode's term), so the result is within 2^-969 (about 4e-292) of the same
    sum over every term, up to rounding.  Below that the value can be 0.0
    where the tail is not.

    The sums here stop earlier, at a certified cut, and return the same
    floats.  Each sum has a scale: 1.0, the mode's term, for the total and
    for a tail that holds the mode, and the term at ``j_lo`` for a tail
    that starts past the mode.  Its slice of a run ends before the first
    product ``p_i`` past the scale's with ``p_i L_i < B``, where ``L_i``
    counts the terms left in the run's range and ``B`` is the float
    ``2^-_CUT scale`` (`_products`, `_count`); an up-run that meets a term
    below `_TINY` before ``j_lo`` gives a tail of 0.0, as the reference
    does.  Rounding is monotone and ``B`` is a float, so the float
    comparison implies the exact one.  The products never increase, so the
    terms that the reference takes past the slice, at most ``L_i`` of them
    and none above ``p_i``, sum to less than ``B``.  So the reference sum
    lies between the exact sum ``H`` of the slices and ``H`` plus their
    bounds.  `math.fsum` rounds an exact sum once to nearest: when adding
    the bounds leaves it unchanged, the reference rounds to the same float
    (`_certified_fsum`).  A sum that left nothing out skips that second
    sum.  If a check fails, the call is made again without the cut, as the
    reference.

    Two more shortcuts form fewer products and move no value.  A tail that
    starts past the mode is 0.0 where `_zero_tail` proves that the up-run
    ends before ``j_lo``: the call then forms no run and no total, as
    ``0.0 / total`` is 0.0 for any total.  The proof, in full in
    `_zero_tail`: the up-ratio falls in ``j``, so charging each of a few
    segments of ``[mode, j_lo)`` the ratio at its start bounds the term at
    ``j_lo`` from above, with no cancellation in its log2.  The float run
    can exceed the exact products by at most ``((1 + u)^3 / (1 - u))^d``,
    ``u = 2^-53``, over ``d = j_lo - mode`` ratios: under e^4 (5.8 bits)
    for ``d < 2^53``.  And the bound must lie ``1 + 16 d u`` bits below 2^-1022, a
    margin that covers this drift and the rounding of the log2 sum.  So the
    float run would fall below `_TINY` before ``j_lo``, and the tail is 0.0
    there as in the reference.  The certificate is tried only where the
    Gaussian of the same variance ``sd^2`` puts the term at ``j_lo`` below
    `_TINY`: ``d = j_lo - mode`` at least ``sqrt(2 ln 2 * 1022) sd``, about
    37.6 sd.  And the first block of each run is sized to its expected
    end: that Gaussian falls by ``2^-_CUT / m`` over ``r = sqrt(2 ln 2
    (_CUT + log2 m)) sd`` past the mode, or over ``sqrt(d^2 + r^2)`` past
    the mode from the term at ``j_lo``.  A run that goes further forms
    doubling blocks.

    `_products` forms each run in numpy blocks of at most `_BLOCK` terms.
    The values are bit-identical to a scalar loop that multiplies Python
    ratios one by one, provided ``m < 2^53``: every integer in a ratio is
    then exact in float64, so each product of two of them is rounded once,
    as Python rounds the exact integer product when it divides it by a
    float, and the running product is formed in the same order.  The
    reference sums are `math.fsum` over the lists of that loop cut at the
    same term, so they are the same floats.
    """
    k = m - n
    lo = max(0, w - k)
    hi = min(w, n)
    if j_lo <= lo:
        return 1.0
    if j_lo > hi:
        return 0.0
    # the mode lies in [lo, hi]: the quotient is below both w + 1 and n + 1,
    # and (n + 1)(w + 1) - (w - k)(m + 2) = (1 + k)(1 + m - w) > 0
    mode = (n + 1) * (w + 1) // (m + 2)
    # terms at j = mode+1 .. hi; j_lo's is at index keep, if j_lo > mode
    up_js = range(mode, hi)
    keep = max(j_lo - mode - 1, -1)
    # 2 ln 2 sd^2: a Gaussian term x past the mode is x^2 / per_bit bits
    # below the mode's.  sd^2 = n k w (m - w) / (m^2 (m - 1)) is formed in
    # Python ints, which cannot overflow, and lo < j_lo <= hi gives 0 < w <
    # m and 0 < n < m, so it is positive.
    per_bit = n * k * w * (m - w) / (m * m * (m - 1)) * math.log(4.0)
    # try the certificate where that Gaussian's term at j_lo is below _TINY
    far = keep >= 0 and (keep + 1) ** 2 >= 1022 * per_bit
    if far and _zero_tail(w, n, k, mode, j_lo):
        return 0.0
    # the cut's reach, squared; m < 2^bit_length, and a negative _CUT
    # reaches nowhere
    reach2 = per_bit * max(_CUT + m.bit_length(), 0)
    down_first = 1 + int(math.sqrt(reach2))
    up_first = 1 + int(math.sqrt(reach2 + (keep + 1) ** 2))
    # terms at j = mode-1 .. lo, in decreasing j order: the down-run's ratio
    # at j is the up-run's with n and k swapped, taken at w - j
    down_js = range(w - mode, w - lo)
    for floor in (math.ldexp(1.0, -_CUT), 0.0):
        up = _products(_pmf_ratio(w, n, k), up_js, keep, floor, up_first)
        down = _products(_pmf_ratio(w, k, n), down_js, -1, floor, down_first)
        # the total's slices: the down-run, and the up-run up to its own
        # cut at scale 1.0, which is the run's end unless it goes on to j_lo
        up_end = _count(up, len(up_js), floor)
        # each *_rest bounds what the uncut run adds past a slice
        up_rest = floor if up_end < len(up_js) else 0.0
        down_rest = floor if down.size < len(down_js) else 0.0
        head = [1.0] + up[:up_end].tolist()
        down_head = down.tolist()
        total = _certified_fsum(head + down_head, up_rest + down_rest)
        if j_lo <= mode:
            below = mode - j_lo
            if below <= down.size:
                down_rest = 0.0
            tail = _certified_fsum(head + down_head[:below], up_rest + down_rest)
        elif keep < up.size:
            tail_rest = float(up[keep]) * floor if up.size < len(up_js) else 0.0
            tail = _certified_fsum(up[keep:].tolist(), tail_rest)
        else:
            tail = 0.0
        if total is not None and tail is not None:
            break
    return tail / total


def exact_joint_ppe(shape: BlockShape, delta: float, nu: float, w: int) -> float:
    """Exact probability of the joint bad event at fixed block error count.

    The event: the PE sample passes at rate ``delta`` while the key carries
    at least ``ceil(n (delta + nu))`` errors, with exactly ``w`` errors in
    the block.  Both conditions pin down the key-side error count, so the
    probability is a single hypergeometric window sum.  When that threshold
    exceeds ``n``, the window starts above every count and the sum is 0.

    The sum leaves out the pmf terms below 2^-1022 of the mode's term (see
    `_window_tail`), so its absolute error is below 2^-969 (about 4e-292)
    beyond rounding.  A relative error of 1e-12 therefore holds only for
    values above about 4e-280, and a possible event far out in the tail can
    read 0.0.  The float returned is that sum's, but each sum adds only the
    terms down to about 2^-70 of its largest and certifies that the rest
    cannot change its rounding; where it cannot, the call sums every term.
    A window that starts far enough past the mode is certified 0.0 with no
    sum at all.
    """
    w = check_error_count(w, shape.m)
    pe_max = max_passing_pe_errors(shape, delta)
    key_min = min_alarming_key_errors(shape, delta, nu)
    j_lo = max(key_min, w - pe_max)
    return _window_tail(shape.m, w, shape.n, j_lo)
