"""Independent oracles used by the tests.

Nothing here imports the package's numerical routines: the enumeration
oracle counts subsets directly, the rational oracle sums binomials with
exact arithmetic, the high-precision oracle reruns the tail recurrence in
50-digit arithmetic, the loop oracle reruns it one Python ratio at a time
in float64, the urn sampler replays the protocol split slot by slot, and
the binomial tail sums the binomial pmf in 30-digit arithmetic.  Agreement
between these and the package is the evidence the tests rest on.
"""

import math
from fractions import Fraction
from itertools import combinations

import mpmath as mp
import numpy as np


def enumeration_tables(m, k):
    """Exact joint distribution of (w, PE errors) by brute-force enumeration.

    Errors occupy positions 0..w-1 (positions are exchangeable under a
    uniform subset draw).  Returns ``counts`` with ``counts[w][p]`` the
    number of k-subsets containing exactly ``p`` of the first ``w``
    positions, and the total number of subsets.
    """
    total = math.comb(m, k)
    counts = [[0] * (k + 1) for _ in range(m + 1)]
    for subset in combinations(range(m), k):
        inside = 0
        idx = 0
        for w in range(1, m + 1):
            while idx < k and subset[idx] < w:
                inside += 1
                idx += 1
            counts[w][inside] += 1
    counts[0][0] = total
    return counts, total


def enum_joint(counts, total, k, w, pe_max, key_min):
    """Pr[PE errors <= pe_max and key errors >= key_min] from the tables."""
    good = 0
    for p in range(0, min(pe_max, k) + 1):
        if w - p >= key_min:
            good += counts[w][p]
    return Fraction(good, total)


def enum_key_tail(counts, total, k, w, j_lo):
    """Pr[key-side errors >= j_lo] from the tables."""
    good = 0
    for p in range(0, k + 1):
        if w - p >= j_lo:
            good += counts[w][p]
    return Fraction(good, total)


def urn_pe_errors(rng, size, m, k, w):
    """PE error counts of ``size`` random splits, replayed slot by slot.

    A block of ``m`` positions holds ``w`` errors.  The k PE slots are
    filled one at a time, each from the positions still unused: slot ``i``
    takes an error with probability (errors left) / (``m - i`` positions
    left).  The count each trial ends with is the PE error count of a
    uniform k-subset.  Costs O(k) per trial.
    """
    taken = np.zeros(size, dtype=np.int64)
    for i in range(k):
        taken += rng.random(size) * (m - i) < w - taken
    return taken


def frac_window_tail(m, w, n, j_lo):
    """Exact Pr[at least j_lo of w special items land in the n-sample]."""
    k = m - n
    lo, hi = max(0, w - k), min(w, n)
    if j_lo <= lo:
        return Fraction(1)
    if j_lo > hi:
        return Fraction(0)
    num = sum(math.comb(w, j) * math.comb(m - w, n - j) for j in range(j_lo, hi + 1))
    return Fraction(num, math.comb(m, n))


def mp_window_tail(m, w, n, j_lo, dps=50):
    """High-precision tail via the same mode-anchored recurrence."""
    with mp.workdps(dps):
        k = m - n
        lo, hi = max(0, w - k), min(w, n)
        if j_lo <= lo:
            return mp.mpf(1)
        if j_lo > hi:
            return mp.mpf(0)
        mode = min(max((n + 1) * (w + 1) // (m + 2), lo), hi)
        terms = {mode: mp.mpf(1)}
        t = mp.mpf(1)
        for j in range(mode, hi):
            t *= mp.mpf((w - j) * (n - j)) / ((j + 1) * (k - w + j + 1))
            if t < mp.mpf("1e-45"):
                break
            terms[j + 1] = t
        t = mp.mpf(1)
        for j in range(mode, lo, -1):
            t *= mp.mpf(j * (k - w + j)) / ((w - j + 1) * (n - j + 1))
            if t < mp.mpf("1e-45"):
                break
            terms[j - 1] = t
        total = mp.fsum(terms.values())
        tail = mp.fsum(v for j, v in terms.items() if j >= j_lo)
        return tail / total


def _binomial_sum(n, c, p, ratio, js):
    """Sum of the binomial pmf from ``j = c`` on, in 30-digit arithmetic.

    The first term is ``mpmath.binomial`` times the powers, at working
    precision; the term after ``j`` is the last times ``ratio(j, p / (1 -
    p))``, for each ``j`` of ``js``.  The sum ends there, or at the first
    term below 1e-40 of the sum.
    """
    with mp.workdps(30):
        p = mp.mpf(p)
        t = mp.binomial(n, c) * p**c * (1 - p) ** (n - c)
        total = t
        odds = p / (1 - p)
        for j in js:
            t *= ratio(j, odds)
            total += t
            if t < total * mp.mpf("1e-40"):
                break
        return total


def binomial_tail(n, c, p):
    """``P[Bin(n, p) >= c]``, a 30-digit sum of the binomial pmf.

    The terms from ``j = c`` up are formed by the ratio ``(n - j) p / ((j
    + 1) (1 - p))``.  ``mpmath.betainc``, the closed form, did not converge
    at ``n = 2000``.  Where the tail is small, ``c`` lies above the mean:
    the terms fall from the first on, and so does their ratio.  So once a
    term is below 1e-40 of the sum, all the rest add less than 1e-40 of it
    over one minus that ratio.
    """
    return _binomial_sum(n, c, p, lambda j, odds: odds * (n - j) / (j + 1), range(c, n))


def binomial_lower_tail(n, c, p):
    """``P[Bin(n, p) <= c]``, the same sum from ``j = c`` down.

    The ratio is ``j (1 - p) / ((n - j + 1) p)``.  Summing the lower tail
    itself, not one minus the upper, keeps its 30 digits when it is small.
    """
    return _binomial_sum(n, c, p, lambda j, odds: j / ((n - j + 1) * odds), range(c, 0, -1))


def loop_window_tail(m, w, n, j_lo):
    """Pr[at least j_lo of the w special items land in a sample of size n].

    Exact up to rounding.  Terms of the hypergeometric pmf are generated by
    the ratio recurrence anchored at the mode (so no term overflows or
    underflows near the mass), summed with compensated summation, and
    normalised by the same-method total so the anchor scale cancels.  This
    is the package's former scalar loop over Python ratios, kept as the
    reference that its numpy form must equal bit for bit.
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
    up = []  # terms at j = mode+1 .. hi
    t = 1.0
    for j in range(mode, hi):
        t *= ((w - j) * (n - j)) / ((j + 1.0) * (k - w + j + 1))
        if t == 0.0:
            break
        up.append(t)
    down = []  # terms at j = mode-1 .. lo, in decreasing j order
    t = 1.0
    for j in range(mode, lo, -1):
        t *= (j * (k - w + j)) / ((w - j + 1.0) * (n - j + 1))
        if t == 0.0:
            break
        down.append(t)
    total = math.fsum([1.0] + up + down)
    if j_lo <= mode:
        tail = math.fsum([1.0] + up + down[: mode - j_lo])
    else:
        tail = math.fsum(up[j_lo - mode - 1 :])
    return tail / total


def _h2(q):
    """Binary entropy in bits, elementwise, for 0 < q < 1."""
    return -(q * np.log2(q) + (1.0 - q) * np.log2(1.0 - q))


def single_term_threshold(delta, s, m_lo, m_hi, ell=1):
    """Smallest block size in ``[m_lo, m_hi]`` with a single-term key of ``ell`` bits.

    Restates the single-term model from the README, independently of the
    package: ``t = ceil((s + 2) log2 10)``, ``r = ceil(1.19 h2(delta) n)``,
    ``eps_pe = exp(-n k^2 nu^2 / (m (k + 1)))`` and ``eps_pa = (1/2)
    sqrt(2^-(n (1 - h2(delta + nu)) - r - t - ell))``.  A block of size
    ``m`` has a key when some integer ``1 <= k <= m/2`` and some
    ``0 < nu < 1/2 - delta`` satisfy ``2^-t + 2 eps_pe + eps_pa <= 10^-s``
    at the given ``ell``; with ``m_lo = m_hi`` this decides whether that
    block size has a key of ``ell`` bits.

    Every k of every block size is decided by branch and bound over nu.
    ``2 eps_pe`` falls and ``eps_pa`` rises with nu, so on ``[lo, hi]`` the
    total is at least ``2^-t + 2 eps_pe(hi) + eps_pa(lo)``: an interval
    whose bound exceeds the budget holds no key, and any other is split
    until its midpoint meets the budget or its bound does not.  Below
    ``nu_a``, where ``2 eps_pe`` alone exceeds what ``2^-t`` leaves, there
    is no key, so the search starts there.

    Returns ``(m, k, nu)``, the key point of smallest total at the
    threshold, or None when no block size in the range has a key.
    """
    t = math.ceil((s + 2) * math.log2(10.0))
    spare = 10.0 ** (-s) - 2.0 ** (-t)
    leak = 1.19 * float(_h2(np.float64(delta)))
    nu_top = 0.5 - delta
    chunk = 64
    with np.errstate(all="ignore"):
        for first in range(m_lo, m_hi + 1, chunk):
            ms = np.arange(first, min(first + chunk, m_hi + 1))
            m = np.repeat(ms, ms // 2).astype(float)
            k = np.concatenate([np.arange(1, mm // 2 + 1) for mm in ms]).astype(float)
            n = m - k
            rate = n * k * k / (m * (k + 1.0))
            excess = np.ceil(leak * n) + t + ell

            def total(i, nu):
                pe2 = 2.0 * np.exp(-rate[i] * nu * nu)
                deficit = n[i] * (1.0 - _h2(delta + nu))
                return pe2, 0.5 * np.exp2(0.5 * (excess[i] - deficit))

            nu_a = np.sqrt(np.log(2.0 / spare) / rate)
            idx = np.flatnonzero((nu_a < nu_top) & (total(slice(None), nu_a)[1] < spare))
            lo, hi = nu_a[idx], np.full(len(idx), nu_top)
            best = {}
            for _ in range(80):
                if len(idx) == 0:
                    break
                bound = total(idx, hi)[0] + total(idx, lo)[1]
                keep = bound <= spare
                idx, lo, hi = idx[keep], lo[keep], hi[keep]
                mid = 0.5 * (lo + hi)
                at_mid = sum(total(idx, mid))
                hit = at_mid <= spare
                for i, nu, value in zip(idx[hit], mid[hit], at_mid[hit]):
                    key = int(m[i])
                    if key not in best or value < best[key][0]:
                        best[key] = (value, int(k[i]), float(nu))
                miss = ~hit
                idx = np.concatenate([idx[miss], idx[miss]])
                lo, hi = (
                    np.concatenate([lo[miss], mid[miss]]),
                    np.concatenate([mid[miss], hi[miss]]),
                )
            else:
                raise RuntimeError("branch and bound did not settle")
            if best:
                m_min = min(best)
                _, k_min, nu_min = best[m_min]
                return m_min, k_min, nu_min
    return None


def published_single_term_threshold(delta, s, m_lo, m_hi, log_const=2.0):
    """Smallest block size in ``[m_lo, m_hi]`` with a key under the published formula.

    Tomamichel, Lim, Gisin and Renner (Nat. Commun. 3, 634, 2012) give the
    single-term key length of BB84 with a Serfling deviation ``mu``:
    ``ell <= n (q - h2(Q + mu)) - leak_EC - log2(2 / (eps_sec^2 eps_cor))``
    with ``mu = sqrt((n + k)/(n k) (k + 1)/k ln(log_const/eps_sec))`` and
    ``log_const = 2``.  The last term holds the privacy-amplification cost
    ``2 log2(1/eps_sec)`` and the verification cost ``log2(2/eps_cor)``.
    Here ``q = 1``, ``Q = delta``, ``leak_EC = ceil(1.19 h2(delta) n)``,
    ``eps_cor = 2^-t`` with ``t = ceil((s + 2) log2 10)`` and ``eps_sec =
    10^-s - eps_cor``, and every integer ``1 <= k <= m/2`` is tried.
    Returns None when no block size in the range has a key.
    """
    t = math.ceil((s + 2) * math.log2(10.0))
    eps_cor = 2.0 ** (-t)
    eps_sec = 10.0 ** (-s) - eps_cor
    cost = math.log2(2.0 / (eps_sec * eps_sec * eps_cor))
    leak = 1.19 * float(_h2(np.float64(delta)))
    for m in range(m_lo, m_hi + 1):
        k = np.arange(1, m // 2 + 1, dtype=float)
        n = m - k
        mu = np.sqrt((n + k) / (n * k) * (k + 1.0) / k * math.log(log_const / eps_sec))
        q = np.minimum(delta + mu, 0.5)
        with np.errstate(all="ignore"):
            length = n * (1.0 - _h2(q)) - np.ceil(leak * n) - cost
        if np.any((delta + mu < 0.5) & (length >= 1.0)):
            return m
    return None


def grid_key_length(m, delta, s, variant, nu_points=150):
    """Largest unrounded key length on a dense grid, for both bounds.

    Restates the model independently of the package: the closed-form
    length ``n (1 - h2(delta + nu)) - r - t + 2 log2(2 (10^-s - 2^-t - 2
    eps_pe))`` at every integer ``1 <= k <= m/2`` and ``nu_points``
    deviations in ``(0, 1/2 - delta)``.  ``eps_pe`` is the single-term
    ``exp(-n k^2 nu^2 / (m (k + 1)))``, or the two-term ``sqrt(exp(-2 m k
    xi^2 / (n + 1)) + exp(-2 c ((n (nu - xi))^2 - 1)))`` (clamped to 1) at
    every ``xi = m_err/m - delta`` with ``m_err`` an integer, where ``c``
    is the Hush-Scovel factor of ``m_err``.  A grid point is a feasible
    point, so the true maximum is at least the returned value; -inf when
    no grid point has headroom.
    """
    t = math.ceil((s + 2) * math.log2(10.0))
    spare = 10.0 ** (-s) - 2.0 ** (-t)
    k = np.arange(1, m // 2 + 1, dtype=float)[:, None, None]
    n = m - k
    nu = np.linspace(0.0, 0.5 - delta, nu_points + 2)[1:-1][None, :, None]
    with np.errstate(all="ignore"):
        if variant == "serfling":
            pe = np.exp(-n * k * k * nu * nu / (m * (k + 1.0)))
            valid = np.ones(pe.shape, dtype=bool)
        else:
            m_err = np.arange(math.floor(m * delta) + 1, m // 2 + 2, dtype=float)
            xi = (m_err / m - delta)[None, None, :]
            gamma = 1.0 / (m_err + 1.0) + 1.0 / (m - m_err + 1.0)
            c = np.where(
                m_err <= m // 2, gamma, np.maximum(1.0 / (n + 1.0) + 1.0 / (k + 1.0), gamma)
            )
            q = (n * (nu - xi)) ** 2 - 1.0
            sample = np.exp(-2.0 * m * k * xi * xi / (n + 1.0))
            pe = np.sqrt(np.minimum(1.0, sample + np.exp(-2.0 * c * q)))
            valid = (xi > 0.0) & (xi < nu) & (q > 0.0)
        room = spare - 2.0 * pe
        leak = np.ceil(1.19 * _h2(np.float64(delta)) * n)
        length = n * (1.0 - _h2(delta + nu)) - leak - t + 2.0 * np.log2(2.0 * room)
        length = np.where(valid & (room > 0.0), length, -np.inf)
    return float(length.max())
