"""Failure-budget accounting for one key distillation attempt.

Joins the parameter-estimation bounds to the rest of the distillation
budget: a correctness term ``2^-t`` from hash verification, the PE term
(doubled, once per party), and a privacy-amplification term that decays with
the entropy left in the raw key after error-correction leakage ``r``,
verification cost ``t`` and extracted length ``ell`` are paid.  Each
constant has one owner: `SecurityBudget` derives ``t`` from ``s``, and
`ProtocolSettings` derives ``r`` from its shape and ``delta``.  A parameter
point is feasible when the three terms together stay within the target
budget ``eps_qkd``; `feasible` alone evaluates that condition and its
preconditions, and `max_ell_at` inverts it for the largest extractable
``ell``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .bounds import (
    BlockShape,
    SlackParams,
    _h2,
    binary_entropy,  # unused; the benchmark traces it here
    check_deviation,
    check_integer,
    is_flag,
    new_epe,
    serfling_epe,
)

__all__ = [
    "VARIANTS",
    "SecurityBudget",
    "ProtocolSettings",
    "EpsilonBreakdown",
    "ec_leakage",
    "eps_pa",
    "feasible",
    "max_ell_at",
    "stream_budget",
]

# Recognised PE bound variants, in canonical (reporting) order.
VARIANTS = ("lemma2", "serfling")


def check_variant(variant: str) -> None:
    """``ValueError`` unless ``variant`` is one of `VARIANTS`."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")


def check_protocol_rate(delta: float) -> None:
    """``ValueError`` unless the tolerated error rate lies in ``(0, 1/2)``."""
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 0.5), got {delta}")


def _leakage(n, h):
    """Leakage ``1.19 h n`` before rounding up, for ``h = h2(delta)``; unchecked."""
    return 1.19 * h * n


def ec_leakage(n: int, delta: float) -> int:
    """Error-correction leakage model ``r = ceil(1.19 h2(delta) n)`` bits.

    ``n`` is an integer of any integer type, as in `BlockShape`.
    """
    n = check_integer(n, "n")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if is_flag(delta) or not 0.0 <= delta <= 0.5:
        raise ValueError(f"delta must lie in [0, 0.5], got {delta}")
    # delta is checked, so the kernel stands in for binary_entropy's
    # validation; delta = 0 is the one value in range where it gives NaN
    h = float(_h2(delta)) if delta > 0.0 else 0.0
    return math.ceil(_leakage(n, h))


def _margin(n, h, r, t):
    """Entropy left after leakage and tag, ``n (1 - h) - r - t``; unchecked.

    ``h = h2(delta + nu)``.  `eps_pa` is ``(1/2) 2^((ell - margin) / 2)``
    and `_ell_bound` inverts it.
    """
    return n * (1.0 - h) - (r + t)


def _headroom(room, pe):
    """What the budget leaves for ``eps_pa``: ``room - 2 eps_pe``; unchecked.

    ``room = eps_qkd - 2^-t`` is `SecurityBudget.room`.
    """
    return room - 2.0 * pe


def _ell_bound(n, h, r, t, headroom):
    """Largest ``ell`` that the budget condition allows, before rounding.

    ``margin + 2 log2(2 headroom)`` with `_margin` and `_headroom`: the
    closed-form inverse of ``eps_pa <= headroom``.  Unchecked array kernel;
    the headroom must be positive.
    """
    return _margin(n, h, r, t) + 2.0 * np.log2(2.0 * headroom)


@dataclass(frozen=True)
class SecurityBudget:
    """Target failure budget ``eps_qkd = 10^-s`` and its derived constants.

    It owns the rule on the budget exponent: ``s`` is an integer of any
    integer type with ``1 <= s <= 305``, stored as ``int`` and compared as
    an integer before anything is computed from it.  The verification tag
    length ``t = ceil((s + 2) log2 10)`` makes the correctness term ``2^-t``
    at most one percent of ``eps_qkd``.
    """

    s: int

    def __post_init__(self):
        object.__setattr__(self, "s", check_integer(self.s, "s"))
        if self.s < 1:
            raise ValueError(f"s must be a positive integer, got {self.s}")
        # t is 1020 at s = 305 and 1024 at s = 306, where eps_correct = 2^-t
        # is subnormal: a subnormal budget loses precision, and one that
        # underflows to 0 leaves no headroom at all
        if self.s > 305:
            raise ValueError(
                f"s must be at most 305, got {self.s}: beyond it eps_correct = 2^-t "
                f"is no longer a normal float"
            )

    @property
    def eps_qkd(self) -> float:
        return 10.0 ** (-self.s)

    @property
    def t(self) -> int:
        return math.ceil((self.s + 2) * math.log2(10.0))

    @property
    def eps_correct(self) -> float:
        return 2.0 ** (-self.t)

    @property
    def room(self) -> float:
        """The budget left after the correctness term: ``eps_qkd - 2^-t``."""
        return self.eps_qkd - self.eps_correct


@dataclass(frozen=True)
class ProtocolSettings:
    """Fixed choices for one distillation attempt.

    ``shape`` splits the block, ``delta`` is the tolerated PE error rate, in
    ``(0, 1/2)`` (`check_protocol_rate`), and ``ell`` the number of key bits
    to extract, an integer of any integer type, stored as ``int``.  The
    error-correction leakage ``r = ec_leakage(n, delta)`` is computed each
    time it is read, so it can never go stale; the tag length ``t`` belongs
    to the `SecurityBudget`.
    """

    shape: BlockShape
    delta: float
    ell: int = 0

    def __post_init__(self):
        check_protocol_rate(self.delta)
        object.__setattr__(self, "ell", check_integer(self.ell, "ell"))
        if not 0 <= self.ell <= self.shape.n:
            raise ValueError(
                f"ell must lie in [0, n], got ell={self.ell}, n={self.shape.n}"
            )

    @property
    def r(self) -> int:
        return ec_leakage(self.shape.n, self.delta)

    @classmethod
    def for_budget(
        cls,
        shape: BlockShape,
        delta: float,
        budget: "SecurityBudget",
        ell: int = 0,
    ) -> "ProtocolSettings":
        """``ProtocolSettings(shape, delta, ell)``; ``budget`` is not read."""
        return cls(shape, delta, ell)


@dataclass(frozen=True)
class EpsilonBreakdown:
    """The three failure terms of one attempt and their sum.

    ``reason`` is set when a precondition failure forced ``eps_pe`` to
    infinity instead of a finite bound.
    """

    eps_correct: float
    eps_pe: float
    eps_pa: float
    variant: str
    reason: Optional[str] = None

    @property
    def total(self) -> float:
        return self.eps_correct + 2.0 * self.eps_pe + self.eps_pa


def eps_pa(settings: ProtocolSettings, budget: SecurityBudget, nu: float) -> float:
    """Privacy-amplification failure term, clamped to [0, 1].

    Returns ``(1/2) sqrt(2^(-(n (1 - h2(delta + nu)) - r - t - ell)))``, with
    ``r`` from ``settings`` and ``t`` from ``budget``.  The exponent is
    assembled in the log domain, so the value underflows to zero
    gracefully; anything that would exceed one is reported as one.  ``delta
    + nu`` must stay below 1/2: beyond it ``1 - h2`` grows again, and the
    term would credit entropy that an error rate that high does not leave.
    """
    check_deviation(nu)
    q = settings.delta + nu
    if q >= 0.5:
        raise ValueError(f"delta + nu must stay below 1/2, got {q}")
    # q is checked; float() keeps numpy scalars out of the breakdown
    margin = _margin(settings.shape.n, float(_h2(q)), settings.r, budget.t)
    half_exp = 0.5 * (settings.ell - margin)
    return 1.0 if half_exp >= 1.0 else 0.5 * 2.0**half_exp


def feasible(
    settings: ProtocolSettings,
    budget: SecurityBudget,
    slack: SlackParams,
    variant: str,
) -> Tuple[EpsilonBreakdown, bool]:
    """Evaluate the budget condition at one parameter point.

    The attempt is feasible when
    ``2^-t + 2 eps_pe + eps_pa <= eps_qkd``.  Parameter points where a bound
    precondition fails (for example ``(n (nu - xi))^2 <= 1``, or
    ``delta + nu`` reaching 1/2 and beyond, where the entropy deficit is
    spent) are reported as infeasible rather than raised, since optimisation
    grids hit them routinely; the breakdown then carries ``eps_pe = inf`` and
    the refusal's message as its ``reason``.  `eps_pa` refuses ``delta + nu
    >= 1/2`` and is evaluated first, so ``eps_pa`` is infinite there too.
    This is the one place that turns a refusal into a reason.
    """
    check_variant(variant)
    pe = pa = math.inf
    reason = None
    try:
        pa = eps_pa(settings, budget, slack.nu)
        if variant == "serfling":
            pe = serfling_epe(settings.shape, slack.nu)
        else:
            pe = new_epe(settings.shape, settings.delta, slack)
    except ValueError as exc:
        reason = str(exc)
    bd = EpsilonBreakdown(
        eps_correct=budget.eps_correct,
        eps_pe=pe,
        eps_pa=pa,
        variant=variant,
        reason=reason,
    )
    return bd, bd.total <= budget.eps_qkd


def max_ell_at(
    settings: ProtocolSettings,
    budget: SecurityBudget,
    slack: SlackParams,
    variant: str,
) -> int:
    """Largest ``ell`` that keeps the point feasible; 0 if none does.

    ``settings.ell`` is ignored.  `feasible` at ``ell = 0`` supplies
    ``eps_pe``, so points it rejects (an unavailable bound, ``delta + nu``
    at 1/2 or beyond) give 0.  The budget condition is then solved for
    ``ell`` in closed form, and the result is verified through `feasible`
    and nudged by single steps to absorb rounding, so the returned value
    satisfies the actual predicate, not just its algebraic rearrangement.
    """
    at_zero = replace(settings, ell=0)
    bd, ok_zero = feasible(at_zero, budget, slack, variant)
    headroom = _headroom(budget.room, bd.eps_pe)
    if headroom <= 0.0:
        return 0
    n = settings.shape.n
    h = float(_h2(settings.delta + slack.nu))
    ell = max(0, min(n, math.floor(_ell_bound(n, h, settings.r, budget.t, headroom))))

    def ok(candidate: int) -> bool:
        return feasible(replace(at_zero, ell=candidate), budget, slack, variant)[1]

    while ell > 0 and not ok(ell):
        ell -= 1
    if ell == 0 and not ok_zero:
        return 0
    while ell < n and ok(ell + 1):
        ell += 1
    return ell


def stream_budget(eps_stream: float, eps_qkd: float) -> int:
    """Number of attempts a stream budget funds: ``floor(eps_stream/eps_qkd)``.

    The quotient is taken exactly, of the decimals that the two floats print
    as, so decimal inputs like 1e-4/1e-5 do not lose an attempt to float
    rounding, and an attempt that the budget cannot pay for is never funded.
    """
    for name, value in (("eps_stream", eps_stream), ("eps_qkd", eps_qkd)):
        if is_flag(value) or not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not math.isfinite(eps_stream / eps_qkd):
        raise ValueError(
            f"eps_stream / eps_qkd overflows: {eps_stream} / {eps_qkd}"
        )
    from fractions import Fraction  # here, so that starting the CLI does not load it

    exact = Fraction(repr(float(eps_stream))) / Fraction(repr(float(eps_qkd)))
    return math.floor(exact)
