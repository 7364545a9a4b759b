"""Failure-budget accounting for one key distillation attempt.

Joins the parameter-estimation bounds to the rest of the distillation
budget: a correctness term ``2^-t`` from hash verification, the PE term
(doubled, once per party), and a privacy-amplification term that decays with
the entropy left in the raw key after error-correction leakage ``r``,
verification cost ``t`` and extracted length ``ell`` are paid.  A parameter
point is feasible when the three terms together stay within the target
budget ``eps_qkd``, and `max_ell_at` inverts that condition for the largest
extractable ``ell``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .bounds import (
    BlockShape,
    BoundUnavailableError,
    SlackParams,
    binary_entropy,
    new_epe,
    serfling_epe,
    snap_floor,
)

__all__ = [
    "VARIANTS",
    "SecurityBudget",
    "ProtocolSettings",
    "EpsilonBreakdown",
    "correctness_bits",
    "ec_leakage",
    "eps_pa",
    "feasible",
    "max_ell_at",
    "stream_budget",
]

# Recognised PE bound variants, in canonical (reporting) order.
VARIANTS = ("lemma2", "serfling")


def correctness_bits(s: int) -> int:
    """Verification tag length ``t = ceil((s + 2) log2 10)``.

    Makes the correctness term ``2^-t`` at most one percent of the target
    budget ``10^-s``.
    """
    if not (isinstance(s, int) and s >= 1):
        raise ValueError(f"s must be a positive integer, got {s}")
    return math.ceil((s + 2) * math.log2(10.0))


def _leakage(n, h):
    """Leakage ``1.19 h n`` before rounding up, for ``h = h2(delta)``; unchecked."""
    return 1.19 * h * n


def ec_leakage(n: int, delta: float) -> int:
    """Error-correction leakage model ``r = ceil(1.19 h2(delta) n)`` bits."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"delta must lie in [0, 0.5], got {delta}")
    return math.ceil(_leakage(n, binary_entropy(delta)))


def _ell_bound(n, h, r, t, headroom):
    """Largest ``ell`` that the budget condition allows, before rounding.

    ``n (1 - h) - r - t + 2 log2(2 headroom)`` with ``h = h2(delta + nu)``
    and ``headroom = eps_qkd - 2^-t - 2 eps_pe``: the closed-form inverse
    of ``eps_pa <= headroom``.  Unchecked array kernel; the headroom must be
    positive.
    """
    return n * (1.0 - h) - (r + t) + 2.0 * np.log2(2.0 * headroom)


@dataclass(frozen=True)
class SecurityBudget:
    """Target failure budget ``eps_qkd = 10^-s`` and its derived constants.

    ``s`` runs from 1 to 305: beyond that ``eps_correct = 2^-t`` is no
    longer a normal double.
    """

    s: int

    def __post_init__(self):
        if not (isinstance(self.s, int) and self.s >= 1):
            raise ValueError(f"s must be a positive integer, got {self.s}")
        # a subnormal budget loses precision, and one that underflows to 0
        # leaves no headroom at all
        if min(self.eps_qkd, self.eps_correct) < sys.float_info.min:
            raise ValueError(
                f"s must be at most 305, got {self.s}: eps_qkd = 10^-s and "
                f"eps_correct = 2^-t must not fall below the smallest normal "
                f"float, {sys.float_info.min:.4g}"
            )

    @property
    def eps_qkd(self) -> float:
        return 10.0 ** (-self.s)

    @property
    def t(self) -> int:
        return correctness_bits(self.s)

    @property
    def eps_correct(self) -> float:
        return 2.0 ** (-self.t)


@dataclass(frozen=True)
class ProtocolSettings:
    """Fixed choices for one distillation attempt.

    ``shape`` splits the block, ``delta`` is the tolerated PE error rate,
    ``t`` the verification tag length, ``r`` the error-correction leakage and
    ``ell`` the number of key bits to extract.
    """

    shape: BlockShape
    delta: float
    t: int
    r: int
    ell: int = 0

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ValueError(f"delta must lie in (0, 0.5), got {self.delta}")
        if self.t < 1:
            raise ValueError(f"t must be at least 1, got {self.t}")
        if self.r < 0:
            raise ValueError(f"r must be nonnegative, got {self.r}")
        if not 0 <= self.ell <= self.shape.n:
            raise ValueError(
                f"ell must lie in [0, n], got ell={self.ell}, n={self.shape.n}"
            )

    @classmethod
    def for_budget(
        cls,
        shape: BlockShape,
        delta: float,
        budget: "SecurityBudget",
        ell: int = 0,
    ) -> "ProtocolSettings":
        """Settings with ``t`` from the budget and ``r`` from the leakage model."""
        return cls(
            shape=shape,
            delta=delta,
            t=budget.t,
            r=ec_leakage(shape.n, delta),
            ell=ell,
        )


@dataclass(frozen=True)
class EpsilonBreakdown:
    """The three failure terms of one attempt and their sum.

    ``reason`` is set when a precondition failure forced ``eps_pe`` to
    infinity instead of a finite bound.
    """

    eps_correct: float
    eps_pe: float
    eps_pa: float
    total: float
    variant: str
    reason: Optional[str] = None


def eps_pa(settings: ProtocolSettings, nu: float) -> float:
    """Privacy-amplification failure term, clamped to [0, 1].

    Returns ``(1/2) sqrt(2^(-(n (1 - h2(delta + nu)) - r - t - ell)))``.  The
    exponent is assembled in the log domain, so the value underflows to zero
    gracefully; anything that would exceed one is reported as one.  ``delta
    + nu`` must stay below 1/2: beyond it ``1 - h2`` grows again, and the
    term would credit entropy that an error rate that high does not leave.
    """
    if not (math.isfinite(nu) and nu > 0.0):
        raise ValueError(f"nu must be positive and finite, got {nu}")
    q = settings.delta + nu
    if q >= 0.5:
        raise ValueError(f"delta + nu must stay below 1/2, got {q}")
    deficit = settings.shape.n * (1.0 - binary_entropy(q))
    half_exp = 0.5 * (-deficit + settings.r + settings.t + settings.ell)
    if half_exp >= 1.0:
        return 1.0
    return min(1.0, 0.5 * 2.0**half_exp)


def _pe_term(
    shape: BlockShape, delta: float, slack: SlackParams, variant: str
) -> float:
    if variant == "serfling":
        return serfling_epe(shape, slack.nu)
    if variant == "lemma2":
        return new_epe(shape, delta, slack)
    raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")


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
    a ``reason``.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    eps_c = 2.0 ** (-settings.t)
    if settings.delta + slack.nu >= 0.5:
        bd = EpsilonBreakdown(
            eps_correct=eps_c,
            eps_pe=math.inf,
            eps_pa=math.inf,
            total=math.inf,
            variant=variant,
            reason=f"delta + nu = {settings.delta + slack.nu} reaches 1/2",
        )
        return bd, False
    try:
        pe = _pe_term(settings.shape, settings.delta, slack, variant)
    except (BoundUnavailableError, ValueError) as exc:
        bd = EpsilonBreakdown(
            eps_correct=eps_c,
            eps_pe=math.inf,
            eps_pa=eps_pa(settings, slack.nu),
            total=math.inf,
            variant=variant,
            reason=str(exc),
        )
        return bd, False
    pa = eps_pa(settings, slack.nu)
    total = eps_c + 2.0 * pe + pa
    bd = EpsilonBreakdown(
        eps_correct=eps_c, eps_pe=pe, eps_pa=pa, total=total, variant=variant
    )
    return bd, total <= budget.eps_qkd


def max_ell_at(
    settings: ProtocolSettings,
    budget: SecurityBudget,
    slack: SlackParams,
    variant: str,
) -> int:
    """Largest ``ell`` that keeps the point feasible; 0 if none does.

    ``settings.ell`` is ignored.  Points where ``delta + nu`` reaches 1/2
    are infeasible, as in `feasible`, and give 0.  The budget condition is
    solved for ``ell`` in closed form, then the result is verified through
    `feasible` and nudged by single steps to absorb rounding, so the
    returned value satisfies the actual predicate, not just its algebraic
    rearrangement.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    shape = settings.shape
    q = settings.delta + slack.nu
    if q >= 0.5:
        return 0
    try:
        pe = _pe_term(shape, settings.delta, slack, variant)
    except (BoundUnavailableError, ValueError):
        return 0
    headroom = budget.eps_qkd - 2.0 ** (-settings.t) - 2.0 * pe
    if headroom <= 0.0:
        return 0
    guess = _ell_bound(shape.n, binary_entropy(q), settings.r, settings.t, headroom)
    ell = max(0, min(shape.n, math.floor(guess)))

    def ok(candidate: int) -> bool:
        return feasible(replace(settings, ell=candidate), budget, slack, variant)[1]

    while ell > 0 and not ok(ell):
        ell -= 1
    if ell == 0 and not ok(0):
        return 0
    while ell < shape.n and ok(ell + 1):
        ell += 1
    return ell


def stream_budget(eps_stream: float, eps_qkd: float) -> int:
    """Number of attempts a stream budget funds: ``floor(eps_stream/eps_qkd)``.

    The quotient is snapped to the nearest integer first when it is within
    1e-9 of one, so decimal inputs like 1e-4/1e-5 do not lose an attempt to
    float rounding.
    """
    if not (math.isfinite(eps_stream) and eps_stream > 0.0):
        raise ValueError(f"eps_stream must be positive and finite, got {eps_stream}")
    if not (math.isfinite(eps_qkd) and eps_qkd > 0.0):
        raise ValueError(f"eps_qkd must be positive and finite, got {eps_qkd}")
    return max(0, snap_floor(eps_stream / eps_qkd))
