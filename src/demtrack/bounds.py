"""Closed-form evaluators for the concentration and stability inequalities.

Everything here is a pure function of scalar parameters; all evaluators are
safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import _integral

__all__ = [
    "gronwall_continuous_bound",
    "gronwall_discrete_bound",
    "stability_bound",
    "azuma_bound",
    "theorem_failure_probability",
    "freedman_failure_probability",
    "freedman_two_term_probability",
    "binomial_tail",
    "binomial_tail_remark_bound",
    "truncated_failure_probability",
    "error_envelope",
]

ENVELOPE_PANELS = 1024  # composite Simpson panels; rel. error < 1e-10 for smooth integrands


def gronwall_continuous_bound(C: float, L: float, t: float) -> float:
    """Exponential bound C*exp(L*t) for x(t) <= C + L * integral of x."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if L < 0:
        raise ValueError("L must be nonnegative")
    return C * math.exp(L * t)


def gronwall_discrete_bound(c: float, b: float, a: float, m: int) -> float:
    """Strict upper bound (c + b*min(m, 1/a)) * exp(a*m) for the recurrence.

    Valid for any sequence with x_j < c + sum_{i<j} (a*x_i + b), 0 <= j <= m.
    """
    if c < 0 or b < 0:
        raise ValueError("c and b must be nonnegative")
    if not a > 0:
        raise ValueError("a must be strictly positive")
    m = _integral(m, "m")
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    return (c + b * min(m, 1.0 / a)) * math.exp(a * m)


def stability_bound(lam: float, delta: float, L: float, T: float) -> float:
    """Worst-case divergence (lam + delta*T) * exp(L*T) of a perturbed ODE solution."""
    if min(lam, delta, L) < 0 or not T > 0:
        raise ValueError("need lam, delta, L >= 0 and T > 0")
    return (lam + delta * T) * math.exp(L * T)


def azuma_bound(m: int, c: float, t: float) -> float:
    """Tail bound 2*exp(-t^2 / (2*m*c^2)) for max_{j<=m} |M_j| >= t.

    Applies to any martingale started at 0 with differences bounded by c.
    Degenerate case c = 0 (a deterministic sequence): returns 0 for t > 0
    and 2 for t = 0, extending the formula by continuity.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if c < 0 or t < 0:
        raise ValueError("c and t must be nonnegative")
    if c == 0.0:
        return 0.0 if t > 0 else 2.0
    return 2.0 * math.exp(-(t * t) / (2.0 * m * c * c))


def theorem_failure_probability(a: int, n: int, lam: float, T: float, beta: float) -> float:
    """2a * exp(-n*lam^2 / (8*T*beta^2)): the plain envelope failure bound."""
    _check_common(a, n, lam, T, beta)
    return 2.0 * a * math.exp(-n * lam * lam / (8.0 * T * beta * beta))


def freedman_failure_probability(
    a: int, n: int, lam: float, T: float, beta: float, b: float
) -> float:
    """2a * exp(-min(n*lam^2/(4*T*beta*b), n*lam/(4*beta))).

    Sharper than the plain bound when the conditional mean absolute step is
    at most b < beta. See :func:`freedman_two_term_probability` for the
    underlying variance-form bound.
    """
    _check_common(a, n, lam, T, beta)
    if not b > 0:
        raise ValueError("b must be positive")
    expo = min(n * lam * lam / (4.0 * T * beta * b), n * lam / (4.0 * beta))
    return 2.0 * a * math.exp(-expo)


def freedman_two_term_probability(
    a: int, n: int, lam: float, T: float, beta: float, b: float
) -> float:
    """2a * exp(-(lam*n)^2 / (2*T*n*beta*b + 2*beta*lam*n)), the variance form.

    Dominates (is at most) :func:`freedman_failure_probability` for all
    admissible parameters.
    """
    _check_common(a, n, lam, T, beta)
    if not b > 0:
        raise ValueError("b must be positive")
    ln = lam * n
    return 2.0 * a * math.exp(-(ln * ln) / (2.0 * T * n * beta * b + 2.0 * beta * ln))


def binomial_tail(m: int, gamma: float, k: int) -> float:
    """Exact Pr(Z >= k) for Z ~ Bin(m, gamma), via log-space summation.

    Terms are accumulated as exp(log C(m,j) + j log gamma + (m-j) log(1-gamma))
    relative to the largest term, which keeps the sum stable for large m.
    Returns 1 for k <= 0 and 0 for k > m.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if k > m + 1:
        raise ValueError(f"k must be at most m+1, got k={k}, m={m}")
    if k <= 0:
        return 1.0
    if k > m:
        return 0.0
    if gamma == 0.0:
        return 0.0
    if gamma == 1.0:
        return 1.0
    lg, l1g = math.log(gamma), math.log1p(-gamma)
    lgm = math.lgamma(m + 1)
    logs = [
        lgm - math.lgamma(j + 1) - math.lgamma(m - j + 1) + j * lg + (m - j) * l1g
        for j in range(k, m + 1)
    ]
    top = max(logs)
    if top == -math.inf:
        return 0.0
    return math.exp(top) * sum(math.exp(v - top) for v in logs)


def binomial_tail_remark_bound(m: int, gamma: float, x: float) -> float:
    """Closed-form upper bound for Pr(Z >= floor(x+1)), Z ~ Bin(m, gamma).

    For x = 0 this is the union bound m*gamma on Pr(Z >= 1); for x > 0 it is
    (e*m*gamma / ceil(x)) ** ceil(x).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return m * gamma
    cx = math.ceil(x)
    return (math.e * m * gamma / cx) ** cx


def truncated_failure_probability(
    a: int, n: int, lam: float, T: float, beta: float, gamma: float, x: float
) -> float:
    """Envelope failure bound when steps exceed beta with probability <= gamma.

    Equals the plain bound plus a * Pr(Z >= floor(x+1)) with
    Z ~ Bin(floor(T*n), gamma); x is the tolerated count of oversized steps.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    m = math.floor(T * n)
    k = math.floor(x + 1)
    tail = binomial_tail(m, gamma, k) if k <= m else 0.0
    return theorem_failure_probability(a, n, lam, T, beta) + a * tail


def error_envelope(lam: float, delta_fn: Callable[[float], float], t: float) -> float:
    """Consistency envelope xi(t) = lam + integral_0^t delta(s) ds.

    The integral is evaluated by composite Simpson quadrature with
    ``ENVELOPE_PANELS`` panels; delta_fn must be nonnegative on [0, t].
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return lam
    h = t / ENVELOPE_PANELS
    total = 0.0
    low = math.inf
    for j in range(ENVELOPE_PANELS + 1):
        v = delta_fn(j * h)
        low = min(low, v)
        if j == 0 or j == ENVELOPE_PANELS:
            w = 1.0
        elif j % 2:
            w = 4.0
        else:
            w = 2.0
        total += w * v
    if low < 0:
        raise ValueError("delta_fn must be nonnegative on [0, t]")
    return lam + total * h / 3.0


def _check_common(a: int, n: int, lam: float, T: float, beta: float) -> None:
    if a < 1 or n < 1:
        raise ValueError("a and n must be positive integers")
    if not lam > 0:
        raise ValueError("lambda must be positive")
    if not T > 0 or not beta > 0:
        raise ValueError("T and beta must be positive")
