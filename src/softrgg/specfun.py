"""Self-contained special functions and adaptive quadrature.

Every analytic quantity in this package (connection thresholds, angle
integrals, Wishart log-determinant moments) bottoms out in the handful of
primitives below, so they carry explicit accuracy contracts instead of
best-effort behaviour (the inverses share one safeguarded root finder):

* ``std_normal_quantile`` inverts ``std_normal_cdf`` with a relative
  error of 1e-12 or better in the smaller tail min(u, 1 - u), for every u
  from the smallest normal double up to 1 minus it.
* ``reg_inc_beta`` has a relative error of a few 1e-12 for shape parameters
  up to 1e3, growing to ~3e-9 at 5e5 as the log-beta terms cancel.
  ``reg_inc_beta_inv`` meets its smaller tail min(u, 1 - u) to a relative
  1e-12, or as closely as the doubles next to its root allow.
* ``digamma`` is accurate to ~1e-13 absolute for x >= 1e-3.
* ``integrate`` is adaptive Simpson with an absolute-tolerance budget and a
  hard subdivision cap; it raises ``ConvergenceError`` (carrying its best
  estimate) rather than silently returning garbage.

The CDF and log-gamma delegate to the C math library (``math.erfc``,
``math.lgamma``); everything else is implemented here.  Integrands passed to
``integrate`` must accept numpy arrays, which lets the subdivision loop batch
its evaluations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "ConvergenceError",
    "QuadratureSpec",
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
    "log_gamma",
    "log_beta",
    "reg_inc_beta",
    "reg_inc_beta_inv",
    "digamma",
    "integrate",
]

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# log of the smallest subnormal double, the low end of reg_inc_beta_inv's bracket.
_LOG_TINY = math.log(math.ulp(0.0))
_SOLVE_ITERATIONS = 300


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(RuntimeError):
    """An iteration failed to reach its accuracy target within budget.

    Attributes
    ----------
    estimate : float
        Best value available when the budget ran out.
    residual : float
        Size of the remaining error indicator.
    """

    def __init__(self, message, estimate=math.nan, residual=math.nan):
        super().__init__(message)
        self.estimate = estimate
        self.residual = residual


def _require_finite(name, x):
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")


def std_normal_cdf(x: float) -> float:
    """P(Z <= x) for Z standard normal, accurate to machine precision."""
    _require_finite("x", x)
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_pdf(x: float) -> float:
    _require_finite("x", x)
    return math.exp(-0.5 * x * x - _LOG_SQRT_2PI)


def _solve_increasing(f, target, lo, hi, tol, slope=None):
    """Root of the increasing function f(x) = target inside [lo, hi].

    Each step is a Newton step on ``slope(x, f(x))`` when that step lands
    inside the bracket and is at most half the step before last, and a
    bisection otherwise.  Returns once |f(x) - target| <= tol, or once the
    bracket is two adjacent doubles; f may be -inf at the low end.  Raises
    ``ConvergenceError`` only when the iteration cap is hit.
    """
    x = 0.5 * (lo + hi)
    last = before = hi - lo
    for _ in range(_SOLVE_ITERATIONS):
        fx = f(x)
        r = fx - target
        if abs(r) <= tol:
            return x
        if r > 0.0:
            hi = x
        else:
            lo = x
        x_new = 0.5 * (lo + hi)
        if not lo < x_new < hi:
            return x
        s = slope(x, fx) if slope is not None and math.isfinite(r) else 0.0
        if s > 0.0:
            newton = x - r / s
            if lo < newton < hi and abs(newton - x) <= 0.5 * before:
                x_new = newton
        before, last = last, abs(x_new - x)
        x = x_new
    raise ConvergenceError(
        "root finder hit its iteration cap", estimate=x, residual=abs(f(x) - target)
    )


def std_normal_quantile(u: float) -> float:
    """Inverse of ``std_normal_cdf`` for u in [m, 1 - m], m the smallest
    normal double.

    Solves log Phi(x) = log min(u, 1 - u), so the smaller tail is met to a
    relative 1e-12; u > 1/2 mirrors through x -> -x (1 - u is exact).
    """
    _require_finite("u", u)
    if not 0.0 < u < 1.0:
        raise DomainError(f"quantile argument must be in (0, 1), got {u!r}")
    if u > 0.5:
        return -std_normal_quantile(1.0 - u)
    if u == 0.5:
        return 0.0
    if u < sys.float_info.min:
        raise DomainError(f"quantile argument {u!r} is below the smallest normal double")

    def slope(x, log_cdf):
        return math.exp(-0.5 * x * x - _LOG_SQRT_2PI - log_cdf)

    return _solve_increasing(lambda x: math.log(std_normal_cdf(x)), math.log(u),
                             -38.0, 0.0, 0.0, slope)


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    _require_finite("x", x)
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def log_beta(a: float, b: float) -> float:
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def _beta_cf(a, b, x):
    # Modified Lentz evaluation of the incomplete-beta continued fraction.
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        # The even and then the odd numerator of step m; converged after the odd.
        for num in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                    -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + num * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + num / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ConvergenceError("incomplete beta continued fraction stalled", estimate=h)


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b).

    Continued fraction with the usual symmetry switch at
    x = (a+1)/(a+b+2), stable for shape parameters into the thousands.
    """
    _require_finite("a", a)
    _require_finite("b", b)
    _require_finite("x", x)
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"shape parameters must be positive, got a={a!r} b={b!r}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(ln_front) * _beta_cf(b, a, 1.0 - x) / b


def reg_inc_beta_inv(a: float, b: float, u: float) -> float:
    """Solve I_x(a, b) = u for x in [0, 1].

    Solves log I = log min(u, 1 - u) over s = log x, where log I is close
    to linear for small x, so a root near 0 takes a few Newton steps; u > 1/2
    mirrors through I_x(a, b) = 1 - I_{1-x}(b, a), where 1 - u is exact.
    A root below the smallest double comes back as that double.
    """
    _require_finite("u", u)
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"shape parameters must be positive, got a={a!r} b={b!r}")
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"u must lie in [0, 1], got {u!r}")
    if u == 0.0 or u == 1.0:
        return u
    if u > 0.5:
        return 1.0 - reg_inc_beta_inv(b, a, 1.0 - u)
    ln_b = log_beta(a, b)

    def log_inc_beta(s):
        value = reg_inc_beta(a, b, math.exp(s))
        return math.log(value) if value > 0.0 else -math.inf

    def slope(s, log_i):
        # d log I / d log x = x^a (1 - x)^(b - 1) / (B(a, b) I).
        return math.exp(a * s + (b - 1.0) * math.log(-math.expm1(s)) - ln_b - log_i)

    return math.exp(_solve_increasing(log_inc_beta, math.log(u), _LOG_TINY, 0.0, 0.0, slope))


# Magnitudes |B_2n|/(2n) of the Stirling-type digamma expansion; the series
# alternates, which the Horner recurrence below supplies.
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    1.0 / 120.0,
    1.0 / 252.0,
    1.0 / 240.0,
    1.0 / 132.0,
    691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma(x: float) -> float:
    """psi(x) = d/dx log Gamma(x) for x > 0.

    The argument is shifted upward with psi(x) = psi(x+1) - 1/x until
    x >= 10, where the asymptotic series truncated at x^-14 is below
    double rounding error.
    """
    _require_finite("x", x)
    if x <= 0.0:
        raise DomainError(f"digamma requires x > 0, got {x!r}")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    for coeff in reversed(_DIGAMMA_TAIL):
        tail = inv2 * (coeff - tail)
    return acc + math.log(x) - 0.5 * inv - tail


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration request: interval, absolute tolerance, subdivision cap."""

    lower: float
    upper: float
    abs_tol: float = 1e-10
    max_subdivisions: int = 200_000

    def __post_init__(self):
        _require_finite("lower", self.lower)
        _require_finite("upper", self.upper)
        if not self.lower < self.upper:
            raise DomainError(
                f"empty integration interval [{self.lower!r}, {self.upper!r}]"
            )
        if not self.abs_tol > 0.0:
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol!r}")
        if self.max_subdivisions < 16:
            raise DomainError("max_subdivisions must be at least 16")


_SEED_INTERVALS = 16


def _eval_integrand(f, xs):
    values = np.asarray(f(xs), dtype=float)
    if values.shape != xs.shape:
        raise DomainError(
            f"integrand returned shape {values.shape}, expected {xs.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise DomainError("integrand returned non-finite values")
    return values


def integrate(f, spec: QuadratureSpec) -> float:
    """Adaptive Simpson quadrature of a vectorized integrand.

    The interval is seeded with a uniform 16-way split, and no panel may
    be accepted while wider than 1/64 of the interval, so interior
    features down to roughly that scale are sampled before acceptance
    (callers integrating sharper spikes should split the domain at the
    feature).  Panels are then bisected until the Richardson error
    indicator of each is within its share of ``spec.abs_tol``.  Exceeding
    ``spec.max_subdivisions`` raises ``ConvergenceError`` carrying the
    running estimate.
    """
    a, b = spec.lower, spec.upper
    xs = np.linspace(a, b, 2 * _SEED_INTERVALS + 1)
    fx = _eval_integrand(f, xs)

    width = np.full(_SEED_INTERVALS, (b - a) / _SEED_INTERVALS)
    left = xs[0:-1:2]
    f_l = fx[0:-1:2][: _SEED_INTERVALS]
    f_m = fx[1::2]
    f_r = fx[2::2]
    panel = width / 6.0 * (f_l + 4.0 * f_m + f_r)
    tol = np.full(_SEED_INTERVALS, spec.abs_tol / _SEED_INTERVALS)

    coarse_limit = (b - a) / 64.0 * (1.0 + 1e-12)
    total = 0.0
    n_panels = _SEED_INTERVALS
    while left.size:
        mid_l = left + 0.25 * width
        mid_r = left + 0.75 * width
        f_new = _eval_integrand(f, np.concatenate([mid_l, mid_r]))
        f_ml = f_new[: left.size]
        f_mr = f_new[left.size :]
        s_left = width / 12.0 * (f_l + 4.0 * f_ml + f_m)
        s_right = width / 12.0 * (f_m + 4.0 * f_mr + f_r)
        refined = s_left + s_right
        err = (refined - panel) / 15.0
        done = (np.abs(err) <= tol) & (width <= coarse_limit)
        total += float(np.sum(refined[done] + err[done]))

        keep = ~done
        if not keep.any():
            break
        n_panels += 2 * int(keep.sum())
        if n_panels > spec.max_subdivisions:
            raise ConvergenceError(
                "quadrature subdivision budget exhausted",
                estimate=total + float(np.sum(refined[keep])),
                residual=float(np.max(np.abs(err[keep]))),
            )
        half = 0.5 * width[keep]
        left = np.concatenate([left[keep], left[keep] + half])
        width = np.concatenate([half, half])
        old_mid = f_m[keep]
        f_l, f_m, f_r = (
            np.concatenate([f_l[keep], old_mid]),
            np.concatenate([f_ml[keep], f_mr[keep]]),
            np.concatenate([old_mid, f_r[keep]]),
        )
        panel = np.concatenate([s_left[keep], s_right[keep]])
        half_tol = 0.5 * tol[keep]
        tol = np.concatenate([half_tol, half_tol])
    return total
