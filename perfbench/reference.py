"""Reference values computed apart from softrgg, and the checks that use them.

Everything here is scipy and numpy only: no softrgg function is called, so
an agreement between a reference and a softrgg output is evidence that the
output is right, not that one routine agrees with itself.

Each ``check_*`` helper returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special

# Tolerance, in standard errors, of every Monte Carlo comparison.
SE_TOL = 4.0


def _angle_moment(d: int, power: int) -> float:
    """E[((pi/2 - Theta)_+)^power] for the angle Theta between two independent
    uniform points on S^{d-1}, whose density is sin^{d-2} / Z_d on [0, pi].

    With u = pi/2 - Theta the density is cos^{d-2}(u) / Z_d on [-pi/2, pi/2];
    the mass sits within a few 1/sqrt(d) of u = 0, so quad is told where.
    """
    log_z = 0.5 * math.log(math.pi) + special.gammaln((d - 1) / 2) - special.gammaln(d / 2)

    def f(u):
        c = math.cos(u)
        if c <= 0.0:
            return 0.0
        return u**power * math.exp((d - 2) * math.log(c) - log_z)

    width = 1.0 / math.sqrt(d)
    points = [k * width for k in (1, 2, 4, 8, 16) if k * width < math.pi / 2]
    value, _ = integrate.quad(f, 0.0, math.pi / 2, points=points, limit=200,
                              epsabs=0.0, epsrel=1e-11)
    return value


def gamma_ref(d: int) -> float:
    """gamma(d) = E[(pi/2 - Theta)_+] / (2 pi)."""
    return _angle_moment(d, 1) / (2 * math.pi)


def eta_ref(d: int) -> float:
    """eta(d) = E[(pi/2 - Theta)^2] / (4 pi^2); the integrand is even in u."""
    return 2 * _angle_moment(d, 2) / (4 * math.pi**2)


def _chi_expect(g, d: int) -> float:
    """E[g(r)] for r ~ chi(d), by quad around the bulk at sqrt(d)."""
    log_norm = (1 - d / 2) * math.log(2.0) - special.gammaln(d / 2)

    def f(r):
        if r <= 0.0:
            return 0.0
        return g(r) * math.exp(log_norm + (d - 1) * math.log(r) - r * r / 2)

    mid = math.sqrt(d)
    lo, hi = max(0.0, mid - 12.0), mid + 12.0
    value, _ = integrate.quad(f, lo, hi, points=[mid], limit=200,
                              epsabs=0.0, epsrel=1e-12)
    return value


def gauss_threshold_ref(p: float, d: int) -> float:
    """u with E_r[Phibar(u / r)] = p over r ~ chi(d), solved by brentq."""
    def excess(u):
        return _chi_expect(lambda r: special.ndtr(-u / r), d) - p

    hi = math.sqrt(d) * 10.0
    lo = -hi
    return optimize.brentq(excess, lo, hi, xtol=1e-13, rtol=1e-14, maxiter=200)


def gauss_cherry_ref(p: float, d: int) -> float:
    """P(both edges of a cherry) in the hard Gaussian dot-product model.

    Given the centre's norm r the two inner products are independent
    N(0, r^2), so the probability is E_r[Phibar(u / r)^2].
    """
    u = gauss_threshold_ref(p, d)
    return _chi_expect(lambda r: special.ndtr(-u / r) ** 2, d)


def signed_triangle_trace(n: int, edges, p: float) -> float:
    """tr(Abar^3) / 6 for the centered zero-diagonal adjacency of an edge list."""
    abar = np.full((n, n), -p)
    np.fill_diagonal(abar, 0.0)
    for i, j in edges:
        abar[i, j] = abar[j, i] = 1.0 - p
    return float(np.trace(abar @ abar @ abar)) / 6.0


def er_cycle4_variance(n: int, p: float) -> float:
    """Var of the signed 4-cycle sum under G(n, p): n!/((n-4)! 8) (p(1-p))^4."""
    return math.perm(n, 4) / 8 * (p * (1 - p)) ** 4


def pooled(means, ses):
    """Inverse-variance pooled mean and standard error of independent estimates."""
    means = np.asarray(means, float)
    w = 1.0 / np.asarray(ses, float) ** 2
    return float(np.sum(w * means) / np.sum(w)), float(1.0 / math.sqrt(np.sum(w)))


def check_close_se(label: str, value: float, ref: float, se: float,
                   tol: float = SE_TOL) -> list[str]:
    """value within tol standard errors of ref."""
    if not (math.isfinite(value) and math.isfinite(se)) or abs(value - ref) > tol * se:
        return [f"{label}: {value!r} is not within {tol} SE ({se!r}) of {ref!r}"]
    return []


def check_close_rel(label: str, value: float, ref: float, rel: float) -> list[str]:
    """value within a relative tolerance of ref."""
    if not math.isfinite(value) or abs(value - ref) > rel * max(abs(ref), 1e-300):
        return [f"{label}: {value!r} differs from {ref!r} by more than {rel:g} relative"]
    return []


def check_bound(label: str, value: float, lo: float, hi: float) -> list[str]:
    if not (lo <= value <= hi):
        return [f"{label}: {value!r} outside [{lo!r}, {hi!r}]"]
    return []


def check_same_rate(label: str, a: float, b: float, count: int,
                    tol: float = SE_TOL) -> list[str]:
    """Two binomial rates over ``count`` trials each agree within tol SE of
    their difference, with the SE from the pooled rate."""
    pbar = (a + b) / 2
    se = math.sqrt(max(pbar * (1 - pbar), 1.0 / count) * 2.0 / count)
    return check_close_se(label, a - b, 0.0, se, tol)


def check_variance(label: str, sample_var: float, ref_var: float, count: int,
                   tol: float = SE_TOL) -> list[str]:
    """A sample variance over ``count`` near-normal values agrees with ref_var;
    its standard error is ref_var * sqrt(2 / (count - 1))."""
    return check_close_se(label, sample_var, ref_var,
                          ref_var * math.sqrt(2.0 / (count - 1)), tol)
