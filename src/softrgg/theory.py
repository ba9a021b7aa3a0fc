"""Closed-form and quadrature-backed quantities for the model family.

Everything here is deterministic given its arguments: the normalization
zeta of the angle density on the sphere, the moments gamma and eta that
govern signed-statistic means at p = 1/2, total-variation and KL bound
terms, the phase-diagram classifier, and Wishart log-determinant
identities.  Monte Carlo enters only where a constant has no closed form,
and then the return value carries its standard error.

Angle conventions.  For two independent uniform points on S^{d-1} the
angle Theta between them has density sin^{d-2}(theta)/zeta on [0, pi].
The two moments used throughout are

    gamma(d) = E[max(0, pi/2 - Theta)] / (2 pi)
    eta(d)   = E[(pi/2 - Theta)^2] / (4 pi^2)

gamma integrates over [0, pi/2] only (the positive part), eta over the
full range.  All downstream formulas in this module are expressed in
terms of these two definitions; mixing in a half-range eta will silently
double-count, so derived tables below spell out their field formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import _require_open_p, _require_unit_p, thresholds
from .specfun import (
    DomainError,
    QuadratureSpec,
    digamma,
    integrate,
    log_gamma,
    std_normal_quantile,
)
from .stats import QUAD_PATH_PATTERN, TRIANGLE_PATTERN, signed_pattern_estimate

__all__ = [
    "BoundReport",
    "DotProductReport",
    "HalfMomentTable",
    "PhasePoint",
    "SingularWishartError",
    "ThresholdGapConstants",
    "TriangleMeanBounds",
    "WishartLogDet",
    "GAMMA_SCALED_LOWER",
    "GAMMA_SCALED_UPPER",
    "ETA_SCALED_LOWER",
    "ETA_SCALED_UPPER",
    "zeta_d",
    "gamma_d",
    "eta_d",
    "mean_cos_squared",
    "half_moment_table",
    "signed_triangle_mean_bounds",
    "threshold_gap_constants",
    "threshold_gap_curve",
    "tv_bound_report",
    "phase_classify",
    "wishart_logdet_mean",
    "logdet_deficit_bound",
    "dotproduct_bound_predicates",
    "dotproduct_scaled_stability",
    "wedge_conditional_square_estimate",
]

# Dimension-free endpoints: gamma(d)*sqrt(d) lies in the first bracket,
# eta(d)*d in the second, for every d >= 2.
GAMMA_SCALED_LOWER = 1.0 / (2.0 * math.pi * math.sqrt(2.0 * math.pi))
GAMMA_SCALED_UPPER = 1.0 / (4.0 * math.sqrt(math.pi))
ETA_SCALED_LOWER = 1.0 / (4.0 * math.pi**2)
ETA_SCALED_UPPER = 1.0 / 16.0

PHASE_IMPOSSIBLE = "Impossible"
PHASE_POSSIBLE = "Possible"
PHASE_UNKNOWN = "Unknown"


class SingularWishartError(DomainError):
    """Raised when d < n makes det(Z Z^T) vanish almost surely."""


@lru_cache(maxsize=8192)
def zeta_d(d: int) -> float:
    """Normalization of sin^{d-2} over [0, pi], via log-gamma ratios."""
    if d < 2:
        raise DomainError(f"angle density needs d >= 2, got {d}")
    return math.exp(
        0.5 * math.log(math.pi) + log_gamma((d - 1) / 2.0) - log_gamma(d / 2.0)
    )


def _cos_power(u, d: int):
    """cos^{d-2}(u) on [0, pi/2], evaluated in the log domain.

    Direct powers underflow gracefully but lose accuracy for large d;
    exp((d-2) log cos u) stays exact to rounding until it flushes to 0.
    """
    u = np.asarray(u, dtype=np.float64)
    if d == 2:
        return np.ones_like(u)
    c = np.cos(u)
    out = np.zeros_like(c)
    pos = c > 0.0
    out[pos] = np.exp((d - 2) * np.log(c[pos]))
    return out


def _half_integral(weight, d: int, abs_tol: float) -> float:
    """Integrate weight(u) * cos^{d-2}(u) over [0, pi/2].

    The integrand concentrates on a 1/sqrt(d) neighborhood of 0 for
    large d, so the domain is split there; the outer piece is
    exponentially small but still integrated rather than dropped.
    """
    half_pi = math.pi / 2.0

    def f(u):
        return weight(u) * _cos_power(u, d)

    split = 20.0 / math.sqrt(d - 2) if d > 2 else half_pi
    if split >= half_pi:
        return integrate(f, QuadratureSpec(0.0, half_pi, abs_tol=abs_tol))
    inner = integrate(f, QuadratureSpec(0.0, split, abs_tol=abs_tol / 2.0))
    outer = integrate(f, QuadratureSpec(split, half_pi, abs_tol=abs_tol / 2.0))
    return inner + outer


@lru_cache(maxsize=8192)
def gamma_d(d: int) -> float:
    """First positive-part angle moment, E[max(0, pi/2 - Theta)]/(2 pi).

    Equals 1/16 at d = 2 and decays like 1/sqrt(d) inside the bracket
    [GAMMA_SCALED_LOWER, GAMMA_SCALED_UPPER]/sqrt(d).
    """
    if d < 2:
        raise DomainError(f"gamma_d needs d >= 2, got {d}")
    denom = 2.0 * math.pi * zeta_d(d)
    raw = _half_integral(lambda u: u, d, abs_tol=1e-11 * min(denom, 1.0))
    return raw / denom


@lru_cache(maxsize=8192)
def eta_d(d: int) -> float:
    """Second angle moment, E[(pi/2 - Theta)^2]/(4 pi^2).

    The integrand is symmetric about pi/2, so the full-range expectation
    is twice the [0, pi/2] integral.  Equals 1/48 at d = 2 and decays
    like 1/d inside [ETA_SCALED_LOWER, ETA_SCALED_UPPER]/d.
    """
    if d < 2:
        raise DomainError(f"eta_d needs d >= 2, got {d}")
    denom = 2.0 * math.pi**2 * zeta_d(d)
    raw = _half_integral(lambda u: u * u, d, abs_tol=1e-11 * min(denom, 1.0))
    return raw / denom


@lru_cache(maxsize=8192)
def mean_cos_squared(d: int) -> float:
    """E[cos^2 Theta] = E[<x1, x2>^2] for independent uniform sphere
    points; identically 1/d.

    Kept as a quadrature rather than the constant so it can serve as an
    end-to-end check of the density, the normalization, and the
    integrator in one identity.
    """
    if d < 2:
        raise DomainError(f"mean_cos_squared needs d >= 2, got {d}")
    denom = zeta_d(d) / 2.0
    raw = _half_integral(
        lambda u: np.sin(u) ** 2, d, abs_tol=5e-12 * min(denom, 1.0)
    )
    return raw / denom


@dataclass(frozen=True)
class HalfMomentTable:
    """Exact p = 1/2 hard-model moments for up to four points.

    Field formulas, in terms of this module's gamma and eta:
      triangle_prob      = 1/8  + gamma          (three mutual edges)
      quad_path_prob     = 1/16 + eta            (edges 13, 23, 14, 24)
      house_prob         = 1/32 + gamma/2 + eta/2  (triangle 123 + 14, 24)
      quadrilateral_mean = eta                   (signed 4-cycle mean)
      q1_lower/q1_upper  = 1/64 + gamma/2 + eta/4 + [1/(16 pi^2 d), 1/(8 pi d)]
                           (all six edges among four points; bracketed,
                            not exact)
    """

    d: int
    gamma: float
    eta: float
    triangle_prob: float
    quad_path_prob: float
    house_prob: float
    quadrilateral_mean: float
    q1_lower: float
    q1_upper: float

    def __post_init__(self):
        probs = (
            self.triangle_prob,
            self.quad_path_prob,
            self.house_prob,
            self.q1_lower,
            self.q1_upper,
        )
        if not all(0.0 <= v <= 1.0 for v in probs):
            raise DomainError("half-moment probabilities left [0, 1]")
        if self.gamma <= 0.0 or self.eta <= 0.0:
            raise DomainError("gamma and eta must be positive")


def half_moment_table(d: int) -> HalfMomentTable:
    g = gamma_d(d)
    e = eta_d(d)
    base_q1 = 1.0 / 64.0 + g / 2.0 + e / 4.0
    return HalfMomentTable(
        d=d,
        gamma=g,
        eta=e,
        triangle_prob=0.125 + g,
        quad_path_prob=0.0625 + e,
        house_prob=0.03125 + g / 2.0 + e / 2.0,
        quadrilateral_mean=e,
        q1_lower=base_q1 + 1.0 / (16.0 * math.pi**2 * d),
        q1_upper=base_q1 + 1.0 / (8.0 * math.pi * d),
    )


@dataclass(frozen=True)
class TriangleMeanBounds:
    """Bracket for the mean signed-triangle sum over n vertices."""

    lower: float
    upper: float | None
    method: str
    constant_se: float = 0.0


# Calibration of the measured triangle constant: dimension, replicates, seed.
_CALIBRATION_D = 256
_CALIBRATION_REPS = 2_000_000
_CALIBRATION_SEED = 24181


@lru_cache(maxsize=64)
def _measured_triangle_constant(p: float) -> tuple[float, float]:
    est, se = signed_pattern_estimate(
        "sphere", p, _CALIBRATION_D, 1.0, TRIANGLE_PATTERN,
        reps=_CALIBRATION_REPS, seed=_CALIBRATION_SEED,
    )
    root = math.sqrt(_CALIBRATION_D)
    return est * root, se * root


def signed_triangle_mean_bounds(n: int, p: float, d: int, q: float) -> TriangleMeanBounds:
    """Bracket E[sum of signed triangles] for the soft sphere model.

    At p = 1/2 the constants are closed-form and two-sided.  Away from
    1/2 only existence of a constant is known, so the sqrt(d)-scaled
    triangle mean is measured once by Monte Carlo at a calibration
    dimension, cached, and returned as a one-sided (lower) bound with
    three standard errors subtracted.
    """
    if n < 3:
        raise DomainError(f"need n >= 3 for triangles, got {n}")
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    _require_open_p(p, "p")
    _require_unit_p(q, "q")
    scale = math.comb(n, 3) * q**3 / math.sqrt(d)
    if p == 0.5:
        return TriangleMeanBounds(
            lower=scale * GAMMA_SCALED_LOWER,
            upper=scale * GAMMA_SCALED_UPPER,
            method="closed-form",
        )
    constant, const_se = _measured_triangle_constant(p)
    return TriangleMeanBounds(
        lower=scale * max(0.0, constant - 3.0 * const_se),
        upper=None,
        method="measured",
        constant_se=const_se,
    )


@dataclass(frozen=True)
class ThresholdGapConstants:
    """One-sided constants for the gap t_p - t_{p,d} sqrt(d).

    For every d >= min_dimension the scaled gap d*(t_p - t_{p,d} sqrt(d))
    lies in [lower, upper].  The two sides come from separate quantile
    comparisons and are far from symmetric.
    """

    p: float
    lower: float
    upper: float
    min_dimension: int


def threshold_gap_constants(p: float) -> ThresholdGapConstants:
    if not 0.0 < p <= 0.5:
        raise DomainError(f"gap constants need 0 < p <= 1/2, got {p}")
    t_p = -std_normal_quantile(p)
    t_half_p = -std_normal_quantile(p / 2.0)
    root_2pi = math.sqrt(2.0 * math.pi)
    overshoot = 3.0 * (t_p + 2.0 * root_2pi * math.exp(0.5 * t_half_p**2))
    undershoot = 2.0 * (1.0 - 2.0 * p) * root_2pi * math.exp(0.5 * t_p**2)
    return ThresholdGapConstants(
        p=p, lower=-overshoot, upper=undershoot, min_dimension=6
    )


def threshold_gap_curve(p: float, dims) -> tuple[tuple[int, float], ...]:
    """Measured d * |t_p - t_{p,d} sqrt(d)| along a dimension ladder."""
    out = []
    for d in dims:
        th = thresholds(p, d)
        out.append((d, d * abs(th.delta_pd)))
    return tuple(out)


@dataclass(frozen=True)
class BoundReport:
    """Evaluated distance-bound terms between the noisy-geometry law
    and its edge-independent counterpart at the same (n, p).

    Terms with unspecified multiplicative constants are reported raw;
    validity flags record the hypotheses of the statements they come
    from rather than clamping or hiding values outside them.
    """

    n: int
    p: float
    d: int
    q: float
    tv_weak_noise: float
    weak_noise_valid: bool
    kl_edgewise: float
    kl_valid: bool
    structural_terms: tuple[float, float, float]
    structural_valid: bool
    mixture_terms: tuple[float, float]


def tv_bound_report(n: int, p: float, d: int, q: float) -> BoundReport:
    """All bound terms at once; none depend on p (they hold uniformly),
    but p is carried for record-keeping.
    """
    if n < 1 or d < 1:
        raise DomainError("n and d must be positive")
    _require_unit_p(p, "p")
    _require_unit_p(q, "q")
    return BoundReport(
        n=n,
        p=p,
        d=d,
        q=q,
        tv_weak_noise=0.5 * n * q,
        weak_noise_valid=q <= 0.5,
        kl_edgewise=math.comb(n, 2) * q**2,
        kl_valid=q <= 0.5,
        structural_terms=(
            math.sqrt(n**2 * q / d**2),
            math.sqrt(n**2 * q / d),
            math.sqrt(n**3 * q**2 / d),
        ),
        structural_valid=d >= 2 * n,
        mixture_terms=(n**3 / d, n**2 * q),
    )


@dataclass(frozen=True)
class PhasePoint:
    """Exponent coordinates d = n^alpha, q = n^{-beta}."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise DomainError("phase exponents must be positive")


def phase_classify(pt: PhasePoint) -> str:
    """Detectability label for the (alpha, beta) exponent plane.

    Strict inequalities only; points on a boundary are Unknown, as are
    points between the proven regions.
    """
    if pt.beta > 1.0 or pt.alpha + 2.0 * pt.beta > 3.0:
        return PHASE_IMPOSSIBLE
    if pt.alpha + 6.0 * pt.beta < 3.0:
        return PHASE_POSSIBLE
    return PHASE_UNKNOWN


@dataclass(frozen=True)
class WishartLogDet:
    """E[log det(Z Z^T)] for Z an n x d standard normal matrix, plus the
    normalized deficit E[-log det(Z Z^T / d)] = n log d - logdet_mean."""

    n: int
    d: int
    logdet_mean: float
    normalized_deficit: float


def wishart_logdet_mean(n: int, d: int) -> WishartLogDet:
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if d < n:
        raise SingularWishartError(
            f"det(ZZ^T) = 0 almost surely for d={d} < n={n}"
        )
    total = sum(digamma((d - i + 1) / 2.0) for i in range(1, n + 1))
    total += n * math.log(2.0)
    return WishartLogDet(
        n=n,
        d=d,
        logdet_mean=total,
        normalized_deficit=n * math.log(d) - total,
    )


def logdet_deficit_bound(n: int, d: int) -> float:
    """Upper bound 4n/d + n^2/d on the normalized log-det deficit.

    Only proven for d >= 2n; refuses to evaluate outside that range so a
    passing comparison can never be quoted beyond its hypothesis.
    """
    if d < 2 * n:
        raise DomainError(f"deficit bound needs d >= 2n, got n={n}, d={d}")
    return 4.0 * n / d + n**2 / d


@dataclass(frozen=True)
class DotProductReport:
    """Predicate results for the Gaussian dot-product thresholds.

    wedge: P(two edges sharing a vertex) should exceed p^2 by at most
    8/d.  triangle: P(three mutual edges) should exceed p^3, with the
    excess decaying like 1/sqrt(d); scaled_excess carries sqrt(d) times
    the excess for cross-dimension stability comparisons.
    """

    p: float
    d: int
    wedge_excess: float
    wedge_limit: float
    wedge_pass: bool
    triangle_excess: float
    triangle_excess_se: float
    triangle_positive: bool
    scaled_excess: float
    scaled_excess_se: float


def dotproduct_bound_predicates(
    p: float,
    d: int,
    wedge: tuple[float, float],
    triangle: tuple[float, float],
) -> DotProductReport:
    """Evaluate the dot-product bound predicates on MC estimates.

    wedge and triangle are (estimate, se) pairs for the hard-model
    probabilities of the 2-edge shared-vertex pattern and the triangle
    pattern under standard-normal latents.
    """
    _require_open_p(p, "p")
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")
    wedge_est, wedge_se = wedge
    tri_est, tri_se = triangle
    wedge_excess = wedge_est - p**2
    wedge_limit = 8.0 / d + 3.0 * wedge_se
    tri_excess = tri_est - p**3
    root = math.sqrt(d)
    return DotProductReport(
        p=p,
        d=d,
        wedge_excess=wedge_excess,
        wedge_limit=wedge_limit,
        wedge_pass=wedge_excess <= wedge_limit,
        triangle_excess=tri_excess,
        triangle_excess_se=tri_se,
        triangle_positive=tri_excess >= -3.0 * tri_se,
        scaled_excess=root * tri_excess,
        scaled_excess_se=root * tri_se,
    )


def dotproduct_scaled_stability(reports) -> bool:
    """Whether all sqrt(d)-scaled triangle excesses agree pairwise
    within six joint standard errors."""
    reports = list(reports)
    for i in range(len(reports)):
        for j in range(i + 1, len(reports)):
            a, b = reports[i], reports[j]
            joint = math.hypot(a.scaled_excess_se, b.scaled_excess_se)
            if abs(a.scaled_excess - b.scaled_excess) > 6.0 * joint:
                return False
    return True


def wedge_conditional_square_estimate(
    p: float, d: int, reps: int, seed: int
) -> tuple[float, float]:
    """MC estimate of E[ E[s_23 s_31 | x1, x2]^2 ] under the
    dot-product model, where s_ij is the centered hard edge indicator.

    Squaring the inner conditional expectation is made unbiased by a
    second, independent third point x4: E[E[s_23 s_31 | x1, x2]^2] =
    E[s_13 s_23 s_14 s_24], the signed mean of the quad-path pattern in
    the hard (q = 1) dot-product model.
    """
    _require_open_p(p, "p")
    if d < 1 or reps < 2:
        raise DomainError("need d >= 1 and reps >= 2")
    return signed_pattern_estimate("gauss", p, d, 1.0, QUAD_PATH_PATTERN, reps, seed)
