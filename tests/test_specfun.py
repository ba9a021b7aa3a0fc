"""Special-function kernel checks.

Each analytic primitive is tested against an independent route: the normal
CDF against adaptive quadrature of its own density, digamma against a
test-local shifted-series evaluation, the incomplete beta against both the
arcsine closed form and quadrature of the beta density.  Frozen constants
below were produced by those oracles and are asserted to full precision.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softrgg.specfun import (
    ConvergenceError,
    DomainError,
    QuadratureSpec,
    digamma,
    integrate,
    log_beta,
    log_gamma,
    reg_inc_beta,
    reg_inc_beta_inv,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)

EULER_GAMMA = 0.5772156649015329


def oracle_normal_cdf(x):
    """Phi via quadrature of the density, independent of the erfc route."""
    if x == 0.0:
        return 0.5
    lo, hi = (x, 0.0) if x < 0.0 else (0.0, x)
    tail = integrate(
        lambda t: np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi),
        QuadratureSpec(lo, hi, abs_tol=1e-13),
    )
    return 0.5 + math.copysign(tail, x)


def oracle_digamma(x, shift=2000):
    """Recurrence out to a large argument, then a 3-term Stirling tail."""
    acc = 0.0
    for k in range(shift):
        acc -= 1.0 / (x + k)
    y = x + shift
    return acc + math.log(y) - 0.5 / y - 1.0 / (12.0 * y * y)


def oracle_reg_inc_beta(a, b, x):
    # Substituting t = s^2 removes the left-endpoint singularity for a = 1/2.
    def transformed(s):
        return 2.0 * np.exp(
            (2.0 * a - 1.0) * np.log(np.maximum(s, 1e-300))
            + (b - 1.0) * np.log1p(-s * s)
            - log_beta(a, b)
        )

    return integrate(transformed, QuadratureSpec(0.0, math.sqrt(x), abs_tol=1e-12))


def test_normal_cdf_frozen_points():
    assert std_normal_cdf(0.0) == 0.5
    assert abs(std_normal_cdf(1.959963984540054) - 0.975) < 1e-14
    assert abs(std_normal_cdf(-1.0) - 0.15865525393145707) < 1e-14


def test_normal_cdf_matches_quadrature_oracle():
    for x in (-3.7, -1.2, -0.3, 0.4, 1.0, 2.5, 5.0):
        assert abs(std_normal_cdf(x) - oracle_normal_cdf(x)) < 1e-12


def test_normal_quantile_frozen_points():
    assert std_normal_quantile(0.5) == 0.0
    assert abs(std_normal_quantile(0.975) - 1.959963984540054) < 1e-12
    assert abs(std_normal_quantile(0.3) - (-0.5244005127080409)) < 1e-12


def test_normal_round_trip_grid():
    us = np.linspace(1e-12, 1.0 - 1e-12, 1001)
    for u in us:
        x = std_normal_quantile(float(u))
        assert abs(std_normal_cdf(x) - u) <= 1e-10


def test_normal_quantile_strictly_increasing():
    us = np.linspace(1e-9, 1.0 - 1e-9, 400)
    xs = [std_normal_quantile(float(u)) for u in us]
    assert all(b > a for a, b in zip(xs, xs[1:]))


def test_normal_quantile_rejects_boundary():
    for bad in (0.0, 1.0, -0.2, 1.3, math.nan):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@settings(max_examples=200, deadline=None)
def test_normal_round_trip_property(u):
    assert abs(std_normal_cdf(std_normal_quantile(u)) - u) <= 1e-10


def test_normal_quantile_deep_tail_is_relative():
    # An absolute residual would accept any x far enough in the tail; the
    # smaller tail must be met relatively down to the smallest normal double.
    for u in (1e-200, 1e-240, 1e-280, 1e-300, 2.3e-308):
        x = std_normal_quantile(u)
        assert abs(std_normal_cdf(x) / u - 1.0) <= 1e-11


def test_normal_quantile_refuses_subnormal():
    for bad in (2.2e-308, 1e-310, 5e-324):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)


@given(st.floats(min_value=-300.0, max_value=math.log10(0.5)), st.booleans())
@settings(max_examples=300, deadline=None)
def test_normal_quantile_relative_tail_property(log_tail, upper):
    tail = 10.0**log_tail
    # 1 - u is exact for u > 1/2, but a tail below 1e-15 would round u to 1.
    upper = upper and tail > 1e-15
    u = 1.0 - tail if upper else tail
    x = std_normal_quantile(u)
    small = std_normal_cdf(-x) if upper else std_normal_cdf(x)
    assert abs(small / min(u, 1.0 - u) - 1.0) <= 1e-11


def test_log_gamma_frozen_points():
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-15
    assert log_gamma(1.0) == 0.0
    assert abs(log_gamma(6.0) - math.log(120.0)) < 1e-13
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-2.5)


def test_log_gamma_wendel_bounds():
    # 1/sqrt(d/2) <= Gamma(d/2)/Gamma((d+1)/2) <= sqrt(2(d+1))/d
    for d in (4, 64, 1024):
        ratio = math.exp(log_gamma(d / 2.0) - log_gamma((d + 1) / 2.0))
        assert 1.0 / math.sqrt(d / 2.0) <= ratio <= math.sqrt(2.0 * (d + 1)) / d


def test_digamma_frozen_points():
    assert abs(digamma(1.0) - (-EULER_GAMMA)) < 1e-13
    assert abs(digamma(0.5) - (-EULER_GAMMA - 2.0 * math.log(2.0))) < 1e-13
    # psi(2) = 1 - gamma
    assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) < 1e-13


def test_digamma_matches_series_oracle():
    for x in (0.003, 0.11, 0.5, 1.0, 2.7, 9.99, 10.01, 1234.5):
        assert abs(digamma(x) - oracle_digamma(x)) < 1e-11


def test_digamma_recurrence_log_grid():
    for x in np.geomspace(1e-3, 1e6, 200):
        x = float(x)
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-12


def test_digamma_log_bounds():
    # log x - 1/x <= psi(x) <= log x - 1/(2x)
    for x in np.geomspace(0.5, 1e6, 60):
        x = float(x)
        assert math.log(x) - 1.0 / x <= digamma(x) <= math.log(x) - 0.5 / x


def test_digamma_domain():
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(DomainError):
            digamma(bad)


def test_reg_inc_beta_arcsine_closed_form():
    # I_x(1/2, 1/2) = (2/pi) arcsin(sqrt(x))
    for x in (0.01, 0.2, 0.5, 0.77, 0.99):
        expected = (2.0 / math.pi) * math.asin(math.sqrt(x))
        assert abs(reg_inc_beta(0.5, 0.5, x) - expected) < 1e-13


def test_reg_inc_beta_matches_quadrature_oracle():
    cases = [(0.5, 7.5, 0.03), (2.0, 3.0, 0.4), (0.5, 511.5, 0.002), (5.0, 0.5, 0.9)]
    for a, b, x in cases:
        assert abs(reg_inc_beta(a, b, x) - oracle_reg_inc_beta(a, b, x)) < 1e-10


def test_reg_inc_beta_endpoints_and_symmetry():
    assert reg_inc_beta(0.5, 31.5, 0.0) == 0.0
    assert reg_inc_beta(0.5, 31.5, 1.0) == 1.0
    for a, b, x in [(0.5, 31.5, 0.01), (3.0, 4.0, 0.6)]:
        assert abs(reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x) - 1.0) < 1e-13


def test_reg_inc_beta_monotone_in_x():
    xs = np.linspace(0.0, 1.0, 101)
    vals = [reg_inc_beta(0.5, 31.5, float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_reg_inc_beta_inv_round_trip():
    for a, b in [(0.5, 0.5), (0.5, 7.5), (0.5, 511.5), (0.5, 2047.5), (3.0, 2.0)]:
        for u in (1e-9, 1e-4, 0.1, 0.4, 0.5, 0.9, 0.999):
            x = reg_inc_beta_inv(a, b, u)
            assert 0.0 <= x <= 1.0
            assert abs(reg_inc_beta(a, b, x) - u) <= 1e-10
    assert reg_inc_beta_inv(0.5, 7.5, 0.0) == 0.0
    assert reg_inc_beta_inv(0.5, 7.5, 1.0) == 1.0


@given(
    st.floats(min_value=1e-4, max_value=1.0 - 1e-4),
    st.floats(min_value=0.5, max_value=64.0),
)
@settings(max_examples=100, deadline=None)
def test_reg_inc_beta_inv_round_trip_property(u, b):
    x = reg_inc_beta_inv(0.5, b, u)
    assert abs(reg_inc_beta(0.5, b, x) - u) <= 1e-10


def test_integrate_constant_and_sine():
    assert abs(integrate(lambda x: np.ones_like(x), QuadratureSpec(0.0, math.pi)) - math.pi) < 1e-10
    assert abs(integrate(np.sin, QuadratureSpec(0.0, math.pi)) - 2.0) < 1e-10


def test_integrate_sphere_closed_forms():
    # int_0^{pi/2} sin t cos^{d-2} t dt = 1/(d-1), and
    # int_0^pi sin^{d-2} t dt = sqrt(pi) Gamma((d-1)/2) / Gamma(d/2).
    for d in range(3, 65):
        got = integrate(
            lambda t: np.sin(t) * np.cos(t) ** (d - 2),
            QuadratureSpec(0.0, math.pi / 2.0),
        )
        assert abs(got - 1.0 / (d - 1.0)) < 1e-10
        zeta = math.exp(
            0.5 * math.log(math.pi) + log_gamma((d - 1) / 2.0) - log_gamma(d / 2.0)
        )
        got = integrate(
            lambda t: np.sin(t) ** (d - 2), QuadratureSpec(0.0, math.pi)
        )
        assert abs(got - zeta) < 1e-9


def test_integrate_narrow_peak():
    # A spike of width 1e-3 well inside the interval must not be skipped.
    center, width = 0.6180339887, 1e-3
    f = lambda x: np.exp(-0.5 * ((x - center) / width) ** 2)
    got = integrate(f, QuadratureSpec(0.0, 1.0, abs_tol=1e-12))
    expected = width * math.sqrt(2.0 * math.pi)
    assert abs(got - expected) < 1e-9


def test_integrate_budget_exhaustion_reports_estimate():
    rough = lambda x: np.sin(1.0 / (x + 1e-8))
    with pytest.raises(ConvergenceError) as err:
        integrate(rough, QuadratureSpec(0.0, 1.0, abs_tol=1e-14, max_subdivisions=64))
    assert math.isfinite(err.value.estimate)
    assert err.value.residual > 0.0


def test_integrate_rejects_bad_spec_and_integrand():
    with pytest.raises(DomainError):
        QuadratureSpec(1.0, 0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(0.0, 1.0, abs_tol=0.0)
    with pytest.raises(DomainError):
        integrate(lambda x: np.full_like(x, np.nan), QuadratureSpec(0.0, 1.0))


def test_pdf_is_density_of_cdf():
    h = 1e-6
    for x in (-2.0, -0.5, 0.0, 1.5, 3.0):
        fd = (std_normal_cdf(x + h) - std_normal_cdf(x - h)) / (2.0 * h)
        assert abs(fd - std_normal_pdf(x)) < 1e-9
