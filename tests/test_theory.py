"""Checks for the analytic layer.

Oracles: direct Monte Carlo over latent points for the angle moments
and pattern probabilities, batched log-determinants of sampled Wishart
matrices, and closed forms at d = 2 where the angle is uniform.
"""

import math

import numpy as np
import pytest

from softrgg.model import sample_latent, substream
from softrgg.specfun import DomainError, QuadratureSpec, digamma, integrate
from softrgg.stats import (
    CHERRY_PATTERN,
    FOUR_CYCLE_PATTERN,
    QUAD_PATH_PATTERN,
    TRIANGLE_PATTERN,
    signed_pattern_estimate,
    subgraph_probability_estimate,
)
from softrgg.theory import (
    ETA_SCALED_LOWER,
    ETA_SCALED_UPPER,
    GAMMA_SCALED_LOWER,
    GAMMA_SCALED_UPPER,
    PhasePoint,
    SingularWishartError,
    dotproduct_bound_predicates,
    dotproduct_scaled_stability,
    eta_d,
    gamma_d,
    half_moment_table,
    logdet_deficit_bound,
    mean_cos_squared,
    phase_classify,
    signed_triangle_mean_bounds,
    threshold_gap_constants,
    threshold_gap_curve,
    tv_bound_report,
    wedge_conditional_square_estimate,
    wishart_logdet_mean,
    zeta_d,
)

LOG_SPACED_D = [2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 512, 1024, 2048, 4096]


def mc_angle_moments(d, reps, seed):
    """Estimate (gamma, eta) straight from sampled point pairs."""
    rng = substream(seed, 17)
    x = sample_latent(reps, d, "sphere", rng).data
    y = sample_latent(reps, d, "sphere", rng).data
    theta = np.arccos(np.clip(np.einsum("ij,ij->i", x, y), -1.0, 1.0))
    gaps = math.pi / 2.0 - theta
    g_vals = np.maximum(0.0, gaps) / (2.0 * math.pi)
    e_vals = gaps**2 / (4.0 * math.pi**2)
    out = []
    for vals in (g_vals, e_vals):
        out.append((float(vals.mean()), float(vals.std(ddof=1)) / math.sqrt(reps)))
    return out


def test_zeta_closed_forms():
    assert zeta_d(2) == pytest.approx(math.pi, abs=1e-12)
    assert zeta_d(3) == pytest.approx(2.0, abs=1e-12)
    assert zeta_d(4) == pytest.approx(math.pi / 2.0, abs=1e-12)
    with pytest.raises(DomainError):
        zeta_d(1)


def test_angle_densities_integrate_to_one():
    # The angle between two uniform points has density sin^{d-2} / zeta_d.
    for d in range(2, 129):
        zeta = zeta_d(d)
        total = integrate(lambda t: np.sin(t) ** (d - 2) / zeta,
                          QuadratureSpec(0.0, math.pi, abs_tol=1e-10))
        assert abs(total - 1.0) <= 1e-9


def test_gamma_eta_d2_closed_forms():
    assert gamma_d(2) == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert eta_d(2) == pytest.approx(1.0 / 48.0, abs=1e-12)


def test_gamma_eta_brackets_and_monotone_trend():
    prev_g = prev_e = float("inf")
    for d in LOG_SPACED_D:
        g_scaled = gamma_d(d) * math.sqrt(d)
        e_scaled = eta_d(d) * d
        assert GAMMA_SCALED_LOWER <= g_scaled <= GAMMA_SCALED_UPPER
        assert ETA_SCALED_LOWER <= e_scaled <= ETA_SCALED_UPPER
        assert g_scaled <= prev_g + 1e-12
        assert e_scaled <= prev_e + 1e-12
        prev_g, prev_e = g_scaled, e_scaled


def test_cos_squared_identity():
    for d in range(2, 65):
        assert abs(mean_cos_squared(d) - 1.0 / d) <= 1e-10


def test_angle_moments_match_direct_sampling():
    (g_est, g_se), (e_est, e_se) = mc_angle_moments(16, reps=200_000, seed=3)
    assert abs(g_est - gamma_d(16)) <= 3.0 * g_se
    assert abs(e_est - eta_d(16)) <= 3.0 * e_se


def test_half_moment_table_field_formulas():
    for d in (2, 8, 32, 128):
        tab = half_moment_table(d)
        g, e = tab.gamma, tab.eta
        assert tab.triangle_prob == 0.125 + g
        assert tab.quad_path_prob == 0.0625 + e
        assert tab.house_prob == 0.03125 + g / 2.0 + e / 2.0
        assert tab.quadrilateral_mean == e
        assert tab.q1_lower < tab.q1_upper
        assert 0.0 < tab.q1_lower and tab.q1_upper < 1.0


def test_half_moment_table_d2_closed_forms():
    tab = half_moment_table(2)
    assert tab.triangle_prob == pytest.approx(3.0 / 16.0, abs=1e-11)
    assert tab.quad_path_prob == pytest.approx(1.0 / 12.0, abs=1e-11)
    assert tab.house_prob == pytest.approx(7.0 / 96.0, abs=1e-11)
    assert tab.quadrilateral_mean == pytest.approx(1.0 / 48.0, abs=1e-11)


def test_four_point_signed_mean_excess_is_order_one_over_d():
    # The full four-clique signed mean equals the six-edge excess minus
    # gamma/2 + (3/4) eta; both bracket endpoints must sit inside
    # [-1/d, 1/d] once d is moderately large.
    for d in (16, 64, 256, 1024):
        tab = half_moment_table(d)
        shift = tab.gamma / 2.0 + 0.75 * tab.eta + 1.0 / 64.0
        lo = tab.q1_lower - shift
        hi = tab.q1_upper - shift
        assert -1.0 / d <= lo <= hi <= 1.0 / d


def test_table_matches_mc_pattern_probabilities():
    d, reps = 16, 300_000
    tab = half_moment_table(d)
    tri, tri_se = subgraph_probability_estimate("sphere", 0.5, d, TRIANGLE_PATTERN,
                                                reps=reps, seed=41)
    quad, quad_se = subgraph_probability_estimate("sphere", 0.5, d, QUAD_PATH_PATTERN,
                                                  reps=reps, seed=42)
    cyc, cyc_se = signed_pattern_estimate("sphere", 0.5, d, 1.0, FOUR_CYCLE_PATTERN,
                                          reps=reps, seed=43)
    assert abs(tri - tab.triangle_prob) <= 3.0 * tri_se
    assert abs(quad - tab.quad_path_prob) <= 3.0 * quad_se
    assert abs(cyc - tab.quadrilateral_mean) <= 3.0 * cyc_se


def test_triangle_mean_bounds_half():
    b = signed_triangle_mean_bounds(3, 0.5, 64, 1.0)
    assert b.method == "closed-form"
    assert b.lower == pytest.approx(GAMMA_SCALED_LOWER / 8.0, abs=1e-15)
    assert b.upper == pytest.approx(GAMMA_SCALED_UPPER / 8.0, abs=1e-15)
    est, se = signed_pattern_estimate("sphere", 0.5, 64, 1.0, TRIANGLE_PATTERN,
                                      reps=300_000, seed=44)
    assert b.lower - 3.0 * se <= est <= b.upper + 3.0 * se


def test_triangle_mean_bounds_scaling_and_degenerate():
    b1 = signed_triangle_mean_bounds(10, 0.5, 32, 0.4)
    b2 = signed_triangle_mean_bounds(10, 0.5, 32, 0.8)
    assert b2.lower / b1.lower == pytest.approx(8.0, rel=1e-12)
    assert b2.upper / b1.upper == pytest.approx(8.0, rel=1e-12)
    b0 = signed_triangle_mean_bounds(10, 0.5, 32, 0.0)
    assert b0.lower == 0.0 and b0.upper == 0.0


def test_triangle_mean_bounds_measured():
    b = signed_triangle_mean_bounds(6, 0.3, 128, 0.5)
    assert b.method == "measured"
    assert b.upper is None
    assert b.lower > 0.0
    again = signed_triangle_mean_bounds(6, 0.3, 128, 0.5)
    assert again == b


def test_threshold_gap_constants_frozen():
    gc = threshold_gap_constants(0.3)
    assert gc.min_dimension == 6
    assert gc.upper == pytest.approx(2.3008829274114335, abs=1e-9)
    assert gc.lower == pytest.approx(-27.306738667369448, abs=1e-9)
    with pytest.raises(DomainError):
        threshold_gap_constants(0.7)


def test_threshold_gap_curve_within_constants():
    gc = threshold_gap_constants(0.3)
    curve = threshold_gap_curve(0.3, (16, 64, 256, 1024))
    # The gap is positive at p < 1/2, so the binding side is `upper`.
    for d, scaled in curve:
        assert gc.lower <= scaled <= gc.upper
    values = [v for _, v in curve]
    assert values == sorted(values, reverse=True)


def test_tv_bound_report_terms():
    r = tv_bound_report(100, 0.5, 1000, 0.001)
    assert r.tv_weak_noise == pytest.approx(0.05)
    assert r.kl_edgewise == pytest.approx(4950 * 1e-6)
    assert r.weak_noise_valid and r.kl_valid and r.structural_valid
    zero = tv_bound_report(20, 0.3, 50, 0.0)
    assert zero.tv_weak_noise == 0.0
    assert zero.kl_edgewise == 0.0
    assert zero.structural_terms == (0.0, 0.0, 0.0)
    assert zero.mixture_terms[1] == 0.0
    invalid = tv_bound_report(100, 0.5, 150, 0.9)
    assert not invalid.weak_noise_valid
    assert not invalid.structural_valid


def test_structural_term_ordering():
    # With d >= n, the middle structural term is below the last exactly
    # when nq >= 1.
    for n in (10, 50, 200):
        for d in (n, 4 * n, 100 * n):
            for q in (0.001, 0.01, 0.1, 0.9):
                r = tv_bound_report(n, 0.5, d, q)
                _, mid, last = r.structural_terms
                if n * q >= 1.0:
                    assert mid <= last + 1e-15
                else:
                    assert mid >= last - 1e-15


def test_phase_classify_examples():
    assert phase_classify(PhasePoint(4.0, 0.1)) == "Impossible"
    assert phase_classify(PhasePoint(1.0, 0.2)) == "Possible"
    assert phase_classify(PhasePoint(1.0, 0.5)) == "Unknown"
    # Boundary cases sit in Unknown because the regions are open.
    assert phase_classify(PhasePoint(1.0, 1.0)) == "Unknown"
    assert phase_classify(PhasePoint(1.2, 0.3)) == "Unknown"
    with pytest.raises(DomainError):
        PhasePoint(0.0, 0.5)


def test_phase_regions_disjoint_on_grid():
    alphas = np.arange(0.05, 5.0001, 0.05)
    betas = np.arange(0.05, 2.0001, 0.05)
    for a in alphas:
        for b in betas:
            a_f, b_f = float(a), float(b)
            impossible = b_f > 1.0 or a_f + 2.0 * b_f > 3.0
            possible = a_f + 6.0 * b_f < 3.0
            assert not (impossible and possible)
            label = phase_classify(PhasePoint(a_f, b_f))
            if impossible:
                assert label == "Impossible"
            elif possible:
                assert label == "Possible"
            else:
                assert label == "Unknown"


def test_wishart_logdet_frozen_and_chi2():
    w = wishart_logdet_mean(1, 2)
    assert w.logdet_mean == pytest.approx(math.log(2.0) - 0.5772156649015329,
                                          abs=1e-12)
    for d in (4, 40, 400):
        mean_log = wishart_logdet_mean(1, d).logdet_mean
        # n = 1: the log-mean of one chi-square(d), digamma(d/2) + log 2.
        assert mean_log == pytest.approx(digamma(d / 2) + math.log(2), abs=1e-12)
        assert mean_log >= math.log(d) - 2.0 / d


def test_wishart_logdet_matches_mc():
    n, d, reps = 4, 32, 10_000
    rng = substream(90125, 3)
    z = rng.standard_normal((reps, n, d))
    w = z @ z.transpose(0, 2, 1)
    sign, logdet = np.linalg.slogdet(w)
    assert np.all(sign > 0)
    se = float(logdet.std(ddof=1)) / math.sqrt(reps)
    expected = wishart_logdet_mean(n, d).logdet_mean
    assert abs(float(logdet.mean()) - expected) <= 3.0 * se


def test_wishart_singular_and_deficit_bound():
    with pytest.raises(SingularWishartError):
        wishart_logdet_mean(5, 4)
    with pytest.raises(DomainError):
        logdet_deficit_bound(8, 15)
    for n in (2, 5, 9, 16):
        for d in (2 * n, 4 * n, 64, 512):
            if d < 2 * n:
                continue
            deficit = wishart_logdet_mean(n, d).normalized_deficit
            assert 0.0 < deficit <= logdet_deficit_bound(n, d)


def test_wedge_conditional_square_bound():
    est, se = wedge_conditional_square_estimate(0.3, 64, reps=150_000, seed=5)
    assert est >= 0.0
    assert est <= 80.0 / 64 + 3.0 * se


def test_dotproduct_predicates_and_stability():
    reports = []
    for d, seed in ((64, 51), (256, 52)):
        wedge = subgraph_probability_estimate("gauss", 0.3, d, CHERRY_PATTERN,
                                              reps=250_000, seed=seed)
        tri = subgraph_probability_estimate("gauss", 0.3, d, TRIANGLE_PATTERN,
                                            reps=250_000, seed=seed + 100)
        r = dotproduct_bound_predicates(0.3, d, wedge, tri)
        assert r.wedge_pass
        assert r.triangle_positive
        assert r.scaled_excess > 0.0
        reports.append(r)
    assert dotproduct_scaled_stability(reports)


def test_dotproduct_wedge_exact_at_half():
    # At p = 1/2 the two wedge edges are conditionally independent fair
    # coins, so the probability is exactly 1/4 and the slack vanishes.
    wedge = subgraph_probability_estimate("gauss", 0.5, 16, CHERRY_PATTERN,
                                          reps=200_000, seed=61)
    assert abs(wedge[0] - 0.25) <= 3.0 * wedge[1]
