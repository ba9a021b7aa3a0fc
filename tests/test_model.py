"""Model-layer checks: thresholds, latent laws, sampler couplings.

Monte Carlo assertions use frozen seeds and 3-standard-error windows; the
threshold functions are cross-checked against their defining probabilities
rather than against stored numbers wherever a closed form is not available.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softrgg.model import (
    AdjacencySample,
    ModelParams,
    edge_marginal_estimate,
    gauss_exceed_prob,
    gauss_threshold,
    graph_from_dict,
    graph_to_dict,
    latent_from_dict,
    latent_to_dict,
    pair_index,
    sample_graph,
    sample_latent,
    sphere_exceed_prob,
    sphere_threshold,
    substream,
    thresholds,
    MODES,
    _bartlett_factor,
)
from softrgg.specfun import DomainError, reg_inc_beta, std_normal_quantile


def test_sphere_threshold_d2_closed_form():
    # At d = 2 the angle is uniform, so t_{p,2} = cos(p * pi).
    for p in (0.1, 0.25, 0.3, 0.5, 0.7, 0.9):
        assert abs(sphere_threshold(p, 2) - math.cos(p * math.pi)) < 1e-12


def test_sphere_threshold_sign_and_roundtrip():
    for p, d in product((0.1, 0.3, 0.5, 0.65, 0.9), (2, 8, 64, 1024)):
        t = sphere_threshold(p, d)
        assert math.copysign(1.0, 0.5 - p) == math.copysign(1.0, t) or t == 0.0
        assert abs(sphere_exceed_prob(t, d) - p) < 1e-9
    assert sphere_threshold(0.5, 64) == 0.0


def test_sphere_threshold_monte_carlo_exceedance():
    rng = substream(20240917, 1)
    for p, d in [(0.3, 16), (0.5, 64), (0.7, 32)]:
        t = sphere_threshold(p, d)
        reps = 200_000
        x = rng.standard_normal((reps, 2, d))
        x /= np.linalg.norm(x, axis=2, keepdims=True)
        s = np.einsum("bk,bk->b", x[:, 0, :], x[:, 1, :])
        freq = float(np.mean(s >= t))
        se = math.sqrt(p * (1.0 - p) / reps)
        assert abs(freq - p) <= 3.0 * se


def test_sphere_exceed_prob_small_tail_closed_forms():
    # d = 3: P = (1 - t)/2, so the tail at t = 1 - 2^-40 is exactly 2^-41;
    # d = 2: P = arccos(t)/pi.  Both tails are far below the rounding of 1 - P.
    t = 1.0 - 2.0**-40
    assert abs(sphere_exceed_prob(t, 3) / 2.0**-41 - 1.0) <= 1e-12
    assert sphere_exceed_prob(-t, 3) == 1.0 - sphere_exceed_prob(t, 3)
    t = 1.0 - 1e-12
    assert abs(sphere_exceed_prob(t, 2) / (math.acos(t) / math.pi) - 1.0) <= 1e-12


def test_sphere_threshold_deep_tail_is_below_one():
    # 1 - 2p rounds to 1 or loses digits at these p, so the upper tail must
    # be solved directly; t = 1.0 would let no hard edge fire.
    for p, d in product((1e-20, 1e-15, 1e-12), (16, 64, 1000)):
        t = sphere_threshold(p, d)
        assert t < 1.0
        assert abs(sphere_exceed_prob(t, d) / p - 1.0) <= 1e-9
    assert thresholds(1e-20, 64).t_p == -std_normal_quantile(1e-20)


@given(
    st.floats(min_value=-12.0, max_value=math.log10(0.5)),
    st.booleans(),
    st.floats(min_value=math.log10(2.0), max_value=6.0).map(lambda v: int(round(10.0**v))),
)
@settings(max_examples=200, deadline=None)
def test_sphere_threshold_relative_tail_property(log_tail, upper, d):
    # The smaller tail beyond t meets min(p, 1 - p) to a relative 1e-9, or
    # as closely as the doubles next to t allow (at d = 2 or 3 and tiny p,
    # t cannot be told from 1.0).
    p = 1.0 - 10.0**log_tail if upper else 10.0**log_tail
    small = min(p, 1.0 - p)
    t = abs(sphere_threshold(p, d))
    got = sphere_exceed_prob(t, d)
    ulp = max(abs(sphere_exceed_prob(math.nextafter(t, side), d) - got) for side in (0.0, 2.0))
    assert abs(got - small) <= 1e-9 * small + ulp


def test_delta_pd_scaled_decay_is_bounded():
    # d * |t_p - t_{p,d} sqrt(d)| stays below the explicit proof constant
    # and shrinks monotonically on a dyadic grid.
    p = 0.3
    t_p = std_normal_quantile(1.0 - p)
    t_half = std_normal_quantile(1.0 - p / 2.0)
    explicit_upper = 3.0 * (t_p + 2.0 * math.sqrt(2.0 * math.pi) * math.exp(0.5 * t_half**2))
    ds = [8 << k for k in range(10)]  # 8 .. 4096
    scaled = [d * abs(thresholds(p, d).delta_pd) for d in ds]
    assert all(0.0 < v <= explicit_upper for v in scaled)
    assert all(b <= a for a, b in zip(scaled, scaled[1:]))


def test_gauss_threshold_centering_and_probability():
    assert gauss_threshold(0.5, 16) == 0.0
    for p, d in [(0.3, 16), (0.3, 64), (0.1, 32)]:
        u = gauss_threshold(p, d)
        assert abs(gauss_exceed_prob(u, d) - p) <= 1e-9


def test_gauss_threshold_monte_carlo():
    rng = substream(20240917, 2)
    p, d = 0.3, 64
    u = gauss_threshold(p, d)
    reps = 400_000
    x = rng.standard_normal((reps, d))
    y = rng.standard_normal((reps, d))
    freq = float(np.mean(np.einsum("bk,bk->b", x, y) >= u))
    se = math.sqrt(p * (1.0 - p) / reps)
    assert abs(freq - p) <= 3.0 * se


def test_thresholds_rejects_degenerate_p():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            thresholds(p, 16)
        with pytest.raises(DomainError):
            sphere_threshold(p, 16)


def test_sample_latent_unit_norms_and_beta_law():
    rng = substream(20240917, 3)
    lat = sample_latent(200, 16, "sphere", rng)
    norms = np.linalg.norm(lat.data, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12

    # Kolmogorov-Smirnov at level 0.01: squared inner products of fresh
    # pairs follow Beta(1/2, (d-1)/2).
    n_pairs, d = 100_000, 16
    x = rng.standard_normal((n_pairs, 2, d))
    x /= np.linalg.norm(x, axis=2, keepdims=True)
    v = np.sort(np.einsum("bk,bk->b", x[:, 0, :], x[:, 1, :]) ** 2)
    cdf = np.array([reg_inc_beta(0.5, (d - 1) / 2.0, float(t)) for t in v])
    grid = np.arange(1, n_pairs + 1) / n_pairs
    ks = max(np.max(np.abs(cdf - grid)), np.max(np.abs(cdf - grid + 1.0 / n_pairs)))
    assert ks <= 1.628 / math.sqrt(n_pairs)


def test_sampler_determinism_and_seed_sensitivity():
    params = ModelParams(n=20, p=0.4, d=8, q=0.5)
    for mode in MODES:
        a = sample_graph(params, mode, seed=99)
        b = sample_graph(params, mode, seed=99)
        c = sample_graph(params, mode, seed=100)
        assert a == b
        assert a.bits.tobytes() != c.bits.tobytes() or a.edge_count() == c.edge_count()


def test_er_mode_degenerate_p_allowed():
    empty = sample_graph(ModelParams(n=5, p=0.0), "er", seed=1)
    full = sample_graph(ModelParams(n=5, p=1.0), "er", seed=1)
    assert empty.edge_count() == 0
    assert full.edge_count() == 10
    with pytest.raises(DomainError):
        sample_graph(ModelParams(n=5, p=0.0, d=8, q=1.0), "hard-sphere", seed=1)


def test_soft_q1_reproduces_hard_given_latent():
    params = ModelParams(n=30, p=0.3, d=12, q=1.0)
    hard, lat = sample_graph(params, "hard-sphere", seed=5, return_latent=True)
    soft = sample_graph(params, "soft-sphere", seed=777, latent=lat)
    resampled = sample_graph(params, "soft-sphere-resample", seed=888, latent=lat)
    assert np.array_equal(hard.edge_vector(), soft.edge_vector())
    assert np.array_equal(hard.edge_vector(), resampled.edge_vector())


def test_soft_q0_matches_er_statistics():
    # q = 0 must collapse to G(n, p): check the edge marginal and the
    # mean triangle count (n choose 3) p^3 over 10^4 samples.
    n, p, reps = 10, 0.5, 10_000
    params = ModelParams(n=n, p=p, d=4, q=0.0)
    edge_total = 0
    tri_total = 0.0
    tri_sq = 0.0
    for r in range(reps):
        g = sample_graph(params, "soft-sphere", seed=r)
        edge_total += g.edge_count()
        adj = g.to_dense()
        tri = np.trace(adj @ adj @ adj) / 6.0
        tri_total += tri
        tri_sq += tri * tri
    m_pairs = n * (n - 1) // 2
    edge_mean = edge_total / (reps * m_pairs)
    edge_se = math.sqrt(p * (1.0 - p) / (reps * m_pairs))
    assert abs(edge_mean - p) <= 3.0 * edge_se
    tri_mean = tri_total / reps
    tri_var = tri_sq / reps - tri_mean**2
    expected = math.comb(n, 3) * p**3
    assert abs(tri_mean - expected) <= 3.0 * math.sqrt(tri_var / reps)


def _eight_graph_probs_direct(h, p, q):
    """P(graph) under edge law (1-q)p + q*h_e, in exact rationals."""
    ks = [(1 - q) * p + q * h_e for h_e in h]
    return [
        math.prod(k if bit else 1 - k for k, bit in zip(ks, bits))
        for bits in product([1, 0], repeat=3)
    ]


def _eight_graph_probs_resample(h, p, q):
    """Same distribution via keep-with-q-else-redraw, exact rationals."""
    out = []
    for bits in product([1, 0], repeat=3):
        prob = Fraction(1)
        for h_e, bit in zip(h, bits):
            keep = q if h_e == bit else Fraction(0)
            redraw = (1 - q) * (p if bit else 1 - p)
            prob *= keep + redraw
        out.append(prob)
    return out


def test_resample_construction_identical_distribution():
    p, q = Fraction(3, 10), Fraction(3, 5)
    for h in product([0, 1], repeat=3):
        direct = _eight_graph_probs_direct([Fraction(v) for v in h], p, q)
        redraw = _eight_graph_probs_resample([Fraction(v) for v in h], p, q)
        assert direct == redraw
        assert sum(direct) == 1


def test_resample_sampler_matches_soft_frequencies():
    # Empirical 8-outcome frequencies of the redraw sampler against the
    # analytic soft probabilities, fixed latent triangle.
    params = ModelParams(n=3, p=0.3, d=6, q=0.6)
    _, lat = sample_graph(params, "hard-sphere", seed=31, return_latent=True)
    t = sphere_threshold(params.p, params.d)
    gram = lat.data @ lat.data.T
    h = [int(gram[i, j] >= t) for i, j in ((0, 1), (0, 2), (1, 2))]
    expected = _eight_graph_probs_direct(h, params.p, params.q)

    reps = 20_000
    counts = np.zeros(8, dtype=int)
    for r in range(reps):
        g = sample_graph(params, "soft-sphere-resample", seed=r, latent=lat)
        vec = g.edge_vector()
        idx = int(np.dot([4, 2, 1], 1 - vec.astype(int)))
        counts[idx] += 1
    for k in range(8):
        freq = counts[k] / reps
        se = math.sqrt(max(expected[k] * (1 - expected[k]), 1e-12) / reps)
        assert abs(freq - expected[k]) <= 3.5 * se


def test_edge_marginal_all_modes():
    params = ModelParams(n=2, p=0.3, d=32, q=0.5)
    for mode in MODES:
        mean, se = edge_marginal_estimate(params, mode, reps=1_000_000, seed=404)
        assert abs(mean - params.p) <= 3.0 * se


@pytest.mark.parametrize("m,d", [(4, 2), (3, 16), (4, 64)])
def test_bartlett_factor_has_wishart_moments(m, d):
    # R^T R is Wishart(d, I_m): G_ii ~ chi^2(d), and G_ij for i != j has
    # mean 0 and variance d.  Each moment is checked at 3 SE per entry.
    b = 200_000
    r = min(m, d)
    R = _bartlett_factor(b, m, d, substream(4040, m, d))
    assert R.shape == (r, m, b)
    for i in range(r):
        assert np.all(R[i, :i] == 0.0)
        assert np.all(R[i, i] > 0.0)
    G = np.einsum("rib,rjb->ijb", R, R)
    for i in range(m):
        for j in range(i, m):
            g = G[i, j]
            mean, var = (d, 2 * d) if i == j else (0, d)
            sq = (g - mean) ** 2
            assert abs(g.mean() - mean) <= 3 * g.std() / math.sqrt(b), (i, j)
            assert abs(sq.mean() - var) <= 3 * sq.std() / math.sqrt(b), (i, j)


def test_pair_index_matches_triu_order():
    n = 9
    iu, ju = np.triu_indices(n, 1)
    for k, (i, j) in enumerate(zip(iu, ju)):
        assert pair_index(int(i), int(j), n) == k
    with pytest.raises(DomainError):
        pair_index(3, 3, 9)


def test_graph_json_round_trip_and_validation():
    params = ModelParams(n=14, p=0.4, d=8, q=0.7)
    g = sample_graph(params, "soft-sphere", seed=2024)
    doc = graph_to_dict(g, params.p)
    back, p = graph_from_dict(doc)
    assert back == g and p == params.p
    with pytest.raises(DomainError):
        graph_from_dict({"n": 3, "p": 0.5, "edges": [[0, 0]]})
    with pytest.raises(DomainError):
        graph_from_dict({"n": 3, "p": 1.5, "edges": []})
    with pytest.raises(DomainError):
        graph_from_dict({"n": 3, "p": 0.5, "edges": [[0, 1], [0, 1]]})
    # Integral floats load; fractional numbers and booleans are not truncated.
    back, _ = graph_from_dict({"n": 3.0, "p": 0.5, "seed": 2.0, "edges": [[0, 2.0]]})
    assert back == AdjacencySample.from_edges(3, [(0, 2)], seed=2)
    for doc in (
        {"n": 3.9, "p": 0.5, "edges": []},
        {"n": True, "p": 0.5, "edges": []},
        {"n": 3, "p": 0.5, "seed": 2.7, "edges": []},
        {"n": 3, "p": 0.5, "seed": False, "edges": []},
        {"n": 3, "p": 0.5, "edges": [[0, 2.9]]},
        {"n": 3, "p": 0.5, "edges": [[True, 2]]},
    ):
        with pytest.raises(DomainError):
            graph_from_dict(doc)


def test_model_params_refuse_booleans():
    ModelParams(n=1, p=0, d=1, q=1)
    for field in ("n", "p", "d", "q"):
        with pytest.raises(DomainError):
            ModelParams(**{"n": 1, "p": 0, "d": 1, "q": 1, field: True})
    with pytest.raises(DomainError):
        ModelParams(n=True, p=False, d=True, q=True)


def test_latent_round_trip():
    rng = substream(6, 0)
    lat = sample_latent(5, 7, "sphere", rng)
    back = latent_from_dict(latent_to_dict(lat))
    assert back.kind == lat.kind
    assert np.array_equal(back.data, lat.data)
    doc = latent_to_dict(lat)
    for key, bad in (("n", 5.5), ("d", True)):
        with pytest.raises(DomainError):
            latent_from_dict({**doc, key: bad})


def test_adjacency_sample_guards():
    with pytest.raises(DomainError):
        AdjacencySample.from_edges(4, [(0, 4)])
    with pytest.raises(DomainError):
        AdjacencySample(4, np.zeros(99, dtype=np.uint8), "er", 0)
    # n(n - 1)/2 >= 0 for every integer n, so the buffer size alone lets n < 0 in.
    with pytest.raises(DomainError):
        AdjacencySample(-1, np.zeros(1, dtype=np.uint8), "er", 0)
    with pytest.raises(DomainError):
        AdjacencySample.from_edges(-1, [])
    # Vertex labels are refused, not truncated, unless integral.
    for edge in ((0, 2.9), (True, 2), (np.bool_(True), 2), ("0", 2), (0.5, 2)):
        with pytest.raises(DomainError):
            AdjacencySample.from_edges(4, [edge])
    assert AdjacencySample.from_edges(4, [(np.int64(1), 2.0)]).edges() == [(1, 2)]
