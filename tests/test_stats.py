"""Statistic-kernel checks against brute-force enumeration.

The production kernels reduce every signed statistic to integer class
counts.  The oracles here recount from scratch with itertools loops and
feed the same closed-form evaluator, so agreement is asserted exactly,
with no float tolerance.
"""

import math
from itertools import combinations, permutations

import numpy as np
import pytest

from softrgg.model import (
    AdjacencySample,
    ModelParams,
    edge_marginal_estimate,
    sample_graph,
    substream,
)
from softrgg.specfun import DomainError
from softrgg.stats import (
    CHERRY_PATTERN,
    FOUR_CYCLE_PATTERN,
    TRIANGLE_PATTERN,
    UnsupportedOrderError,
    _table_histogram,
    canonical_cycles,
    clique_edge_histogram,
    cycle_edge_histogram,
    er_cycle_variance,
    signed_clique_stat,
    signed_cycle_stat,
    signed_pattern_estimate,
    signed_triangle_stat,
    signed_weight_sum,
    subgraph_probability_estimate,
)


def brute_triangle_counts(sample):
    adj = sample.to_dense()
    n = sample.n
    counts = [0, 0, 0, 0]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                counts[adj[i, j] + adj[i, k] + adj[j, k]] += 1
    return counts


def brute_clique_histogram(sample, k):
    adj = sample.to_dense()
    hist = [0] * (k * (k - 1) // 2 + 1)
    for subset in combinations(range(sample.n), k):
        present = sum(adj[a, b] for a, b in combinations(subset, 2))
        hist[present] += 1
    return hist


def distinct_cycles(k):
    """All Hamilton cycles of range(k) as frozensets of edges."""
    seen = set()
    for perm in permutations(range(k)):
        edges = frozenset(
            (min(a, b), max(a, b)) for a, b in zip(perm, perm[1:] + perm[:1])
        )
        seen.add(edges)
    return seen


def brute_cycle_histogram(sample, k):
    adj = sample.to_dense()
    cycles = distinct_cycles(k)
    hist = [0] * (k + 1)
    for subset in combinations(range(sample.n), k):
        for cycle in cycles:
            present = sum(adj[subset[a], subset[b]] for a, b in cycle)
            hist[present] += 1
    return hist


def random_graphs(count, n, p, master_seed):
    params = ModelParams(n=n, p=p)
    return [sample_graph(params, "er", seed=master_seed + r) for r in range(count)]


def test_signed_weight_sum_tiny_cases():
    # One instance with its single edge present, one with it absent.
    assert signed_weight_sum([0, 1], 0.3, 1) == 0.7
    assert signed_weight_sum([1, 0], 0.3, 1) == -0.3
    with pytest.raises(DomainError):
        signed_weight_sum([1, 0], 0.3, 2)


def test_triangle_stat_equals_enumeration_exactly():
    rng = np.random.default_rng(42)
    for _ in range(500):
        n = int(rng.integers(3, 13))
        p = float(rng.uniform(0.05, 0.95))
        g = sample_graph(ModelParams(n=n, p=0.37), "er", seed=int(rng.integers(1 << 30)))
        expected = signed_weight_sum(brute_triangle_counts(g), p, 3)
        got = signed_triangle_stat(g, p)
        assert got.value == expected
        assert got.kind == "signed-triangle" and got.k == 3


def test_triangle_stat_on_complete_and_empty():
    n = 6
    complete = AdjacencySample.from_edges(n, list(combinations(range(n), 2)))
    empty = AdjacencySample.from_edges(n, [])
    p = 0.5
    assert signed_triangle_stat(complete, p).value == math.comb(n, 3) * 0.125
    assert signed_triangle_stat(empty, p).value == math.comb(n, 3) * (-0.125)


def test_triangle_stat_below_three_vertices_is_zero():
    for n, edges in ((1, []), (2, []), (2, [(0, 1)])):
        g = AdjacencySample.from_edges(n, edges)
        assert signed_triangle_stat(g, 0.3).value == 0.0


def test_clique_stat_equals_enumeration_exactly():
    for g in random_graphs(40, 9, 0.4, master_seed=7000):
        for k in range(3, 9):
            hist = clique_edge_histogram(g, k)
            assert list(hist) == brute_clique_histogram(g, k)
            got = signed_clique_stat(g, 0.37, k)
            assert got.value == signed_weight_sum(hist, 0.37, k * (k - 1) // 2)


def test_clique_k3_matches_triangle_exactly():
    for g in random_graphs(100, 10, 0.5, master_seed=8000):
        assert signed_clique_stat(g, 0.37, 3).value == signed_triangle_stat(g, 0.37).value


def test_cycle_stat_equals_enumeration_exactly():
    # The 8-cycle oracle walks all 8! orderings per graph, so it sees 3 graphs.
    for r, g in enumerate(random_graphs(30, 8, 0.45, master_seed=9000)):
        for k in range(3, 9 if r < 3 else 8):
            hist = cycle_edge_histogram(g, k)
            assert list(hist) == brute_cycle_histogram(g, k)
            got = signed_cycle_stat(g, 0.29, k)
            assert got.value == signed_weight_sum(hist, 0.29, k)


def test_cycle_k3_equals_triangle():
    for g in random_graphs(50, 9, 0.5, master_seed=110):
        assert signed_cycle_stat(g, 0.41, 3).value == signed_triangle_stat(g, 0.41).value


@pytest.mark.parametrize("k", [3, 4, 5])
def test_closed_form_cycles_equal_table_and_brute_force(k):
    # Cycles of length 3..5 come from trace and degree counts; the
    # enumeration table and the itertools oracle must give the same vector.
    rng = np.random.default_rng(9100 + k)
    graphs = []
    for _ in range(200):
        n = int(rng.integers(k, 13))
        p = float(rng.uniform(0.05, 0.95))
        graphs.append(sample_graph(ModelParams(n=n, p=p), "er", seed=int(rng.integers(1 << 30))))
    for n in (k, 12):
        graphs.append(AdjacencySample.from_edges(n, []))
        graphs.append(AdjacencySample.from_edges(n, list(combinations(range(n), 2))))
    for g in graphs:
        hist = cycle_edge_histogram(g, k)
        assert hist.dtype == np.int64
        assert list(hist) == list(_table_histogram(g, k, "cycle")) == brute_cycle_histogram(g, k)


def test_closed_form_cycles_equal_table_on_soft_sphere_graph():
    g = sample_graph(ModelParams(n=40, p=0.3, d=6, q=0.8), "soft-sphere", seed=41)
    for k in (3, 4, 5):
        assert list(cycle_edge_histogram(g, k)) == list(_table_histogram(g, k, "cycle"))


def test_closed_form_counts_refused_before_allocation(monkeypatch):
    # Five n x n float64 work arrays fit the 1 GiB budget up to n = 5,181.
    def no_dense(self):
        raise AssertionError("dense adjacency built")

    monkeypatch.setattr(AdjacencySample, "to_dense", no_dense)
    big = AdjacencySample.from_edges(5182, [])
    for k in (3, 4, 5):
        with pytest.raises(DomainError, match="budget"):
            cycle_edge_histogram(big, k)
    with pytest.raises(DomainError, match="budget"):
        signed_triangle_stat(big, 0.5)
    with pytest.raises(AssertionError, match="dense adjacency built"):
        cycle_edge_histogram(AdjacencySample.from_edges(5181, []), 5)


def test_canonical_cycle_counts():
    for k in range(3, 9):
        cycles = canonical_cycles(k)
        assert len(cycles) == math.factorial(k - 1) // 2
        assert len(set(frozenset(c) for c in cycles)) == len(cycles)
        assert set(frozenset(c) for c in cycles) == distinct_cycles(k)


def test_four_cycle_frozen_value():
    # C4 at p = 1/2: the 3 Hamilton cycles contribute 1/16 each.
    g = AdjacencySample.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert signed_cycle_stat(g, 0.5, 4).value == 3.0 / 16.0


def test_unsupported_orders_raise():
    g = AdjacencySample.from_edges(5, [(0, 1)])
    for k in (2, 9, 20):
        with pytest.raises(UnsupportedOrderError):
            signed_clique_stat(g, 0.5, k)
        with pytest.raises(UnsupportedOrderError):
            signed_cycle_stat(g, 0.5, k)


def test_er_triangle_moments_match_theory():
    # Mean 0 within 3 SE and variance within 5% at (n, p) = (10, 0.3).
    n, p, reps = 10, 0.3, 100_000
    params = ModelParams(n=n, p=p)
    total = 0.0
    total_sq = 0.0
    for r in range(reps):
        v = signed_triangle_stat(sample_graph(params, "er", seed=r), p).value
        total += v
        total_sq += v * v
    mean = total / reps
    var = total_sq / reps - mean * mean
    expected_var = er_cycle_variance(n, p, 3)
    assert abs(mean) <= 3.0 * math.sqrt(var / reps)
    assert abs(var - expected_var) <= 0.05 * expected_var


def test_er_cycle_variance_matches_theory():
    n, p, k, reps = 12, 0.35, 4, 30_000
    params = ModelParams(n=n, p=p)
    total = 0.0
    total_sq = 0.0
    for r in range(reps):
        v = signed_cycle_stat(sample_graph(params, "er", seed=r), p, k).value
        total += v
        total_sq += v * v
    mean = total / reps
    var = total_sq / reps - mean * mean
    expected = er_cycle_variance(n, p, k)
    assert abs(mean) <= 3.0 * math.sqrt(var / reps)
    assert abs(var - expected) <= 0.06 * expected


def test_er_moment_formulas_frozen():
    assert er_cycle_variance(10, 0.3, 3) == pytest.approx(120 * 0.21**3)
    assert er_cycle_variance(12, 0.35, 4) == pytest.approx(
        math.perm(12, 4) / 8.0 * (0.35 * 0.65) ** 4
    )


def test_soft_edges_scale_signed_product_by_q_cubed():
    # Conditioned on the latents, each centered edge has mean q (h_e - p),
    # so the signed triangle product has mean q^3 prod (h_e - p).
    p, q = 0.3, 0.6
    h = np.array([1, 0, 1])
    target = q**3 * np.prod(h - p)
    rng = substream(314, 9)
    reps = 400_000
    probs = (1.0 - q) * p + q * h
    draws = rng.random((reps, 3)) < probs
    prods = np.prod(draws - p, axis=1)
    se = float(np.std(prods, ddof=1)) / math.sqrt(reps)
    assert abs(float(np.mean(prods)) - target) <= 3.0 * se


def test_pattern_estimates_match_d2_closed_forms():
    # At d = 2 the half-plane geometry gives P(triangle) = 1/8 + 1/16 and
    # E[signed triangle] = 1/16 at p = 1/2 in the hard model.
    mean, se = subgraph_probability_estimate("sphere", 0.5, 2, TRIANGLE_PATTERN,
                                             reps=200_000, seed=21)
    assert abs(mean - (0.125 + 0.0625)) <= 3.0 * se
    mean, se = signed_pattern_estimate("sphere", 0.5, 2, 1.0, TRIANGLE_PATTERN,
                                       reps=200_000, seed=22)
    assert abs(mean - 0.0625) <= 3.0 * se


def test_signed_four_cycle_d2_closed_form():
    # E[prod over C4 edges of (a_e - 1/2)] = 1/48 at d = 2, hard model.
    mean, se = signed_pattern_estimate("sphere", 0.5, 2, 1.0, FOUR_CYCLE_PATTERN,
                                       reps=400_000, seed=23)
    assert abs(mean - 1.0 / 48.0) <= 3.0 * se


def test_cherry_pattern_probability_p_half():
    # Two edges from a shared apex are conditionally independent at p=1/2.
    mean, se = subgraph_probability_estimate("sphere", 0.5, 8, CHERRY_PATTERN,
                                             reps=200_000, seed=24)
    assert abs(mean - 0.25) <= 3.0 * se


def test_signed_pattern_estimate_determinism():
    a = signed_pattern_estimate("sphere", 0.4, 8, 0.7, TRIANGLE_PATTERN,
                                reps=10_000, seed=99)
    b = signed_pattern_estimate("sphere", 0.4, 8, 0.7, TRIANGLE_PATTERN,
                                reps=10_000, seed=99)
    assert a == b


def test_pattern_validation():
    with pytest.raises(DomainError):
        subgraph_probability_estimate("sphere", 0.5, 8, [], reps=10, seed=0)
    with pytest.raises(DomainError):
        subgraph_probability_estimate("sphere", 0.5, 8, [(0, 0)], reps=10, seed=0)
    with pytest.raises(DomainError):
        subgraph_probability_estimate("nope", 0.5, 8, TRIANGLE_PATTERN, reps=10, seed=0)
    with pytest.raises(DomainError):
        signed_pattern_estimate("sphere", 0.5, 8, 1.5, TRIANGLE_PATTERN, reps=10, seed=0)
    for reps in (0, -5):
        with pytest.raises(DomainError):
            subgraph_probability_estimate("sphere", 0.5, 8, TRIANGLE_PATTERN, reps=reps, seed=0)
        with pytest.raises(DomainError):
            signed_pattern_estimate("sphere", 0.5, 8, 0.5, TRIANGLE_PATTERN, reps=reps, seed=0)
        with pytest.raises(DomainError):
            edge_marginal_estimate(ModelParams(n=2, p=0.5, d=8), "er", reps=reps, seed=0)
