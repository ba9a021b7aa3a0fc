"""Signed subgraph statistics and latent-pattern Monte Carlo.

The signed statistics are sums of products of centered edge indicators
(a_e - p) over small vertex sets.  Every such product depends on the edge
pattern only through how many of its edges are present, so each statistic
is computed here from integer counts: the number of k-subsets (or cycles)
in each present-edge class.  The counts come from exact integer arithmetic
(trace and degree moments for triangles, histograms of packed-edge lookups
for cliques and cycles), and a single shared evaluator maps a count vector
to the float value.  Two consequences the tests rely on: results are exact,
and any two routes that agree on the counts agree bit for bit.

Monte Carlo estimators for latent edge patterns live here too.  Both read
the one latent-pattern kernel, :func:`softrgg.model.pattern_class_histogram`,
which draws fresh latents in vectorized batches and applies the sampler's
edge law, so a pattern probability is its top bin and a signed pattern
mean is its class histogram weighted as above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .model import (
    AdjacencySample,
    _top_bin_estimate,
    pair_index,
    pattern_class_histogram,
    substream,
)
from .specfun import DomainError

__all__ = [
    "StatisticValue",
    "UnsupportedOrderError",
    "MIN_ORDER",
    "MAX_ORDER",
    "TRIANGLE_PATTERN",
    "CHERRY_PATTERN",
    "FOUR_CYCLE_PATTERN",
    "QUAD_PATH_PATTERN",
    "DIAMOND_PATTERN",
    "signed_weight_sum",
    "signed_triangle_stat",
    "signed_clique_stat",
    "signed_cycle_stat",
    "plain_clique_count",
    "clique_edge_histogram",
    "cycle_edge_histogram",
    "canonical_cycles",
    "er_triangle_variance",
    "er_cycle_variance",
    "subgraph_probability_estimate",
    "signed_pattern_estimate",
]

MIN_ORDER = 3
MAX_ORDER = 8

# Largest enumeration index table, in bytes, that a statistic may build.
INDEX_TABLE_BUDGET = 1 << 30

TRIANGLE_PATTERN = ((0, 1), (0, 2), (1, 2))
CHERRY_PATTERN = ((0, 1), (0, 2))
FOUR_CYCLE_PATTERN = ((0, 1), (1, 2), (2, 3), (0, 3))
# The 4-cycle 0-2-1-3 written as two vertex pairs sharing two neighbours.
QUAD_PATH_PATTERN = ((0, 2), (1, 2), (0, 3), (1, 3))
DIAMOND_PATTERN = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3))


class UnsupportedOrderError(DomainError):
    """Requested subgraph order is outside the supported 3..8 range."""


@dataclass(frozen=True)
class StatisticValue:
    kind: str
    k: int
    value: float
    method: str


def signed_weight_sum(counts, p: float, n_edges: int) -> float:
    """Map integer present-edge class counts to the signed statistic value.

    counts[e] is the number of instances with exactly e of the n_edges
    pattern edges present; each contributes (1-p)^e (-p)^(n_edges - e).
    Shared by every signed statistic so that agreement on counts is
    agreement on values, exactly.
    """
    if len(counts) != n_edges + 1:
        raise DomainError(
            f"count vector has length {len(counts)}, expected {n_edges + 1}"
        )
    total = 0.0
    for present, c in enumerate(counts):
        if c:
            total += c * (1.0 - p) ** present * (-p) ** (n_edges - present)
    return total


def _check_order(k):
    if not MIN_ORDER <= k <= MAX_ORDER:
        raise UnsupportedOrderError(
            f"subgraph order k={k} unsupported; expected {MIN_ORDER} <= k <= {MAX_ORDER}"
        )


def _triangle_class_counts(sample: AdjacencySample):
    """Integer counts (N0, N1, N2, N3) of triples by present-edge class.

    N3 comes from tr(A^3)/6.  The matrix powers run in float64, which is
    exact here: every intermediate is an integer below 2^53 for any n this
    package handles.
    """
    n = sample.n
    adj = sample.to_dense().astype(float)
    deg = adj.sum(axis=1)
    m = int(deg.sum()) // 2
    tr_a3 = float(np.sum((adj @ adj) * adj))
    n3 = int(round(tr_a3)) // 6
    paths2 = int(round(float(np.sum(deg * (deg - 1.0))))) // 2
    n2 = paths2 - 3 * n3
    n1 = m * (n - 2) - 2 * paths2 + 3 * n3
    n0 = math.comb(n, 3) - n3 - n2 - n1
    return n0, n1, n2, n3


def signed_triangle_stat(sample: AdjacencySample, p: float) -> StatisticValue:
    """tau_3 = sum over vertex triples of prod (a_e - p).

    Equals tr(Abar^3)/6 for the zero-diagonal centered adjacency matrix;
    evaluated through exact triple-class counts.
    """
    counts = _triangle_class_counts(sample)
    value = signed_weight_sum(counts, p, 3)
    return StatisticValue(kind="signed-triangle", k=3, value=value, method="trace")


def _check_table_budget(rows: int, cols: int, what: str) -> None:
    nbytes = rows * cols * 8
    if nbytes > INDEX_TABLE_BUDGET:
        raise DomainError(
            f"{what} index table would take {nbytes} bytes, above the "
            f"{INDEX_TABLE_BUDGET}-byte budget"
        )


@lru_cache(maxsize=64)
def _subset_pair_indices(n: int, k: int):
    """Packed-edge indices of all pairs inside each k-subset of range(n)."""
    _check_table_budget(math.comb(n, k), k * (k - 1) // 2, f"n={n}, k={k} clique")
    subsets = list(combinations(range(n), k))
    idx = np.empty((len(subsets), k * (k - 1) // 2), dtype=np.int64)
    for row, subset in enumerate(subsets):
        idx[row] = [pair_index(a, b, n) for a, b in combinations(subset, 2)]
    return idx


def _table_histogram(sample: AdjacencySample, idx: np.ndarray) -> np.ndarray:
    """Histogram over index-table rows of how many of their edges are present."""
    n_edges = idx.shape[1]
    vec = sample.edge_vector().astype(np.int64)
    hist = np.zeros(n_edges + 1, dtype=np.int64)
    for start in range(0, idx.shape[0], 8192):
        present = vec[idx[start : start + 8192]].sum(axis=1)
        hist += np.bincount(present, minlength=n_edges + 1)
    return hist


def clique_edge_histogram(sample: AdjacencySample, k: int) -> np.ndarray:
    """Histogram over k-subsets of how many of their k(k-1)/2 edges are present."""
    _check_order(k)
    return _table_histogram(sample, _subset_pair_indices(sample.n, k))


def signed_clique_stat(sample: AdjacencySample, p: float, k: int) -> StatisticValue:
    """tau_S summed over all k-subsets: prod over subset pairs of (a_e - p)."""
    hist = clique_edge_histogram(sample, k)
    value = signed_weight_sum(hist, p, k * (k - 1) // 2)
    return StatisticValue(
        kind="signed-clique", k=k, value=value, method="subset-histogram"
    )


def plain_clique_count(sample: AdjacencySample, k: int) -> int:
    """Number of complete k-subsets (k-cliques)."""
    hist = clique_edge_histogram(sample, k)
    return int(hist[-1])


@lru_cache(maxsize=16)
def canonical_cycles(k: int):
    """The (k-1)!/2 Hamilton cycles of a k-set as position-pair tuples.

    The first position is pinned and each reversal pair is represented
    once by requiring the second position to be smaller than the last.
    """
    _check_order(k)
    cycles = []
    for perm in permutations(range(1, k)):
        if perm[0] > perm[-1]:
            continue
        order = (0,) + perm
        edges = tuple(
            (min(a, b), max(a, b))
            for a, b in zip(order, order[1:] + (order[0],))
        )
        cycles.append(edges)
    return tuple(cycles)


@lru_cache(maxsize=64)
def _cycle_pair_indices(n: int, k: int):
    """Packed-edge indices for every (k-subset, Hamilton cycle) pair."""
    cycles = canonical_cycles(k)
    _check_table_budget(math.comb(n, k) * len(cycles), k, f"n={n}, k={k} cycle")
    subsets = list(combinations(range(n), k))
    idx = np.empty((len(subsets) * len(cycles), k), dtype=np.int64)
    row = 0
    for subset in subsets:
        for cycle in cycles:
            idx[row] = [
                pair_index(subset[a], subset[b], n) for a, b in cycle
            ]
            row += 1
    return idx


def cycle_edge_histogram(sample: AdjacencySample, k: int) -> np.ndarray:
    """Histogram over (k-subset, cycle) instances of present cycle edges."""
    _check_order(k)
    return _table_histogram(sample, _cycle_pair_indices(sample.n, k))


def signed_cycle_stat(sample: AdjacencySample, p: float, k: int) -> StatisticValue:
    """kappa_k: sum over k-subsets and their Hamilton cycles of prod (a_e - p)."""
    hist = cycle_edge_histogram(sample, k)
    value = signed_weight_sum(hist, p, k)
    return StatisticValue(
        kind="signed-cycle", k=k, value=value, method="cycle-histogram"
    )


def er_triangle_variance(n: int, p: float) -> float:
    """Var[tau_3] under G(n, p): (n choose 3) p^3 (1-p)^3."""
    return math.comb(n, 3) * (p * (1.0 - p)) ** 3


def er_cycle_variance(n: int, p: float, k: int) -> float:
    """Var[kappa_k] under G(n, p): n!/((n-k)! 2k) (p(1-p))^k."""
    _check_order(k)
    ordered = math.perm(n, k)
    return ordered / (2 * k) * (p * (1.0 - p)) ** k


# The estimators below run the soft law of the matching geometric mode.
_KIND_MODES = {"sphere": "soft-sphere", "gauss": "dot-product"}


def _pattern_histogram(latent_kind, p, d, q, pattern, reps, rng):
    if latent_kind not in _KIND_MODES:
        raise DomainError(f"unknown latent kind {latent_kind!r}")
    return pattern_class_histogram(_KIND_MODES[latent_kind], p, d, q, pattern, reps, rng)


def subgraph_probability_estimate(latent_kind: str, p: float, d: int, pattern,
                                  reps: int, seed: int):
    """Monte Carlo (mean, se) of P(all pattern edges present) in the hard model.

    Latent points are redrawn each replicate; edges are deterministic given
    the latents (q = 1).  The pattern is a tuple of vertex pairs over
    0..m-1 with m inferred from the labels.
    """
    hist = _pattern_histogram(latent_kind, p, d, 1.0, pattern, reps, substream(seed, 7))
    return _top_bin_estimate(hist)


def signed_pattern_estimate(latent_kind: str, p: float, d: int, q: float, pattern,
                            reps: int, seed: int):
    """Monte Carlo (mean, se) of prod over pattern edges of (a_e - p).

    Edges follow the soft law (1-q)p + q*hard given fresh latents each
    replicate.  The product depends only on the number of present edges,
    so replicates are accumulated into an integer class histogram and
    converted once at the end (exactly the device the graph statistics
    use).
    """
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must lie in [0, 1], got {q!r}")
    hist = _pattern_histogram(latent_kind, p, d, q, pattern, reps, substream(seed, 11))
    n_edges = len(hist) - 1
    values = np.array(
        [(1.0 - p) ** e * (-p) ** (n_edges - e) for e in range(n_edges + 1)]
    )
    mean = float(np.dot(hist, values)) / reps
    second = float(np.dot(hist, values**2)) / reps
    var = max(second - mean * mean, 0.0)
    se = math.sqrt(var / reps)
    return mean, se
