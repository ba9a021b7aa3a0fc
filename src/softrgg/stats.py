"""Signed subgraph statistics and latent-pattern Monte Carlo.

The signed statistics are sums of products of centered edge indicators
(a_e - p) over small vertex sets.  Every such product depends on the edge
pattern only through how many of its edges are present, so each statistic
is computed here from integer counts: the number of k-subsets (or cycles)
in each present-edge class.  The counts come from exact integer arithmetic,
and a single shared evaluator maps a count vector to the float value.
Triangles and cycles of length 3 to 5 read trace and degree counts of the
dense adjacency (:func:`_subgraph_counts`); cliques and cycles of length 6
and up read histograms of packed-edge lookups in one index table from one
vectorized builder, ``_pair_table``, which caches only its last table and
is also the test oracle for the closed forms.  Two consequences the tests
rely on: results are exact, and any two routes that agree on the counts
agree bit for bit.

Monte Carlo estimators for latent edge patterns live here too.  Both read
the one latent-pattern kernel, :func:`softrgg.model.pattern_class_histogram`,
which draws the Bartlett factor of the pattern's Gram matrix in vectorized
batches, at a cost per draw that does not depend on d, and applies the
sampler's edge law, so a pattern probability is its top bin and a signed
pattern mean is its class histogram weighted as above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, permutations

import numpy as np

from .model import (
    AdjacencySample,
    _require_unit_p,
    _top_bin_estimate,
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
    "clique_edge_histogram",
    "cycle_edge_histogram",
    "canonical_cycles",
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


def _check_budget(what: str, nbytes: int) -> None:
    """Refuse ``what`` when the ``nbytes`` it needs exceed INDEX_TABLE_BUDGET."""
    if nbytes > INDEX_TABLE_BUDGET:
        raise DomainError(
            f"{what} would take {nbytes} bytes, above the {INDEX_TABLE_BUDGET}-byte budget"
        )


def _check_order(k):
    if not MIN_ORDER <= k <= MAX_ORDER:
        raise UnsupportedOrderError(
            f"subgraph order k={k} unsupported; expected {MIN_ORDER} <= k <= {MAX_ORDER}"
        )


def _subgraph_counts(sample: AdjacencySample, k: int) -> dict:
    """Exact small-subgraph counts of the graph, as Python ints.

    Every order k gets the edge count m, the 2-edge paths P2 and the
    triangles T.  k >= 4 adds the 3-edge paths P3 and the 4-cycles C4;
    k = 5 adds the 4-edge paths P4, the (2-edge path, disjoint edge) pairs
    Q and the 5-cycles C5.  All of them come from the degrees d (e = d - 1),
    the dense adjacency A, A^2, the diagonal of A^3 and the traces of A^4
    and A^5.

    The work is a few dense n x n float64 arrays: A, A^2 and, for k = 5,
    A^3, while ``to_dense`` and its cached index arrays hold at most about
    two more, so five arrays of 8 n^2 bytes bound the peak.  That is
    checked against INDEX_TABLE_BUDGET before anything is allocated, which
    caps n at 5,181.  Exactness below that n: entries of A^2 and A^3 are
    integers at most (n-1)^2 < 2^53, so the float products are exact in any
    summation order, and so is every per-vertex row reduction (the largest,
    (A^5)_ii, is at most (n-1)^4 < 2^53).  Those vectors are cast to int64,
    and every trace and quadratic form is summed in int64; the largest,
    tr A^5 and |A e|^2, stay below n^5 < 2^63 (n^5 is 3.7e18 at n = 5,181).
    """
    n = sample.n
    _check_budget(f"n={n} closed-form counts' dense arrays", 5 * 8 * n * n)
    adj = sample.to_dense().astype(float)
    a2 = adj @ adj
    deg = adj.sum(axis=1).astype(np.int64)
    walks3 = np.einsum("ij,ij->i", a2, adj).astype(np.int64)  # (A^3)_ii
    m = int(deg.sum()) // 2
    paths2 = int(deg @ (deg - 1)) // 2
    tri = int(walks3.sum()) // 6
    counts = {"m": m, "P2": paths2, "T": tri}
    if k >= 4:
        ex = deg - 1
        a_ex = (adj @ ex).astype(np.int64)
        deg2 = int(deg @ deg)
        tr4 = int(np.einsum("ij,ij->i", a2, a2).astype(np.int64).sum())
        counts["P3"] = int(ex @ a_ex) // 2 - 3 * tri
        counts["C4"] = (tr4 - 2 * deg2 + 2 * m) // 8
    if k >= 5:
        a3 = a2 @ adj
        tr5 = int(np.einsum("ij,ij->i", a2, a3).astype(np.int64).sum())
        a_deg = (adj @ deg).astype(np.int64)
        counts["Q"] = (paths2 * (m + 2) - int(deg @ (deg * ex)) // 2
                       - int(ex @ a_deg) + 3 * tri)
        counts["P4"] = ((int(a_ex @ a_ex) - int(deg @ (ex * ex))) // 2
                        - int(ex @ walks3) + 3 * tri - (tr4 - deg2) // 2 + paths2)
        # tr A^5 - 5 sum (d_i - 2)(A^3)_ii - 5 tr A^3 (Alon, Yuster and Zwick).
        counts["C5"] = (tr5 - 5 * int((deg - 2) @ walks3) - 30 * tri) // 10
    return counts


def signed_triangle_stat(sample: AdjacencySample, p: float) -> StatisticValue:
    """tau_3 = sum over vertex triples of prod (a_e - p).

    Equals tr(Abar^3)/6 for the zero-diagonal centered adjacency matrix;
    evaluated through exact triple-class counts.
    """
    value = signed_weight_sum(_cycle_class_counts(sample, 3), p, 3)
    return StatisticValue(kind="signed-triangle", k=3, value=value, method="trace")


@lru_cache(maxsize=1)
def _pair_table(n: int, k: int, kind: str) -> np.ndarray:
    """Packed-edge indices of every clique or (k-subset, Hamilton cycle) instance.

    A clique has one pattern, every position pair of the k-set; a cycle has
    the patterns of :func:`canonical_cycles`.  Rows are subset-major in
    ``combinations`` order, one per (subset, pattern).  The size is checked
    against INDEX_TABLE_BUDGET before anything is allocated, and only the
    last table is kept, so the budget bounds what the process holds.
    """
    patterns = (tuple(combinations(range(k), 2)),) if kind == "clique" else canonical_cycles(k)
    subsets, width = math.comb(n, k), len(patterns[0])
    _check_budget(f"n={n}, k={k} {kind} index table", subsets * len(patterns) * width * 8)
    vertices = np.fromiter(
        chain.from_iterable(combinations(range(n), k)), dtype=np.min_scalar_type(n),
        count=subsets * k,
    ).reshape(subsets, k)
    # pair_index(i, j, n) == row_base[i] + j for i < j.
    v = np.arange(n, dtype=np.int64)
    row_base = v * n - v * (v + 1) // 2 - v - 1
    # One column per distinct position pair (a, b), coded a*k + b, written
    # into every (pattern, slot) that holds that pair.
    codes = np.array(patterns).dot((k, 1))
    table = np.empty((subsets,) + codes.shape, dtype=np.int64)
    for code in np.unique(codes):
        a, b = divmod(int(code), k)
        table[:, codes == code] = (row_base[vertices[:, a]] + vertices[:, b])[:, None]
    table = table.reshape(-1, width)
    table.flags.writeable = False
    return table


def _check_instance(sample: AdjacencySample, k: int):
    _check_order(k)
    if k > sample.n:
        raise DomainError(f"subgraph order k={k} exceeds the n={sample.n} vertices")


def _table_histogram(sample: AdjacencySample, k: int, kind: str) -> np.ndarray:
    """Histogram over ``_pair_table`` rows of how many of their edges are present."""
    _check_instance(sample, k)
    idx = _pair_table(sample.n, k, kind)
    n_edges = idx.shape[1]
    vec = sample.edge_vector().astype(np.int64)
    hist = np.zeros(n_edges + 1, dtype=np.int64)
    for start in range(0, idx.shape[0], 8192):
        present = vec[idx[start : start + 8192]].sum(axis=1)
        hist += np.bincount(present, minlength=n_edges + 1)
    return hist


def clique_edge_histogram(sample: AdjacencySample, k: int) -> np.ndarray:
    """Histogram over k-subsets of how many of their k(k-1)/2 edges are present."""
    return _table_histogram(sample, k, "clique")


def signed_clique_stat(sample: AdjacencySample, p: float, k: int) -> StatisticValue:
    """tau_S summed over all k-subsets: prod over subset pairs of (a_e - p)."""
    hist = clique_edge_histogram(sample, k)
    value = signed_weight_sum(hist, p, k * (k - 1) // 2)
    return StatisticValue(
        kind="signed-clique", k=k, value=value, method="subset-histogram"
    )


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


def _cycle_class_counts(sample: AdjacencySample, k: int) -> list:
    """Counts of (k-cycle of K_n) instances by present edges, k = 3, 4, 5.

    F_j, j = 0..k, is the number of (k-cycle of K_n, j of its edges in G)
    pairs.  Each j-edge set of G that lies on a k-cycle is a linear forest,
    and how many k-cycles of K_n pass through a forest depends only on its
    shape, so F_j weights the forest counts of :func:`_subgraph_counts`,
    with M2 = C(m, 2) - P2 the 2-edge matchings:
      k = 3: C(n,3), m (n-2), P2, T;
      k = 4: 3 C(n,4), m (n-2)(n-3), (n-3) P2 + 2 M2, P3, C4;
      k = 5: 12 C(n,5), 6 m C(n-2,3), 2 C(n-3,2) P2 + 4 (n-4) M2,
             (n-4) P3 + 2 Q, P4, C5.
    The class counts are the inverse binomial transform
    h_e = sum_j (-1)^(j-e) C(j, e) F_j, as Python ints.
    """
    n = sample.n
    c = _subgraph_counts(sample, k)
    m, paths2 = c["m"], c["P2"]
    matchings2 = math.comb(m, 2) - paths2
    if k == 3:
        forests = [math.comb(n, 3), m * (n - 2), paths2, c["T"]]
    elif k == 4:
        forests = [3 * math.comb(n, 4), m * (n - 2) * (n - 3),
                   (n - 3) * paths2 + 2 * matchings2, c["P3"], c["C4"]]
    else:
        forests = [12 * math.comb(n, 5), 6 * m * math.comb(n - 2, 3),
                   2 * math.comb(n - 3, 2) * paths2 + 4 * (n - 4) * matchings2,
                   (n - 4) * c["P3"] + 2 * c["Q"], c["P4"], c["C5"]]
    return [sum((-1) ** (j - e) * math.comb(j, e) * forests[j] for j in range(e, k + 1))
            for e in range(k + 1)]


def cycle_edge_histogram(sample: AdjacencySample, k: int) -> np.ndarray:
    """Histogram over (k-subset, cycle) instances of present cycle edges.

    For k <= 5 it is :func:`_cycle_class_counts`; larger k reads the
    enumeration table.  Both routes give the same integer vector.
    """
    if k > 5:
        return _table_histogram(sample, k, "cycle")
    _check_instance(sample, k)
    return np.array(_cycle_class_counts(sample, k), dtype=np.int64)


def signed_cycle_stat(sample: AdjacencySample, p: float, k: int) -> StatisticValue:
    """kappa_k: sum over k-subsets and their Hamilton cycles of prod (a_e - p).

    Cycles of length 3 to 5 are counted from trace and degree counts, longer
    ones from the enumeration index table; both give the same histogram.
    """
    hist = cycle_edge_histogram(sample, k)
    value = signed_weight_sum(hist, p, k)
    return StatisticValue(
        kind="signed-cycle", k=k, value=value, method="cycle-histogram"
    )


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
    _require_unit_p(q, "q")
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
