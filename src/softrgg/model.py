"""Noisy high-dimensional geometric graph models.

The central object is the interpolating model G(n, p, d, q): n latent points
drawn uniformly on the unit sphere S^{d-1}, with pair (i, j) connected
independently given the latents with probability

    (1 - q) * p + q * 1{ <x_i, x_j> >= t_{p,d} },

where t_{p,d} is chosen so the hard indicator fires with probability exactly
p.  q = 0 collapses the model to Erdos-Renyi G(n, p); q = 1 is the hard
spherical geometric graph.  An equivalent construction keeps each hard edge
with probability q and otherwise redraws it as Bernoulli(p); both are
available as sampler modes so the equivalence can be checked, not assumed.

A Gaussian dot-product variant skips the normalization and thresholds the
raw inner product of standard normal vectors at u_{p,d}, the solution of
E[1 - Phi(u / |x|)] = p over the chi(d) norm distribution.

Graphs are sampled from their latents.  Edge patterns on m vertices read
only the m x m Gram matrix of their latents, which before the sphere
normalization is Wishart(d, I_m).  The one latent-pattern kernel therefore
draws its Bartlett factor instead of the latents, and normalizes the
factor's columns in the sphere modes: min(m, d) chi-squares and at most
m(m - 1)/2 normals per draw, a cost that does not depend on d.

Sampling is deterministic per (params, mode, seed): streams come from a
counter-based Philox generator keyed through SeedSequence spawn paths, so
a seed plus a stream path pins every bit of a sample regardless of how many
samples are drawn around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import (
    ConvergenceError,
    DomainError,
    QuadratureSpec,
    _solve_increasing,
    integrate,
    log_gamma,
    reg_inc_beta,
    reg_inc_beta_inv,
    std_normal_quantile,
)

__all__ = [
    "MODES",
    "LATENT_KINDS",
    "ModelParams",
    "Thresholds",
    "LatentMatrix",
    "AdjacencySample",
    "substream",
    "sphere_threshold",
    "gauss_threshold",
    "sphere_exceed_prob",
    "gauss_exceed_prob",
    "thresholds",
    "sample_latent",
    "sample_graph",
    "pattern_class_histogram",
    "edge_marginal_estimate",
    "pair_index",
    "graph_to_dict",
    "graph_from_dict",
    "latent_to_dict",
    "latent_from_dict",
]

MODES = ("er", "hard-sphere", "soft-sphere", "soft-sphere-resample", "dot-product")
LATENT_KINDS = ("sphere", "gauss")

def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Philox generator for the given seed and stream path.

    Distinct paths under one master seed give statistically independent,
    reproducible streams; parallel code hands each task its own path so
    results do not depend on scheduling or worker count.
    """
    ss = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(w) for w in path))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class ModelParams:
    """Model coordinates (n, p, d, q); q defaults to fully hard."""

    n: int
    p: float
    d: int = 1
    q: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.d, (int, np.integer)) or self.d < 1:
            raise DomainError(f"d must be a positive integer, got {self.d!r}")
        if not (isinstance(self.p, (int, float, np.floating)) and 0.0 <= self.p <= 1.0):
            raise DomainError(f"p must lie in [0, 1], got {self.p!r}")
        if not (isinstance(self.q, (int, float, np.floating)) and 0.0 <= self.q <= 1.0):
            raise DomainError(f"q must lie in [0, 1], got {self.q!r}")


@dataclass(frozen=True)
class Thresholds:
    """Connection thresholds for one (p, d) pair.

    t_p is the scalar normal quantile Phi^{-1}(1 - p); t_pd thresholds the
    sphere inner product.  delta_pd = t_p - t_pd * sqrt(d) measures how far
    the sphere threshold sits from its normal-approximation location.
    """

    p: float
    d: int
    t_p: float
    t_pd: float

    @property
    def delta_pd(self) -> float:
        return self.t_p - self.t_pd * math.sqrt(self.d)


@dataclass(frozen=True)
class LatentMatrix:
    """n latent positions as rows; kind is 'sphere' (unit rows) or 'gauss'."""

    kind: str
    data: np.ndarray

    def __post_init__(self):
        if self.kind not in LATENT_KINDS:
            raise DomainError(f"unknown latent kind {self.kind!r}")
        if self.data.ndim != 2:
            raise DomainError("latent data must be a 2-d array")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@lru_cache(maxsize=16)
def _upper_triangle(n: int):
    """Row indices, column indices and boolean mask of the strict upper
    triangle of an n x n matrix, in packed-edge order (read-only).

    Row-major order of the mask's True entries is the packed order, so a
    boolean-mask read or write needs no index arrays.
    """
    iu, ju = np.triu_indices(n, 1)
    mask = np.zeros((n, n), dtype=bool)
    mask[iu, ju] = True
    for a in (iu, ju, mask):
        a.flags.writeable = False
    return iu, ju, mask


def pair_index(i: int, j: int, n: int) -> int:
    """Position of unordered pair (i < j) in the packed upper triangle."""
    if not 0 <= i < j < n:
        raise DomainError(f"pair ({i}, {j}) invalid for n={n}")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


class AdjacencySample:
    """A sampled graph: bit-packed strict upper triangle plus provenance.

    Equality is bit-exact, which is what the determinism contracts compare.
    """

    __slots__ = ("n", "bits", "mode", "seed")

    def __init__(self, n, bits, mode, seed):
        self.n = int(n)
        if self.n < 0:
            raise DomainError(f"a graph needs n >= 0 vertices, got {self.n}")
        self.bits = np.ascontiguousarray(bits, dtype=np.uint8)
        self.mode = str(mode)
        self.seed = int(seed)
        expected = (self.n * (self.n - 1) // 2 + 7) // 8
        if self.bits.size != expected:
            raise DomainError(
                f"packed edge buffer has {self.bits.size} bytes, expected {expected}"
            )

    @classmethod
    def from_edge_vector(cls, n, present, mode, seed):
        present = np.asarray(present, dtype=bool)
        if present.size != n * (n - 1) // 2:
            raise DomainError("edge vector length does not match n")
        return cls(n, np.packbits(present), mode, seed)

    @classmethod
    def from_edges(cls, n, edges, mode="er", seed=0):
        present = np.zeros(n * (n - 1) // 2, dtype=bool)
        for i, j in edges:
            i, j = _require_int(i, "vertex label"), _require_int(j, "vertex label")
            if not 0 <= i < j < n:
                raise DomainError(f"edge ({i}, {j}) invalid for n={n}")
            k = pair_index(i, j, n)
            if present[k]:
                raise DomainError(f"duplicate edge ({i}, {j})")
            present[k] = True
        return cls(n, np.packbits(present), mode, seed)

    def edge_vector(self) -> np.ndarray:
        return np.unpackbits(self.bits, count=self.n * (self.n - 1) // 2).astype(bool)

    def edges(self):
        iu, ju, _ = _upper_triangle(self.n)
        present = self.edge_vector()
        return [(int(a), int(b)) for a, b in zip(iu[present], ju[present])]

    def to_dense(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n), dtype=np.int64)
        adj[_upper_triangle(self.n)[2]] = self.edge_vector()
        return adj + adj.T

    def edge_count(self) -> int:
        return int(self.edge_vector().sum())

    def __eq__(self, other):
        if not isinstance(other, AdjacencySample):
            return NotImplemented
        return (
            self.n == other.n
            and self.mode == other.mode
            and self.seed == other.seed
            and self.bits.tobytes() == other.bits.tobytes()
        )

    def __hash__(self):
        return hash((self.n, self.mode, self.seed, self.bits.tobytes()))

    def __repr__(self):
        return (
            f"AdjacencySample(n={self.n}, edges={self.edge_count()}, "
            f"mode={self.mode!r}, seed={self.seed})"
        )


def _require_unit_p(p, what: str) -> None:
    """Reject a density outside [0, 1], NaN included."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"{what} out of range: {p!r}")


def _require_int(value, what: str) -> int:
    """``value`` as an int.  A bool, a string or a number with a fractional
    part is refused, not truncated; an integral float is accepted."""
    if isinstance(value, (float, np.floating)) and value.is_integer():
        return int(value)
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _require_open_p(p):
    if not 0.0 < p < 1.0:
        raise DomainError(
            f"thresholds are defined for p strictly inside (0, 1), got {p!r}"
        )


@lru_cache(maxsize=1024)
def sphere_threshold(p: float, d: int) -> float:
    """t_{p,d} with P(<x_1, x_2> >= t_{p,d}) = p on the unit sphere.

    The squared inner product of two uniform sphere points follows
    Beta(1/2, (d-1)/2), so P(<x_1, x_2> >= t) = I_{1-t^2}((d-1)/2, 1/2) / 2
    for t >= 0.  For p <= 1/4 the threshold solves that upper tail directly,
    for 1/4 < p <= 1/2 it is the square root of the Beta(1/2, (d-1)/2)
    quantile at 1 - 2p (exact there), and p > 1/2 mirrors through zero.
    P at the result is p to a relative 1e-9 of min(p, 1 - p), or as close
    as adjacent doubles of t allow.
    """
    _require_open_p(p)
    if d < 2:
        raise DomainError(f"sphere threshold requires d >= 2, got {d}")
    if p > 0.5:
        return -sphere_threshold(1.0 - p, d)
    if p <= 0.25:
        return math.sqrt(1.0 - reg_inc_beta_inv((d - 1) / 2.0, 0.5, 2.0 * p))
    return math.sqrt(reg_inc_beta_inv(0.5, (d - 1) / 2.0, 1.0 - 2.0 * p))


def sphere_exceed_prob(t: float, d: int) -> float:
    """P(<x_1, x_2> >= t) for independent uniform points on S^{d-1}.

    The tail beyond |t| is I_{(1-t)(1+t)}((d-1)/2, 1/2) / 2 while that is
    below 1/4, which keeps small tails free of cancellation, and
    (1 - I_{t^2}(1/2, (d-1)/2)) / 2 nearer t = 0.
    """
    if d < 2:
        raise DomainError(f"requires d >= 2, got {d}")
    if abs(t) > 1.0:
        return 0.0 if t > 0 else 1.0
    tail = 0.5 * reg_inc_beta((d - 1) / 2.0, 0.5, (1.0 - abs(t)) * (1.0 + abs(t)))
    if tail >= 0.25:
        tail = 0.5 * (1.0 - reg_inc_beta(0.5, (d - 1) / 2.0, t * t))
    return tail if t >= 0.0 else 1.0 - tail


def gauss_exceed_prob(u: float, d: int) -> float:
    """P(<x_1, x_2> >= u) for independent standard normal d-vectors.

    Conditioned on r = |x_1|, the inner product is N(0, r^2); the chi(d)
    norm density is integrated by quadrature.
    """
    if d < 1:
        raise DomainError(f"requires d >= 1, got {d}")
    ln_norm = (1.0 - d / 2.0) * math.log(2.0) - log_gamma(d / 2.0)
    sqrt2 = math.sqrt(2.0)

    def integrand(r):
        r = np.asarray(r, float)
        safe = np.maximum(r, 1e-300)
        log_dens = ln_norm + (d - 1.0) * np.log(safe) - 0.5 * r * r
        z = u / (safe * sqrt2)
        surv = np.array([0.5 * math.erfc(v) for v in np.atleast_1d(z)])
        return np.exp(log_dens) * surv.reshape(np.shape(r))

    lo = max(0.0, math.sqrt(d) - 12.0)
    hi = math.sqrt(d) + 12.0
    return integrate(integrand, QuadratureSpec(lo, hi, abs_tol=1e-11))


@lru_cache(maxsize=1024)
def gauss_threshold(p: float, d: int) -> float:
    """u_{p,d} solving gauss_exceed_prob(u, d) = p.

    Bisection to an absolute residual of 1e-9 in p; p > 1/2 mirrors
    through zero, as the inner product is symmetric.
    """
    _require_open_p(p)
    if d < 1:
        raise DomainError(f"requires d >= 1, got {d}")
    if p > 0.5:
        return -gauss_threshold(1.0 - p, d)
    if p == 0.5:
        return 0.0
    t_p = std_normal_quantile(1.0 - p)
    half_width = math.sqrt(d) * (abs(t_p) + 8.0) + 8.0
    if not gauss_exceed_prob(-half_width, d) > p > gauss_exceed_prob(half_width, d):
        raise ConvergenceError("gauss_threshold bracket failed to enclose p")
    return _solve_increasing(lambda u: -gauss_exceed_prob(u, d), -p,
                             -half_width, half_width, 1e-9)


def thresholds(p: float, d: int) -> Thresholds:
    """The normal quantile and the sphere threshold for (p, d)."""
    _require_open_p(p)
    t_p = -std_normal_quantile(p)
    return Thresholds(p=p, d=d, t_p=t_p, t_pd=sphere_threshold(p, d))


def sample_latent(n: int, d: int, kind: str, rng: np.random.Generator) -> LatentMatrix:
    """Draw n latent points: unit-sphere rows or raw standard normals."""
    if kind not in LATENT_KINDS:
        raise DomainError(f"unknown latent kind {kind!r}")
    data = rng.standard_normal((n, d))
    if kind == "sphere":
        norms = np.linalg.norm(data, axis=1, keepdims=True)
        if not np.all(norms > 0.0):
            raise ConvergenceError("degenerate zero-norm latent draw")
        data = data / norms
    return LatentMatrix(kind=kind, data=data)


def _latent_threshold(mode: str, p: float, d: int):
    """Latent kind and connection threshold of a geometric mode."""
    if mode == "dot-product":
        return "gauss", gauss_threshold(p, d)
    return "sphere", sphere_threshold(p, d)


def _edge_law(mode: str, hard: np.ndarray, p: float, q: float,
              rng: np.random.Generator) -> np.ndarray:
    """Edge indicators of ``mode`` given the hard geometric indicators.

    The only place the edge rule is written.  ``er`` reads only the shape
    of ``hard``.  At q >= 1 every geometric mode returns ``hard`` without
    drawing, and otherwise the uniforms are drawn last, so a caller's
    earlier draws do not depend on q.
    """
    if mode == "er":
        return rng.random(hard.shape) < p
    if mode == "hard-sphere" or q >= 1.0:
        return hard
    if mode == "soft-sphere-resample":
        keep = rng.random(hard.shape) < q
        redraw = rng.random(hard.shape) < p
        return np.where(keep, hard, redraw)
    return rng.random(hard.shape) < (1.0 - q) * p + q * hard


def sample_graph(params: ModelParams, mode: str, seed: int, latent=None,
                 return_latent: bool = False):
    """Sample one graph; bit-identical for identical (params, mode, seed).

    A caller may pin the latent matrix to couple draws across modes (the
    q = 1 soft sampler then reproduces the hard sampler edge for edge).
    """
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}; expected one of {MODES}")
    n, p, d, q = params.n, params.p, params.d, params.q
    rng = substream(seed)

    if mode == "er":
        latent = None
        hard = np.zeros(n * (n - 1) // 2, dtype=bool)
    else:
        kind, threshold = _latent_threshold(mode, p, d)
        if latent is None:
            latent = sample_latent(n, d, kind, rng)
        elif latent.kind != kind or latent.n != n or latent.d != d:
            raise DomainError(
                f"latent matrix ({latent.kind}, {latent.n}x{latent.d}) does not match "
                f"mode {mode!r} with n={n}, d={d}"
            )
        hard = (latent.data @ latent.data.T)[_upper_triangle(n)[2]] >= threshold
    present = _edge_law(mode, hard, p, q, rng)
    sample = AdjacencySample.from_edge_vector(n, present, mode, seed)
    return (sample, latent) if return_latent else sample


def _pattern_size(pattern):
    pattern = tuple((int(i), int(j)) for i, j in pattern)
    if not pattern:
        raise DomainError("empty edge pattern")
    m = 0
    seen = set()
    for i, j in pattern:
        if i == j or i < 0 or j < 0:
            raise DomainError(f"bad pattern edge ({i}, {j})")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DomainError(f"duplicate pattern edge ({i}, {j})")
        seen.add(key)
        m = max(m, i + 1, j + 1)
    return pattern, m


def _batch_size(m, r, reps):
    return max(256, min(reps, 4_194_304 // max(m * r, 1)))


def _bartlett_factor(b: int, m: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """b Bartlett factors of the Gram matrix of m standard normal d-vectors.

    Returns R of shape (r, m, b) with r = min(m, d): R[:, :, k] is upper
    trapezoidal with sqrt(chi^2(d - i)) at (i, i) and N(0, 1) right of it,
    so its columns have the inner products of m independent N(0, I_d)
    vectors (R^T R is Wishart(d, I_m), also when m > d).  The normals are
    drawn before the chi-squares.
    """
    r = min(m, d)
    R = np.zeros((r, m, b))
    i, j = np.triu_indices(r, 1, m)
    R[i, j] = rng.standard_normal((i.size, b))
    k = np.arange(r)
    R[k, k] = np.sqrt(rng.chisquare((d - k)[:, None], size=(r, b)))
    return R


def pattern_class_histogram(mode: str, p: float, d: int, q: float, pattern,
                            reps: int, rng: np.random.Generator) -> np.ndarray:
    """Histogram over ``reps`` fresh latent draws of how many pattern edges
    are present.

    The pattern is a tuple of vertex pairs over 0..m-1, with m inferred
    from the labels.  The edges read only the m x m Gram matrix of the
    latents, so each batch draws its Bartlett factors instead of the
    latents themselves, at a cost that does not depend on d: sphere modes
    normalize the factor's columns, ``dot-product`` uses them as they are.
    The pattern pairs' inner products are thresholded and ``mode``'s edge
    law applied; ``er`` draws no factors.  Entry e of the int64 result
    counts the draws with exactly e edges present.
    """
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}; expected one of {MODES}")
    if reps < 1:
        raise DomainError(f"reps must be at least 1, got {reps!r}")
    pattern, m = _pattern_size(pattern)
    n_edges = len(pattern)
    if mode != "er":
        kind, threshold = _latent_threshold(mode, p, d)
    hist = np.zeros(n_edges + 1, dtype=np.int64)
    batch = _batch_size(m, min(m, d), reps)
    done = 0
    while done < reps:
        b = min(batch, reps - done)
        hard = np.zeros((n_edges, b), dtype=bool)
        if mode != "er":
            x = _bartlett_factor(b, m, d, rng)
            if kind == "sphere":
                x /= np.sqrt(np.einsum("rmb,rmb->mb", x, x))
            for e, (i, j) in enumerate(pattern):
                hard[e] = np.einsum("rb,rb->b", x[:, i], x[:, j]) >= threshold
        present = _edge_law(mode, hard.T, p, q, rng)
        hist += np.bincount(present.sum(axis=1), minlength=n_edges + 1)
        done += b
    return hist


def _top_bin_estimate(hist: np.ndarray) -> tuple[float, float]:
    """(mean, se) of the all-edges-present indicator from a class histogram."""
    reps = int(hist.sum())
    mean = int(hist[-1]) / reps
    return mean, math.sqrt(max(mean * (1.0 - mean), 1e-300) / reps)


def edge_marginal_estimate(params: ModelParams, mode: str, reps: int, seed: int):
    """Monte Carlo (mean, se) of the edge indicator over independent pairs."""
    hist = pattern_class_histogram(
        mode, params.p, params.d, params.q, ((0, 1),), reps, substream(seed, 101)
    )
    return _top_bin_estimate(hist)


def graph_to_dict(sample: AdjacencySample, p: float) -> dict:
    """JSON-ready graph document; edges sorted as (i < j) pairs."""
    return {
        "n": sample.n,
        "p": float(p),
        "mode": sample.mode,
        "seed": sample.seed,
        "edges": [[i, j] for i, j in sample.edges()],
    }


def graph_from_dict(doc: dict) -> tuple[AdjacencySample, float]:
    try:
        n = _require_int(doc["n"], "graph document n")
        p = float(doc["p"])
        mode = str(doc.get("mode", "er"))
        seed = _require_int(doc.get("seed", 0), "graph document seed")
        edges = doc["edges"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed graph document: {exc}") from exc
    _require_unit_p(p, "graph document p")
    sample = AdjacencySample.from_edges(n, edges, mode=mode, seed=seed)
    return sample, p


def latent_to_dict(latent: LatentMatrix) -> dict:
    return {
        "n": latent.n,
        "d": latent.d,
        "kind": latent.kind,
        "rows": [[float(v) for v in row] for row in latent.data],
    }


def latent_from_dict(doc: dict) -> LatentMatrix:
    try:
        kind = str(doc["kind"])
        rows = np.asarray(doc["rows"], dtype=float)
        n = _require_int(doc["n"], "latent document n")
        d = _require_int(doc["d"], "latent document d")
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed latent document: {exc}") from exc
    if rows.shape != (n, d):
        raise DomainError(f"latent rows have shape {rows.shape}, expected ({n}, {d})")
    return LatentMatrix(kind=kind, data=rows)
