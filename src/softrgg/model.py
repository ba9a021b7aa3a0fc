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
    integrate,
    log_gamma,
    reg_inc_beta,
    reg_inc_beta_inv,
    std_normal_cdf,
    std_normal_quantile,
)

__all__ = [
    "MODES",
    "LATENT_KINDS",
    "ModelParams",
    "Thresholds",
    "LatentMatrix",
    "AdjacencySample",
    "ConnectionFunction",
    "substream",
    "sphere_threshold",
    "gauss_threshold",
    "sphere_exceed_prob",
    "gauss_exceed_prob",
    "thresholds",
    "sample_latent",
    "connection_function",
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

_GEOMETRIC_MODES = ("hard-sphere", "soft-sphere", "soft-sphere-resample", "dot-product")


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
    sphere inner product; u_pd (when computed) thresholds the Gaussian
    dot product.  delta_pd = t_p - t_pd * sqrt(d) measures how far the
    sphere threshold sits from its normal-approximation location.
    """

    p: float
    d: int
    t_p: float
    t_pd: float
    u_pd: float | None = None

    @property
    def delta_pd(self) -> float:
        return self.t_p - self.t_pd * math.sqrt(self.d)


@dataclass(frozen=True)
class ConnectionFunction:
    """Edge probability as a function of the latent inner product."""

    p: float
    q: float
    threshold: float

    def __call__(self, x):
        return (1.0 - self.q) * self.p + self.q * (np.asarray(x, float) >= self.threshold)


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
            i, j = int(i), int(j)
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


def _require_open_p(p):
    if not 0.0 < p < 1.0:
        raise DomainError(
            f"thresholds are defined for p strictly inside (0, 1), got {p!r}"
        )


@lru_cache(maxsize=1024)
def sphere_threshold(p: float, d: int) -> float:
    """t_{p,d} with P(<x_1, x_2> >= t_{p,d}) = p on the unit sphere.

    The squared inner product of two uniform sphere points follows
    Beta(1/2, (d-1)/2), so for p <= 1/2 the threshold is the square root
    of a beta quantile; p > 1/2 mirrors through zero.
    """
    _require_open_p(p)
    if d < 2:
        raise DomainError(f"sphere threshold requires d >= 2, got {d}")
    if p > 0.5:
        return -sphere_threshold(1.0 - p, d)
    return math.sqrt(reg_inc_beta_inv(0.5, (d - 1) / 2.0, 1.0 - 2.0 * p))


def sphere_exceed_prob(t: float, d: int) -> float:
    """P(<x_1, x_2> >= t) for independent uniform points on S^{d-1}."""
    if d < 2:
        raise DomainError(f"requires d >= 2, got {d}")
    if abs(t) > 1.0:
        return 0.0 if t > 0 else 1.0
    tail = 0.5 * (1.0 - reg_inc_beta(0.5, (d - 1) / 2.0, t * t))
    return tail if t >= 0.0 else 1.0 - tail

def gauss_exceed_prob(u: float, d: int, abs_tol: float = 1e-11) -> float:
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
    return integrate(integrand, QuadratureSpec(lo, hi, abs_tol=abs_tol))


@lru_cache(maxsize=1024)
def gauss_threshold(p: float, d: int) -> float:
    """u_{p,d} solving gauss_exceed_prob(u, d) = p, by bisection."""
    _require_open_p(p)
    if d < 1:
        raise DomainError(f"requires d >= 1, got {d}")
    t_p = std_normal_quantile(1.0 - p)
    half_width = math.sqrt(d) * (abs(t_p) + 8.0) + 8.0
    lo, hi = -half_width, half_width
    if not gauss_exceed_prob(lo, d) > p > gauss_exceed_prob(hi, d):
        raise ConvergenceError("gauss_threshold bracket failed to enclose p")
    u = 0.0
    for _ in range(200):
        u = 0.5 * (lo + hi)
        val = gauss_exceed_prob(u, d)
        if abs(val - p) <= 1e-9:
            return u
        if val > p:
            lo = u
        else:
            hi = u
        if hi - lo <= 1e-13 * max(1.0, abs(u)):
            break
    residual = abs(gauss_exceed_prob(u, d) - p)
    if residual > 1e-9:
        raise ConvergenceError(
            "gauss_threshold bisection stalled", estimate=u, residual=residual
        )
    return u


def thresholds(p: float, d: int, with_gauss: bool = False) -> Thresholds:
    """All thresholds for (p, d); the Gaussian one only on request (slower)."""
    _require_open_p(p)
    t_p = std_normal_quantile(1.0 - p)
    t_pd = sphere_threshold(p, d)
    u_pd = gauss_threshold(p, d) if with_gauss else None
    return Thresholds(p=p, d=d, t_p=t_p, t_pd=t_pd, u_pd=u_pd)


def connection_function(p: float, q: float, threshold: float) -> ConnectionFunction:
    _require_open_p(p)
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must lie in [0, 1], got {q!r}")
    return ConnectionFunction(p=p, q=q, threshold=threshold)


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


def _batch_size(m, d, reps):
    return max(256, min(reps, 4_194_304 // max(m * d, 1)))


def pattern_class_histogram(mode: str, p: float, d: int, q: float, pattern,
                            reps: int, rng: np.random.Generator) -> np.ndarray:
    """Histogram over ``reps`` fresh latent draws of how many pattern edges
    are present.

    The pattern is a tuple of vertex pairs over 0..m-1, with m inferred
    from the labels.  Each batch draws its (b, m, d) latents, thresholds
    the pattern pairs' inner products and applies ``mode``'s edge law;
    ``er`` draws no latents.  Entry e of the int64 result counts the draws
    with exactly e edges present.
    """
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}; expected one of {MODES}")
    pattern, m = _pattern_size(pattern)
    n_edges = len(pattern)
    if mode != "er":
        kind, threshold = _latent_threshold(mode, p, d)
    hist = np.zeros(n_edges + 1, dtype=np.int64)
    batch = _batch_size(m, d, reps)
    done = 0
    while done < reps:
        b = min(batch, reps - done)
        hard = np.zeros((b, n_edges), dtype=bool)
        if mode != "er":
            x = rng.standard_normal((b, m, d))
            if kind == "sphere":
                x /= np.linalg.norm(x, axis=2, keepdims=True)
            for e, (i, j) in enumerate(pattern):
                hard[:, e] = np.einsum("bd,bd->b", x[:, i, :], x[:, j, :]) >= threshold
        present = _edge_law(mode, hard, p, q, rng)
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
        n = int(doc["n"])
        p = float(doc["p"])
        mode = str(doc.get("mode", "er"))
        seed = int(doc.get("seed", 0))
        edges = doc["edges"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed graph document: {exc}") from exc
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"graph document p out of range: {p!r}")
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
        n, d = int(doc["n"]), int(doc["d"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed latent document: {exc}") from exc
    if rows.shape != (n, d):
        raise DomainError(f"latent rows have shape {rows.shape}, expected ({n}, {d})")
    return LatentMatrix(kind=kind, data=rows)
