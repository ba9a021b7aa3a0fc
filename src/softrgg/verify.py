"""Built-in self-checks, grouped into suites by module.

Each check is small, runs in well under a second, and either recomputes a
closed form or replays a seeded experiment against a frozen expectation.
A check that raises is reported as a failure rather than crashing the run,
so `softrgg verify` always produces a full PASS/FAIL listing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import mc, model, stats, theory
from .specfun import (
    DomainError,
    QuadratureSpec,
    integrate,
    digamma,
    reg_inc_beta,
    reg_inc_beta_inv,
    std_normal_cdf,
    std_normal_quantile,
)

DEFAULT_SEED = 20240915

SUITE_NAMES = ("specfun", "model", "stats", "theory", "mc")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _run_checks(suite: str, checks: Iterable[tuple[str, Callable[[], str | None]]]):
    results = []
    for name, fn in checks:
        try:
            detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(suite, name, False, f"{type(exc).__name__}: {exc}"))
            continue
        results.append(CheckResult(suite, name, detail is None, detail or ""))
    return results


def _within(value: float, target: float, tol: float, label: str) -> str | None:
    err = abs(value - target)
    if err <= tol:
        return None
    return f"{label}: |{value!r} - {target!r}| = {err:.3g} > {tol:.3g}"


# ---------------------------------------------------------------- specfun

def _specfun_checks(seed: int):
    def quantile_roundtrip():
        worst = max(
            abs(std_normal_cdf(std_normal_quantile(u)) - u)
            for u in (1e-6, 0.01, 0.3, 0.5, 0.77, 0.999)
        )
        return None if worst <= 1e-12 else f"roundtrip error {worst:.3g}"

    def beta_roundtrip():
        worst = 0.0
        for a, b, x in ((0.5, 3.5, 0.2), (2.0, 2.0, 0.5), (0.5, 31.5, 0.01)):
            y = reg_inc_beta(a, b, x)
            worst = max(worst, abs(reg_inc_beta_inv(a, b, y) - x))
        return None if worst <= 1e-10 else f"inverse error {worst:.3g}"

    def digamma_recurrence():
        worst = max(
            abs(digamma(x + 1.0) - digamma(x) - 1.0 / x)
            for x in (0.5, 1.0, 3.25, 10.0)
        )
        return None if worst <= 1e-12 else f"recurrence error {worst:.3g}"

    def sine_integral():
        spec = QuadratureSpec(lower=0.0, upper=math.pi, abs_tol=1e-12)
        val = integrate(np.sin, spec)
        return _within(val, 2.0, 1e-10, "integral of sin on [0, pi]")

    return _run_checks("specfun", [
        ("normal-quantile-roundtrip", quantile_roundtrip),
        ("incomplete-beta-roundtrip", beta_roundtrip),
        ("digamma-recurrence", digamma_recurrence),
        ("adaptive-simpson-sine", sine_integral),
    ])


# ------------------------------------------------------------------ model

def _model_checks(seed: int):
    def circle_threshold():
        worst = max(
            abs(model.sphere_threshold(p, 2) - math.cos(math.pi * p))
            for p in (0.1, 0.3, 0.5)
        )
        return None if worst <= 1e-12 else f"circle threshold error {worst:.3g}"

    def cap_mass_roundtrip():
        worst = 0.0
        for p, d in ((0.3, 8), (0.5, 33), (0.05, 128)):
            t = model.sphere_threshold(p, d)
            worst = max(worst, abs(model.sphere_exceed_prob(t, d) - p))
        return None if worst <= 1e-9 else f"cap mass error {worst:.3g}"

    def edge_marginal():
        params = model.ModelParams(n=2, p=0.4, d=6, q=0.7)
        est, se = model.edge_marginal_estimate(params, "soft-sphere", 20_000, seed)
        return _within(est, 0.4, max(4.0 * se, 1e-3), "soft edge marginal")

    def threshold_gap():
        th = model.thresholds(0.3, 64)
        gap = abs(th.delta_pd) * 64
        if 0.0 < gap < 1.0:
            return None
        return f"scaled gap magnitude {gap!r} outside (0, 1)"

    def graph_roundtrip():
        params = model.ModelParams(n=9, p=0.35, d=5, q=0.6)
        g = model.sample_graph(params, "soft-sphere", seed)
        g2, p2 = model.graph_from_dict(model.graph_to_dict(g, params.p))
        if p2 == params.p and g.edges() == g2.edges():
            return None
        return "graph JSON roundtrip changed the edge set"

    return _run_checks("model", [
        ("circle-threshold-cosine", circle_threshold),
        ("cap-mass-roundtrip", cap_mass_roundtrip),
        ("soft-edge-marginal", edge_marginal),
        ("threshold-gap-scaled", threshold_gap),
        ("graph-json-roundtrip", graph_roundtrip),
    ])


# ------------------------------------------------------------------ stats

def _stats_checks(seed: int):
    def trace_matches_enumeration():
        rng = model.substream(seed, 2)
        for trial in range(25):
            n = int(rng.integers(3, 11))
            params = model.ModelParams(n=n, p=0.45, d=2, q=0.0)
            g = model.sample_graph(params, "er", int(rng.integers(0, 2**62)))
            p_eval = 0.3
            a = stats.signed_triangle_stat(g, p_eval).value
            b = stats.signed_clique_stat(g, p_eval, 3).value
            if a != b:
                return f"trial {trial}: trace {a!r} != enumeration {b!r}"
        return None

    def four_cycle_frozen():
        g = model.AdjacencySample.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        val = stats.signed_cycle_stat(g, 0.5, 4).value
        return _within(val, 3.0 / 16.0, 0.0, "signed 4-cycle on C4 at p = 1/2")

    def complete_graph_closed_form():
        n, p = 6, 0.25
        g = model.AdjacencySample.from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n)]
        )
        val = stats.signed_triangle_stat(g, p).value
        return _within(val, math.comb(n, 3) * (1 - p) ** 3, 1e-12, "complete graph")

    def weight_sum_small_case():
        val = stats.signed_weight_sum((1, 0, 0, 1), 0.3, 3)
        target = (-0.3) ** 3 + 0.7**3
        return _within(val, target, 1e-15, "two-class weight sum")

    return _run_checks("stats", [
        ("trace-vs-enumeration", trace_matches_enumeration),
        ("four-cycle-frozen-value", four_cycle_frozen),
        ("complete-graph-closed-form", complete_graph_closed_form),
        ("signed-weight-sum", weight_sum_small_case),
    ])


# ----------------------------------------------------------------- theory

def _theory_checks(seed: int):
    def circle_moments():
        err = max(
            abs(theory.gamma_d(2) - 1.0 / 16.0),
            abs(theory.eta_d(2) - 1.0 / 48.0),
        )
        return None if err <= 1e-12 else f"d = 2 moment error {err:.3g}"

    def cosine_square_identity():
        return _within(theory.mean_cos_squared(16), 1.0 / 16.0, 1e-10, "E[cos^2]")

    def moment_brackets():
        for d in (4, 64):
            g = theory.gamma_d(d) * math.sqrt(d)
            e = theory.eta_d(d) * d
            if not theory.GAMMA_SCALED_LOWER <= g <= theory.GAMMA_SCALED_UPPER:
                return f"scaled gamma {g!r} escapes bracket at d = {d}"
            if not theory.ETA_SCALED_LOWER <= e <= theory.ETA_SCALED_UPPER:
                return f"scaled eta {e!r} escapes bracket at d = {d}"
        return None

    def phase_labels():
        cases = (
            (theory.PhasePoint(4.0, 0.1), theory.PHASE_IMPOSSIBLE),
            (theory.PhasePoint(1.0, 0.15), theory.PHASE_POSSIBLE),
            (theory.PhasePoint(1.2, 0.4), theory.PHASE_UNKNOWN),
        )
        for pt, want in cases:
            got = theory.phase_classify(pt)
            if got != want:
                return f"({pt.alpha}, {pt.beta}) labeled {got}, expected {want}"
        return None

    def wishart_constant():
        val = theory.wishart_logdet_mean(1, 2).logdet_mean
        target = math.log(2.0) - 0.5772156649015329
        return _within(val, target, 1e-12, "log-det mean at n = 1, d = 2")

    def deficit_bound():
        rep = theory.wishart_logdet_mean(4, 16)
        bound = theory.logdet_deficit_bound(4, 16)
        if 0.0 < rep.normalized_deficit <= bound:
            return None
        return f"deficit {rep.normalized_deficit!r} outside (0, {bound!r}]"

    return _run_checks("theory", [
        ("circle-closed-forms", circle_moments),
        ("cosine-square-identity", cosine_square_identity),
        ("scaled-moment-brackets", moment_brackets),
        ("phase-labels", phase_labels),
        ("wishart-constant", wishart_constant),
        ("logdet-deficit-bound", deficit_bound),
    ])


# --------------------------------------------------------------------- mc

def _mc_checks(seed: int):
    def worker_invariance():
        params = model.ModelParams(n=8, p=0.5, d=4, q=0.5)
        spec = mc.StatisticSpec()
        a = mc.replicate_values(params, "soft-sphere", spec, 128, seed, workers=1)
        b = mc.replicate_values(params, "soft-sphere", spec, 128, seed, workers=2)
        return None if np.array_equal(a, b) else "worker count changed the values"

    def sweep_determinism():
        import io

        grid = (mc.GridPoint(n=10, p=0.5, d=8, q=0.5, mode="soft-sphere"),)
        cfg = mc.ExperimentConfig(
            grid=grid, reps=100, master_seed=seed, test="calibrated-quantile"
        )
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            mc.sweep(cfg, buf)
            bufs.append(
                [line.rsplit(",", 1)[0] for line in buf.getvalue().splitlines()]
            )
        return None if bufs[0] == bufs[1] else "sweep rows differ between runs"

    def detection_separates():
        point = mc.GridPoint(n=40, p=0.5, d=16, q=1.0, mode="soft-sphere")
        rec = mc.detection_experiment(point, 120, seed, test="calibrated-quantile")
        if rec.power >= 0.9 and rec.type1 <= 0.2:
            return None
        return f"power {rec.power!r}, type1 {rec.type1!r}"

    return _run_checks("mc", [
        ("worker-count-invariance", worker_invariance),
        ("sweep-row-determinism", sweep_determinism),
        ("strong-signal-detection", detection_separates),
    ])


_SUITE_RUNNERS = {
    "specfun": _specfun_checks,
    "model": _model_checks,
    "stats": _stats_checks,
    "theory": _theory_checks,
    "mc": _mc_checks,
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> tuple[CheckResult, ...]:
    if name not in _SUITE_RUNNERS:
        raise DomainError(f"unknown verify suite {name!r}")
    return tuple(_SUITE_RUNNERS[name](seed))


def run(suite: str = "all", seed: int = DEFAULT_SEED) -> tuple[CheckResult, ...]:
    """Run one suite, or every suite when ``suite`` is "all"."""
    if suite == "all":
        out: list[CheckResult] = []
        for name in SUITE_NAMES:
            out.extend(run_suite(name, seed))
        return tuple(out)
    return run_suite(suite, seed)
