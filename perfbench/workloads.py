"""The benchmark's four workloads, each run in a fresh process of its own.

    PYTHONPATH=src python3 perfbench/workloads.py MODE --workload NAME --seed N [--seconds T]

``run.py`` starts this file in one of three modes:

* ``setup``: import softrgg, do the workload's set-up, print ``READY`` and
  exit.  ``run.py`` times these cold starts for ``setup_s``.
* ``run``: the same set-up and ``READY``, then a discarded warm-up, the
  timed rounds, and the correctness checks.
* ``trace``: the traced layer suite (see ``trace_suite``).

``run`` and ``trace`` print one JSON document as their last line of stdout.
A round is a fixed list of calls into softrgg's public API; every run
attempts whole rounds, so a failed call counts the same share of the
operations in every run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace
from io import StringIO
from pathlib import Path

import numpy as np

from softrgg import mc, model, stats

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"


# Round index of the discarded warm-up; timed rounds count up from 0.
WARMUP = 1_000_000
# Seconds of discarded rounds before timing.  After an idle spell the first
# rounds run up to 25% faster than under sustained load on both cores, so
# the timed rounds start from a loaded machine whatever ran before them.
WARMUP_S = 3.0


def derive_seed(seed: int, *path: int) -> int:
    """A 63-bit master seed for the program, drawn from the benchmark seed."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(w) for w in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


def graphs_per_experiment(reps: int) -> int:
    """Graphs one detection experiment samples and scores: a pilot batch and
    two evaluation batches (mc.detection_experiment)."""
    return reps // 2 + 2 * (reps - reps // 2)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _failed_call(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    """One workload: set-up, warm-up, a round, and checks on its outputs.

    ``round`` returns (attempted, failed, replicates): operations attempted
    and failed, and the replicates (graphs or draws) completed.
    ``trace_round`` is the round the traced suite runs (1 worker); by
    default the same round.
    """

    name = ""
    tag = 0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        pass

    def warmup(self) -> None:
        pass

    def round(self, r: int, span=nullcontext) -> tuple[int, int, int]:
        raise NotImplementedError

    def trace_round(self, r: int, span) -> tuple[int, int, int]:
        return self.round(r, span)

    def check(self) -> list[str]:
        raise NotImplementedError


class Detection(Workload):
    point: mc.GridPoint
    reps = 0
    test = ""

    def __init__(self, seed):
        super().__init__(seed)
        self.records: list[mc.ExperimentRecord] = []

    def setup(self):
        model.sphere_threshold(self.point.p, self.point.d)

    def experiment(self, r: int, reps: int, keep: bool) -> tuple[int, int, int]:
        count = graphs_per_experiment(reps)
        try:
            rec = mc.detection_experiment(
                self.point, reps, derive_seed(self.seed, self.tag, r), test=self.test
            )
        except Exception:
            _failed_call(f"{self.name} round {r}")
            return count, count, 0
        if keep:
            self.records.append(rec)
        return count, 0, count

    def round(self, r, span=nullcontext):
        return self.experiment(r, self.reps, keep=True)


class DetectStrong(Detection):
    """Criterion-09 strong point: the powerful-test regime at d ~ n."""

    name = "detect-strong"
    tag = 1
    point = mc.GridPoint(n=150, p=0.5, d=150, q=1.0, mode="soft-sphere")
    reps = 800
    test = "half-mean-threshold"
    check_graphs = 8

    def warmup(self):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < WARMUP_S:
            self.experiment(WARMUP, self.reps, keep=False)

    def check(self):
        import reference as ref

        fails = []
        n, p, d, q = self.point.n, self.point.p, self.point.d, self.point.q
        for rec in self.records:
            fails += ref.check_bound(f"power (seed {rec.seed})", rec.power, 0.95, 1.0)
            fails += ref.check_bound(f"type-1 (seed {rec.seed})", rec.type1, 0.0, 0.05)
        mean, se = ref.pooled([r.stat_mean for r in self.records],
                              [r.stat_se for r in self.records])
        fails += ref.check_close_se("pooled stat_mean vs C(n,3) q^3 gamma(d)", mean,
                                    math.comb(n, 3) * q**3 * ref.gamma_ref(d), se)
        params = self.point.params()
        edges = 0
        for i in range(self.check_graphs):
            g = model.sample_graph(params, self.point.mode, derive_seed(self.seed, self.tag, 10_000 + i))
            edge_list = g.edges()
            edges += len(edge_list)
            value = stats.signed_triangle_stat(g, p).value
            fails += ref.check_close_rel(f"signed triangle of graph {i} vs tr(Abar^3)/6", value,
                                         ref.signed_triangle_trace(n, edge_list, p), 1e-9)
        pairs = self.check_graphs * n * (n - 1) // 2
        fails += ref.check_close_se("edge density", edges / pairs, p,
                                    math.sqrt(p * (1 - p) / pairs))
        return fails


class DetectBlind(Detection):
    """Criterion-09 blind point, d = 10 n^3: geometry is lost."""

    name = "detect-blind"
    tag = 2
    point = mc.GridPoint(n=32, p=0.5, d=327_680, q=1.0, mode="soft-sphere")
    reps = 100
    test = "calibrated-quantile"
    trace_graphs = 2

    def warmup(self):
        mc.replicate_values(self.point.params(), self.point.mode, mc.StatisticSpec(), 1,
                            derive_seed(self.seed, self.tag, WARMUP))

    def trace_round(self, r, span):
        # A whole blind experiment is ~20 s; the traced suite samples a few
        # alternative graphs, which is where its time goes.
        try:
            mc.replicate_values(self.point.params(), self.point.mode, mc.StatisticSpec(),
                                self.trace_graphs, derive_seed(self.seed, self.tag, r))
        except Exception:
            _failed_call(f"{self.name} traced round {r}")
            return self.trace_graphs, self.trace_graphs, 0
        return self.trace_graphs, 0, self.trace_graphs

    def check(self):
        import reference as ref

        fails = []
        count = self.reps - self.reps // 2
        for rec in self.records:
            fails += ref.check_same_rate(f"power vs type-1 (seed {rec.seed})",
                                         rec.power, rec.type1, count)
        return fails


# (case, estimator, latent kind, p, d, q, pattern)
PATTERN_CASES = (
    ("tri_d16", "probability", "sphere", 0.5, 16, 1.0, stats.TRIANGLE_PATTERN),
    ("tri_d64", "probability", "sphere", 0.5, 64, 1.0, stats.TRIANGLE_PATTERN),
    ("tri_d256", "probability", "sphere", 0.5, 256, 1.0, stats.TRIANGLE_PATTERN),
    ("c4_d32_q0.3", "signed", "sphere", 0.5, 32, 0.3, stats.FOUR_CYCLE_PATTERN),
    ("c4_d32_q0.7", "signed", "sphere", 0.5, 32, 0.7, stats.FOUR_CYCLE_PATTERN),
    ("c4_d32_q1", "signed", "sphere", 0.5, 32, 1.0, stats.FOUR_CYCLE_PATTERN),
    ("cherry_sphere_d64", "probability", "sphere", 0.3, 64, 1.0, stats.CHERRY_PATTERN),
    ("cherry_gauss_d16", "probability", "gauss", 0.3, 16, 1.0, stats.CHERRY_PATTERN),
    ("cherry_gauss_d64", "probability", "gauss", 0.3, 64, 1.0, stats.CHERRY_PATTERN),
)


class PatternMC(Workload):
    """The latent-pattern estimators at the acceptance suite's points."""

    name = "pattern-mc"
    tag = 3
    draws = 40_000

    def __init__(self, seed):
        super().__init__(seed)
        self.estimates: dict[str, list[tuple[float, float]]] = {c[0]: [] for c in PATTERN_CASES}

    def setup(self):
        for _, _, kind, p, d, _, _ in PATTERN_CASES:
            (model.gauss_threshold if kind == "gauss" else model.sphere_threshold)(p, d)

    def warmup(self):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < WARMUP_S:
            self.round(WARMUP)

    def round(self, r, span=nullcontext):
        failed = 0
        for i, (case, how, kind, p, d, q, pattern) in enumerate(PATTERN_CASES):
            seed = derive_seed(self.seed, self.tag, r, i)
            try:
                with span("case." + case):
                    if how == "signed":
                        est = stats.signed_pattern_estimate(kind, p, d, q, pattern, self.draws, seed)
                    else:
                        est = stats.subgraph_probability_estimate(kind, p, d, pattern, self.draws, seed)
            except Exception:
                _failed_call(f"{self.name} case {case} round {r}")
                failed += self.draws
                continue
            if r != WARMUP:
                self.estimates[case].append(est)
        attempted = self.draws * len(PATTERN_CASES)
        return attempted, failed, attempted - failed

    def check(self):
        import reference as ref

        fails = []
        gauss_u = {}
        for _, _, kind, p, d, _, _ in PATTERN_CASES:
            if kind == "gauss" and (p, d) not in gauss_u:
                gauss_u[p, d] = ref.gauss_threshold_ref(p, d)
                fails += ref.check_close_rel(f"gauss_threshold({p}, {d})",
                                             model.gauss_threshold(p, d), gauss_u[p, d], 1e-7)
        for case, how, kind, p, d, q, pattern in PATTERN_CASES:
            if pattern == stats.TRIANGLE_PATTERN:
                want = 0.125 + ref.gamma_ref(d)
            elif pattern == stats.FOUR_CYCLE_PATTERN:
                want = q**4 * ref.eta_ref(d)
            elif kind == "sphere":
                want = p * p
            else:
                want = ref.gauss_cherry_ref(p, d)
            mean, se = ref.pooled(*zip(*self.estimates[case]))
            fails += ref.check_close_se(case, mean, want, se)
        return fails


class SweepCycle(Workload):
    """mc.sweep with the signed 4-cycle from the detectable corner to q = 0."""

    name = "sweep-cycle"
    tag = 4
    n, p, k = 50, 0.5, 4
    # The detectable corner, a middle point and the q = 0 control.
    grid = ((50, 1.0), (200, 0.8), (50, 0.0))
    reps = 256
    workers = 2
    trace_reps = 100
    pool_reps = 128

    def __init__(self, seed):
        super().__init__(seed)
        self.runs: list[tuple[mc.ExperimentConfig, tuple, str]] = []

    def config(self, r: int, workers: int, reps: int) -> mc.ExperimentConfig:
        return mc.ExperimentConfig(
            grid=tuple(mc.GridPoint(self.n, self.p, d, q, "soft-sphere") for d, q in self.grid),
            reps=reps,
            master_seed=derive_seed(self.seed, self.tag, r),
            statistic=mc.StatisticSpec("cycle", self.k),
            workers=workers,
        )

    def setup(self):
        for d, _ in self.grid:
            model.sphere_threshold(self.p, d)

    # No warm-up: any single-chunk call would build the cycle index table in
    # this process, and the pool workers forked later would inherit it, which
    # a user's sweep does not get.

    def round(self, r, span=nullcontext):
        config = self.config(r, self.workers, self.reps)
        sink = StringIO()
        try:
            records = mc.sweep(config, sink)
        except Exception:
            _failed_call(f"{self.name} round {r}")
            return len(self.grid), len(self.grid), 0
        self.runs.append((config, records, sink.getvalue()))
        return self.points_done(records, self.reps)

    @staticmethod
    def points_done(records, reps: int) -> tuple[int, int, int]:
        failed = sum(rec.status == mc.STATUS_FAILED for rec in records)
        return len(records), failed, (len(records) - failed) * graphs_per_experiment(reps)

    def trace_round(self, r, span):
        # One grid point at 1 worker, resumed at its absolute index.
        i = r % len(self.grid)
        config = self.config(r, 1, self.trace_reps)
        records = mc.sweep(replace(config, grid=config.grid[i:i + 1]), StringIO(), start_index=i)
        return self.points_done(records, self.trace_reps)

    def pool_params(self) -> model.ModelParams:
        return mc.GridPoint(self.n, self.p, *self.grid[0], "soft-sphere").params()

    def timed_replicates(self, workers: int) -> float:
        """Wall seconds of one replicate_values call on the first grid point."""
        t0 = time.perf_counter()
        mc.replicate_values(self.pool_params(), "soft-sphere", mc.StatisticSpec("cycle", self.k),
                            self.pool_reps, derive_seed(self.seed, self.tag, 20_000),
                            workers=workers)
        return time.perf_counter() - t0

    def cold_cycle_call(self) -> None:
        """The first cycle statistic in this process, which builds its index table."""
        g = model.sample_graph(self.pool_params(), "soft-sphere", derive_seed(self.seed, self.tag, 30_000))
        mc.evaluate_statistic(g, self.p, mc.StatisticSpec("cycle", self.k))

    def check_records(self, records) -> list[str]:
        import reference as ref

        fails = []
        count = self.reps - self.reps // 2
        for rec in records:
            pt = rec.point
            want = 3 * math.comb(pt.n, 4) * pt.q**4 * ref.eta_ref(pt.d)
            fails += ref.check_close_se(f"stat_mean at d={pt.d}, q={pt.q}",
                                        rec.stat_mean, want, rec.stat_se)
            if pt.q == 0.0:
                fails += ref.check_variance(f"q=0 variance at d={pt.d}", rec.stat_se**2 * count,
                                            ref.er_cycle4_variance(pt.n, pt.p), count)
        return fails

    def check(self):
        fails = []
        for _, records, csv_text in self.runs:
            lines = csv_text.splitlines()
            if lines[:1] != [mc.CSV_HEADER] or len(lines) != 1 + len(self.grid):
                fails.append(f"sweep CSV has {len(lines)} lines, expected header + {len(self.grid)}")
            fails += self.check_records(records)
        # The rows at self.workers must equal the rows at 1 worker.
        config, records, _ = self.runs[0]
        i = self.seed % len(self.grid)
        single = mc.sweep(replace(config, grid=config.grid[i:i + 1], workers=1), start_index=i)[0]
        if not rows_match(records[i], single):
            fails.append(f"grid point {i}: row at {self.workers} workers {records[i].csv_row()!r} "
                         f"differs from the row at 1 worker {single.csv_row()!r}")
        return fails


def rows_match(a: mc.ExperimentRecord, b: mc.ExperimentRecord) -> bool:
    """Equal CSV rows and status, apart from the measured wallclock_ms."""
    return (a.csv_row().rsplit(",", 1)[0], a.status) == (b.csv_row().rsplit(",", 1)[0], b.status)


WORKLOADS = {w.name: w for w in (DetectStrong, DetectBlind, PatternMC, SweepCycle)}


def timed_rounds(seconds: float, round_fn, span=nullcontext):
    """Run whole rounds; start another only if it should end within ``seconds``.

    Returns per-round (replicates, seconds) plus attempted and failed totals.
    """
    rounds, attempted, failed = [], 0, 0
    start = time.perf_counter()
    r = 0
    while True:
        t0 = time.perf_counter()
        a, f, reps = round_fn(r, span)
        t1 = time.perf_counter()
        rounds.append((reps, t1 - t0))
        attempted, failed, r = attempted + a, failed + f, r + 1
        if (t1 - start) + (t1 - t0) > seconds:
            return rounds, attempted, failed


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "RGG_WORKERS": os.environ.get("RGG_WORKERS"),
        "blas_threads_env": {k: v for k, v in os.environ.items()
                             if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo") as f:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        env["cpu"] = platform.processor() or platform.machine()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        env["blas_threads"] = fn()
    return env


# -- traced layer suite ------------------------------------------------------

# Segments run in this order: the pool measurement needs a process in which
# no cycle statistic has run yet, and the cold cycle call's peak-RSS growth
# shows only before the blind point's large latent draws raise the peak.
SUITE_ORDER = ("sweep-cycle", "detect-strong", "pattern-mc", "detect-blind")

STAT_SPANS = ("stats.signed_triangle_stat", "stats.signed_cycle_stat")
SAMPLER_SPANS = ("model.sample_graph",)


def layer_targets():
    from tracer import Target

    def pd_key(args, kwargs):
        return tuple(args[:2])

    return [
        Target(model, "sphere_threshold", "model.sphere_threshold", cold_key=pd_key),
        Target(model, "gauss_threshold", "model.gauss_threshold", cold_key=pd_key),
        Target(model, "sample_latent", "model.sample_latent", size=lambda lat: lat.data.nbytes),
        Target(mc, "sample_graph", "model.sample_graph"),
        Target(model.AdjacencySample, "from_edge_vector", "model.pack"),
        Target(model.AdjacencySample, "to_dense", "model.to_dense"),
        Target(model.AdjacencySample, "edge_vector", "model.edge_vector"),
        Target(mc, "signed_triangle_stat", "stats.signed_triangle_stat"),
        Target(mc, "signed_cycle_stat", "stats.signed_cycle_stat",
               cold_key=lambda args, kwargs: (args[0].n, args[2])),
        Target(stats, "subgraph_probability_estimate", "stats.subgraph_probability_estimate"),
        Target(stats, "signed_pattern_estimate", "stats.signed_pattern_estimate"),
        Target(mc, "replicate_values", "mc.replicate_values"),
        Target(mc, "detection_experiment", "mc.detection_experiment"),
        Target(mc, "sweep", "mc.sweep"),
    ]


def trace_suite(name: str, seed: int, seconds: float) -> dict:
    """Trace one segment per workload at 1 worker and derive every per-layer
    metric from the segment of the workload it belongs to.

    Each segment is one root span: set-up, then whole traced rounds for a
    quarter of ``seconds``.  The tracing overhead is then measured on the
    named workload's rounds.
    """
    from tracer import Tracer

    tracer, targets = Tracer(), layer_targets()
    share = seconds / len(SUITE_ORDER)
    seg, cpu, pool, attempted, failed = {}, {}, {}, 0, 0
    for wname in SUITE_ORDER:
        w = WORKLOADS[wname](seed)
        if wname == "sweep-cycle":
            pool[2] = w.timed_replicates(2)
        with tracer.installed(targets), tracer.span("segment." + wname):
            seg[wname] = len(tracer.spans) - 1
            with tracer.span("setup"):
                w.setup()
                if wname == "sweep-cycle":
                    w.cold_cycle_call()
            c0, t0 = cpu_seconds(), time.perf_counter()
            _, a, f = timed_rounds(share, w.trace_round, tracer.span)
            cpu[wname] = (cpu_seconds() - c0) / (time.perf_counter() - t0)
        attempted, failed = attempted + a, failed + f
        if wname == "sweep-cycle":
            pool[1] = w.timed_replicates(1)
        if wname == name:
            named = w
    overhead, a, f = tracing_overhead(named, targets)
    attempted, failed = attempted + a, failed + f

    metrics = layer_metrics(tracer, seg, cpu, pool)
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    fails = span_accounting(tracer, seg)
    write_trace(name, seed, tracer, seg, metrics)
    return {"correct": not fails, "failures": fails, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# Pairs of one traced and one untraced run of the same round.
OVERHEAD_PAIRS = 3


def tracing_overhead(w: Workload, targets) -> tuple[float, int, int]:
    """Median over pairs of traced / untraced wall time of one round, minus 1.

    Both halves of a pair run the same round; which half goes first
    alternates from pair to pair.
    """
    from tracer import Tracer

    ratios, attempted, failed = [], 0, 0
    for r in range(OVERHEAD_PAIRS):
        wall = {}
        for traced in ((True, False) if r % 2 == 0 else (False, True)):
            tracer = Tracer()
            with tracer.installed(targets if traced else ()):
                t0 = time.perf_counter()
                a, f, _ = w.trace_round(r, tracer.span if traced else nullcontext)
                wall[traced] = time.perf_counter() - t0
            attempted, failed = attempted + a, failed + f
        ratios.append(wall[True] / wall[False])
    return statistics.median(ratios) - 1.0, attempted, failed


def layer_metrics(tracer, seg: dict, cpu: dict, pool: dict) -> dict:
    """Per-layer metric name -> (value, unit)."""
    spans = tracer.spans

    def within_idx(wname, *names):
        return [i for i in tracer.subtree(seg[wname]) if spans[i].name in names]

    def within(wname, *names):
        return [spans[i] for i in within_idx(wname, *names)]

    def mean_ms(sel):
        return 1e-6 * sum(s.ns for s in sel) / len(sel)

    strong = tracer.subtree(seg["detect-strong"])
    graphs = within("detect-strong", "model.sample_graph")
    unpack = tracer.outermost(strong, ("model.to_dense", "model.edge_vector"))
    loop_ns = 0
    reps = 0
    for rv in within_idx("detect-strong", "mc.replicate_values"):
        inner = tracer.outermost(tracer.subtree(rv)[1:], SAMPLER_SPANS + STAT_SPANS)
        loop_ns += spans[rv].ns - sum(s.ns for s in inner)
        reps += sum(1 for s in inner if s.name in SAMPLER_SPANS)
    latents = within("detect-blind", "model.sample_latent")
    cycles = within("sweep-cycle", "stats.signed_cycle_stat")
    cold = within("sweep-cycle", "stats.signed_cycle_stat.cold")
    solves = within("pattern-mc", "model.sphere_threshold.cold", "model.gauss_threshold.cold")

    m = {
        "model.threshold_solve_ms": (1e-6 * sum(s.ns for s in solves), "ms"),
        "model.sample_graph_ms": (mean_ms(graphs), "ms"),
        "model.latent_draw_ms": (mean_ms(latents), "ms"),
        "model.latent_mb_per_graph": (sum(s.size for s in latents) / len(latents) / 1e6, "MB"),
        "model.pack_ms": (mean_ms(within("detect-strong", "model.pack")), "ms"),
        "model.unpack_ms": (1e-6 * sum(s.ns for s in unpack) / len(graphs), "ms"),
        "stats.triangle_ms": (mean_ms(within("detect-strong", "stats.signed_triangle_stat")), "ms"),
        "stats.cycle_ms": (mean_ms(cycles), "ms"),
        "stats.cycle_cold_s": (1e-9 * cold[0].ns, "s"),
        "stats.cycle_cold_mb": (cold[0].size / 1e6, "MB"),
        "mc.loop_self_ms_per_rep": (1e-6 * loop_ns / reps, "ms"),
        "mc.pool_speedup": (pool[1] / pool[2], "ratio"),
        "mc.cpu_per_wall": (cpu["detect-strong"], "ratio"),
    }
    for case, *_ in PATTERN_CASES:
        case_spans = within("pattern-mc", "case." + case)
        m["stats.pattern_ns_per_draw." + case] = (
            sum(s.ns for s in case_spans) / (len(case_spans) * PatternMC.draws), "ns")
    return m


def span_accounting(tracer, seg: dict) -> list[str]:
    """Self times of each segment's spans must add up to its wall time."""
    selfs = tracer.self_ns()
    fails = []
    for wname, root in seg.items():
        total = sum(selfs[i] for i in tracer.subtree(root))
        if total != tracer.spans[root].ns:
            fails.append(f"segment {wname}: self times add to {total} ns, "
                         f"its wall time is {tracer.spans[root].ns} ns")
    return fails


def write_trace(name: str, seed: int, tracer, seg: dict, metrics: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    doc = {
        "workload": name,
        "seed": seed,
        "environment": environment(),
        "segments": {w: tracer.spans[i].ns for w, i in seg.items()},
        "table": tracer.table(),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans": [[s.name, s.start, s.end, s.parent, s.size] for s in tracer.spans],
    }
    (RESULTS / f"spans-{name}-seed{seed}.json").write_text(json.dumps(doc))
    print(f"{'span':44s} {'calls':>8s} {'total ms':>11s} {'self ms':>11s}", file=sys.stderr)
    for span_name, row in sorted(doc["table"].items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"{span_name:44s} {row['calls']:8d} {row['total_ms']:11.1f} {row['self_ms']:11.1f}",
              file=sys.stderr)


# -- entry point --------------------------------------------------------------

def run(w: Workload, seconds: float) -> dict:
    w.warmup()
    rounds, attempted, failed = timed_rounds(seconds, w.round)
    # Peak resident set of this process and of its pool workers, read
    # before the checks import scipy and re-run work at 1 worker.
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    fails = w.check()
    for msg in fails:
        print("perfbench: check failed: " + msg, file=sys.stderr)
    return {
        "correct": not fails,
        "failures": fails,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        # Replicates over seconds of the whole timed phase.  The machine's
        # speed drifts in spells of several seconds, longer than a round, and
        # this ratio averages over them where a median of rounds would pick
        # one spell.
        "reps_per_s": sum(reps for reps, _ in rounds) / sum(t for _, t in rounds),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "environment": environment(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(HERE))

    if args.mode == "trace":
        print("READY", flush=True)
        out = trace_suite(args.workload, args.seed, args.seconds)
    else:
        w = WORKLOADS[args.workload](args.seed)
        w.setup()
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        out = run(w, args.seconds)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
