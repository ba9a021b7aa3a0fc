"""Seeded Monte Carlo experiments over the graph models.

Everything here is driven by one master seed.  Replicates are split into
fixed-size chunks; chunk ``c`` of a batch draws its graph seeds from
``substream(master_seed, tag, c)``, so the values produced for a batch are
bitwise identical no matter how many worker processes evaluate the chunks.
Chunk results are merged in chunk order for the same reason.

At ``workers`` > 1 batches run on one worker pool per process and worker
count, opened on first use and kept until the interpreter exits, so idle
workers keep their memory (such as cycle index tables) between calls.
Workers fork from a ``forkserver`` that imported numpy with one BLAS thread,
so they share the cores instead of each running a multi-threaded BLAS; this
process keeps its own BLAS threads for ``workers`` = 1.  Each worker imports
the calling script as ``__mp_main__``, so a script that asks for more than
one worker needs an ``if __name__ == "__main__":`` guard.  A process started
by ``fork`` from one that has used ``workers`` > 1 must run at ``workers`` = 1:
it cannot reach the forkserver it inherited (``ChildProcessError``).

A detection experiment compares the configured signed statistic on the
geometric alternative against the Erdos-Renyi null with the same (n, p).
Two threshold rules are offered:

* ``half-mean-threshold``: the first half of the replicates estimates the
  alternative's mean, the threshold is half of it, and fresh replicates
  from both models estimate power and type-1 error.  A nonpositive pilot
  mean makes the run ``inconclusive`` (the threshold is then useless, but
  the numbers are still reported).
* ``calibrated-quantile``: the threshold is the empirical 0.95 quantile of
  the statistic under the null, estimated on a pilot batch, so the type-1
  error is pinned near 0.05 by construction and the power column carries
  all the signal.

``sweep`` runs one experiment per grid point, isolates failures (a crashed
point becomes a ``failed`` record with NaN numerics), and appends CSV rows
with floats at 17 significant digits.  ``wallclock_ms`` is measured, so CSV
bytes are reproducible only up to that final column.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.forkserver
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .model import AdjacencySample, ModelParams, sample_graph, substream
from .specfun import DomainError
from .stats import (
    StatisticValue,
    _check_order,
    signed_clique_stat,
    signed_cycle_stat,
    signed_triangle_stat,
)
from .theory import PhasePoint, phase_classify

CHUNK_SIZE = 64

STAT_KINDS = ("triangle", "clique", "cycle")
TEST_RULES = ("half-mean-threshold", "calibrated-quantile")

# Batch tags keep the pilot, alternative, and null replicate streams of one
# experiment disjoint.  New batches must pick fresh odd tags.
_TAG_PILOT = 31
_TAG_ALT = 37
_TAG_NULL = 41
_TAG_CALIBRATE = 43
_TAG_POINT = 59

# A record's reported fields, the grid point's coordinates first.  CSV rows
# add the measured wallclock_ms; the CLI's JSON adds status instead.
RECORD_FIELDS = (
    "n", "p", "d", "q", "mode", "stat_kind", "k", "reps", "seed",
    "stat_mean", "stat_se", "power", "type1", "threshold", "phase_label",
)
CSV_HEADER = ",".join(RECORD_FIELDS + ("wallclock_ms",))

STATUS_OK = "ok"
STATUS_INCONCLUSIVE = "inconclusive"
STATUS_DEGENERATE = "degenerate"
STATUS_FAILED = "failed"

# Set to 1 in the environment of the forkserver that workers are forked from.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class StatisticSpec:
    """Which signed statistic an experiment evaluates."""

    kind: str = "triangle"
    k: int = 3

    def __post_init__(self) -> None:
        if self.kind not in STAT_KINDS:
            raise DomainError(f"unknown statistic kind {self.kind!r}")
        if self.kind == "triangle" and self.k != 3:
            raise DomainError("triangle statistic is fixed at k = 3")
        _check_order(self.k)


@dataclass(frozen=True)
class GridPoint:
    n: int
    p: float
    d: int
    q: float
    mode: str

    def params(self) -> ModelParams:
        return ModelParams(n=self.n, p=self.p, d=self.d, q=self.q)


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep: one detection experiment per grid point.

    ``master_seed`` is the only entropy source; each grid point gets its own
    derived seed keyed by absolute grid index, so a sweep resumed with
    ``start_index`` reproduces exactly the records a full run would have
    produced at those indices.
    """

    grid: tuple[GridPoint, ...]
    reps: int
    master_seed: int
    statistic: StatisticSpec = StatisticSpec()
    test: str = "half-mean-threshold"
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.grid:
            raise DomainError("empty experiment grid")
        if self.reps < 2:
            raise DomainError("need at least 2 replicates")
        if self.test not in TEST_RULES:
            raise DomainError(f"unknown test rule {self.test!r}")
        if self.workers < 1:
            raise DomainError("workers must be >= 1")


@dataclass(frozen=True)
class ExperimentRecord:
    point: GridPoint
    stat_kind: str
    k: int
    reps: int
    seed: int
    stat_mean: float
    stat_se: float
    power: float
    type1: float
    threshold: float
    phase_label: str
    wallclock_ms: int
    status: str

    def fields(self) -> dict:
        """RECORD_FIELDS mapped to this record's values."""
        values = {**vars(self.point), **vars(self)}
        return {name: values[name] for name in RECORD_FIELDS}

    def csv_row(self) -> str:
        cells = (*self.fields().values(), self.wallclock_ms)
        return ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in cells)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def evaluate_statistic(
    sample: AdjacencySample, p: float, statistic: StatisticSpec
) -> StatisticValue:
    """The one dispatch from a StatisticSpec to its signed statistic."""
    if statistic.kind == "triangle":
        return signed_triangle_stat(sample, p)
    if statistic.kind == "clique":
        return signed_clique_stat(sample, p, statistic.k)
    return signed_cycle_stat(sample, p, statistic.k)


def _chunk_values(
    params: ModelParams,
    mode: str,
    statistic: StatisticSpec,
    master_seed: int,
    tag: int,
    chunk_index: int,
    count: int,
) -> np.ndarray:
    rng = substream(master_seed, tag, chunk_index)
    out = np.empty(count, dtype=float)
    for i in range(count):
        seed = int(rng.integers(0, 2**63))
        sample = sample_graph(params, mode, seed)
        out[i] = evaluate_statistic(sample, params.p, statistic).value
    return out


# (workers, pool) shared by this process's batches.  It is not locked:
# callers in several threads must not ask for different worker counts.
_pool: tuple[int, ProcessPoolExecutor] | None = None
# A forked child's copy of its parent's pool would never finish a task.
os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of ``workers`` workers, whose numpy runs one BLAS
    thread, kept open until exit; another worker count shuts it down first.

    Workers fork from a server that preloads this module.  The server is
    started (once per process, or again if it died) with the BLAS thread
    variables set to 1 for that start only: this process's BLAS is already
    loaded and keeps its threads.
    """
    global _pool
    if _pool is not None and _pool[0] == workers:
        return _pool[1]
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None
    ctx = multiprocessing.get_context("forkserver")
    ctx.set_forkserver_preload(["softrgg.mc"])
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        multiprocessing.forkserver.ensure_running()
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value
    _pool = (workers, ProcessPoolExecutor(max_workers=workers, mp_context=ctx))
    return _pool[1]


def _drop_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a broken ``pool`` down, and forget it if it is still the shared one."""
    global _pool
    pool.shutdown()
    if _pool is not None and _pool[1] is pool:
        _pool = None


def replicate_values(
    params: ModelParams,
    mode: str,
    statistic: StatisticSpec,
    reps: int,
    master_seed: int,
    *,
    tag: int = _TAG_ALT,
    workers: int = 1,
) -> np.ndarray:
    """Statistic values over ``reps`` independent graphs, in replicate order.

    The result depends on (params, mode, statistic, master_seed, tag) only;
    ``workers`` changes wallclock, never bits.  At ``workers`` > 1 the
    chunks run on the one pool per process and worker count, which lives
    until exit with its idle workers keeping their memory; a pool that
    breaks raises ``BrokenProcessPool`` and the next call opens a new one.
    """
    if reps < 1:
        raise DomainError("need at least 1 replicate")
    if workers < 1:
        raise DomainError("workers must be >= 1")
    tasks = [
        (params, mode, statistic, master_seed, tag, ci, min(CHUNK_SIZE, reps - s))
        for ci, s in enumerate(range(0, reps, CHUNK_SIZE))
    ]
    if len(tasks) == 1 or workers == 1:
        parts = [_chunk_values(*t) for t in tasks]
    else:
        pool = _worker_pool(workers)
        try:
            parts = list(pool.map(_chunk_values, *zip(*tasks)))
        except BrokenProcessPool:
            _drop_pool(pool)
            raise
    return np.concatenate(parts)


def estimate_statistic(
    params: ModelParams,
    mode: str,
    statistic: StatisticSpec,
    reps: int,
    master_seed: int,
    *,
    workers: int = 1,
) -> tuple[float, float]:
    """Mean and standard error of the statistic over seeded replicates."""
    if reps < 2:
        raise DomainError("need at least 2 replicates for a standard error")
    vals = replicate_values(
        params, mode, statistic, reps, master_seed, tag=_TAG_ALT, workers=workers
    )
    return _mean_se(vals)


def _mean_se(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean of ``vals`` and its standard error."""
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))


def phase_label(n: int, d: int, q: float) -> str:
    """Phase-diagram label for (n, d, q) via d = n^alpha, q = n^-beta.

    Points outside the parametrization (n < 2, d < 2, q outside (0, 1))
    have no defined exponents and are labeled "n/a".
    """
    if n < 2 or d < 2 or not 0.0 < q < 1.0:
        return "n/a"
    log_n = math.log(n)
    alpha = math.log(d) / log_n
    beta = -math.log(q) / log_n
    if alpha <= 0.0 or beta <= 0.0:
        return "n/a"
    return phase_classify(PhasePoint(alpha=alpha, beta=beta))


def detection_experiment(
    point: GridPoint,
    reps: int,
    master_seed: int,
    *,
    statistic: StatisticSpec = StatisticSpec(),
    test: str = "half-mean-threshold",
    workers: int = 1,
) -> ExperimentRecord:
    """One power/type-1 experiment at a single parameter point.

    ``reps`` replicates are drawn per batch: a pilot batch of ``reps // 2``
    sets the threshold (from the alternative under the half-mean rule, from
    the null under the calibrated-quantile rule) and fresh batches of
    ``reps - reps // 2`` estimate power on the alternative and type-1 error
    on the Erdos-Renyi null.  ``stat_mean``/``stat_se`` describe the
    alternative's evaluation batch.

    At p = 0 or p = 1 every centered edge weight vanishes, the statistic is
    identically zero, and the record is returned immediately with status
    ``degenerate`` and zero rates.  At ``workers`` > 1 every batch runs on
    the one pool per process and worker count, which lives until exit with
    its idle workers keeping their memory.
    """
    if reps < 100:
        raise DomainError("detection needs reps >= 100")
    if test not in TEST_RULES:
        raise DomainError(f"unknown test rule {test!r}")
    if statistic.k > point.n:
        raise DomainError(
            f"statistic order k = {statistic.k} exceeds the n = {point.n} vertices"
        )
    t0 = time.perf_counter()
    if point.p in (0.0, 1.0):
        return _record(point, statistic, reps, master_seed, t0, STATUS_DEGENERATE, (0.0,) * 5)

    params = point.params()
    null_params = ModelParams(n=point.n, p=point.p, d=point.d, q=0.0)
    pilot_count = reps // 2
    eval_count = reps - pilot_count
    status = STATUS_OK

    def batch(params: ModelParams, mode: str, count: int, tag: int) -> np.ndarray:
        return replicate_values(
            params, mode, statistic, count, master_seed, tag=tag, workers=workers
        )

    if test == "half-mean-threshold":
        pilot = batch(params, point.mode, pilot_count, _TAG_PILOT)
        delta = float(pilot.mean())
        threshold = delta / 2.0
        if delta <= 0.0:
            status = STATUS_INCONCLUSIVE
    else:
        calib = batch(null_params, "er", pilot_count, _TAG_CALIBRATE)
        threshold = float(np.quantile(calib, 0.95, method="higher"))

    alt_vals = batch(params, point.mode, eval_count, _TAG_ALT)
    null_vals = batch(null_params, "er", eval_count, _TAG_NULL)
    power = float(np.mean(alt_vals >= threshold))
    type1 = float(np.mean(null_vals >= threshold))
    numbers = (*_mean_se(alt_vals), power, type1, threshold)
    return _record(point, statistic, reps, master_seed, t0, status, numbers)


def point_seed(master_seed: int, index: int) -> int:
    """Derived seed for the grid point at absolute ``index``."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(_TAG_POINT, index))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _record(
    point: GridPoint,
    statistic: StatisticSpec,
    reps: int,
    seed: int,
    t0: float,
    status: str,
    numbers: tuple[float, float, float, float, float],
) -> ExperimentRecord:
    """The one record builder.  ``numbers`` are stat_mean, stat_se, power,
    type1 and threshold (all 0.0 when degenerate, NaN when failed);
    ``wallclock_ms`` is the time since ``t0``, taken now."""
    stat_mean, stat_se, power, type1, threshold = numbers
    return ExperimentRecord(
        point=point,
        stat_kind=statistic.kind,
        k=statistic.k,
        reps=reps,
        seed=seed,
        stat_mean=stat_mean,
        stat_se=stat_se,
        power=power,
        type1=type1,
        threshold=threshold,
        phase_label=phase_label(point.n, point.d, point.q),
        wallclock_ms=int(round((time.perf_counter() - t0) * 1000.0)),
        status=status,
    )


def sweep(
    config: ExperimentConfig,
    sink: TextIO | None = None,
    *,
    start_index: int = 0,
) -> tuple[ExperimentRecord, ...]:
    """Run every grid point, streaming CSV rows to ``sink`` as they finish.

    The header is written only when ``start_index`` is 0, so a resumed run
    (same config, grid sliced to the remaining points, ``start_index`` set
    to the first remaining absolute index) appends rows that match the
    original run bit for bit, wallclock aside.  A grid point that raises is
    recorded as ``failed`` with NaN numerics and the sweep continues.  At
    ``workers`` > 1 every point runs on the one pool per process and worker
    count, which lives until exit; its idle workers keep their memory
    between calls.  A point that breaks the pool (a worker died) is
    recorded as ``failed`` and the next point gets a fresh pool; if that one
    breaks too, ``BrokenProcessPool`` is raised.
    """
    if start_index < 0:
        raise DomainError("start_index must be >= 0")
    if sink is not None and start_index == 0:
        sink.write(CSV_HEADER + "\n")
    # Outside the point guard: a worker re-importing a guard-less script dies here.
    if config.workers > 1:
        _worker_pool(config.workers)
    records, broke = [], False
    for offset, point in enumerate(config.grid):
        seed = point_seed(config.master_seed, start_index + offset)
        t0 = time.perf_counter()
        was_broke, broke = broke, False
        try:
            record = detection_experiment(
                point, config.reps, seed, statistic=config.statistic,
                test=config.test, workers=config.workers,
            )
        except Exception as exc:
            broke = isinstance(exc, BrokenProcessPool)
            if broke and was_broke:
                raise BrokenProcessPool(
                    "two worker pools in a row broke; the usual cause is a script "
                    'without an if __name__ == "__main__": guard'
                ) from exc
            record = _record(
                point, config.statistic, config.reps, seed, t0, STATUS_FAILED, (math.nan,) * 5
            )
        records.append(record)
        if sink is not None:
            sink.write(record.csv_row() + "\n")
    return tuple(records)


def variance_profile(
    point_dims: Sequence[int],
    n: int,
    p: float,
    q: float,
    mode: str,
    reps: int,
    master_seed: int,
    *,
    statistic: StatisticSpec = StatisticSpec(),
    workers: int = 1,
) -> tuple[tuple[int, float, float], ...]:
    """Sample variance of the statistic across dimensions, with the scale
    n^3 + n^4 q^4 / d divided out.  Returns (d, variance, scaled) triples.
    """
    out = []
    for i, d in enumerate(point_dims):
        params = ModelParams(n=n, p=p, d=d, q=q)
        vals = replicate_values(
            params, mode, statistic, reps, master_seed, tag=71 + 2 * i, workers=workers
        )
        var = float(vals.var(ddof=1))
        scale = n**3 + n**4 * q**4 / d
        out.append((d, var, var / scale))
    return tuple(out)
