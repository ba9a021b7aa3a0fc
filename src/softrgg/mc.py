"""Seeded Monte Carlo experiments over the graph models.

Everything here is driven by one master seed.  Replicates are split into
fixed-size chunks; chunk ``c`` of a batch draws its graph seeds from
``substream(master_seed, tag, c)``, so the values produced for a batch are
bitwise identical no matter how many worker processes evaluate the chunks.
Chunk results are merged in chunk order for the same reason.

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
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .model import AdjacencySample, ModelParams, sample_graph, substream
from .specfun import DomainError
from .stats import (
    MAX_ORDER,
    MIN_ORDER,
    signed_clique_stat,
    signed_cycle_stat,
    signed_triangle_stat,
)
from .theory import PHASE_UNKNOWN, PhasePoint, phase_classify

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


@dataclass(frozen=True)
class StatisticSpec:
    """Which signed statistic an experiment evaluates."""

    kind: str = "triangle"
    k: int = 3

    def __post_init__(self) -> None:
        if self.kind not in STAT_KINDS:
            raise DomainError(f"unknown statistic kind {self.kind!r}")
        if self.kind == "triangle":
            if self.k != 3:
                raise DomainError("triangle statistic is fixed at k = 3")
        elif not MIN_ORDER <= self.k <= MAX_ORDER:
            raise DomainError(
                f"k = {self.k} outside supported order range "
                f"[{MIN_ORDER}, {MAX_ORDER}]"
            )


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
) -> float:
    if statistic.kind == "triangle":
        return signed_triangle_stat(sample, p).value
    if statistic.kind == "clique":
        return signed_clique_stat(sample, p, statistic.k).value
    return signed_cycle_stat(sample, p, statistic.k).value


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
        out[i] = evaluate_statistic(sample, params.p, statistic)
    return out


def _chunk_task(args) -> np.ndarray:
    return _chunk_values(*args)


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
    ``workers`` changes wallclock, never bits.
    """
    if reps < 1:
        raise DomainError("need at least 1 replicate")
    if workers < 1:
        raise DomainError("workers must be >= 1")
    starts = range(0, reps, CHUNK_SIZE)
    tasks = [
        (params, mode, statistic, master_seed, tag, ci, min(CHUNK_SIZE, reps - s))
        for ci, s in enumerate(starts)
    ]
    if workers == 1 or len(tasks) == 1:
        parts = [_chunk_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_chunk_task, tasks))
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
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(reps))
    return mean, se


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
    ``degenerate`` and zero rates.
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
        return _constant_record(
            point, statistic, reps, master_seed, t0, 0.0, STATUS_DEGENERATE
        )

    params = point.params()
    null_params = ModelParams(n=point.n, p=point.p, d=point.d, q=0.0)
    pilot_count = reps // 2
    eval_count = reps - pilot_count
    status = STATUS_OK

    if test == "half-mean-threshold":
        pilot = replicate_values(
            params, point.mode, statistic, pilot_count, master_seed,
            tag=_TAG_PILOT, workers=workers,
        )
        delta = float(pilot.mean())
        threshold = delta / 2.0
        if delta <= 0.0:
            status = STATUS_INCONCLUSIVE
    else:
        calib = replicate_values(
            null_params, "er", statistic, pilot_count, master_seed,
            tag=_TAG_CALIBRATE, workers=workers,
        )
        threshold = float(np.quantile(calib, 0.95, method="higher"))

    alt_vals = replicate_values(
        params, point.mode, statistic, eval_count, master_seed,
        tag=_TAG_ALT, workers=workers,
    )
    null_vals = replicate_values(
        null_params, "er", statistic, eval_count, master_seed,
        tag=_TAG_NULL, workers=workers,
    )
    return ExperimentRecord(
        point=point,
        stat_kind=statistic.kind,
        k=statistic.k,
        reps=reps,
        seed=master_seed,
        stat_mean=float(alt_vals.mean()),
        stat_se=float(alt_vals.std(ddof=1) / math.sqrt(eval_count)),
        power=float(np.mean(alt_vals >= threshold)),
        type1=float(np.mean(null_vals >= threshold)),
        threshold=threshold,
        phase_label=phase_label(point.n, point.d, point.q),
        wallclock_ms=_elapsed_ms(t0),
        status=status,
    )


def _elapsed_ms(t0: float) -> int:
    return int(round((time.perf_counter() - t0) * 1000.0))


def point_seed(master_seed: int, index: int) -> int:
    """Derived seed for the grid point at absolute ``index``."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(_TAG_POINT, index))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _constant_record(
    point: GridPoint,
    statistic: StatisticSpec,
    reps: int,
    seed: int,
    t0: float,
    value: float,
    status: str,
) -> ExperimentRecord:
    """A record with ``value`` in every numeric field (degenerate or failed)."""
    return ExperimentRecord(
        point=point,
        stat_kind=statistic.kind,
        k=statistic.k,
        reps=reps,
        seed=seed,
        stat_mean=value,
        stat_se=value,
        power=value,
        type1=value,
        threshold=value,
        phase_label=phase_label(point.n, point.d, point.q),
        wallclock_ms=_elapsed_ms(t0),
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
    recorded as ``failed`` with NaN numerics and the sweep continues.
    """
    if start_index < 0:
        raise DomainError("start_index must be >= 0")
    if sink is not None and start_index == 0:
        sink.write(CSV_HEADER + "\n")
    records = []
    for offset, point in enumerate(config.grid):
        seed = point_seed(config.master_seed, start_index + offset)
        t0 = time.perf_counter()
        try:
            record = detection_experiment(
                point,
                config.reps,
                seed,
                statistic=config.statistic,
                test=config.test,
                workers=config.workers,
            )
        except Exception:
            record = _constant_record(
                point, config.statistic, config.reps, seed, t0, float("nan"), STATUS_FAILED
            )
        records.append(record)
        if sink is not None:
            sink.write(record.csv_row() + "\n")
    return tuple(records)


def records_to_csv(records: Iterable[ExperimentRecord]) -> str:
    """Full CSV document (header plus one row per record)."""
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"


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
            params, mode, statistic, reps, master_seed, tag=71 + 2 * i,
            workers=workers,
        )
        var = float(vals.var(ddof=1))
        scale = n**3 + n**4 * q**4 / d
        out.append((d, var, var / scale))
    return tuple(out)
