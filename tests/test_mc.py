import io
import math
import os
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softrgg import mc
from softrgg.mc import (
    CSV_HEADER,
    ExperimentConfig,
    ExperimentRecord,
    GridPoint,
    STATUS_DEGENERATE,
    STATUS_FAILED,
    STATUS_OK,
    STAT_KINDS,
    TEST_RULES,
    StatisticSpec,
    detection_experiment,
    estimate_statistic,
    phase_label,
    point_seed,
    replicate_values,
    sweep,
    variance_profile,
)
from softrgg.model import MODES, ModelParams
from softrgg.specfun import DomainError
from softrgg.stats import MAX_ORDER
from softrgg.theory import GAMMA_SCALED_LOWER, GAMMA_SCALED_UPPER


def strip_wallclock(csv_text: str) -> list[str]:
    """CSV lines without the final (measured, nondeterministic) column."""
    return [line.rsplit(",", 1)[0] for line in csv_text.strip().splitlines()]


def test_replicate_values_worker_count_invariance():
    params = ModelParams(n=12, p=0.4, d=8, q=0.5)
    spec = StatisticSpec()
    serial = replicate_values(params, "soft-sphere", spec, 300, 2024, workers=1)
    pooled = replicate_values(params, "soft-sphere", spec, 300, 2024, workers=3)
    assert serial.shape == (300,)
    assert np.array_equal(serial, pooled)


def row_key(record: ExperimentRecord) -> tuple[str, str]:
    """A record's CSV row without the measured wallclock_ms, and its status."""
    return record.csv_row().rsplit(",", 1)[0], record.status


@st.composite
def small_experiments(draw):
    n = draw(st.integers(5, 10))
    kind = draw(st.sampled_from(STAT_KINDS))
    k = 3 if kind == "triangle" else draw(st.integers(3, min(n, MAX_ORDER)))
    points = tuple(
        GridPoint(
            n=n,
            p=draw(st.floats(0.05, 0.95)),
            d=draw(st.integers(2, 64)),
            q=draw(st.floats(0.0, 1.0)),
            mode=draw(st.sampled_from(MODES)),
        )
        for _ in range(2)
    )
    return points, StatisticSpec(kind, k), draw(st.sampled_from(TEST_RULES))


# Every batch of reps // 2 or reps - reps // 2 replicates spans at least two
# chunks, so the 2-worker runs go through the pool.
@given(
    case=small_experiments(),
    reps=st.integers(130, 300),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=10, deadline=None)
def test_records_do_not_depend_on_worker_count(case, reps, seed):
    points, spec, rule = case
    one, two = (
        detection_experiment(points[0], reps, seed, statistic=spec, test=rule, workers=w)
        for w in (1, 2)
    )
    assert row_key(one) == row_key(two)
    one, two = (
        sweep(ExperimentConfig(points, reps, seed, spec, rule, workers=w))
        for w in (1, 2)
    )
    assert [row_key(r) for r in one] == [row_key(r) for r in two]


def shut_shared_pool():
    if mc._pool is not None:
        mc._pool[1].shutdown()
    mc._pool = None


@pytest.fixture
def no_shared_pool():
    """Shut the process's shared pool down before and after the test, so it
    sees only the pools it builds itself and leaves none of them open."""
    shut_shared_pool()
    yield
    shut_shared_pool()


def counting_pools(monkeypatch, broken_first=False):
    """Patch mc's pool class; returns the list of pools built.  With
    ``broken_first`` the first pool acts as one whose worker died."""
    built = []

    class CountingPool(mc.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

        def map(self, *args, **kwargs):
            if broken_first and self is built[0]:
                raise BrokenProcessPool("a worker died")
            return super().map(*args, **kwargs)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", CountingPool)
    return built


@pytest.mark.usefixtures("no_shared_pool")
def test_sweep_opens_one_pool_with_single_threaded_blas(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    environ = dict(os.environ)
    built = counting_pools(monkeypatch)
    grid = tuple(GridPoint(n=8, p=0.5, d=4, q=q, mode="soft-sphere") for q in (0.2, 0.5, 0.8))
    recs = sweep(ExperimentConfig(grid, reps=260, master_seed=3, workers=2))
    assert [r.status for r in recs] == [STATUS_OK] * 3
    assert len(built) == 1
    assert dict(os.environ) == environ
    # A second sweep, a standalone experiment and a variance profile reuse it.
    sweep(ExperimentConfig(grid[:2], reps=260, master_seed=4, workers=2))
    assert detection_experiment(grid[0], 260, 5, workers=2).status == STATUS_OK
    variance_profile((4, 8), n=8, p=0.5, q=0.5, mode="soft-sphere", reps=130,
                     master_seed=6, workers=2)
    assert len(built) == 1
    pool = mc._worker_pool(2)
    assert pool is built[0]
    assert pool.submit(os.getenv, "OPENBLAS_NUM_THREADS").result() == "1"
    assert pool.submit(os.getenv, "OMP_NUM_THREADS").result() == "1"
    assert dict(os.environ) == environ

    # Another worker count shuts the first pool down and builds a second.
    params, spec = ModelParams(n=8, p=0.5, d=4, q=0.5), StatisticSpec()
    want = replicate_values(params, "soft-sphere", spec, 130, 7, workers=1)
    assert np.array_equal(replicate_values(params, "soft-sphere", spec, 130, 7, workers=3), want)
    assert len(built) == 2
    with pytest.raises(RuntimeError, match="shutdown"):
        built[0].submit(os.getpid)

    # A forked child does not inherit the pool: its copy would hang.
    child = os.fork()
    if child == 0:
        os._exit(0 if mc._pool is None else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]) == 0
    assert mc._worker_pool(3) is built[1]

    # A pool whose worker died raises once; the next call runs on a new pool.
    with pytest.raises(BrokenProcessPool):
        built[1].submit(os._exit, 1).result()
    with pytest.raises(BrokenProcessPool):
        replicate_values(params, "soft-sphere", spec, 130, 7, workers=3)
    assert np.array_equal(replicate_values(params, "soft-sphere", spec, 130, 7, workers=3), want)
    assert len(built) == 3
    # Dropping a broken pool that is no longer the shared one leaves the
    # shared one open.
    mc._drop_pool(built[1])
    assert mc._worker_pool(3) is built[2]
    assert built[2].submit(os.getpid).result() > 0


@pytest.mark.usefixtures("no_shared_pool")
def test_broken_pool_fails_only_its_point(monkeypatch):
    grid = tuple(GridPoint(n=8, p=0.5, d=4, q=q, mode="soft-sphere") for q in (0.3, 0.6))
    config = ExperimentConfig(grid, reps=260, master_seed=8, workers=2)
    single = sweep(ExperimentConfig(grid, reps=260, master_seed=8, workers=1))
    built = counting_pools(monkeypatch, broken_first=True)
    recs = sweep(config)
    assert len(built) == 2
    assert recs[0].status == STATUS_FAILED and math.isnan(recs[0].power)
    assert row_key(recs[1]) == row_key(single[1])


def run_script(tmp_path: Path, text: str) -> subprocess.CompletedProcess:
    """Run ``text`` as a script in a fresh interpreter that imports this softrgg."""
    script = tmp_path / "script.py"
    script.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(mc.__file__).parents[1])}
    return subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)


def test_sweep_without_main_guard_raises(tmp_path):
    # Each worker re-imports this script, whose sweep cannot open a pool
    # there; the worker dies and every pool the real sweep opens breaks.
    out = run_script(tmp_path, """
from softrgg import mc
grid = tuple(mc.GridPoint(n=8, p=0.5, d=4, q=q, mode="soft-sphere") for q in (0.3, 0.6))
print([r.status for r in mc.sweep(mc.ExperimentConfig(grid, 260, 8, workers=2))])
""")
    assert out.returncode != 0, out.stdout
    assert "BrokenProcessPool" in out.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_no_worker_outlives_its_parent(tmp_path):
    out = run_script(tmp_path, """
import os, time
from softrgg import mc

def pid_after(seconds):
    time.sleep(seconds)
    return os.getpid()

if __name__ == "__main__":
    grid = (mc.GridPoint(n=8, p=0.5, d=4, q=0.5, mode="soft-sphere"),)
    mc.sweep(mc.ExperimentConfig(grid, 260, 1, workers=2))
    pool = mc._worker_pool(2)
    print(*{pool.submit(os.getpid).result()} | {f.result() for f in
            [pool.submit(pid_after, 0.5) for _ in range(2)]})
""")
    assert out.returncode == 0, out.stderr
    pids = [int(word) for word in out.stdout.split()]
    assert pids

    def running(pid: int) -> bool:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return False
        return stat.rsplit(")", 1)[1].split()[0] != "Z"

    deadline = time.monotonic() + 5.0
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in pids if running(pid)]


def test_replicate_values_distinct_tags_differ():
    params = ModelParams(n=8, p=0.5, d=4, q=0.5)
    spec = StatisticSpec()
    a = replicate_values(params, "soft-sphere", spec, 64, 5, tag=31)
    b = replicate_values(params, "soft-sphere", spec, 64, 5, tag=37)
    assert not np.array_equal(a, b)


def test_estimate_statistic_er_triangle_moments():
    n, p = 10, 0.3
    mean, se = estimate_statistic(
        ModelParams(n=n, p=p, d=4, q=0.0), "er", StatisticSpec(), 20_000, 99
    )
    assert abs(mean) <= 4.0 * se
    # se should reflect the known ER variance of the signed triangle count
    var = math.comb(n, 3) * (p * (1.0 - p)) ** 3
    assert abs(se * math.sqrt(20_000) - math.sqrt(var)) <= 0.1 * math.sqrt(var)


def test_soft_sphere_triangle_mean_in_theory_bracket():
    # single triple, p = 1/2, q = 1: mean lies in the scaled gamma bracket
    d = 64
    mean, se = estimate_statistic(
        ModelParams(n=3, p=0.5, d=d, q=1.0),
        "soft-sphere",
        StatisticSpec(),
        60_000,
        31415,
    )
    lo = GAMMA_SCALED_LOWER / math.sqrt(d)
    hi = GAMMA_SCALED_UPPER / math.sqrt(d)
    assert lo - 3.0 * se <= mean <= hi + 3.0 * se


def test_estimate_statistic_needs_two_reps():
    with pytest.raises(DomainError):
        estimate_statistic(
            ModelParams(n=5, p=0.5, d=4, q=0.5), "er", StatisticSpec(), 1, 0
        )


def test_detection_rates_agree_when_q_is_zero():
    # q = 0 makes the alternative an Erdos-Renyi graph in disguise, so both
    # rejection rates estimate the same number.
    point = GridPoint(n=30, p=0.5, d=16, q=0.0, mode="soft-sphere")
    rec = detection_experiment(point, 600, 424, test="calibrated-quantile")
    assert rec.status == STATUS_OK
    assert abs(rec.power - rec.type1) <= 0.07
    assert abs(rec.type1 - 0.05) <= 0.06

    rec2 = detection_experiment(point, 600, 425, test="half-mean-threshold")
    assert abs(rec2.power - rec2.type1) <= 0.15


def test_detection_strong_signal_separates():
    point = GridPoint(n=60, p=0.5, d=30, q=1.0, mode="soft-sphere")
    for rule in ("half-mean-threshold", "calibrated-quantile"):
        rec = detection_experiment(point, 200, 7, test=rule)
        assert rec.status == STATUS_OK
        assert rec.power >= 0.95
        assert rec.type1 <= 0.1
        assert rec.stat_mean > 0.0


def test_detection_power_monotone_in_q():
    qs = (0.2, 0.4, 0.6, 0.8, 1.0)
    evals = 200  # reps - reps // 2
    powers = []
    for q in qs:
        point = GridPoint(n=100, p=0.5, d=100, q=q, mode="soft-sphere")
        rec = detection_experiment(point, 400, 9090, test="calibrated-quantile")
        powers.append(rec.power)
    for lo_p, hi_p in zip(powers, powers[1:]):
        slack = 2.0 * math.sqrt(
            (lo_p * (1 - lo_p) + hi_p * (1 - hi_p)) / evals
        ) + 0.01
        assert hi_p >= lo_p - slack, powers
    assert powers[-1] >= 0.9, powers


def test_detection_reps_floor_and_bad_rule():
    point = GridPoint(n=10, p=0.5, d=8, q=0.5, mode="soft-sphere")
    with pytest.raises(DomainError):
        detection_experiment(point, 50, 1)
    with pytest.raises(DomainError):
        detection_experiment(point, 200, 1, test="bonferroni")


def test_degenerate_edge_probability_is_flagged():
    for p in (0.0, 1.0):
        point = GridPoint(n=20, p=p, d=8, q=0.5, mode="soft-sphere")
        rec = detection_experiment(point, 100, 3)
        assert rec.status == STATUS_DEGENERATE
        assert rec.stat_mean == 0.0 and rec.stat_se == 0.0
        assert rec.power == 0.0 and rec.type1 == 0.0


def test_variance_profile_scale_is_stable():
    rows = variance_profile(
        (16, 64, 256), n=40, p=0.5, q=0.5, mode="soft-sphere",
        reps=1500, master_seed=606,
    )
    scaled = [r[2] for r in rows]
    assert all(s > 0.0 for s in scaled)
    assert max(scaled) / min(scaled) <= 4.0, scaled


def test_phase_labels():
    assert phase_label(100, 100, 0.5) == "Possible"
    assert phase_label(10, 10_000, 0.001) == "Impossible"
    assert phase_label(10, 16, 0.4) == "Unknown"
    assert phase_label(10, 10, 1.0) == "n/a"
    assert phase_label(1, 10, 0.5) == "n/a"
    assert phase_label(10, 1, 0.5) == "n/a"


def test_sweep_rows_deterministic_and_resumable():
    grid = (
        GridPoint(n=10, p=0.5, d=8, q=0.3, mode="soft-sphere"),
        GridPoint(n=10, p=0.5, d=8, q=0.6, mode="soft-sphere"),
        GridPoint(n=10, p=0.5, d=8, q=0.0, mode="er"),
    )
    cfg = ExperimentConfig(
        grid=grid, reps=100, master_seed=11, test="calibrated-quantile"
    )
    buf_a, buf_b = io.StringIO(), io.StringIO()
    recs_a = sweep(cfg, buf_a)
    recs_b = sweep(cfg, buf_b)
    assert strip_wallclock(buf_a.getvalue()) == strip_wallclock(buf_b.getvalue())
    assert [r.seed for r in recs_a] == [point_seed(11, i) for i in range(3)]

    # resuming from index 1 reproduces the tail rows bit for bit
    tail_cfg = ExperimentConfig(
        grid=grid[1:], reps=100, master_seed=11, test="calibrated-quantile"
    )
    buf_tail = io.StringIO()
    sweep(tail_cfg, buf_tail, start_index=1)
    full_rows = strip_wallclock(buf_a.getvalue())
    tail_rows = strip_wallclock(buf_tail.getvalue())
    # full_rows[0] is the header, so grid index 1 sits at list index 2
    assert tail_rows == full_rows[2:]
    assert recs_a[0].status == STATUS_OK

    # header only appears when starting from scratch
    assert buf_tail.getvalue().splitlines()[0] != CSV_HEADER


def test_sweep_isolates_failures():
    grid = (
        GridPoint(n=8, p=0.5, d=4, q=0.5, mode="soft-sphere"),
        GridPoint(n=8, p=0.5, d=4, q=0.5, mode="bogus"),
        GridPoint(n=8, p=0.5, d=4, q=0.5, mode="er"),
    )
    cfg = ExperimentConfig(
        grid=grid, reps=100, master_seed=5, test="calibrated-quantile"
    )
    recs = sweep(cfg)
    assert [r.status for r in recs] == [STATUS_OK, STATUS_FAILED, STATUS_OK]
    failed = recs[1]
    assert math.isnan(failed.stat_mean) and math.isnan(failed.power)
    row = failed.csv_row()
    assert row.count(",") == CSV_HEADER.count(",")
    assert "nan" in row


def test_csv_shape_and_float_format():
    point = GridPoint(n=8, p=0.2, d=4, q=0.5, mode="er")
    rec = ExperimentRecord(
        point=point, stat_kind="triangle", k=3, reps=100, seed=1,
        stat_mean=0.2, stat_se=0.0, power=1.0, type1=0.0, threshold=0.5,
        phase_label="n/a", wallclock_ms=12, status=STATUS_OK,
    )
    row = rec.csv_row()
    fields = row.split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    # 17 significant digits round-trip exactly
    assert fields[1] == "0.20000000000000001"
    assert float(fields[1]) == 0.2


def test_config_validation():
    point = GridPoint(n=8, p=0.5, d=4, q=0.5, mode="er")
    with pytest.raises(DomainError):
        ExperimentConfig(grid=(), reps=100, master_seed=0)
    with pytest.raises(DomainError):
        ExperimentConfig(grid=(point,), reps=1, master_seed=0)
    with pytest.raises(DomainError):
        ExperimentConfig(grid=(point,), reps=100, master_seed=0, test="other")
    with pytest.raises(DomainError):
        ExperimentConfig(grid=(point,), reps=100, master_seed=0, workers=0)
    with pytest.raises(DomainError):
        StatisticSpec(kind="star", k=3)
    with pytest.raises(DomainError):
        StatisticSpec(kind="triangle", k=4)
    with pytest.raises(DomainError):
        StatisticSpec(kind="cycle", k=9)
    StatisticSpec(kind="clique", k=5)
