"""Each correctness check of the benchmark rejects a wrong value.

    PYTHONPATH=src python3 -m pytest perfbench -q

The references are tested against closed forms at small d, and every
workload's check is fed its reference (it must pass) and the reference
moved by 5 standard errors, or a graph with one edge flipped (it must fail).
"""

from __future__ import annotations

import math

import pytest

import reference as ref
import workloads as wl
from softrgg import mc, model, stats
from tracer import Target, Tracer


def test_angle_references_match_closed_forms():
    # d = 2: Theta is uniform on [0, pi]; d = 3: its density is sin / 2.
    assert ref.gamma_ref(2) == pytest.approx(1 / 16, rel=1e-10)
    assert ref.eta_ref(2) == pytest.approx(1 / 48, rel=1e-10)
    assert ref.gamma_ref(3) == pytest.approx((math.pi / 2 - 1) / (4 * math.pi), rel=1e-10)


def test_gauss_references_at_p_half():
    assert abs(ref.gauss_threshold_ref(0.5, 16)) < 1e-10
    assert ref.gauss_cherry_ref(0.5, 16) == pytest.approx(0.25, rel=1e-10)


def test_er_cycle4_variance_on_four_vertices():
    # Three 4-cycles on 4 vertices, each product with variance (p(1-p))^4.
    assert ref.er_cycle4_variance(4, 0.3) == pytest.approx(3 * 0.21**4)


def test_check_close_se_rejects_five_se():
    assert ref.check_close_se("x", 1.0 + 3.9, 1.0, 1.0) == []
    assert ref.check_close_se("x", 1.0 + 5.0, 1.0, 1.0)
    assert ref.check_close_se("x", float("nan"), 1.0, 1.0)


def test_check_same_rate_and_variance_reject_wrong_values():
    assert ref.check_same_rate("r", 0.10, 0.12, 50) == []
    assert ref.check_same_rate("r", 0.90, 0.05, 50)
    assert ref.check_variance("v", 1.0, 1.0, 128) == []
    assert ref.check_variance("v", 1.0 + 5 * math.sqrt(2 / 127), 1.0, 128)


def test_triangle_trace_rejects_one_flipped_edge():
    n, p = 20, 0.5
    g = model.sample_graph(model.ModelParams(n, p, 8, 1.0), "soft-sphere", 5)
    edges = g.edges()
    value = stats.signed_triangle_stat(g, p).value
    assert ref.check_close_rel("t", value, ref.signed_triangle_trace(n, edges, p), 1e-9) == []
    flipped = [e for e in edges if e != edges[0]]
    assert ref.check_close_rel("t", value, ref.signed_triangle_trace(n, flipped, p), 1e-9)


def _strong_record(shift_se: float, power=1.0, type1=0.0) -> mc.ExperimentRecord:
    pt = wl.DetectStrong.point
    se = 40.0
    want = math.comb(pt.n, 3) * pt.q**3 * ref.gamma_ref(pt.d)
    return mc.ExperimentRecord(pt, "triangle", 3, 800, 1, want + shift_se * se, se, power,
                               type1, want / 2, "n/a", 0, mc.STATUS_OK)


def test_strong_check_rejects_shifted_mean_and_weak_power():
    w = wl.DetectStrong(3)
    w.records = [_strong_record(0.0)]
    assert w.check() == []
    w.records = [_strong_record(5.0)]
    assert len(w.check()) == 1
    w.records = [_strong_record(0.0, power=0.9, type1=0.06)]
    assert len(w.check()) == 2


def test_blind_check_rejects_separated_rates():
    w = wl.DetectBlind(3)
    pt = w.point
    w.records = [mc.ExperimentRecord(pt, "triangle", 3, 100, 1, 0.0, 1.0, p1, t1, 0.0, "n/a", 0,
                                     mc.STATUS_OK) for p1, t1 in ((0.06, 0.04), (0.5, 0.02))]
    assert len(w.check()) == 1


def test_pattern_check_rejects_one_shifted_case():
    w = wl.PatternMC(3)
    w.setup()
    exact = {}
    for case, how, kind, p, d, q, pattern in wl.PATTERN_CASES:
        if pattern == stats.TRIANGLE_PATTERN:
            exact[case] = 0.125 + ref.gamma_ref(d)
        elif pattern == stats.FOUR_CYCLE_PATTERN:
            exact[case] = q**4 * ref.eta_ref(d)
        elif kind == "sphere":
            exact[case] = p * p
        else:
            exact[case] = ref.gauss_cherry_ref(p, d)
    se = 1e-4
    w.estimates = {case: [(mean, se)] for case, mean in exact.items()}
    assert w.check() == []
    w.estimates["c4_d32_q0.7"] = [(exact["c4_d32_q0.7"] + 5 * se, se)]
    assert len(w.check()) == 1


def test_sweep_checks_reject_shifted_mean_wrong_variance_and_changed_row():
    w = wl.SweepCycle(3)
    count = w.reps - w.reps // 2
    var = ref.er_cycle4_variance(w.n, w.p)

    def record(d, q, shift_se=0.0, var_scale=1.0, power=0.5):
        se = math.sqrt(var * var_scale / count)
        want = 3 * math.comb(w.n, 4) * q**4 * ref.eta_ref(d)
        return mc.ExperimentRecord(mc.GridPoint(w.n, w.p, d, q, "soft-sphere"), "cycle", 4,
                                   w.reps, 1, want + shift_se * se, se, power, 0.05, 0.0, "n/a",
                                   17, mc.STATUS_OK)

    assert w.check_records([record(50, 1.0), record(50, 0.0)]) == []
    assert len(w.check_records([record(50, 1.0, shift_se=5.0)])) == 1
    assert len(w.check_records([record(50, 0.0, var_scale=2.0)])) == 1
    a = record(50, 1.0)
    assert wl.rows_match(a, a.__class__(**{**a.__dict__, "wallclock_ms": 99}))
    assert not wl.rows_match(a, a.__class__(**{**a.__dict__, "power": 0.5 + 1 / 128}))


def test_tracer_self_times_add_up_and_names_are_restored():
    calls = []

    class Layer:
        @staticmethod
        def leaf(x):
            calls.append(x)
            return x

    def outer(x):
        return Layer.leaf(x) + Layer.leaf(x)

    holder = type("Holder", (), {})()
    holder.outer = outer
    tracer = Tracer()
    original = Layer.__dict__["leaf"]
    with tracer.installed([Target(holder, "outer", "outer", cold_key=lambda a, k: a[0]),
                           Target(Layer, "leaf", "leaf", size=lambda r: r)]):
        with tracer.span("root") as root:
            holder.outer(2)
            holder.outer(2)
    assert Layer.__dict__["leaf"] is original and holder.outer is outer
    names = [s.name for s in tracer.spans]
    assert names.count("outer.cold") == 1 and names.count("outer") == 1
    assert names.count("leaf") == 4 and all(s.size == 2 for s in tracer.spans if s.name == "leaf")
    assert sum(tracer.self_ns()) == root.ns
