"""Frozen random streams.

The graph bits and the CLI stdout were recorded before the samplers and
pattern estimators were rebuilt on one edge law and one latent-pattern
kernel, and still hold after it.  The pattern estimator values were
recorded when that kernel began drawing Bartlett factors of the Gram
matrix instead of the latents.  The signed-cycle stdout pins were recorded
while 4- and 5-cycles were still counted by enumerating every (k-subset,
Hamilton cycle) pair, before they moved to trace and degree counts, and
hold on both routes.  A change that moves one must announce the new
stream in CHANGES.md.  The graphs are pinned by the sha256 of their packed
edge bits, the pattern estimators by their exact (mean, se) floats, and
the CLI by its stdout bytes.
"""

import hashlib
import json

import numpy as np
import pytest

import softrgg.cli as cli
from softrgg.model import AdjacencySample, ModelParams, graph_to_dict, sample_graph
from softrgg.stats import (
    CHERRY_PATTERN,
    FOUR_CYCLE_PATTERN,
    TRIANGLE_PATTERN,
    signed_pattern_estimate,
    subgraph_probability_estimate,
)

HARD_BITS = "e7c4669f161fe73478d272bd7a34efbcec8d0c4faeed19508dc41d213b0bb50c"

GRAPH_BITS = {
    ("er", 0.6): "00a0f5b8aad2a8dfe85c6858357ac910dbfa619cf90fb4fc3b4a4b647c0a032b",
    ("hard-sphere", 0.6): HARD_BITS,
    ("soft-sphere", 0.6): "72876ec11870e2c3b967252a65984706a9185bf08046ba7e0f5756170cb07b41",
    ("soft-sphere-resample", 0.6):
        "17f5c78f354ee11ba6f4a90ecb38a4b1dd722bc290865be95580c6af8365e6d1",
    ("dot-product", 0.6): "e1b4f81a7bfd452d5cfdd9ba2fe9b6f0389ba59e2b9f6673a9989f6e1a67dc73",
    ("er", 1.0): "00a0f5b8aad2a8dfe85c6858357ac910dbfa619cf90fb4fc3b4a4b647c0a032b",
    ("hard-sphere", 1.0): HARD_BITS,
    ("soft-sphere", 1.0): HARD_BITS,
    ("soft-sphere-resample", 1.0): HARD_BITS,
    ("dot-product", 1.0): "72b52348cd3c8d5e547619bd31066c16f8021250e44b13ce2cd550d9f9d6d6e0",
}


@pytest.mark.parametrize("mode,q", sorted(GRAPH_BITS))
def test_sample_graph_bits_are_frozen(mode, q):
    g = sample_graph(ModelParams(n=12, p=0.4, d=6, q=q), mode, 31)
    assert hashlib.sha256(g.bits.tobytes()).hexdigest() == GRAPH_BITS[mode, q]


# (kind, p, d, q, pattern, reps, seed, probability (mean, se), signed (mean, se));
# the d = 3000 case draws the factor of a 4 x 4 Gram matrix at a d far above
# m, and the last case has m > d and spans two batches of draws.
PATTERN_CASES = (
    ("sphere", 0.5, 16, 0.3, TRIANGLE_PATTERN, 5000, 3,
     (0.133, 0.004802311943220682), (0.0033, 0.0017671508141638619)),
    ("gauss", 0.3, 16, 1.0, CHERRY_PATTERN, 5000, 4,
     (0.09, 0.004047221268969612), (-0.0018200000000000041, 0.0029296787400669034)),
    ("sphere", 0.4, 3000, 0.6, FOUR_CYCLE_PATTERN, 1000, 5,
     (0.031, 0.0054807846153630225), (-0.00023999999999999765, 0.0018303940559344046)),
    ("sphere", 0.5, 2, 0.6, FOUR_CYCLE_PATTERN, 600_000, 6,
     (0.08335333333333333, 0.0003568509379641952),
     (0.0026270833333333333, 8.061584245832951e-05)),
)


@pytest.mark.parametrize("case", PATTERN_CASES, ids=lambda c: f"{c[0]}-d{c[2]}")
def test_pattern_estimators_are_frozen(case):
    kind, p, d, q, pattern, reps, seed, prob, signed = case
    assert subgraph_probability_estimate(kind, p, d, pattern, reps, seed) == prob
    assert signed_pattern_estimate(kind, p, d, q, pattern, reps, seed) == signed


CLI_STDOUT = (
    (("detect", "--n", "20", "--p", "0.5", "--d", "8", "--q", "0.7", "--seed", "12",
      "--reps", "100"),
     '{"d":8,"k":3,"mode":"soft-sphere","n":20,"p":0.5,"phase_label":"Possible",'
     '"power":0.84,"q":0.7,"reps":100,"seed":12,"stat_kind":"triangle",'
     '"stat_mean":9.09,"stat_se":0.6948337049618566,"status":"ok",'
     '"threshold":5.195,"type1":0.06}\n'),
    (("detect", "--n", "14", "--p", "0.5", "--d", "8", "--q", "0.8", "--seed", "5",
      "--reps", "100", "--stat", "cycle", "--k", "4"),
     '{"d":8,"k":4,"mode":"soft-sphere","n":14,"p":0.5,"phase_label":"Possible",'
     '"power":0.58,"q":0.8,"reps":100,"seed":5,"stat_kind":"cycle",'
     '"stat_mean":3.7075,"stat_se":0.699191953439899,"status":"ok",'
     '"threshold":2.22125,"type1":0.24}\n'),
    (("theory", "--quantity", "half-moments", "--d", "16"),
     '{"d":16,"eta":0.0016861999894259051,"gamma":0.016476171537213972,'
     '"house_prob":0.04033118576331994,"q1_lower":0.024680421639566345,'
     '"q1_upper":0.026771431751774325,"quad_path_prob":0.0641861999894259,'
     '"quadrilateral_mean":0.0016861999894259051,"triangle_prob":0.14147617153721398}\n'),
    (("theory", "--quantity", "tv-bounds", "--n", "50", "--p", "0.5", "--d", "100",
      "--q", "0.2"),
     '{"d":100,"kl_edgewise":49.00000000000001,"kl_valid":true,'
     '"mixture_terms":[1250.0,500.0],"n":50,"p":0.5,"q":0.2,'
     '"structural_terms":[0.22360679774997896,2.23606797749979,7.0710678118654755],'
     '"structural_valid":true,"tv_weak_noise":5.0,"weak_noise_valid":true}\n'),
    (("theory", "--quantity", "logdet", "--n", "5", "--d", "20"),
     '{"d":20,"deficit_bound":2.25,"logdet_mean":14.151600141760039,"n":5,'
     '"normalized_deficit":0.8270612260099153}\n'),
    (("theory", "--quantity", "logdet", "--n", "5", "--d", "8"),
     '{"d":8,"deficit_bound":null,"logdet_mean":7.873735522718947,"n":5,'
     '"normalized_deficit":2.523472185680232}\n'),
)


@pytest.mark.parametrize("argv,stdout", CLI_STDOUT,
                         ids=[" ".join(argv[:3]) for argv, _ in CLI_STDOUT])
def test_cli_stdout_is_frozen(capsys, argv, stdout):
    assert cli.main(list(argv)) == 0
    assert capsys.readouterr().out == stdout


# A stored 20-vertex soft-sphere graph (66 edges), as its packed edge bits.
STORED_GRAPH_BITS = "900a268b0089ab0242832a260e88143d31402317406d81d8"

CYCLE_STAT_STDOUT = {
    "4": '{"k":4,"kind":"signed-cycle","method":"cycle-histogram","n":20,"p":0.4,'
         '"value":60.55200000000003}\n',
    "5": '{"k":5,"kind":"signed-cycle","method":"cycle-histogram","n":20,"p":0.4,'
         '"value":181.17407999999978}\n',
}


@pytest.mark.parametrize("k", sorted(CYCLE_STAT_STDOUT))
def test_cycle_stat_stdout_is_frozen(tmp_path, capsys, k):
    bits = np.frombuffer(bytes.fromhex(STORED_GRAPH_BITS), dtype=np.uint8)
    sample = AdjacencySample(20, bits, "soft-sphere", 19)
    graph_path = tmp_path / "g20.json"
    graph_path.write_text(json.dumps(graph_to_dict(sample, 0.4)))
    assert cli.main(["stat", "--graph", str(graph_path), "--kind", "cycle", "--k", k]) == 0
    assert capsys.readouterr().out == CYCLE_STAT_STDOUT[k]
