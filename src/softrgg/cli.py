"""Command line front end.

Subcommands: sample, stat, detect, sweep, theory, verify.  Results go to
stdout as compact JSON with sorted keys (or PASS/FAIL lines for verify),
so a repeated invocation with the same arguments produces identical bytes.
Timing is deliberately left out of the JSON for that reason; sweep CSV
files do carry a measured wallclock column.

Exit codes: 0 success, 1 invalid input, 2 runtime or convergence failure,
3 verification failure.  Errors print a single line on stderr.

RGG_WORKERS sets the worker process count for detect and sweep (default 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import verify as verify_mod
from .mc import (
    ExperimentConfig,
    GridPoint,
    StatisticSpec,
    detection_experiment,
    sweep,
)
from .model import (
    MODES,
    ModelParams,
    graph_from_dict,
    graph_to_dict,
    latent_to_dict,
    sample_graph,
)
from .specfun import ConvergenceError, DomainError
from .stats import signed_clique_stat, signed_cycle_stat, signed_triangle_stat
from .theory import (
    PhasePoint,
    eta_d,
    gamma_d,
    half_moment_table,
    logdet_deficit_bound,
    phase_classify,
    tv_bound_report,
    wishart_logdet_mean,
)

# Each theory quantity and the options it needs.
THEORY_QUANTITIES = {
    "gamma": ("d",), "eta": ("d",), "half-moments": ("d",), "logdet": ("n", "d"),
    "tv-bounds": ("n", "p", "d", "q"), "phase": ("alpha", "beta"),
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage through the normal error path."""

    def error(self, message):
        raise DomainError(message)


def _emit(doc, path: str | None = None) -> None:
    """Write ``doc`` as one line of compact sorted JSON to ``path`` or stdout."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _workers() -> int:
    raw = os.environ.get("RGG_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise DomainError(f"RGG_WORKERS must be an integer, got {raw!r}")
    if workers < 1:
        raise DomainError(f"RGG_WORKERS must be >= 1, got {workers}")
    return workers


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path} is not valid JSON: {exc}")


def _cmd_sample(args) -> int:
    params = ModelParams(n=args.n, p=args.p, d=args.d, q=args.q)
    if args.latent_out is not None:
        sample, latent = sample_graph(
            params, args.mode, args.seed, return_latent=True
        )
        _emit(latent_to_dict(latent), args.latent_out)
    else:
        sample = sample_graph(params, args.mode, args.seed)
    _emit(graph_to_dict(sample, params.p), args.out)
    return 0


def _cmd_stat(args) -> int:
    sample, p_stored = graph_from_dict(_load_json(args.graph))
    p = p_stored if args.p is None else args.p
    if args.kind == "triangle":
        result = signed_triangle_stat(sample, p)
    elif args.kind == "clique":
        result = signed_clique_stat(sample, p, args.k)
    else:
        result = signed_cycle_stat(sample, p, args.k)
    _emit({
        "kind": result.kind,
        "k": result.k,
        "method": result.method,
        "n": sample.n,
        "p": p,
        "value": result.value,
    })
    return 0


def _cmd_detect(args) -> int:
    point = GridPoint(n=args.n, p=args.p, d=args.d, q=args.q, mode=args.mode)
    record = detection_experiment(
        point,
        args.reps,
        args.seed,
        statistic=StatisticSpec(kind=args.stat, k=args.k),
        test=args.test,
        workers=_workers(),
    )
    _emit({**record.fields(), "status": record.status})
    return 0


def _grid_from_doc(doc) -> tuple[GridPoint, ...]:
    if not isinstance(doc, list) or not doc:
        raise DomainError("grid file must hold a nonempty JSON list of points")
    points = []
    for i, row in enumerate(doc):
        try:
            points.append(GridPoint(
                n=int(row["n"]),
                p=float(row["p"]),
                d=int(row["d"]),
                q=float(row["q"]),
                mode=str(row.get("mode", "soft-sphere")),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"grid entry {i} is malformed: {exc}")
    return tuple(points)


def _cmd_sweep(args) -> int:
    grid = _grid_from_doc(_load_json(args.grid))
    config = ExperimentConfig(
        grid=grid,
        reps=args.reps,
        master_seed=args.seed,
        statistic=StatisticSpec(kind=args.stat, k=args.k),
        test=args.test,
        workers=_workers(),
    )
    mode = "a" if args.start_index > 0 else "w"
    try:
        with open(args.out, mode, encoding="utf-8") as sink:
            records = sweep(config, sink, start_index=args.start_index)
    except OSError as exc:
        raise DomainError(f"cannot write {args.out}: {exc.strerror or exc}")
    _emit({
        "points": len(records),
        "failed": sum(r.status == "failed" for r in records),
        "out": args.out,
    })
    return 0


def _cmd_theory(args) -> int:
    q = args.quantity
    missing = [f"--{name}" for name in THEORY_QUANTITIES[q] if getattr(args, name) is None]
    if missing:
        raise DomainError(f"--quantity {q} needs {', '.join(missing)}")
    if q in ("gamma", "eta"):
        value = gamma_d(args.d) if q == "gamma" else eta_d(args.d)
        _emit({"d": args.d, q: value})
    elif q == "half-moments":
        _emit(asdict(half_moment_table(args.d)))
    elif q == "logdet":
        _emit({
            **asdict(wishart_logdet_mean(args.n, args.d)),
            "deficit_bound": (
                logdet_deficit_bound(args.n, args.d) if args.d >= 2 * args.n else None
            ),
        })
    elif q == "tv-bounds":
        _emit(asdict(tv_bound_report(args.n, args.p, args.d, args.q)))
    else:
        label = phase_classify(PhasePoint(alpha=args.alpha, beta=args.beta))
        _emit({"label": label})
    return 0


def _cmd_verify(args) -> int:
    results = verify_mod.run(args.suite, args.seed)
    failures = 0
    for r in results:
        if r.passed:
            sys.stdout.write(f"PASS {r.suite}.{r.name}\n")
        else:
            failures += 1
            sys.stdout.write(f"FAIL {r.suite}.{r.name}: {r.detail}\n")
    sys.stdout.write(f"{len(results) - failures}/{len(results)} checks passed\n")
    return 3 if failures else 0


def _add_point_arguments(parser, *, need_seed: bool) -> None:
    parser.add_argument("--n", type=int, required=True, help="number of vertices")
    parser.add_argument("--p", type=float, required=True, help="edge density")
    parser.add_argument("--d", type=int, default=2, help="latent dimension")
    parser.add_argument("--q", type=float, default=1.0,
                        help="geometry strength in [0, 1]")
    parser.add_argument("--mode", choices=MODES, default="soft-sphere")
    if need_seed:
        parser.add_argument("--seed", type=int, required=True)


def _build_parser() -> _Parser:
    parser = _Parser(prog="softrgg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw one graph and print it as JSON")
    _add_point_arguments(p_sample, need_seed=True)
    p_sample.add_argument("--out", default=None, help="graph JSON file (default stdout)")
    p_sample.add_argument("--latent-out", default=None,
                          help="also save the latent positions to this file")
    p_sample.set_defaults(func=_cmd_sample)

    p_stat = sub.add_parser("stat", help="evaluate a signed statistic on a stored graph")
    p_stat.add_argument("--graph", required=True, help="graph JSON file")
    p_stat.add_argument("--kind", choices=("triangle", "clique", "cycle"),
                        default="triangle")
    p_stat.add_argument("--k", type=int, default=3, help="subgraph order")
    p_stat.add_argument("--p", type=float, default=None,
                        help="centering density (default: the stored value)")
    p_stat.set_defaults(func=_cmd_stat)

    p_detect = sub.add_parser("detect", help="power/type-1 experiment at one point")
    _add_point_arguments(p_detect, need_seed=True)
    p_detect.add_argument("--reps", type=int, required=True)
    p_detect.add_argument("--test", choices=("half-mean-threshold",
                                             "calibrated-quantile"),
                          default="half-mean-threshold")
    p_detect.add_argument("--stat", choices=("triangle", "clique", "cycle"),
                          default="triangle")
    p_detect.add_argument("--k", type=int, default=3)
    p_detect.set_defaults(func=_cmd_detect)

    p_sweep = sub.add_parser("sweep", help="run a grid of experiments to CSV")
    p_sweep.add_argument("--grid", required=True,
                         help="JSON list of {n, p, d, q, mode} points")
    p_sweep.add_argument("--reps", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.add_argument("--test", choices=("half-mean-threshold",
                                            "calibrated-quantile"),
                         default="half-mean-threshold")
    p_sweep.add_argument("--stat", choices=("triangle", "clique", "cycle"),
                         default="triangle")
    p_sweep.add_argument("--k", type=int, default=3)
    p_sweep.add_argument("--start-index", type=int, default=0,
                         help="absolute index of the first grid point (resume)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_theory = sub.add_parser("theory", help="closed forms and bounds")
    p_theory.add_argument("--quantity", choices=THEORY_QUANTITIES, required=True)
    p_theory.add_argument("--n", type=int, default=None)
    p_theory.add_argument("--p", type=float, default=None)
    p_theory.add_argument("--d", type=int, default=None)
    p_theory.add_argument("--q", type=float, default=None)
    p_theory.add_argument("--alpha", type=float, default=None)
    p_theory.add_argument("--beta", type=float, default=None)
    p_theory.set_defaults(func=_cmd_theory)

    p_verify = sub.add_parser("verify", help="run built-in self checks")
    p_verify.add_argument("--suite",
                          choices=("all",) + verify_mod.SUITE_NAMES,
                          default="all")
    p_verify.add_argument("--seed", type=int, default=verify_mod.DEFAULT_SEED)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ConvergenceError as exc:
        sys.stderr.write(f"convergence error: {exc}\n")
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"runtime error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
