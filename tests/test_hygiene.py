"""Static hygiene of the package sources, read with the stdlib ``ast`` module.

Every name a module imports is used in it or re-exported through its
``__all__``; every ``__all__`` entry is bound at module level, once; and
the package's public surface, ``softrgg.__all__``, is pinned, so deleting
a function cannot leave a stale export or quietly drop a public name.
"""

import ast
from pathlib import Path

import softrgg

SOURCES = sorted(Path(softrgg.__file__).resolve().parent.glob("*.py"))

PACKAGE_ALL = [
    "AdjacencySample",
    "ConvergenceError",
    "DomainError",
    "ExperimentConfig",
    "ExperimentRecord",
    "GridPoint",
    "HalfMomentTable",
    "LatentMatrix",
    "MODES",
    "ModelParams",
    "PhasePoint",
    "StatisticSpec",
    "StatisticValue",
    "Thresholds",
    "UnsupportedOrderError",
    "detection_experiment",
    "edge_marginal_estimate",
    "estimate_statistic",
    "eta_d",
    "gamma_d",
    "half_moment_table",
    "phase_classify",
    "replicate_values",
    "sample_graph",
    "sample_latent",
    "signed_clique_stat",
    "signed_cycle_stat",
    "signed_pattern_estimate",
    "signed_triangle_mean_bounds",
    "signed_triangle_stat",
    "sphere_threshold",
    "subgraph_probability_estimate",
    "substream",
    "sweep",
    "threshold_gap_constants",
    "thresholds",
    "tv_bound_report",
    "wishart_logdet_mean",
    "__version__",
]


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _declared_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _import_names(node):
    """Names an import statement binds; none for ``from __future__``."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    return []


def _imports(tree):
    """Names bound by import statements anywhere in the module."""
    return [name for node in ast.walk(tree) for name in _import_names(node)]


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        names.update(_import_names(node))
    return names


def test_every_import_is_used_or_exported():
    assert {p.name for p in SOURCES} >= {"__init__.py", "model.py", "stats.py"}
    unused = []
    for path in SOURCES:
        tree = _tree(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        exported = set(_declared_all(tree))
        unused += [
            f"{path.name}: {name}"
            for name in _imports(tree)
            if name not in used and name not in exported
        ]
    assert unused == []


def test_every_all_entry_is_bound_once():
    stale = []
    for path in SOURCES:
        tree = _tree(path)
        declared = _declared_all(tree)
        assert len(declared) == len(set(declared)), f"{path.name}: duplicate __all__ entry"
        bound = _top_level_names(tree)
        stale += [f"{path.name}: {name}" for name in declared if name not in bound]
    assert stale == []


def test_package_exports_are_pinned():
    assert softrgg.__all__ == PACKAGE_ALL
    assert all(hasattr(softrgg, name) for name in PACKAGE_ALL)
