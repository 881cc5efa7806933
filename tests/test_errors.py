"""Error types: every one has a raiser, every export exists, and budget
refusals name their sizes.

The first two tests read the package source with `ast` and import nothing
from it, so they still run, and name the culprit, when the package itself
fails to import."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "meandim"


def parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def top_level_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return names


def test_every_error_type_is_raised():
    # errors.py holds only MeanDimError and its subclasses
    types = {n.name for n in parse("errors").body if isinstance(n, ast.ClassDef)} - {"MeanDimError"}
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    assert types
    assert sorted(types - raised) == []


def test_every_package_import_exists():
    missing = []
    for node in parse("__init__").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            defined = top_level_names(parse(node.module))
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in defined]
    assert missing == []


@pytest.mark.parametrize(
    "case,size,cap",
    [
        ("count_words", "3 states", 1),
        ("covering_family", "64 points", 10),
        ("digit_table", "8 columns", 4),
        ("exact_min_cover", "13 points", 12),
        ("enumerate_words", "32 words", 3),
        ("min_gap", "32 tuples", 3),
        ("enumerate_patterns", "7 patterns", 3),
        ("witness_cloud", "6 points", 5),
        ("qbox_family", "1259712 boxes", 1000),
        ("mass_y_sequences", "16 y-sequences", 5),
        ("transfer_rows", "17 or more partial patterns", 16),
    ],
)
def test_resource_limits_name_the_size_and_the_cap(case, size, cap, monkeypatch):
    import numpy as np

    from meandim import carpet as cp
    from meandim import grid2d as g2
    from meandim import oracle as orc
    from meandim import selfsim as ss
    from meandim import symbolic as sym
    from meandim.errors import ResourceLimit
    from meandim.metrics import LINF_FINITE, MetricDescriptor, PointCloud

    # the rooted orbit 0 1 0 1 ... has one word of length 1 but two digits,
    # so its digit table (2^3 columns) outgrows its single point
    orbit = sym.automaton_spec(sym.Automaton(2, 0, ({0: 1}, {1: 0})), 2)
    line = PointCloud(np.arange(13.0).reshape(13, 1) / 13, MetricDescriptor(kind=LINF_FINITE))
    calls = {
        "count_words": lambda: sym.count_words(sym.sft_from_matrix([[1, 1], [1, 0]]), 4, budget=1),
        "covering_family": lambda: ss.covering_lower_bound(ss.beta_system(2, 2.0), 2, 3, budget=10),
        "digit_table": lambda: ss.covering_lower_bound(ss.beta_system(2, 2.5, orbit), 1, 3, budget=4),
        "exact_min_cover": lambda: orc.exact_min_cover(line, 0.3),
        "enumerate_words": lambda: sym.enumerate_words(sym.full_shift(2), 5, budget=3),
        "min_gap": lambda: ss.min_gap(2, 2.5, 5, budget=3),
        "enumerate_patterns": lambda: g2.enumerate_patterns(g2.hard_square_rule(), 2, 2, budget=3),
        "witness_cloud": lambda: orc.qbox_family(carpet, 1, 2, budget=10**6).witness_cloud(),
        "qbox_family": lambda: orc.qbox_family(carpet, 3, 5, budget=1000),
        "mass_y_sequences": lambda: orc.mass_distribution_check(carpet, 1, range(4, 6), 1.0,
                                                                budget=5),
        "transfer_rows": lambda: g2.count_rectangles(g2.hard_square_rule(), 3, 3, budget=16),
    }
    carpet = cp.carpet_from_tuples(3, 2, [(0, 0), (1, 1), (2, 0)])
    if case == "witness_cloud":  # it reads the point budget from the environment
        monkeypatch.setenv("MEANDIM_BUDGET", "5")
    with pytest.raises(ResourceLimit) as info:
        calls[case]()
    assert str(info.value).endswith(f": {size} exceed the cap {cap}")
