"""Error types: every one has a raiser, every export exists, and budget
refusals name their sizes, all through one gate.

The `ast` tests read the package source and import nothing from it, so they
still run, and name the culprit, when the package itself fails to import."""

import ast
import os
import resource
import subprocess
import sys
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


def test_budget_refusals_go_through_the_gate():
    # every budget refusal calls limits.check; only the spectral solve's
    # dense-solve cap and tolerance and the fixed 12-point exact cover,
    # which have no budget, raise ResourceLimit themselves
    sites = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "ResourceLimit":
                    sites.append((module, where))
            visit(child, module, where)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert sorted(sites) == [
        ("limits", "check"),
        ("oracle", "exact_min_cover"),
        ("symbolic", "_component_radius"),
        ("symbolic", "_component_radius"),
    ]


@pytest.mark.parametrize(
    "case,size,cap",
    [
        ("count_words", "3 states", 1),
        ("covering_family", "64 points", 10),
        ("exact_min_cover", "13 points", 12),
        ("enumerate_words", "32 words", 3),
        ("min_gap", "32 tuples", 3),
        ("enumerate_patterns", "7 patterns", 3),
        ("witness_cloud", "6 points", 5),
        ("qbox_family", "1259712 boxes", 1000),
        ("mass_fiber_table", "6 words", 5),
        ("transfer_rows", "17 or more partial patterns", 16),
        ("image_subsets", "2 or more subsets", 1),
        ("fiber_table", "14 words", 10),
        ("full_shift_symbols", "6 symbols", 5),
        ("forbidden_transitions", "6 transitions", 5),
        ("fiber_frontier", "4 (word, state) entries", 3),
    ],
)
def test_resource_limits_name_the_size_and_the_cap(case, size, cap, monkeypatch):
    import numpy as np

    from meandim import carpet as cp
    from meandim import grid2d as g2
    from meandim import limits
    from meandim import oracle as orc
    from meandim import selfsim as ss
    from meandim import symbolic as sym
    from meandim import weighted as wt
    from meandim.errors import ResourceLimit
    from meandim.metrics import LINF_FINITE, MetricDescriptor, PointCloud

    line = PointCloud(np.arange(13.0).reshape(13, 1) / 13, MetricDescriptor(kind=LINF_FINITE))
    calls = {
        "count_words": lambda: sym.count_words(sym.sft_from_matrix([[1, 1], [1, 0]]), 4),
        "covering_family": lambda: ss.covering_lower_bound(ss.beta_system(2, 2.0), 2, 3),
        "exact_min_cover": lambda: orc.exact_min_cover(line, 0.3),
        "enumerate_words": lambda: sym.enumerate_words(sym.full_shift(2), 5),
        "min_gap": lambda: ss.min_gap(2, 2.5, 5),
        "enumerate_patterns": lambda: g2.enumerate_patterns(g2.hard_square_rule(), 2, 2),
        "witness_cloud": lambda: family.witness_cloud(),
        "qbox_family": lambda: orc.qbox_family(carpet, 3, 5),
        # 2 + 4 projected words by N = 2: the budget reaches the fiber table
        "mass_fiber_table": lambda: orc.mass_distribution_check(carpet, 2, range(4, 6), 1.0),
        "transfer_rows": lambda: g2.count_rectangles(g2.hard_square_rule(), 3, 3),
        "image_subsets": lambda: wt.image_subshift(wt.pair_system(2, 3, full6)),
        # the full 2-shift over 1 x 2: 2, 4 and 8 entries, 14 words by length 3
        "fiber_table": lambda: wt.fiber_counts(wt.pair_system(1, 2, full2), 3),
        "full_shift_symbols": lambda: sym.count_words(sym.full_shift(6), 1),
        # the prefixes of "00", the empty one included, x 2 symbols
        "forbidden_transitions": lambda: sym.count_words(sym.forbidden_words(2, ["00"]), 1),
        # 2 then 4 one-state blocks of one word each
        "fiber_frontier": lambda: wt.fiber_counts(wt.pair_system(1, 2, full2), 3),
    }
    full2, full6 = (sym.sft_from_matrix([[1] * k] * k) for k in (2, 6))
    carpet = cp.carpet_from_tuples(3, 2, [(0, 0), (1, 1), (2, 0)])
    family = orc.qbox_family(carpet, 1, 2)  # its 6 boxes, at the default word budget
    override = cap
    if case == "enumerate_patterns":  # an override of 3 refuses the sweep's 4 partial patterns
        monkeypatch.delenv("MEANDIM_BUDGET", raising=False)
        monkeypatch.setitem(limits.DEFAULT_CAPS, "point", cap)
        override = None
    with pytest.raises(ResourceLimit) as info, limits.override(override):
        calls[case]()
    assert str(info.value).endswith(f": {size} exceed the cap {cap}")


def run_capped_python(cap, code):
    """`code` in a fresh interpreter whose address space is capped at `cap`
    bytes (the limit is set in the child only), with the default budgets."""
    env = {k: v for k, v in os.environ.items() if k != "MEANDIM_BUDGET"}
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": str(SRC.parent), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        timeout=120,
    )


def test_word_refusal_comes_from_the_count_before_the_walk():
    # the walk built 20,000,001 words of 30 symbols before it refused them
    proc = run_capped_python(300 << 20, """
import time
from meandim import symbolic as sym
from meandim.errors import ResourceLimit
spec = sym.full_shift(2)
spec.automaton
start = time.perf_counter()
try:
    sym.enumerate_words(spec, 30)
except ResourceLimit as exc:
    print(exc)
    print(time.perf_counter() - start)
""")
    message, seconds = proc.stdout.splitlines() or (proc.stderr, "inf")
    assert message == "word budget: 1073741824 words exceed the cap 20000000"
    assert float(seconds) < 0.1


def test_covering_family_refuses_its_points_before_any_word():
    # the family built 16,777,216 words of 24 digits before the point refusal
    proc = run_capped_python(1 << 30, """
from meandim import selfsim as ss
from meandim import symbolic as sym
from meandim.errors import ResourceLimit

def walk(self, n):
    raise AssertionError(f"{n}-words enumerated")

sym.Automaton.enumerate_words = walk
try:
    ss.covering_lower_bound(ss.beta_system(2, 2.0), 24, 1)
except ResourceLimit as exc:
    print(exc)
""")
    assert proc.stdout == (
        "point budget: covering family: 16777216 points exceed the cap 2000000\n"
    ), proc.stderr


def test_power_sizes_are_the_exact_product_below_printed_bits():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from meandim import limits
    from meandim.errors import ResourceLimit

    pairs = st.lists(st.tuples(st.integers(1, 2**40), st.integers(0, 400)), max_size=4)

    @settings(max_examples=300, deadline=None)
    @given(pairs, st.integers(0, 2**80))
    def agree(powers, cap):
        product = 1
        for b, e in powers:
            product *= b**e
        if product.bit_length() > limits.PRINTED_BITS:
            return
        with limits.override(cap):
            try:
                got = limits.check("word", powers, "boxes", "family")
            except ResourceLimit as exc:
                got = str(exc)
            try:
                want = limits.check("word", product, "boxes", "family")
            except ResourceLimit as exc:
                want = str(exc)
        assert got == want

    agree()


@pytest.mark.parametrize("powers, named", [
    ([(2, 10**12)], "33554432 or more boxes"),  # 2^25: the cap has 25 bits
    ([(3, 20_000)], "847288609443 or more boxes"),
    ([(3, 14_000), (2, 1)], "847288609443 or more boxes"),
    ([(5, 7_000), (7, 7_000)], "298023223876953125 or more boxes"),  # the first longest, 5^25
])
def test_power_sizes_past_printed_bits_are_named_from_below(powers, named):
    from meandim import limits
    from meandim.errors import ResourceLimit

    with pytest.raises(ResourceLimit) as info, limits.override(20_000_000):
        limits.check("word", powers, "boxes", "family")
    assert str(info.value) == f"word budget: family: {named} exceed the cap 20000000"
