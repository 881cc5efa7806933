"""The benchmark's own machinery: self time, wrapper restoration, and traced
runs returning the same job results as untraced ones."""

import random
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import jobs, reference, tracing  # noqa: E402
from perfbench.tracing import Span, Tracer, self_times  # noqa: E402


def test_self_time_of_nested_span_tree():
    spans = [
        Span("root", 0, 100, -1),
        Span("a", 10, 40, 0),
        Span("a.child", 15, 25, 1),
        Span("a.child2", 30, 38, 1),
        Span("b", 50, 90, 0),
        Span("b.child", 60, 95, 4),  # overruns its parent: clipped at 90
        Span("other_root", 200, 210, -1),
    ]
    assert self_times(spans) == [30, 12, 10, 8, 10, 35, 10]


def test_self_time_merges_overlapping_children():
    spans = [Span("p", 0, 50, -1), Span("c1", 5, 20, 0), Span("c2", 10, 30, 0)]
    assert self_times(spans)[0] == 50 - 25


def _bindings():
    """Every (owner, attr) -> object binding the tracer may patch."""
    import meandim.suite as suite

    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is not None and (name == "meandim" or name.startswith("meandim.")):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    for target in tracing.TARGETS:
        mod_name, _, cls_name = target.owner.partition(":")
        if cls_name:
            cls = getattr(sys.modules[mod_name], cls_name)
            out[(target.owner, target.attr)] = cls.__dict__[target.attr]
    out[("criteria", "table")] = suite.CRITERIA
    return out


def test_wrappers_are_restored_after_tracing():
    import meandim.cli  # noqa: F401  (every traced module loaded)
    import meandim.oracle as oracle

    before = _bindings()
    tracer = Tracer()
    with tracer:
        assert oracle.covering_bounds is not before[("meandim.oracle", "covering_bounds")]
        assert oracle.pairwise_to_point is not before[("meandim.oracle", "pairwise_to_point")]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def _sample_jobs(tmp_path, refs):
    rel = [(0, 0), (1, 1), (2, 0)]
    suite_jobs = [j for j in jobs.suite_jobs(0, 0, tmp_path, refs)
                  if j.name in ("criterion.1", "criterion.6", "cli.carpet", "cli.beta",
                                "cli.oracle-cover", "cli.grid2d")]
    return suite_jobs + [
        jobs._qbox_cover_job(3, rel, 1, 5, "sep"),
        jobs._qbox_cover_job(3, rel, 1, 5, "box"),
        jobs._beta_cover_job(2.5, True, 2, 2),
        jobs._torus_cover_job("hard_square", 1, 3, 3, 0.2),
        jobs._key_fact_job("free", 1, refs),
        jobs._cycle_chord_job(40, 17),
        jobs._run_length_job(3, 3, 1),
        jobs._pair_system_job(jobs.random_pair_matrix(random.Random(4)), 8),
        jobs._grid_count_job(jobs.HARD_SQUARE, 4, 5, refs),
        jobs._grid_entropy_job({"a": 2, "rule": "linear", "coeffs": [1, 1, 1]}, 3, 3, refs),
    ]


def test_traced_and_untraced_results_identical(tmp_path):
    refs = jobs.load_refs()
    job_list = _sample_jobs(tmp_path, refs)
    plain = [job.run() for job in job_list]
    assert [job.check(res) for job, res in zip(job_list, plain)] == [None] * len(job_list)

    tracer = Tracer()
    with tracer:
        traced = [tracer.span("job", job.run) for job in job_list]
    assert traced == plain

    layer = tracing.layer_metrics(tracer)
    assert layer["oracle.covering_bounds.calls"] >= 4  # two q-box, beta, torus jobs
    assert layer["oracle.witness_cloud.points"] == 2 * 108
    assert layer["cli.refusals"] == 1  # the README beta example
    assert layer["grid2d.entropy2d.cells"] >= 9
    assert layer["grid2d.entropy2d.rect_calls_per_cell"] > 0
    assert layer["suite.criterion.6.s"] > 0
    assert sum(tracing.account(tracer).values()) > 0
    names = {name for name, _, _ in tracing.per_layer_metrics()}
    assert set(layer) <= names


@pytest.mark.parametrize("kind,iterates", [("linf_finite", None), ("linf_finite", 2)])
def test_reference_greedy_matches_library(kind, iterates):
    from meandim import metrics, oracle

    rng = np.random.default_rng(3)
    pts = rng.integers(0, 16, size=(120, 4)) / 16
    cloud = metrics.PointCloud(points=pts, metric=metrics.MetricDescriptor(kind, iterates))
    for eps in (0.1, 0.3):
        bounds = oracle.covering_bounds(cloud, eps)
        assert reference.greedy_cover(pts, eps, kind, iterates) == (bounds.lower, bounds.upper)


def test_closed_form_references():
    assert reference.run_length_counts(2, 2, 6) == [2, 3, 5, 8, 13, 21]
    assert reference.vertex_shift_counts([[1, 1], [1, 0]], 5) == [2, 3, 5, 8, 13]
    golden = reference.cycle_chord_log_radius(2, 1, 1)  # x^2 + x = 1
    assert abs(golden - 0.48121182505960347) < 1e-15
    assert reference.qbox_count(3, 2, [(0, 0), (1, 1), (2, 0)], 1, 4) == 3**2 * 2**2


def test_speed_gauge_scales_and_leaves_the_collector_as_it_was():
    import gc

    from perfbench import speed

    assert speed.scale(speed.REFERENCE_S, speed.REFERENCE_S) == 1
    assert speed.scale(speed.REFERENCE_S, 3 * speed.REFERENCE_S) == pytest.approx(0.5)
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert speed.reading() > 0
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_suite_pass_runs_generated_file_examples_on_distinct_variants(tmp_path):
    job_list = jobs.suite_jobs(0, 0, tmp_path, jobs.load_refs())
    names = [job.name for job in job_list]
    for name, count in jobs.CLI_VARIANTS_PER_PASS.items():
        assert names.count(f"cli.{name}") == count
    assert names.count("cli.paper-suite") == 1
    assert len(job_list) == 10 + 10 + sum(jobs.CLI_VARIANTS_PER_PASS.values())
