"""Span tracing of meandim's public entry points, installed from outside.

The library carries no tracing of its own, so the benchmark wraps each
traced function in every namespace that binds it (module globals, the
package root, class attributes and the ``suite.CRITERIA`` table), records one
span per call (name, start, end, parent) in memory, and restores the
original objects afterwards.  A call whose nearest open span has the same
name is folded into that span: ``symbolic.enumerate_words`` delegating to
``Automaton.enumerate_words`` is one operation, not two.

Self time is a span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _n_states(spec):
    return spec.automaton.n_states if spec.automaton is not None else 0


def _count_prune(counts, result, args, kwargs):
    counts["symbolic.prune.states"] += _n_states(result)


def _count_enumerate_words(counts, result, args, kwargs):
    counts["symbolic.enumerate_words.words"] += len(result)


def _count_spectral(counts, result, args, kwargs):
    counts["symbolic.spectral_log.states"] += args[0].n_states


def _count_fibers(counts, result, args, kwargs):
    counts["weighted.fiber_counts.words"] += sum(len(v) for v in result.levels.values())


def _count_image(counts, result, args, kwargs):
    counts["weighted.image_subshift.states"] += _n_states(result)
    counts["weighted.image_subshift.fallbacks"] += result.wordsets is not None


def _count_covering_family(counts, result, args, kwargs):
    counts["selfsim.covering_lower_bound.points"] += result.count


def _count_entropy2d(counts, result, args, kwargs):
    counts["grid2d.entropy2d.cells"] += len(result.counts)


def _count_patterns(counts, result, args, kwargs):
    counts["grid2d.enumerate_patterns.patterns"] += len(result)


def _count_witness(counts, result, args, kwargs):
    counts["oracle.witness_cloud.points"] += len(result)


def _count_cover(counts, result, args, kwargs):
    cloud = args[0] if args else kwargs["cloud"]
    counts["oracle.covering_bounds.points"] += len(cloud)
    counts["oracle.covering_bounds.lower"] += result.lower
    counts["oracle.covering_bounds.upper"] += result.upper


def _count_key_fact(counts, result, args, kwargs):
    counts["grid2d.key_fact_check.points"] += result["points"]


def _count_mass(counts, result, args, kwargs):
    counts["oracle.mass_distribution_check.boxes"] += sum(
        v["box_count"] for v in result["per_m"].values()
    )


def _count_cli(counts, result, args, kwargs):
    counts["cli.refusals"] += result == 3


def _count_report(counts, result, args, kwargs):
    counts["reportio.write_report.bytes"] += len(result.encode())


@dataclass(frozen=True)
class Target:
    """One traced entry point: `owner` is a module path, optionally with a
    class name after a colon (``meandim.metrics:PointCloud``)."""

    name: str
    owner: str
    attr: str
    counter: object = None


TARGETS = (
    Target("symbolic.prune", "meandim.symbolic", "prune", _count_prune),
    Target("symbolic.count_words", "meandim.symbolic", "count_words"),
    Target("symbolic.enumerate_words", "meandim.symbolic", "enumerate_words",
           _count_enumerate_words),
    Target("symbolic.enumerate_words", "meandim.symbolic:Automaton", "enumerate_words",
           _count_enumerate_words),
    Target("symbolic.entropy", "meandim.symbolic", "entropy"),
    Target("symbolic.spectral_log", "meandim.symbolic:Automaton", "spectral_log",
           _count_spectral),
    Target("weighted.fiber_counts", "meandim.weighted", "fiber_counts", _count_fibers),
    Target("weighted.weighted_entropy", "meandim.weighted", "weighted_entropy"),
    Target("weighted.image_subshift", "meandim.weighted", "image_subshift", _count_image),
    Target("carpet.mean_dims", "meandim.carpet", "mean_dims"),
    Target("selfsim.min_gap", "meandim.selfsim", "min_gap"),
    Target("selfsim.covering_lower_bound", "meandim.selfsim", "covering_lower_bound",
           _count_covering_family),
    Target("grid2d.count_rectangles", "meandim.grid2d", "count_rectangles"),
    Target("grid2d.entropy2d", "meandim.grid2d", "entropy2d", _count_entropy2d),
    Target("grid2d.enumerate_patterns", "meandim.grid2d", "enumerate_patterns",
           _count_patterns),
    Target("grid2d.key_fact_check", "meandim.grid2d", "key_fact_check", _count_key_fact),
    Target("oracle.qbox_family", "meandim.oracle", "qbox_family"),
    Target("oracle.witness_cloud", "meandim.oracle:QBoxFamily", "witness_cloud",
           _count_witness),
    Target("oracle.covering_bounds", "meandim.oracle", "covering_bounds", _count_cover),
    Target("metrics.pairwise_to_point", "meandim.metrics", "pairwise_to_point"),
    Target("metrics.min_pairwise", "meandim.metrics:PointCloud", "min_pairwise"),
    Target("oracle.verify_family_separation", "meandim.oracle", "verify_family_separation"),
    Target("oracle.mass_distribution_check", "meandim.oracle", "mass_distribution_check",
           _count_mass),
    Target("oracle.exact_min_cover", "meandim.oracle", "exact_min_cover"),
    Target("cli.main", "meandim.cli", "main", _count_cli),
    Target("reportio.write_report", "meandim.reportio", "write_report", _count_report),
)

# Spans whose time is reported per layer as `.calls` and `.self_s`.
TIMED_NAMES = tuple(dict.fromkeys(t.name for t in TARGETS))
CRITERION_PREFIX = "suite.criterion."

COUNT_METRICS = (
    ("symbolic.prune.states", "count"),
    ("symbolic.enumerate_words.words", "count"),
    ("symbolic.spectral_log.states", "count"),
    ("weighted.fiber_counts.words", "count"),
    ("weighted.image_subshift.states", "count"),
    ("weighted.image_subshift.fallbacks", "count"),
    ("selfsim.covering_lower_bound.points", "count"),
    ("grid2d.entropy2d.cells", "count"),
    ("grid2d.entropy2d.rect_calls_per_cell", "calls/cell"),
    ("grid2d.enumerate_patterns.patterns", "count"),
    ("oracle.witness_cloud.points", "count"),
    ("oracle.covering_bounds.points", "count"),
    ("oracle.covering_bounds.lower", "count"),
    ("oracle.covering_bounds.upper", "count"),
    ("grid2d.key_fact_check.points", "count"),
    ("oracle.mass_distribution_check.boxes", "count"),
    ("cli.refusals", "count"),
    ("reportio.write_report.bytes", "bytes"),
)
CRITERIA_NUMBERS = tuple(str(n) for n in range(1, 11))


def per_layer_metrics():
    """(name, unit, better) for every per-layer metric a traced run reports."""
    out = []
    for name in TIMED_NAMES:
        out.append((name + ".calls", "count", "lower"))
        out.append((name + ".self_s", "s", "lower"))
    for name, unit in COUNT_METRICS:
        # a larger greedy lower bound is a tighter bracket; every other count
        # is work done
        out.append((name, unit, "higher" if name.endswith(".lower") else "lower"))
    for number in CRITERIA_NUMBERS:
        out.append((f"{CRITERION_PREFIX}{number}.s", "s", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index into the span list, -1 for a root


@dataclass
class Tracer:
    """Collects spans in memory while installed; see `install`."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(int))
    _open: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def span(self, name, fn, *args, **kwargs):
        """Run fn under a span called `name` and return its result."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name, fn, counter):
        spans, open_, counts = self.spans, self._open, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_ and spans[open_[-1]].name == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(Span(name, clock(), 0, open_[-1] if open_ else -1))
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx].end = clock()
                open_.pop()
            if counter is not None:
                counter(counts, result, args, kwargs)
            return result

        return wrapper

    def install(self, targets=TARGETS):
        """Replace every binding of each target with a tracing wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "meandim" or n.startswith("meandim.")) and m is not None]
        for target in targets:
            mod_name, _, cls_name = target.owner.partition(":")
            owner = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(owner, cls_name)
                original = owner.__dict__[target.attr]
                self._patch(owner, target.attr, self._wrap(target.name, original, target.counter))
                continue
            original = getattr(owner, target.attr)
            wrapper = self._wrap(target.name, original, target.counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        self._wrap_criteria()
        return self

    def _wrap_criteria(self):
        suite = importlib.import_module("meandim.suite")
        wrapped = []
        for number, fn in suite.CRITERIA:
            wrapper = self._wrap(CRITERION_PREFIX + number, fn, None)
            for attr, value in list(vars(suite).items()):
                if value is fn:
                    self._patch(suite, attr, wrapper)
            wrapped.append((number, wrapper))
        self._patch(suite, "CRITERIA", tuple(wrapped))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        """Put every original binding back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans):
    """Self time of each span in ns: its duration minus the union of the
    intervals its direct children cover (clipped to the span)."""
    children = defaultdict(list)
    for idx, sp in enumerate(spans):
        if sp.parent >= 0:
            children[sp.parent].append(idx)
    out = []
    for idx, sp in enumerate(spans):
        covered = 0
        cursor = sp.start
        for c in sorted(children[idx], key=lambda i: spans[i].start):
            lo, hi = max(spans[c].start, cursor), min(spans[c].end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(sp.end - sp.start - covered)
    return out


def layer_metrics(tracer):
    """Per-layer metrics from one traced pass: calls, self seconds, counts."""
    spans = tracer.spans
    own = self_times(spans)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    total_ns = defaultdict(int)
    for sp, s in zip(spans, own):
        calls[sp.name] += 1
        self_ns[sp.name] += s
        total_ns[sp.name] += sp.end - sp.start
    out = {}
    for name in TIMED_NAMES:
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = self_ns[name] / 1e9
    for number in CRITERIA_NUMBERS:
        out[f"{CRITERION_PREFIX}{number}.s"] = total_ns[CRITERION_PREFIX + number] / 1e9
    for key, value in tracer.counts.items():
        out[key] = value
    cells = tracer.counts.get("grid2d.entropy2d.cells", 0)
    in_entropy2d = sum(
        1 for sp in spans
        if sp.name == "grid2d.count_rectangles" and sp.parent >= 0
        and spans[sp.parent].name == "grid2d.entropy2d"
    )
    out["grid2d.entropy2d.rect_calls_per_cell"] = in_entropy2d / cells if cells else 0.0
    return out


def account(tracer):
    """Seconds of self time per span name, including the job glue spans."""
    out = defaultdict(float)
    for sp, s in zip(tracer.spans, self_times(tracer.spans)):
        out[sp.name] += s / 1e9
    return dict(out)


def breakdown(tracer, prefix=CRITERION_PREFIX):
    """{ancestor name: {span name: self seconds}} for spans below the nearest
    ancestor whose name starts with `prefix` (the ancestor's own self time
    included), e.g. how criterion 4 splits between witness building and
    covering."""
    spans = tracer.spans
    own = self_times(spans)
    anchor = []
    for sp in spans:  # parents precede children, so one forward sweep suffices
        if sp.name.startswith(prefix):
            anchor.append(sp.name)
        else:
            anchor.append(anchor[sp.parent] if sp.parent >= 0 else None)
    out = defaultdict(lambda: defaultdict(float))
    for sp, s, top in zip(spans, own, anchor):
        if top is not None:
            out[top][sp.name] += s / 1e9
    return {k: dict(v) for k, v in out.items()}

