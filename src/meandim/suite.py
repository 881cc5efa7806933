"""Built-in regression suite reproducing the library's worked examples.

Each criterion is a self-contained check with its stated tolerance; the suite
is exposed both to pytest and to the command line (`meandim paper-suite`).
Criteria return a record {name, passed, details}; run_suite adds each one's
number and its run time in seconds, and runs them on up to two processes.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import pickle
import random
import signal
import sys
import threading
import time

import numpy as np

from . import carpet, grid2d, oracle, selfsim, symbolic, weighted
from .metrics import product_rows

GOLDEN_MEAN_ENTROPY = 0.48121182505960347  # log((1 + sqrt 5) / 2)
CARPET_H_TARGET = 1.3496838201  # log_2(1 + 2^(log_3 2)), 10 digits
CARPET_M_TARGET = 1.3690702464  # 2 - log_3 2, 10 digits

EXAMPLE_RELATION = ((0, 0), (1, 1), (2, 0))


def _result(name, passed, details):
    return {"name": name, "passed": bool(passed), "details": details}


def _random_relation(rng, a, b):
    rel = [(u, v) for u in range(a) for v in range(b) if rng.random() < 0.6]
    if not rel:
        rel = [(rng.randrange(a), rng.randrange(b))]
    return rel


def criterion_carpet_example():
    spec = carpet.carpet_from_tuples(3, 2, EXAMPLE_RELATION)
    rep = carpet.mean_dims(spec, n_max=8)
    err_h = abs(rep.mdim_h.value - CARPET_H_TARGET)
    err_m = abs(rep.mdim_m.value - CARPET_M_TARGET)
    passed = err_h <= 1e-9 and err_m <= 1e-9
    return _result(
        "carpet example reproduction",
        passed,
        {
            "mdim_h": rep.mdim_h.value,
            "mdim_m": rep.mdim_m.value,
            "err_h": err_h,
            "err_m": err_m,
        },
    )


def criterion_weighted_consistency(seed=0):
    """Random product systems: Z_N, from the exact power and from the generic
    fiber sweep of the same language as an automaton spec (which never looks
    at product structure), against the closed form log sum_v t(v)^w; and the
    closed form at w = 1 and w = 0 against log |R| and log #columns."""
    rng = random.Random(seed)
    n_systems = 50
    worst_z = 0.0
    worst_end = 0.0
    for _ in range(n_systems):
        a = rng.randint(2, 5)
        b = rng.randint(2, a)
        rel = _random_relation(rng, a, b)
        sys = weighted.pair_system_from_tuples(a, b, rel)
        generic = weighted.pair_system(
            a, b, symbolic.automaton_spec(sys.omega.automaton, a * b)
        )
        w = math.log(b) / math.log(a)
        rep = weighted.weighted_entropy(sys, w, 4)
        swept = weighted.weighted_entropy(generic, w, 4).z_values
        for z in (rep.z_values, swept):
            for n, value in z.items():
                worst_z = max(worst_z, abs(math.log(value) / n - rep.closed_form))
        r = len(set(rel))
        s = len({v for _, v in rel})
        h1 = weighted.weighted_entropy(sys, 1.0, 1).closed_form
        h0 = weighted.weighted_entropy(sys, 0.0, 1).closed_form
        worst_end = max(worst_end, abs(h1 - math.log(r)), abs(h0 - math.log(s)))
    passed = worst_z <= 1e-12 and worst_end <= 1e-9
    return _result(
        "weighted entropy consistency",
        passed,
        {"systems": n_systems, "worst_z_err": worst_z, "worst_endpoint_err": worst_end},
    )


def criterion_qbox():
    spec = carpet.carpet_from_tuples(3, 2, EXAMPLE_RELATION)
    all_ok = True
    cells = {}
    for n in range(1, 4):
        for m in range(1, 6):
            fam = oracle.qbox_family(spec, n, m)
            sep = oracle.verify_family_separation(fam, samples=600)
            ok = fam.diam_certified and fam.separation_certified and sep["ok"]
            all_ok = all_ok and ok
            cells[f"{n},{m}"] = {
                "count": fam.count,
                "observed_min": sep["observed_min"],
                "required": sep["required"],
                "ok": ok,
            }
    return _result("q-box lemma", all_ok, cells)


def criterion_sandwich():
    spec = carpet.carpet_from_tuples(3, 2, EXAMPLE_RELATION)
    target = carpet.mean_dims(spec, 6).mdim_m.value
    grid = {}
    largest = None
    for n in range(1, 4):
        for m in range(1, 5):
            sw = oracle.covering_sandwich(spec, n, m)
            grid[f"{n},{m}"] = sw["ratio"]
            largest = sw
    return _result(
        "metric-mean-dimension sandwich trend",
        target - 0.15 <= largest["ratio"] <= target + 0.15,
        {
            "target": target,
            "largest_cell": (largest["n"], largest["m"]),
            "ratio": largest["ratio"],
            "grid": grid,
        },
    )


def criterion_beta_separation():
    worst = math.inf
    for a in (2, 3):
        for beta in (float(a), a + 0.5, a + 1.0):
            for n in range(1, 9):
                gap = selfsim.min_gap(a, beta, n)
                worst = min(worst, gap - beta**-n)
    gap_ok = worst >= -1e-12

    family_ok = True
    details = {}
    specs = {
        "full2": selfsim.beta_system(2, 2.0),
        "golden": selfsim.beta_system(2, 2.0, symbolic.forbidden_words(2, ["11"])),
    }
    for label, spec in specs.items():
        for n_coords in (1, 2, 3):
            for n_layers in (1, 2, 3):
                fam = selfsim.covering_lower_bound(spec, n_coords, n_layers)
                observed = fam.points.min_pairwise() if fam.count > 1 else fam.eps
                bounds = oracle.covering_bounds(fam.points, fam.eps)
                ok = observed >= fam.eps - selfsim.SEPARATION_SLACK and bounds.lower >= fam.count
                family_ok = family_ok and ok
                details[f"{label} N={n_coords} n={n_layers}"] = {
                    "count": fam.count,
                    "observed": observed,
                    "ok": ok,
                }
    return _result(
        "beta-expansion separation",
        gap_ok and family_ok,
        {"worst_gap_margin": worst, "families": details},
    )


def criterion_entropy_oracles():
    gm = symbolic.forbidden_words(2, ["11"])
    rep = symbolic.entropy(gm, 12)
    fib = [1, 1]
    while len(fib) < 23:
        fib.append(fib[-1] + fib[-2])
    table = symbolic.count_words(gm, 20)
    counts_ok = all(table[n] == fib[n + 1] for n in range(1, 21))
    spectral_ok = abs(rep.spectral_value - GOLDEN_MEAN_ENTROPY) <= 1e-9
    full_ok = True
    for k in (2, 3, 5):
        fs = symbolic.full_shift(k)
        t = symbolic.count_words(fs, 8)  # k^n, judged by the automaton's path count
        full_ok = full_ok and list(t.values()) == fs.automaton.word_counts(8)
        full_ok = full_ok and abs(
            symbolic.entropy(fs).spectral_value - math.log(k)
        ) <= 1e-12
    return _result(
        "entropy oracles",
        counts_ok and spectral_ok and full_ok,
        {
            "spectral": rep.spectral_value,
            "target": GOLDEN_MEAN_ENTROPY,
            "fibonacci_ok": counts_ok,
            "full_shift_ok": full_ok,
        },
    )


def criterion_grid2d():
    free_ok = True
    for a in (2, 3):
        spec = grid2d.free_rule(a)
        for n in range(1, 6):
            for m in range(1, 6):
                free_ok = free_ok and grid2d.count_rectangles(spec, n, m) == a ** (n * m)
    td = grid2d.three_dot_rule(2)
    # two independent counts of the three-dot rule: the transfer sweep
    # against 2^(n+m-1), and the closed form count_rectangles against brute force
    formula_ok = all(
        grid2d._transfer_graph(td, n).word_counts(6)
        == [2 ** (n + m - 1) for m in range(1, 7)]
        for n in range(2, 7)
    )
    brute_ok = all(
        grid2d.count_rectangles(td, n, m) == _brute_force_grid_count(td, n, m)
        for n in range(1, 5)
        for m in range(1, 5)
    )
    homog = grid2d.homog_dims_from_report(grid2d.entropy2d(grid2d.free_rule(2), 4, 4), 2)
    homog_ok = homog["mdim"] == 1.0
    return _result(
        "2d pattern counts",
        free_ok and formula_ok and brute_ok and homog_ok,
        {
            "free_ok": free_ok,
            "three_dot_formula_ok": formula_ok,
            "brute_force_ok": brute_ok,
            "homog_free": homog["mdim"],
        },
    )


_GRID_BLOCK = 4096  # grids per block of the brute-force count


def _brute_force_grid_count(spec, n_rows, m_cols):
    """Exhaustive count of the n_rows x m_cols grids over the rule's alphabet
    whose every 2 x 2 window satisfies c00 x + c10 y + c01 z = 0 (mod a),
    independent of the transfer graph.  Grid g has the base-a digits of g as
    its cells, row by row; a block fixes the high digits and takes every value
    of the last n_low (a^n_low <= _GRID_BLOCK, one table).  Windows of low
    cells only are tested once, into the mask each block starts from.
    """
    a, cells = spec.alphabet, n_rows * m_cols
    n_low = next(k for k in range(cells, -1, -1) if a**k <= _GRID_BLOCK)
    n_high = cells - n_low
    low = product_rows([a] * n_low).T.astype(np.min_scalar_type(a - 1))
    mask = np.ones(low.shape[1], dtype=bool)
    mixed = []  # (low part mod a, high (coefficient, cell) terms) of each other window
    for k in (i * m_cols + j for i in range(n_rows - 1) for j in range(m_cols - 1)):
        terms = list(zip(spec.coeffs, (k, k + m_cols, k + 1)))  # the window at cell k
        part = sum(c * low[x - n_high].astype(np.int64) for c, x in terms if x >= n_high) % a
        high = [(c, x) for c, x in terms if x < n_high]
        if high:
            mixed.append((part, high))
        else:
            mask &= part == 0
    count = 0
    for digits in itertools.product(range(a), repeat=n_high):
        ok = mask
        for part, high in mixed:
            ok = ok & (part == -sum(c * digits[x] for c, x in high) % a)
        count += int(np.count_nonzero(ok))
    return count


def criterion_mass_distribution():
    spec = carpet.carpet_from_tuples(3, 2, EXAMPLE_RELATION)
    z1 = 1.0 + 2.0**spec.w
    s = math.log2(z1) - 0.1
    rep = oracle.mass_distribution_check(spec, 1, range(4, 11), s, seed=0)
    passed = rep["all_passed"] and rep["identity_ok"]
    return _result(
        "mass-distribution certificate",
        passed,
        {
            "s": s,
            "identity_max_err": rep["identity_max_err"],
            "largest_s": {m: v["largest_s"] for m, v in rep["per_m"].items()},
        },
    )


def criterion_reciprocal_space(seed=0):
    rng = random.Random(seed)
    n_points = 100
    all_passed = True
    for i in range(n_points):
        m = rng.choice((2, 3))
        n_window = rng.randint(1, 3)
        eps = rng.uniform(0.02, 0.15)
        delta = oracle.reciprocal_witness_delta(m, eps)
        tail = oracle.reciprocal_tail_depth(m, delta)
        x = oracle.sample_reciprocal_point(n_window + tail, 100_000, seed=seed + i)
        wit = oracle.reciprocal_product_witness(x, n_window, m, eps)
        all_passed = all_passed and wit["passed"]
    mink = oracle.reciprocal_set_dims(100_000, 1e-4)["minkowski_scale"]
    return _result(
        "reciprocal sequence space",
        all_passed and 0.40 <= mink <= 0.60,
        {"witnesses": n_points, "minkowski_1e-4": mink},
    )


def criterion_ordering(seed=0):
    rng = random.Random(seed)
    n_samples = 200
    order_ok = True
    equality_ok = True
    coincide_ok = True
    for _ in range(n_samples):
        a = rng.randint(2, 6)
        b = rng.randint(2, a)
        rel = _random_relation(rng, a, b)
        spec = carpet.carpet_from_tuples(a, b, rel)
        rep = carpet.mean_dims(spec, 5)
        order_ok = order_ok and rep.mdim_h.value <= rep.mdim_m.value + 1e-9
        cl = rep.classical
        coincide_ok = coincide_ok and (
            abs(rep.mdim_h.value - cl["dim_h"]) <= 1e-9
            and abs(rep.mdim_m.value - cl["dim_m"]) <= 1e-9
        )
        # for a <= 6, unequal classical dimensions lie more than 1e-4 apart
        numeric = abs(cl["dim_h"] - cl["dim_m"]) <= 1e-9
        equality_ok = equality_ok and carpet.gap_analysis(a, b, rel)["equal"] == numeric
    return _result(
        "ordering and coincidence",
        order_ok and equality_ok and coincide_ok,
        {
            "samples": n_samples,
            "order_ok": order_ok,
            "equality_iff_ok": equality_ok,
            "classical_coincidence_ok": coincide_ok,
        },
    )


CRITERIA = (
    ("1", criterion_carpet_example),
    ("2", criterion_weighted_consistency),
    ("3", criterion_qbox),
    ("4", criterion_sandwich),
    ("5", criterion_beta_separation),
    ("6", criterion_entropy_oracles),
    ("7", criterion_grid2d),
    ("8", criterion_mass_distribution),
    ("9", criterion_reciprocal_space),
    ("10", criterion_ordering),
)


def _run(indices):
    """{index: record, or the exception it raised} of each criterion in indices."""
    done = {}
    for index in indices:
        number, fn = CRITERIA[index]
        t0 = time.perf_counter()
        try:
            done[index] = {**fn(), "seconds": round(time.perf_counter() - t0, 3), "number": number}
        except Exception as exc:  # run_suite raises it in CRITERIA order
            done[index] = exc
    return done


def run_suite(verbose=True):
    """Every criterion's record, in CRITERIA order.  With fork, two CPUs and no
    other thread, a forked child (a spawned one would pay the import) shares
    the work: each process claims the next index from one pipe by an atomic
    one-byte read, and the child pickles its records back.  What it claimed
    but did not send runs here, so the first failure in CRITERIA order raises."""
    (claims, fill), (inbox, outbox) = os.pipe(), os.pipe()
    os.write(fill, bytes(range(len(CRITERIA))))
    os.close(fill)
    claimed = (claim[0] for claim in iter(lambda: os.read(claims, 1), b""))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    child = None
    try:
        if hasattr(os, "fork") and cpus >= 2 and threading.active_count() == 1:
            child = os.fork()
        if child == 0:
            try:
                done = _run(claimed)
                os.write(outbox, pickle.dumps({i: r for i, r in done.items() if type(r) is dict}))
            finally:
                os._exit(0)
        os.close(outbox)
        done = _run(claimed)
        with contextlib.suppress(EOFError, pickle.UnpicklingError):  # no child, or it died
            done.update(pickle.loads(b"".join(iter(lambda: os.read(inbox, 1 << 16), b""))))
    finally:
        for fd in (claims, inbox):
            os.close(fd)
        if child:  # it has exited, or this process is unwinding
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
    results = [done[i] if i in done else _run([i])[i] for i in range(len(CRITERIA))]
    for rec, (number, _) in zip(results, CRITERIA):
        if isinstance(rec, Exception):
            raise rec
        if verbose:
            tag = "PASS" if rec["passed"] else "FAIL"
            print(f"[{tag}] criterion {number}: {rec['name']} ({rec['seconds']}s)", file=sys.stderr)
    return results
