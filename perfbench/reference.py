"""Reference values the benchmark checks job results against.

Everything here is written independently of meandim: closed forms, small
exact dynamic programs, and a plain greedy cover with the same acceptance
rule as the library's (so covering brackets must match exactly).  Nothing
here is timed.
"""

from __future__ import annotations

import math

import numpy as np

COVER_SLACK = 1e-12  # the greedy's outward radius slack, eps/2 - slack


def floor_log_ratio(a, b, m):
    """floor(m log_a b): the largest t with a^t <= b^m, in integers."""
    t = 0
    while a ** (t + 1) <= b**m:
        t += 1
    return t


def qbox_count(a, b, relation, n, m):
    """|R|^(n t) * s^(n (m - t)) boxes for the product relation R, where s is
    the number of occupied columns and t = floor(m log_a b)."""
    t = floor_log_ratio(a, b, m)
    r, s = len(set(relation)), len({v for _, v in relation})
    return r ** (n * t) * s ** (n * (m - t))


def _distances(block, p, metric_kind, iterates):
    if metric_kind == "linf_finite":
        rows = np.abs(block - p)
        if iterates is not None:
            rows = rows[:, :iterates]
        return rows.max(axis=1)
    if metric_kind == "sum_weighted_torus":
        diff = np.abs(block - p) % 1.0
        rows = np.minimum(diff, 1.0 - diff)
        dim = rows.shape[1]
        weights = 0.5 ** np.arange(1, dim + 1)
        windows = 1 if iterates is None else iterates
        return np.max(
            np.stack([rows[:, i:] @ weights[: dim - i] for i in range(windows)]), axis=0
        )
    raise ValueError(f"no reference distance for metric {metric_kind!r}")


def greedy_cover(points, eps, metric_kind, iterates=None):
    """(lower, upper) of the greedy covering bracket.

    lower: size of the greedy maximal eps-separated subset (distance >= eps
    to every kept point); upper: greedy centers whose (eps/2 - slack)-balls
    cover the cloud (a point becomes a center when it is farther than the
    radius from every center).  Points are visited in index order.
    """
    pts = np.asarray(points, dtype=float)
    n, dim = pts.shape
    radius = eps / 2.0 - COVER_SLACK
    sep = np.empty((n, dim))
    cen = np.empty((n, dim))
    n_sep = n_cen = 0
    for p in pts:
        if n_sep == 0 or _distances(sep[:n_sep], p, metric_kind, iterates).min() >= eps:
            sep[n_sep] = p
            n_sep += 1
        if n_cen == 0 or _distances(cen[:n_cen], p, metric_kind, iterates).min() > radius:
            cen[n_cen] = p
            n_cen += 1
    return n_sep, n_cen


def live_vertices(matrix):
    """Vertices of a 0/1 vertex shift that start an infinite path."""
    live = set(range(len(matrix)))
    changed = True
    while changed:
        changed = False
        for s in list(live):
            if not any(matrix[s][t] and t in live for t in live):
                live.discard(s)
                changed = True
    return sorted(live)


def vertex_shift_counts(matrix, n_max):
    """Exact number of admissible words of each length 1..n_max of the vertex
    shift: paths through live vertices, counted with Python integers."""
    live = live_vertices(matrix)
    ways = {s: 1 for s in live}
    counts = [len(live)]
    for _ in range(n_max - 1):
        nxt = dict.fromkeys(live, 0)
        for s, c in ways.items():
            for t in live:
                if matrix[s][t]:
                    nxt[t] += c
        ways = nxt
        counts.append(sum(ways.values()))
    return counts


def log_spectral_radius(matrix):
    """log of the spectral radius of the live part, by a dense eigensolve."""
    live = live_vertices(matrix)
    sub = np.array([[matrix[i][j] for j in live] for i in live], dtype=float)
    return math.log(max(abs(np.linalg.eigvals(sub))))


def cycle_chord_matrix(k, source, target):
    """The k-cycle 0 -> 1 -> ... -> k-1 -> 0 plus the chord source -> target."""
    mat = [[0] * k for _ in range(k)]
    for s in range(k):
        mat[s][(s + 1) % k] = 1
    mat[source][target] = 1
    return mat


def cycle_chord_log_radius(k, source, target):
    """With the chord closing a second cycle of length l = source - target + 1,
    det(I - xA) = 1 - x^k - x^l, so the radius is 1/x for the root of
    x^k + x^l = 1 in (0, 1); bisection to the last bit."""
    length = source - target + 1
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mid**k + mid**length < 1.0:
            lo = mid
        else:
            hi = mid
    return -math.log(0.5 * (lo + hi))


def run_length_counts(k, r, n_max):
    """Words over k symbols with no run of r copies of one fixed symbol,
    lengths 1..n_max (every such word extends, so all are admissible)."""
    ways = [1] + [0] * (r - 1)  # ways[j]: words ending in a run of length j
    counts = []
    for _ in range(n_max):
        ways = [(k - 1) * sum(ways)] + ways[:-1]
        counts.append(sum(ways))
    return counts


def run_length_log_radius(k, r):
    """log radius of the run-length transfer matrix (states: current run)."""
    mat = np.zeros((r, r))
    mat[:, 0] = k - 1
    for j in range(r - 1):
        mat[j, j + 1] = 1.0
    return math.log(max(abs(np.linalg.eigvals(mat))))


def fekete_bounds(counts):
    """min_{j <= n} log(c_j)/j for n = 1..len(counts)."""
    out, best = [], math.inf
    for n, c in enumerate(counts, start=1):
        best = min(best, math.log(c) / n)
        out.append(best)
    return out


def close(x, y, rel):
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a
