"""Exact rectangle-pattern counting for two-dimensional symbolic rules.

Rules are Free (no constraint), LinearMod (a three-cell linear congruence),
or LocalPatterns (a single allowed window set).  Counting is exact over big
integers as path counts of the column transfer graph, a `symbolic.Automaton`
whose labels are column codes.  Locally admissible counts upper-bound the pattern
language of the corresponding subshift, and normalized log-counts are
certified entropy upper bounds by subadditivity in both axes.  The digit
points x_n = sum_m w[n][m] a^-m embed admissible patterns into the torus
product for metric cross-checks.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import limits
from .errors import DomainError
from .metrics import SUM_WEIGHTED_TORUS, MetricDescriptor, PointCloud
from .symbolic import Automaton

RULE_FREE = "free"
RULE_LINEAR = "linear"
RULE_PATTERNS = "patterns"


@dataclass(frozen=True)
class Grid2DSpec:
    alphabet: int
    rule: str
    coeffs: tuple | None = None  # (c00, c10, c01): c00 x[i,j] + c10 x[i+1,j] + c01 x[i,j+1] = 0 mod alphabet
    window: tuple | None = None  # (h, w)
    allowed: frozenset | None = None  # h x w patterns as row tuples

    def __post_init__(self):
        if self.alphabet < 1:
            raise DomainError("alphabet must be >= 1")
        if self.rule == RULE_LINEAR:
            if self.coeffs is None or len(self.coeffs) != 3:
                raise DomainError("linear rule needs coefficients (c00, c10, c01)")
        elif self.rule == RULE_PATTERNS:
            if self.window is None or self.allowed is None:
                raise DomainError("patterns rule needs a window and allowed set")
            h, w = self.window
            for pat in self.allowed:
                if len(pat) != h or any(len(row) != w for row in pat):
                    raise DomainError("allowed pattern does not fit the window")
                if any(not 0 <= x < self.alphabet for row in pat for x in row):
                    raise DomainError(
                        f"allowed pattern {pat} has a symbol outside 0..{self.alphabet - 1}"
                    )
        elif self.rule != RULE_FREE:
            raise DomainError(f"unknown rule {self.rule!r}")


def free_rule(a: int) -> Grid2DSpec:
    return Grid2DSpec(alphabet=a, rule=RULE_FREE)


def linear_rule(a: int, c00: int, c10: int, c01: int) -> Grid2DSpec:
    return Grid2DSpec(alphabet=a, rule=RULE_LINEAR, coeffs=(c00 % a, c10 % a, c01 % a))


def three_dot_rule(a: int = 2) -> Grid2DSpec:
    return linear_rule(a, 1, 1, 1)


def patterns_rule(a: int, window, allowed) -> Grid2DSpec:
    h, w = window
    pats = frozenset(tuple(tuple(int(x) for x in row) for row in p) for p in allowed)
    return Grid2DSpec(alphabet=a, rule=RULE_PATTERNS, window=(h, w), allowed=pats)


def hard_square_rule() -> Grid2DSpec:
    """No two adjacent 1s, encoded as the allowed 2x2 windows."""
    allowed = []
    for p in itertools.product((0, 1), repeat=4):
        pat = ((p[0], p[1]), (p[2], p[3]))
        if (
            (pat[0][0] and pat[0][1])
            or (pat[1][0] and pat[1][1])
            or (pat[0][0] and pat[1][0])
            or (pat[0][1] and pat[1][1])
        ):
            continue
        allowed.append(pat)
    return patterns_rule(2, (2, 2), allowed)


# ---------------------------------------------------------------------------
# Exact counting
# ---------------------------------------------------------------------------


def _window_shape(spec: Grid2DSpec) -> tuple[int, int]:
    """(h, w) of the rule's window: a linear rule's has h = 2 iff c10 != 0, w = 2 iff c01 != 0."""
    if spec.rule == RULE_LINEAR:
        _, c10, c01 = spec.coeffs
        return 1 + (c10 != 0), 1 + (c01 != 0)
    return spec.window


def _window_free(spec: Grid2DSpec, n_rows: int, m_cols: int) -> bool:
    """True when no constraint fits in an n_rows x m_cols grid."""
    if spec.rule == RULE_FREE:
        return True
    h, w = _window_shape(spec)
    return n_rows < h or m_cols < w


def _window_test(spec: Grid2DSpec, h: int, w: int):
    """Function telling, for the codes of the last h - 1 rows of partial
    patterns (a column) and row codes sum x_j a^(w-1-j), which of the h x w
    windows they form are allowed.  In a linear window, x is the top-left
    cell, y the cell below it and z the cell to its right, and
    c00 x + c10 y + c01 z = 0 (mod a); a pattern rule's windows, coded row
    by row from the top, are looked up among those of its allowed windows."""
    a, span = spec.alphabet, spec.alphabet**w
    if spec.rule == RULE_LINEAR:  # a missing cell has c = 0
        c00, c10, c01 = spec.coeffs
        first, rest = np.divmod(np.arange(span), a ** (w - 1))  # by row code: x (or y) and z
        top, below = c00 * first + c01 * rest, c10 * first
        # with h = 1 the row is its own top row, and last codes no row: 0
        return lambda last, rows: (top[last if h == 2 else last + rows] + below[rows]) % a == 0
    codes = sorted(functools.reduce(lambda c, x: c * a + x, sum(p, ()), 0) for p in spec.allowed)
    # a^(hw) exceeds every window code, so each search lands in range
    codes = np.array(codes + [a ** (h * w)], dtype=np.int64 if a ** (h * w) <= 2**62 else object)

    def allowed(last, rows):
        windows = last * span + rows
        return codes[np.searchsorted(codes, windows)] == windows

    return allowed


def _row_sweep(spec: Grid2DSpec, n_rows: int, cap: int) -> np.ndarray:
    """Column codes of the admissible n_rows x w patterns, one array row per
    pattern.  Each grid row extends every partial pattern by the a^w row
    codes, keeps a candidate when the window ending at that row is allowed,
    and carries each column's code sum col[i] a^(n_rows-1-i) (int64 below
    2^62, Python ints above) and the code of the last h - 1 rows.  `cap`
    bounds the partial patterns kept at each row."""
    a = spec.alphabet
    h, w = _window_shape(spec)
    allowed = _window_test(spec, h, w)
    span = a**w
    cells = np.indices((a,) * w).reshape(w, span).T  # row code -> its w cells
    cols = np.zeros((1, w), dtype=np.int64 if a**n_rows <= 2**62 else object)
    last = np.zeros(1, dtype=np.int64 if a ** (h * w) <= 2**62 else object)
    step = max((1 << 18) // span, 1)  # partial patterns per batch of 2^18 candidates
    for r in range(n_rows):
        keep, kept = [np.zeros(0, dtype=np.int64)], 0
        for lo in range(0, len(last), step):
            # a window is whole from row h on; the rows above keep every candidate
            ok = np.flatnonzero(allowed(last[lo : lo + step, None], np.arange(span)) | (r < h - 1))
            keep.append(ok + lo * span)
            kept += len(ok)
            limits.check("state", kept, "or more partial patterns", cap,
                         f"the transfer graph for {n_rows} rows, at row {r + 1}")
        keep = np.concatenate(keep)
        cols = cols[keep // span] * a + cells[keep % span]
        last = (last[keep // span] * span + keep % span) % span ** (h - 1)
    return cols


def _grouped(sources, labels, targets, n_states: int) -> list[dict]:
    """For each source 0..n_states-1, its dict label -> target."""
    order = np.argsort(sources, kind="stable")
    bounds = np.searchsorted(sources[order], np.arange(n_states + 1)).tolist()
    labels, targets = labels[order].tolist(), targets[order].tolist()
    return [dict(zip(labels[i:j], targets[i:j])) for i, j in zip(bounds, bounds[1:])]


def _transfer_graph(spec: Grid2DSpec, n_rows: int, budget: int | None) -> Automaton:
    """Automaton whose words of length m >= w are the locally admissible
    n_rows x m patterns, labelled by their column codes.  Its states are the
    strips of w - 1 columns in the admissible n_rows x w patterns of
    `_row_sweep` (capped by `budget`, default the state budget), one edge per
    pattern from its first strip to its last, labelled by its last column.
    The root reads the first w - 1 columns through prefix states toward the
    strips with successors, so shorter words are not all patterns."""
    k = spec.alphabet**n_rows
    cols = _row_sweep(spec, n_rows, limits.cap("state", budget))
    n_pat, w = cols.shape
    if k ** (w - 1) > 2**62:
        cols = cols.astype(object)
    place = np.array([k**j for j in range(w - 2, -1, -1)], dtype=cols.dtype)  # strip codes
    left, right = cols[:, :-1] @ place, cols[:, 1:] @ place
    states, index = np.unique(np.concatenate([left, right]), return_inverse=True)
    succ = _grouped(index[:n_pat], cols[:, -1], index[n_pat:], len(states))
    nodes = np.flatnonzero(np.bincount(index[:n_pat], minlength=len(states)))  # live strips
    codes = states[nodes]
    for _ in range(w - 2):  # prefix states, one column shorter each level
        labels = codes % k
        codes, parent = np.unique(codes // k, return_inverse=True)
        succ += _grouped(parent, labels, nodes, len(codes))
        nodes = np.arange(len(succ) - len(codes), len(succ))
    if w > 1:  # the root reads the first column; with w = 1 the one strip is the root
        succ.append(dict(zip(codes.tolist(), nodes.tolist())))
    succ = succ or [{}]  # no admissible pattern: a root with no edges
    return Automaton(alphabet_size=k, root=len(succ) - 1, succ=tuple(succ))


def count_rectangles(
    spec: Grid2DSpec, n_rows: int, m_cols: int, budget: int | None = None
) -> int:
    """Exact number of locally admissible n x m patterns.

    Local admissibility (no in-grid window violates the rule) is decidable
    and exact for the Free and LinearMod rules; for LocalPatterns it is an
    upper bound on the pattern language of the 2d subshift, since global
    extendability of 2d patterns is undecidable in general.  `budget` caps
    the transfer graph's row sweep (default the state budget).
    """
    if n_rows < 1 or m_cols < 1:
        raise DomainError("pattern dimensions must be positive")
    if _window_free(spec, n_rows, m_cols):
        return spec.alphabet ** (n_rows * m_cols)
    return _transfer_graph(spec, n_rows, budget).word_counts(m_cols)[-1]


def _pattern_rows(spec: Grid2DSpec, n_rows: int, m_cols: int, budget: int | None) -> np.ndarray:
    """Row codes sum_m w[n][m] a^(m_cols-1-m) of the admissible patterns, one
    array row per pattern in column-word order (int64 while a^m_cols <= 2^53,
    Python ints beyond).  `budget` caps the patterns (default the point budget)."""
    if n_rows < 1 or m_cols < 1:
        raise DomainError("pattern dimensions must be positive")
    cap, a = limits.cap("point", budget), spec.alphabet
    free = _window_free(spec, n_rows, m_cols)
    graph = None if free else _transfer_graph(spec, n_rows, None)
    total = a ** (n_rows * m_cols) if free else graph.word_counts(m_cols)[-1]
    limits.check("point", total, "patterns", cap)
    if free:
        codes = np.indices((a**n_rows,) * m_cols).reshape(m_cols, total).T
    else:  # column codes past 2^62 stay Python ints
        kind = np.int64 if a**n_rows <= 2**62 else object
        codes = np.array(graph.enumerate_words(m_cols, cap), dtype=kind).reshape(total, m_cols)
    powers = np.array([a**i for i in range(n_rows - 1, -1, -1)], dtype=codes.dtype)
    digits = codes[:, None, :] // powers[:, None] % a  # w[n][m]
    dtype = np.int64 if a**m_cols <= 2**53 else object
    place = np.array([a ** (m_cols - 1 - m) for m in range(m_cols)], dtype=dtype)
    return digits.astype(dtype, copy=False) @ place


def enumerate_patterns(spec: Grid2DSpec, n_rows: int, m_cols: int, budget: int | None = None):
    """All locally admissible patterns as row-major tuples of rows, in the
    `itertools.product` order of their column sequences."""
    a = spec.alphabet
    codes, index = np.unique(_pattern_rows(spec, n_rows, m_cols, budget), return_inverse=True)
    rows = [tuple(c // a ** (m_cols - 1 - m) % a for m in range(m_cols)) for c in codes.tolist()]
    return [tuple(map(rows.__getitem__, p)) for p in index.reshape(-1, n_rows).tolist()]


# ---------------------------------------------------------------------------
# Entropy and the homogeneous-system dimension
# ---------------------------------------------------------------------------


def _int_log(value: int, base: int) -> int | None:
    """Exact e with base^e == value, when it exists."""
    if value < 1:
        return None
    e = 0
    v = value
    while v % base == 0:
        v //= base
        e += 1
    return e if v == 1 else None


@dataclass(frozen=True)
class Entropy2DReport:
    estimates: dict  # (n, m) -> log count / (n m), nats
    counts: dict  # (n, m) -> exact count
    best: float  # min over the grid: a certified upper bound
    best_cell: tuple


def entropy2d(
    spec: Grid2DSpec, n_max: int, m_max: int, budget: int | None = None
) -> Entropy2DReport:
    """Normalized log-counts over the (n, m) grid.

    Each value log count(n, m) / (n m) upper-bounds the pattern entropy:
    counts are submultiplicative along both axes, so Fekete applies per axis
    and the double limit is the double infimum.  One sweep of the transfer
    graph per row count n gives count(n, m) for every m; cells that hold no
    window take `count_rectangles`' closed form a^(n m) (the graph's words
    shorter than the window are not all patterns).  `budget` caps each row
    count's sweep as in `count_rectangles`.
    """
    if n_max < 1 or m_max < 1:
        raise DomainError(f"grid (n_max, m_max) = ({n_max}, {m_max}) needs both >= 1")
    estimates = {}
    counts = {}
    for n in range(1, n_max + 1):
        free = _window_free(spec, n, m_max)
        row = None if free else _transfer_graph(spec, n, budget).word_counts(m_max)
        for m in range(1, m_max + 1):
            c = count_rectangles(spec, n, m, budget) if _window_free(spec, n, m) else row[m - 1]
            counts[(n, m)] = c
            estimates[(n, m)] = math.log(c) / (n * m) if c > 0 else -math.inf
    best_cell = min(estimates, key=estimates.get)  # the first least cell, row by row
    return Entropy2DReport(estimates, counts, estimates[best_cell], best_cell)


def homog_dims_from_report(rep: Entropy2DReport, a: int) -> dict:
    """Common mean Hausdorff / metric mean dimension of the base-a digit model
    from the rule's `entropy2d` report.

    The value is the rectangle-pattern entropy divided by log a.  When every
    computed count is an exact power of a the ratio is computed in exact
    rational arithmetic (so the Free rule reports exactly 1).
    """
    if a < 2:
        raise DomainError(f"digit base {a}: the dimension entropy / log a needs a >= 2")
    exact_ratios = []
    for (n, m), c in rep.counts.items():
        e = _int_log(c, a)
        if e is None:
            exact_ratios = None
            break
        exact_ratios.append(Fraction(e, n * m))
    if exact_ratios is not None:
        value = float(min(exact_ratios))
        exact = True
    else:
        value = rep.best / math.log(a)
        exact = False
    return {
        "mdim": value,
        "entropy_best": rep.best,
        "best_cell": rep.best_cell,
        "exact_power": exact,
        "status": "upper_bound",
    }


def homog_mean_dims(spec: Grid2DSpec, n_max: int, m_max: int) -> dict:
    """`homog_dims_from_report` of the rule's n_max x m_max `entropy2d` report,
    with the rule's alphabet as the digit base."""
    return homog_dims_from_report(entropy2d(spec, n_max, m_max), spec.alphabet)


# ---------------------------------------------------------------------------
# Torus embedding and the two-parameter rectangle metric
# ---------------------------------------------------------------------------


def torus_points(
    spec: Grid2DSpec, n_rows: int, m_cols: int, depth: int = 0, budget: int | None = None
) -> PointCloud:
    """One torus point per admissible (n_rows + depth) x m_cols pattern.

    Coordinate n of the point is x_n = sum_m w[n][m] a^-m in [0, 1); `depth`
    adds extra coordinate rows so that dynamical metrics with window n_rows
    stay truncation-sound.
    """
    rows = n_rows + depth
    # row codes are exact below 2^53, so the one division rounds as int / int
    return PointCloud(
        points=(_pattern_rows(spec, rows, m_cols, budget) / spec.alphabet**m_cols).astype(float),
        metric=MetricDescriptor(kind=SUM_WEIGHTED_TORUS, iterates=n_rows),
        truncation_error=0.5 * 2.0 ** -(rows - n_rows + 1) if depth else 0.5 * 2.0 ** -1,
    )


def key_fact_check(
    spec: Grid2DSpec, n_rows: int, m_cols: int, budget: int | None = None
) -> dict:
    """The digit-agreement implication and its covering bracket on a cloud.

    At eps in (a^-M, a^-(M-1)] with tail cutoff L (least 2^-L < eps/2), any
    two cloud points closer than 1/(4a) in the rectangle metric over
    [0, N+L) x [0, M) must be eps-close in the window-N shift metric, so
    lower(shift metric, eps) <= upper(rectangle metric, 1/(4a)).

    No two distinct digit points are that close.  Coordinates are integers
    over a^M; let two points' rows first differ at row j, by a^v u with u
    prime to a and v < M.  Multiplying by a^(M-1-v) turns the difference
    into u a^(M-1) mod a^M, a torus gap of at least 1/a, and shift j alone
    weighs it by 1/2: the rectangle distance is at least 1/(2a), above the
    threshold 1/(4a) and the greedy radius 1/(8a).  So there are no
    violations and the rectangle-metric greedy keeps every point; only the
    shift-metric lower bound is computed (the separated greedy alone).
    """
    from .oracle import _greedies

    a = spec.alphabet
    eps = 0.5 * float(a) ** (-m_cols)
    tail = 1
    while 2.0**-tail >= eps / 2.0:
        tail += 1
    cloud = torus_points(spec, n_rows, m_cols, depth=tail, budget=budget)
    n_pts = len(cloud)
    lower_shift = len(next(_greedies(cloud, eps)))
    return {
        "eps": eps,
        "tail": tail,
        "pointwise_ok": True,
        "violations": 0,
        "lower_shift": lower_shift,
        "upper_rect": n_pts,
        "bracket_ok": lower_shift <= n_pts,
        "points": n_pts,
    }


# ---------------------------------------------------------------------------
# JSON rule schema
# ---------------------------------------------------------------------------


def rule_from_json(doc) -> Grid2DSpec:
    """Checked rule from its JSON document: a malformed document raises
    DomainError naming the field."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise DomainError("a 2d rule is a JSON object")
    a, rule = doc.get("a"), doc.get("rule")
    if not (_ints([a]) and a > 0):
        raise DomainError(f"rule alphabet a {a!r} is not a positive integer")
    if rule == RULE_FREE:
        return free_rule(a)
    if rule == RULE_LINEAR:
        c = doc.get("coeffs")
        if not (_ints(c) and len(c) == 3):
            raise DomainError(f"linear rule coeffs {c!r} are not three integers")
        return linear_rule(a, *c)
    if rule == RULE_PATTERNS:
        window, allowed = doc.get("window"), doc.get("allowed")
        if not (_ints(window) and len(window) == 2 and min(window) > 0):
            raise DomainError(f"patterns rule window {window!r} is not [h, w], both positive")
        if not (isinstance(allowed, list) and all(
            isinstance(p, list) and all(map(_ints, p)) for p in allowed
        )):
            raise DomainError("patterns rule allowed is not a list of patterns (lists of rows)")
        return patterns_rule(a, tuple(window), allowed)
    raise DomainError(f"unknown rule {rule!r}")


def _ints(value) -> bool:
    """True for a JSON list of integers."""
    return isinstance(value, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    )
