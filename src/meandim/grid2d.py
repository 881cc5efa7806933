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

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, ResourceLimit
from .limits import point_budget, state_budget
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


def _window_free(spec: Grid2DSpec, n_rows: int, m_cols: int) -> bool:
    """True when no constraint fits in an n_rows x m_cols grid."""
    if spec.rule == RULE_FREE:
        return True
    if spec.rule == RULE_PATTERNS:
        h, w = spec.window
        return n_rows < h or m_cols < w
    return False


def _column_successors(spec: Grid2DSpec, strip_rows, n_rows: int) -> list[int]:
    """Indices, in increasing order, of the columns whose every h x w window
    with the strip (given row by row) is allowed.  A row DFS tests each
    window as soon as its bottom row is filled."""
    a = spec.alphabet
    h, _ = spec.window
    allowed = spec.allowed
    col = [0] * n_rows
    out: list[int] = []

    def fill(r: int, code: int) -> None:
        for x in range(a):
            col[r] = x
            if r >= h - 1 and tuple(
                strip_rows[i] + (col[i],) for i in range(r - h + 1, r + 1)
            ) not in allowed:
                continue
            if r + 1 == n_rows:
                out.append(code + x)
            else:
                fill(r + 1, (code + x) * a)

    fill(0, 0)
    return out


def _loops(n_cols: int, codes: list) -> Automaton:
    """One state with a loop per admissible column code: a single-column rule."""
    return Automaton(alphabet_size=n_cols, root=0, succ=({c: 0 for c in codes},))


def _rooted(k: int, n_rows: int, width: int, succ, cap: int) -> Automaton:
    """Strip graph over the k column codes: `succ` yields each strip's
    target strips, and strip t ends in column t % k.  Its edges are capped
    at `cap` as they are generated.  The root reads the first `width`
    columns freely through a chain of prefix states, each level numbered
    like the strips."""
    states = []
    edges = 0
    for targets in succ:
        edges += len(targets)
        if edges > cap:
            raise ResourceLimit(
                f"state budget: the transfer graph for {n_rows} rows needs more "
                f"than {cap} edges, the cap"
            )
        states.append({t % k: t for t in targets})
    level = 0  # first state of the level the next one reaches
    for j in range(width - 1, -1, -1):
        start = len(states)
        states.extend({c: level + p * k + c for c in range(k)} for p in range(k**j))
        level = start
    return Automaton(alphabet_size=k, root=level, succ=tuple(states))


def _linear_graph(spec: Grid2DSpec, n_rows: int, cap: int) -> Automaton:
    """Columns solve c00 x[i] + c10 x[i+1] = 0 when c01 = 0; otherwise each
    row i above `top` of the next column solves
    c01 y = -(c00 x[i] + c10 x[i+1]) (mod a) and the rows below stay free."""
    a = spec.alphabet
    c00, c10, c01 = spec.coeffs
    top = n_rows - (1 if c10 != 0 else 0)
    cols = list(itertools.product(range(a), repeat=n_rows))

    def residue(col, i):
        return (c00 * col[i] + (c10 * col[i + 1] if c10 != 0 else 0)) % a

    if c01 == 0:
        zero = [all(residue(col, i) == 0 for i in range(top)) for col in cols]
        return _loops(len(cols), np.flatnonzero(zero).tolist())
    roots = [[y for y in range(a) if (c01 * y + r) % a == 0] for r in range(a)]
    free = list(range(a))

    def targets(col):
        out = [0]
        for i in range(n_rows):
            choices = roots[residue(col, i)] if i < top else free
            out = [t * a + y for t in out for y in choices]
        return out

    return _rooted(len(cols), n_rows, 1, map(targets, cols), cap)


def _patterns_graph(spec: Grid2DSpec, n_rows: int, cap: int) -> Automaton:
    a = spec.alphabet
    _, w = spec.window
    cols = list(itertools.product(range(a), repeat=n_rows))
    if w == 1:
        empty = ((),) * n_rows
        return _loops(len(cols), _column_successors(spec, empty, n_rows))
    shift = a ** (n_rows * (w - 2))  # a strip drops its first column
    succ = (
        [(s % shift) * len(cols) + c for c in _column_successors(spec, tuple(zip(*strip)), n_rows)]
        for s, strip in enumerate(itertools.product(cols, repeat=w - 1))
    )
    return _rooted(len(cols), n_rows, w - 1, succ, cap)


def _transfer_graph(spec: Grid2DSpec, n_rows: int, budget: int | None) -> Automaton:
    """Automaton whose words of length m are the locally admissible
    n_rows x m patterns, column by column, labelled by the column codes
    sum col[i] a^(n_rows-1-i).  A strip state holds the last column (linear
    rules) or w - 1 columns, numbered in `itertools.product` order.  `budget`
    (default `state_budget()`) caps the strips, checked before anything is
    built (the root and chain states are fewer), and the strip-to-strip
    edges, checked as they are generated."""
    cap = state_budget(budget)
    a = spec.alphabet
    width = 1 if spec.rule == RULE_LINEAR else max(spec.window[1] - 1, 1)
    n_states = a ** (n_rows * width)
    if n_states > cap:
        raise ResourceLimit(
            f"state budget: {n_states} transfer states for {n_rows} rows exceed the cap {cap}"
        )
    if spec.rule == RULE_LINEAR:
        return _linear_graph(spec, n_rows, cap)
    return _patterns_graph(spec, n_rows, cap)


def count_rectangles(
    spec: Grid2DSpec, n_rows: int, m_cols: int, budget: int | None = None
) -> int:
    """Exact number of locally admissible n x m patterns.

    Local admissibility (no in-grid window violates the rule) is decidable
    and exact for the Free and LinearMod rules; for LocalPatterns it is an
    upper bound on the pattern language of the 2d subshift, since global
    extendability of 2d patterns is undecidable in general.  `budget` caps
    the transfer graph's states and edges (default `state_budget()`).
    """
    if n_rows < 1 or m_cols < 1:
        raise DomainError("pattern dimensions must be positive")
    if _window_free(spec, n_rows, m_cols):
        return spec.alphabet ** (n_rows * m_cols)
    return _transfer_graph(spec, n_rows, budget).word_counts(m_cols)[-1]


def _pattern_rows(spec: Grid2DSpec, n_rows: int, m_cols: int, budget: int | None) -> np.ndarray:
    """Row codes sum_m w[n][m] a^(m_cols-1-m) of the admissible patterns, one
    array row per pattern in column-word order (int64 while a^m_cols <= 2^53,
    Python ints beyond).  `budget` caps the patterns (default `point_budget()`)."""
    if n_rows < 1 or m_cols < 1:
        raise DomainError("pattern dimensions must be positive")
    cap = point_budget(budget)
    a = spec.alphabet
    free = _window_free(spec, n_rows, m_cols)
    graph = None if free else _transfer_graph(spec, n_rows, None)
    total = a ** (n_rows * m_cols) if free else graph.word_counts(m_cols)[-1]
    if total > cap:
        raise ResourceLimit(f"{total} patterns exceed budget {cap}")
    if free:
        codes = np.indices((a**n_rows,) * m_cols).reshape(m_cols, total).T
    else:
        codes = np.array(graph.enumerate_words(m_cols, cap), dtype=np.int64).reshape(total, m_cols)
    digits = codes[:, None, :] // a ** np.arange(n_rows - 1, -1, -1)[:, None] % a  # w[n][m]
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
    graph per row count n gives count(n, m) for every m; rows that hold no
    window take `count_rectangles`' closed form.  `budget` caps the transfer
    states as in `count_rectangles`.
    """
    if n_max < 1 or m_max < 1:
        raise DomainError(f"grid (n_max, m_max) = ({n_max}, {m_max}) needs both >= 1")
    estimates = {}
    counts = {}
    best = math.inf
    best_cell = None
    for n in range(1, n_max + 1):
        if _window_free(spec, n, m_max):
            row = [count_rectangles(spec, n, m, budget) for m in range(1, m_max + 1)]
        else:
            row = _transfer_graph(spec, n, budget).word_counts(m_max)
        for m, c in enumerate(row, 1):
            counts[(n, m)] = c
            e = math.log(c) / (n * m) if c > 0 else -math.inf
            estimates[(n, m)] = e
            if e < best:
                best = e
                best_cell = (n, m)
    return Entropy2DReport(estimates=estimates, counts=counts, best=best, best_cell=best_cell)


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
