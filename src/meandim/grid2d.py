"""Exact rectangle-pattern counting for two-dimensional symbolic rules.

Rules are Free (no constraint), LinearMod (a three-cell linear congruence),
or LocalPatterns (a single allowed window set).  Counting is exact over big
integers: Free and LinearMod counts are closed forms, and patterns (and
LocalPatterns counts) are paths of the column transfer graph, a
`symbolic.Automaton` whose labels are column codes.  Locally admissible
counts upper-bound the pattern language of the corresponding subshift, and
normalized log-counts are certified entropy upper bounds by subadditivity
in both axes.  The digit
points x_n = sum_m w[n][m] a^-m embed admissible patterns into the torus
product for metric cross-checks.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import limits
from .errors import DomainError
from .metrics import SUM_WEIGHTED_TORUS, MetricDescriptor, PointCloud, digit_points, product_rows
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
    allowed = [((p, q), (r, s)) for p, q, r, s in itertools.product((0, 1), repeat=4)
               if not (p and q or r and s or p and r or q and s)]
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


def _row_sweep(spec: Grid2DSpec, n_rows: int):
    """Yield, after each row r = 1..n_rows, the column codes of the
    admissible r x w patterns, one array row per pattern.  Each grid row
    extends every partial pattern by the a^w row codes, keeps a candidate
    when the window ending at that row is allowed, and carries each column's
    code sum col[i] a^(r-1-i) (int64 while a^n_rows <= 2^62, Python ints
    above) and the code of the last h - 1 rows.  The word budget bounds
    the a^w row codes, before any table of them is built, and the state
    budget the partial patterns kept at each row: at row 1, above a window's
    last row, all a^w of them, refused before any is tested."""
    a, where = spec.alphabet, f"the transfer graph for {n_rows} rows"
    h, w = _window_shape(spec)
    span = limits.check("word", [(a, w)], "row codes", where)
    if h > 1:
        limits.check_at_least("state", span, "partial patterns", f"{where}, at row 1")
    allowed = _window_test(spec, h, w)
    cells = product_rows([a] * w)  # row code -> its w cells
    cols = np.zeros((1, w), dtype=np.int64 if a ** min(n_rows, 63) <= 2**62 else object)
    last = np.zeros(1, dtype=np.int64 if a ** min(h * w, 63) <= 2**62 else object)
    step = max((1 << 18) // span, 1)  # partial patterns per batch of 2^18 candidates
    for r in range(n_rows):
        keep, kept = [np.zeros(0, dtype=np.int64)], 0
        for lo in range(0, len(last), step):
            # a window is whole from row h on; the rows above keep every candidate
            ok = np.flatnonzero(allowed(last[lo : lo + step, None], np.arange(span)) | (r < h - 1))
            keep.append(ok + lo * span)
            kept += len(ok)
            limits.check_at_least("state", kept, "partial patterns", f"{where}, at row {r + 1}")
        parent, code = np.divmod(np.concatenate(keep), span)
        cols = cols[parent] * a + cells[code]
        last = (last[parent] * span + code) % span ** (h - 1)
        yield cols


def _grouped(sources, labels, targets, n_states: int) -> list[dict]:
    """For each source 0..n_states-1, its dict label -> target."""
    order = np.argsort(sources, kind="stable")
    bounds = np.searchsorted(sources[order], np.arange(n_states + 1)).tolist()
    labels, targets = labels[order].tolist(), targets[order].tolist()
    return [dict(zip(labels[i:j], targets[i:j])) for i, j in zip(bounds, bounds[1:])]


def _transfer_graph(spec: Grid2DSpec, n_rows: int) -> Automaton:
    """`_column_graph` of `_row_sweep`'s last row."""
    sweep = _row_sweep(spec, n_rows)
    return _column_graph(spec.alphabet**n_rows, collections.deque(sweep, maxlen=1)[0])


def _column_graph(k: int, cols: np.ndarray) -> Automaton:
    """Automaton whose words of length m >= w are the locally admissible
    n x m patterns, labelled by their column codes below k = a^n.  Its
    states are the strips of w - 1 columns in the admissible n x w patterns
    `cols` swept by `_row_sweep`, one edge per pattern from its first strip
    to its last, labelled by its last column.  The root reads the first
    w - 1 columns through prefix states toward the strips with successors,
    so shorter words are not all patterns."""
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


def count_rectangles(spec: Grid2DSpec, n_rows: int, m_cols: int) -> int:
    """Exact number of locally admissible n x m patterns.

    Local admissibility (no in-grid window violates the rule) is decidable
    and exact for the Free and LinearMod rules; for LocalPatterns it is an
    upper bound on the pattern language of the 2d subshift, since global
    extendability of 2d patterns is undecidable in general.  Free and
    LinearMod counts are closed forms (`closed_form_powers`); a LocalPatterns
    count whose window fits is read off the transfer graph, whose row sweep
    the state budget caps.
    """
    if n_rows < 1 or m_cols < 1:
        raise DomainError("pattern dimensions must be positive")
    if spec.rule != RULE_PATTERNS:
        return math.prod(base**e for base, e in closed_form_powers(spec, n_rows, m_cols))
    if _window_free(spec, n_rows, m_cols):
        return spec.alphabet ** (n_rows * m_cols)
    return _transfer_graph(spec, n_rows).word_counts(m_cols)[-1]


def closed_form_powers(spec: Grid2DSpec, n_rows: int, m_cols: int) -> tuple:
    """(base, exponent) pairs whose powers multiply to a free or linear
    rule's count on an n x m grid, each exponent nondecreasing in n and m:
    a^(nm) patterns of a free rule; g^(nm) (a/g)^(nm - W) solutions of a
    linear rule, with g = gcd(a, c00, c10, c01) and W = (n - h + 1)+
    (m - w + 1)+ the windows in the grid, (h, w) = `_window_shape`.

    The solutions are the kernel of the map L from the grid to one residue
    per window, so they number a^(nm) / |image of L|, and by CRT it suffices
    to count modulo each prime power p^e of a.  Let k be the least
    p-valuation of the coefficients, capped at e.  Every residue of L lies
    in p^k Z/p^e, and L reaches all (p^(e-k))^W of them: divided by p^k,
    some coefficient is a unit mod p, its cell is a different pivot cell in
    each window, and solving the windows in decreasing order of i + j (unit
    c00), by row (unit c10) or by column (unit c01) sets each pivot after
    the pivots its window reads, so any target is met.  That leaves
    p^(k nm) p^((e-k)(nm-W)) solutions, the p-part of the formula
    (Ledrappier, C. R. Acad. Sci. Paris 287, 1978; K. Schmidt, Dynamical
    Systems of Algebraic Origin, 1995).
    """
    a, cells = spec.alphabet, n_rows * m_cols
    if spec.rule == RULE_FREE:
        return ((a, cells),)
    g = math.gcd(a, *spec.coeffs)
    h, w = _window_shape(spec)
    windows = max(n_rows - h + 1, 0) * max(m_cols - w + 1, 0)
    return (g, cells), (a // g, cells - windows)


def _pattern_columns(spec: Grid2DSpec, n_rows: int, m_cols: int):
    """(digits, index) of the admissible patterns in column-word order:
    digits[c, n] is row n's digit in entry c of a sorted column table (every
    column when no window fits, else the transfer graph's labels), and
    index[p, m] the entry at column m of pattern p.  Only the table's codes
    are decoded, Python ints past 2^63; the point budget caps the patterns."""
    if n_rows < 1 or m_cols < 1:
        raise DomainError("pattern dimensions must be positive")
    a = spec.alphabet
    if _window_free(spec, n_rows, m_cols):
        limits.check("point", [(a, n_rows * m_cols)], "patterns")
        distinct = np.arange(a**n_rows)
        index = product_rows([a**n_rows] * m_cols)
    else:  # the graph's labels, sorted
        graph = _transfer_graph(spec, n_rows)
        graph.checked_count(m_cols, "point", "patterns")
        codes = graph.enumerate_words(m_cols)
        distinct = np.array(sorted({c for edges in graph.succ for c in edges}), dtype=codes.dtype)
        index = np.searchsorted(distinct, codes)
    powers = np.array([a**i for i in range(n_rows - 1, -1, -1)], dtype=distinct.dtype)
    return (distinct[:, None] // powers % a).astype(np.int64), index


_PATTERN_BLOCK = 1 << 14  # patterns turned into tuples per batch


def enumerate_patterns(spec: Grid2DSpec, n_rows: int, m_cols: int):
    """All locally admissible patterns as row-major tuples of rows, in the
    `itertools.product` order of their column sequences."""
    a = spec.alphabet
    digits, index = _pattern_columns(spec, n_rows, m_cols)
    kind = np.int64 if a ** min(m_cols, 63) <= 2**62 else object
    rows = np.zeros((len(index), n_rows), dtype=kind)
    for m in range(m_cols):  # row codes sum_m w[n][m] a^(m_cols-1-m), one column at a time
        rows *= a
        rows += digits[index[:, m]]
    del index  # each array goes once its successor is built: the patterns dominate memory
    codes, inverse = np.unique(rows, return_inverse=True)
    del rows
    words = [tuple(c // a ** (m_cols - 1 - m) % a for m in range(m_cols)) for c in codes.tolist()]
    inverse = inverse.reshape(-1, n_rows)
    return [tuple(map(words.__getitem__, p)) for lo in range(0, len(inverse), _PATTERN_BLOCK)
            for p in inverse[lo : lo + _PATTERN_BLOCK].tolist()]


# ---------------------------------------------------------------------------
# Entropy and the homogeneous-system dimension
# ---------------------------------------------------------------------------


def _int_log(value: int, base: int) -> int | None:
    """Exact e with base^e == value, when it exists (base >= 2).  The float
    log rounds to the only candidate, and one power checks it."""
    if value < 1:
        return None
    e = round(math.log(value) / math.log(base))
    return e if base**e == value else None


@dataclass(frozen=True)
class Entropy2DReport:
    estimates: dict  # (n, m) -> log count / (n m), nats
    counts: dict  # (n, m) -> exact count
    best: float  # min over the grid: a certified upper bound
    best_cell: tuple


def entropy2d(spec: Grid2DSpec, n_max: int, m_max: int) -> Entropy2DReport:
    """Normalized log-counts over the (n, m) grid.

    Each value log count(n, m) / (n m) upper-bounds the pattern entropy:
    counts are submultiplicative along both axes, so Fekete applies per axis
    and the double limit is the double infimum.  One row sweep to n_max rows
    gives, after row n, the columns of the n-row transfer graph, whose words
    give count(n, m) for every m.  Only pattern rules are swept: the cells
    of free and linear rules, and the cells that hold no window (the graph's
    words shorter than the window are not all patterns), take
    `count_rectangles`' closed forms.  The state budget caps the sweep as
    in `count_rectangles`.  Closed forms past the digit budget are refused
    first (`_check_digits`), and a swept row at its first count past it.
    """
    if n_max < 1 or m_max < 1:
        raise DomainError(f"grid (n_max, m_max) = ({n_max}, {m_max}) needs both >= 1")
    a = spec.alphabet
    _check_digits(spec, n_max, m_max)
    limits.check("word", n_max * m_max, "cells", "grid")

    def swept(n, m):
        return spec.rule == RULE_PATTERNS and not _window_free(spec, n, m)

    sweep = _row_sweep(spec, n_max) if swept(n_max, m_max) else itertools.repeat(None)
    stop = limits.printed_stop()
    estimates = {}
    counts = {}
    for n, cols in zip(range(1, n_max + 1), sweep):
        row = _column_graph(a**n, cols).word_counts(m_max, stop) if swept(n, m_max) else None
        if row and stop is not None and row[-1] > stop:  # the row ends at its first such count
            limits.check_digits([(row[-1], 1)], f"count {n},{len(row)}")
        for m in range(1, m_max + 1):
            c = row[m - 1] if swept(n, m) else count_rectangles(spec, n, m)
            counts[(n, m)] = c
            estimates[(n, m)] = math.log(c) / (n * m) if c > 0 else -math.inf
    best_cell = min(estimates, key=estimates.get)  # the first least cell, row by row
    return Entropy2DReport(estimates, counts, estimates[best_cell], best_cell)


def _check_digits(spec: Grid2DSpec, n_max: int, m_max: int) -> None:
    """Refuse, with no power taken, closed-form cells past the digit budget:
    those of free and linear rules, and a pattern rule's a^(nm) where no
    window fits, the largest a^max(min(h - 1, n) m, n min(w - 1, m)).  The
    first cell with the largest exponents (each nondecreasing) is named."""
    if spec.rule == RULE_PATTERNS:
        h, w = spec.window

        def powers(n, m):
            return ((spec.alphabet, max(min(h - 1, n) * m, n * min(w - 1, m))),)
    else:
        powers = functools.partial(closed_form_powers, spec)
    exps = lambda n, m: [e for b, e in powers(n, m) if b > 1]  # noqa: E731

    def first_largest():
        most = exps(n_max, m_max)
        n = 1 + bisect.bisect_left(range(1, n_max), most, key=lambda n: exps(n, m_max))
        m = 1 + bisect.bisect_left(range(1, m_max), most, key=lambda m: exps(n, m))
        return f"count {n},{m}"

    limits.check_digits(powers(n_max, m_max), first_largest)


def homog_dims_from_report(rep: Entropy2DReport, a: int) -> dict:
    """Common mean Hausdorff / metric mean dimension of the base-a digit model
    from the rule's `entropy2d` report.

    The value is the report's least estimate divided by log a, an upper
    bound.  When every computed count is an exact power of a the ratio is
    computed in exact rational arithmetic (so the Free rule reports exactly 1).
    """
    if a < 2:
        raise DomainError(f"digit base {a}: the dimension entropy / log a needs a >= 2")
    ratios = []
    for (n, m), c in rep.counts.items():
        e = _int_log(c, a)
        if e is None:  # the first count that is no power of a settles it
            return {"mdim": rep.best / math.log(a), "exact_power": False}
        ratios.append(Fraction(e, n * m))
    return {"mdim": float(min(ratios)), "exact_power": True}


# ---------------------------------------------------------------------------
# Torus embedding and the two-parameter rectangle metric
# ---------------------------------------------------------------------------


def torus_points(spec: Grid2DSpec, n_rows: int, m_cols: int, depth: int = 0) -> PointCloud:
    """One torus point per admissible (n_rows + depth) x m_cols pattern.

    Coordinate n of the point is x_n = sum_m w[n][m] a^-m in [0, 1); `depth`
    adds extra coordinate rows so that dynamical metrics with window n_rows
    stay truncation-sound.
    """
    rows, a = n_rows + depth, spec.alphabet
    digits, index = _pattern_columns(spec, rows, m_cols)
    terms = [[Fraction(u, a ** (m + 1)) for u in range(a)] for m in range(m_cols)]
    return PointCloud(
        points=digit_points([digits] * m_cols, index, terms),
        metric=MetricDescriptor(kind=SUM_WEIGHTED_TORUS, iterates=n_rows),
        truncation_error=0.5 * 2.0 ** -(rows - n_rows + 1) if depth else 0.5 * 2.0 ** -1,
    )


def key_fact_check(spec: Grid2DSpec, n_rows: int, m_cols: int) -> dict:
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
    cloud = torus_points(spec, n_rows, m_cols, depth=tail)
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
