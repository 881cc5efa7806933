"""Weighted topological entropy of the coordinate-projection factor map.

For a subshift over a product alphabet A x B and the projection onto the B
coordinate, the weighted entropy with exponent w in [0, 1] is the growth rate
of Z_N = sum over projected N-words v of |fiber(v)|^w.  Z_N is submultiplicative,
so v_N = min_{j<=N} log Z_j / j is a certified upper-bound sequence; for
product shifts R^N the value is exactly log sum_{v} t(v)^w.  Other systems
sweep the projected words grouped by the set of automaton states they reach;
a fiber table's levels keep the sweep's arrays and decode word tuples only
on first key access, and Z_N sums each level's fiber-size histogram exactly
(`exact_total`: multiplicities below 2^9 multiply mantissas in int64).

`image_subshift` determinizes the projected image exactly with the same
subset moves, and past the subset budget raises ResourceLimit.

One system queried several times is swept once: each spec keeps its
compiled automaton (`SubshiftSpec.automaton`) and that automaton its
spectral bracket, and the fiber-size histograms of the last complete sweep
stay in a one-entry memo, so `weighted_entropy` after `fiber_counts` or
after itself, on the same system object, N and budget, sweeps nothing.
Only the last sweep is kept, so at most one system is held alive.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections.abc import Mapping, ValuesView
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import limits, symbolic
from .errors import DomainError, ParameterOverflow
from .symbolic import Automaton, SubshiftSpec, automaton_spec


@dataclass(frozen=True)
class PairShiftSystem:
    """A subshift over A x B together with the projection (u, v) -> v.

    Product symbols are encoded as u * b_size + v.
    """

    a_size: int
    b_size: int
    omega: SubshiftSpec

    def __post_init__(self):
        if self.omega.alphabet != self.a_size * self.b_size:
            raise DomainError("omega alphabet must equal a_size * b_size")


def pair_system_from_tuples(a: int, b: int, relation) -> PairShiftSystem:
    return PairShiftSystem(a, b, symbolic.allowed_tuples(a, b, relation))


def pair_system(a: int, b: int, omega: SubshiftSpec) -> PairShiftSystem:
    return PairShiftSystem(a, b, omega)


def tuple_fiber_sizes(sys: PairShiftSystem) -> dict[int, int]:
    """t(v) = #{u : (u, v) in R} > 0 for a product system R^N (full or
    tuples), over the occupied columns v in increasing order."""
    symbols = sys.omega.product_symbols
    if symbols is None:
        raise DomainError("tuple fiber sizes require a product system")
    t: dict[int, int] = {}
    for symbol in symbols:
        v = symbol % sys.b_size
        t[v] = t.get(v, 0) + 1
    return dict(sorted(t.items()))


# ---------------------------------------------------------------------------
# Fiber counts
# ---------------------------------------------------------------------------


class FiberLevel(Mapping):
    """Fiber sizes of the projected words of one length, word -> count, in
    lexicographic order.  It holds the sweep's sorted keys (rank * b +
    letter, rank a word's index in the level before), the counts and the
    level before: len and values() read the counts alone, and the first key
    access decodes the word tuples from the previous level's and keeps them."""

    def __init__(self, keys: np.ndarray, counts: list, prev: FiberLevel | None, b: int):
        self._keys, self._counts, self._prev, self._b, self._words = keys, counts, prev, b, None

    def _decoded(self) -> dict:
        if self._words is None:
            chain, level = [], self  # decode from the last decoded level forward
            while level is not None and level._words is None:
                chain.append(level)
                level = level._prev
            words = [()] if level is None else list(level._words)
            for level in reversed(chain):
                parent, letter = np.divmod(level._keys, level._b)
                words = [words[p] + (v,) for p, v in zip(parent.tolist(), letter.tolist())]
                level._words, level._prev = dict(zip(words, level._counts)), None
        return self._words

    def __len__(self):
        return len(self._counts)

    def values(self):
        return _Counts(self)

    def __getitem__(self, word):
        return self._decoded()[word]

    def __iter__(self):
        return iter(self._decoded())

    def items(self):
        return self._decoded().items()


class _Counts(ValuesView):
    def __iter__(self):
        return iter(self._mapping._counts)


@dataclass(frozen=True)
class FiberCountTable:
    """Exact fiber cardinalities |pi_N^{-1}(v)| per projected word v, per N."""

    levels: dict  # N -> FiberLevel, {v_word(tuple): int}

    def level(self, n: int) -> FiberLevel:
        return self.levels[n]

    def total(self, n: int) -> int:
        return sum(self.levels[n].values())


def fiber_counts(sys: PairShiftSystem, n_max: int, budget: int | None = None) -> FiberCountTable:
    levels, level = {}, None
    for n, (keys, counts, _) in enumerate(_fiber_levels(sys, n_max, limits.cap("word", budget)), 1):
        levels[n] = level = FiberLevel(keys, counts.tolist(), level, sys.b_size)
    return FiberCountTable(levels=levels)


def _subset_moves(aut: Automaton, b: int, subset: tuple) -> list:
    """[(v, image, sources)], one per projected letter v in increasing order:
    image is the sorted tuple of states that subset (a sorted tuple) reaches
    by edges onto v, and sources[j] lists, per such edge into image[j], the
    index in subset of its source (parallel edges repeat it)."""
    by_letter: dict[int, dict] = {}
    for i, state in enumerate(subset):
        for label, target in aut.succ[state].items():
            by_letter.setdefault(label % b, {}).setdefault(target, []).append(i)
    return [(v, *zip(*sorted(edges.items()))) for v, edges in sorted(by_letter.items())]


_last_sweep: tuple = (None, 0, 0, ())  # (system, n_max, cap, histograms)


def _fiber_levels(sys: PairShiftSystem, n_max: int, cap: int):
    """Yield (keys, counts, histogram) per length: word i of a level, in
    lexicographic order, is word keys[i] // b of the level before extended
    by letter keys[i] % b, counts[i] is its fiber size, and histogram is
    np.unique(counts, return_counts=True).  A complete sweep keeps its
    histograms in _last_sweep.

    The frontier keeps, per image subset S (the states a word's paths reach),
    a dense |S| x words block of path counts and each word's rank.  Every
    entry counts a path, so the blocks hold exactly the (word, state) entries
    reached, which the budget bounds before a level is built.  A successor
    block gathers, per target, the block row of its first edge's source and
    adds those of further edges one layer at a time; one argsort of the keys
    rank * b + v orders a level.  Counts, at most (max out-degree)^n, are
    int64 below 2^63 and exact Python ints above."""
    aut = sys.omega.automaton

    @functools.cache
    def plan(subset):  # per letter: v, image, first sources, layers of further edges
        moves = []
        for v, image, sources in _subset_moves(aut, sys.b_size, subset):
            depths = range(1, max(map(len, sources)))
            live = [[j for j, s in enumerate(sources) if len(s) > p] for p in depths]
            layers = [(rows, [sources[j][p] for j in rows]) for p, rows in zip(depths, live)]
            moves.append((v, image, [s[0] for s in sources], layers))
        return moves

    dtype = np.int64 if max(map(len, aut.succ)) ** n_max < 2**63 else object
    frontier = {(aut.root,): ([np.zeros(1, np.int64)], [np.ones((1, 1), dtype)])}
    total, histograms = 0, []
    for n in range(1, n_max + 1):
        moves = [(np.concatenate(r), np.hstack(c), plan(s)) for s, (r, c) in frontier.items()]
        entries = sum(len(rank) * len(image) for rank, _, succ in moves for _, image, _, _ in succ)
        limits.check("word", entries, "(word, state) entries", cap,
                     f"fiber frontier at length {n}")
        keys, pieces = [], []
        for rank, block, succ in moves:
            for v, image, first, layers in succ:
                successors = block[first]
                for live, rows in layers:
                    successors[live] += block[rows]
                keys.append(rank * sys.b_size + v)
                pieces.append((image, successors))
        keys = np.concatenate(keys)
        total += len(keys)
        limits.check("word", total, "words", cap, "fiber table")
        order = np.argsort(keys)
        counts = np.concatenate([block.sum(axis=0) for _, block in pieces])[order]
        histograms.append(np.unique(counts, return_counts=True))
        yield keys[order], counts, histograms[-1]
        ranks = np.empty_like(order)
        ranks[order] = np.arange(len(order))
        frontier = {}  # image -> (rank vectors, blocks), joined when the next level reads them
        for image, block in pieces:
            rank, ranks = ranks[: block.shape[1]], ranks[block.shape[1] :]
            parts = frontier.setdefault(image, ([], []))
            parts[0].append(rank)
            parts[1].append(block)
    global _last_sweep
    _last_sweep = (sys, n_max, cap, histograms)


# ---------------------------------------------------------------------------
# Weighted entropy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedEntropyReport:
    w: float
    z_values: dict  # N -> float
    upper_bounds: tuple  # v_N = min_{j<=N} log Z_j / j
    closed_form: float | None
    best_estimate: float
    exact: bool
    submultiplicative_ok: bool


_EXACT_RUN = 1 << 10  # int64 sums of this many 53-bit mantissas cannot overflow


def exact_total(values, counts=None) -> Fraction:
    """The exact sum of counts[i] copies of each finite double values[i]
    (one copy each when counts is None).

    np.frexp splits each double into a 53-bit integer mantissa and an
    exponent.  The mantissas of one exponent add as int64 in runs of at most
    _EXACT_RUN.  Counts of bit length k <= 9 multiply them in int64 too, in
    runs of _EXACT_RUN >> k, so every partial sum stays below 2^63; larger
    counts multiply them as Python ints.  The run sums add as Python ints
    shifted to the least exponent.  float() of the result divides int by
    int, which rounds correctly, half to even, as math.fsum does, so it is
    math.fsum of the expanded multiset bit for bit, in any order of the
    terms.

    Three sums use it: the letter values of a product system, the
    non-product fiber sizes (up to 13,362 distinct sizes at N = 14 in the
    closed_form benchmark's pair systems) and the inverse-square series (up
    to 10^6 terms).
    """
    frac, exp = np.frexp(np.asarray(values, dtype=float))
    if not len(exp):
        return Fraction(0)
    order = np.argsort(exp, kind="stable")
    exp = exp[order]
    terms = (frac[order] * 2.0**53).astype(np.int64)
    run = _EXACT_RUN
    if counts is not None:
        mult = np.asarray(counts)
        width = int(abs(mult).max()).bit_length() if mult.dtype.kind in "iu" else 64
        if width <= 9:  # |mantissa * count| < 2^(53 + width), so 2^(10 - width) fit
            terms, run = terms * mult[order].astype(np.int64), run >> width
        else:
            terms = terms.astype(object) * np.asarray(counts, dtype=object)[order]
    cut = np.ones(len(exp), dtype=bool)
    cut[1:] = exp[1:] != exp[:-1]
    cut[::run] = True
    heads = np.flatnonzero(cut)
    low = min(0, int(exp[0]) - 53)
    sums = np.add.reduceat(terms, heads).tolist()
    total = sum(s << (e - 53 - low) for s, e in zip(sums, exp[heads].tolist()))
    return Fraction(total, 1 << -low)


def _z_powers(letters: np.ndarray, n_max: int):
    """Yield S^N for N = 1..n_max, S the exact sum of the letter values, each
    rounded once: int / int rounds correctly, as float(S ** N) does.  The
    running numerator and denominator grow by one factor per N, where S ** N
    afresh for each N took 13 s at n_max = 5,000 with S one ulp above 1,
    against 0.3 s this way (2-core Xeon)."""
    num, den = exact_total(letters).as_integer_ratio()
    top, bottom = 1, 1
    for _ in range(n_max):
        top, bottom = top * num, bottom * den
        yield top / bottom


def _z_sweep(sys: PairShiftSystem, w: float, n_max: int, cap: int):
    """Yield Z_N for N = 1..n_max from the fiber-size histograms of the
    generic sweep, those of the last sweep when it was of this system (the
    same object), n_max and cap."""
    last, *key, histograms = _last_sweep
    if last is not sys or key != [n_max, cap]:
        histograms = (level[2] for level in _fiber_levels(sys, n_max, cap))
    for sizes, mult in histograms:
        x = sizes.astype(float)
        if w != 1.0:  # libm pow as float ** w (numpy's ** can differ in the last ulp)
            x = list(map(math.pow, x.tolist(), itertools.repeat(w, len(x))))
        yield float(exact_total(x, mult))


def weighted_entropy(
    sys: PairShiftSystem, w: float, n_max: int, budget: int | None = None
) -> WeightedEntropyReport:
    """Z_N for N = 1..n_max, the upper bounds v_N and, for a product system,
    the closed form.  budget bounds only the fiber sweep of a system that is
    not a product; a Z_N past the double range raises ParameterOverflow."""
    if not (0.0 <= w <= 1.0):
        raise DomainError(f"weight exponent must lie in [0, 1], got {w}")
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    closed = None
    if sys.omega.product_symbols is not None:
        # Z_N = S^N, S = sum_v t(v)^w over numpy's ** of the letter values
        # (Python's float ** of the closed form can differ in the last ulp)
        t = np.array(list(tuple_fiber_sizes(sys).values()), dtype=float)
        closed = math.log(math.fsum(c**w for c in t.tolist()))
        levels = _z_powers(t**w, n_max)
    else:
        levels = _z_sweep(sys, w, n_max, limits.cap("word", budget))
    z = {}
    try:
        for n, value in enumerate(levels, 1):
            z[n] = value
    except OverflowError as exc:
        raise ParameterOverflow(
            f"Z_{len(z) + 1} or one of its terms passes the double range"
        ) from exc

    bounds = []
    best = math.inf
    for n in range(1, n_max + 1):
        best = min(best, math.log(z[n]) / n)
        bounds.append(best)

    return WeightedEntropyReport(
        w=w,
        z_values=z,
        upper_bounds=tuple(bounds),
        closed_form=closed,
        best_estimate=closed if closed is not None else bounds[-1],
        exact=closed is not None,
        # S^N rounded once cannot break Z_{n+m} <= Z_n Z_m; the sweep's Z_N can
        submultiplicative_ok=closed is not None or _submultiplicative(z),
    )


def _submultiplicative(z: dict) -> bool:
    """Whether Z_{n+m} <= Z_n Z_m, to a relative 1e-9, for every pair of
    stored lengths; each pair that fails warns."""
    ok = True
    for n in z:
        for m in z:
            if n + m in z and z[n + m] > z[n] * z[m] * (1 + 1e-9):
                ok = False
                warnings.warn(
                    f"Z_{n + m} exceeds Z_{n} * Z_{m} beyond tolerance", stacklevel=3
                )
    return ok


# ---------------------------------------------------------------------------
# Image subshift (projection, determinized)
# ---------------------------------------------------------------------------


def image_subshift(sys: PairShiftSystem, budget: int | None = None) -> SubshiftSpec:
    """Subshift of B^N whose words are exactly the projections of omega's words.

    Powerset determinization of the projected transition graph; the result is
    a rooted deterministic labeled graph (sofic presentations are generally
    not vertex shifts over B).  A full image is recognized and normalized.
    More subsets than the subset budget raise ResourceLimit.
    """
    aut = sys.omega.automaton
    b = sys.b_size
    cap = limits.cap("subset", budget)

    start = (aut.root,)
    subsets = {start: 0}
    succ: list[dict] = [dict()]
    queue = [start]
    while queue:
        current = queue.pop()
        idx = subsets[current]
        for v, key, _ in _subset_moves(aut, b, current):
            if key not in subsets:
                limits.check("subset", len(subsets) + 1, "or more subsets", cap)
                subsets[key] = len(succ)
                succ.append(dict())
                queue.append(key)
            succ[idx][v] = subsets[key]
    image = Automaton(alphabet_size=b, root=0, succ=tuple(succ))
    letters = set(range(b))
    if all(set(trans) == letters for trans in image.succ):
        return symbolic.full_shift(b)
    return automaton_spec(image, b)
