"""Weighted topological entropy of the coordinate-projection factor map.

For a subshift over a product alphabet A x B and the projection onto the B
coordinate, the weighted entropy with exponent w in [0, 1] is the growth rate
of Z_N = sum over projected N-words v of |fiber(v)|^w.  Z_N is submultiplicative,
so v_N = min_{j<=N} log Z_j / j is a certified upper-bound sequence; for
product shifts R^N the value is exactly log sum_{v} t(v)^w.  At w = 1 Z_N
is |Omega_N|, the path counter's exact count rounded once.  Below, other
systems sweep the projected words grouped by the set of automaton states they
reach, and Z_N is one exact pass over the fiber-size histograms of all lengths
(`_level_totals`, `exact_total`'s sums); a fiber table's levels keep the
sweep's key and count arrays in sweep order, sort on their first ordered
read and decode their own word tuples alone on their first key access.

`image_subshift` determinizes the projected image exactly with the same
subset moves, and past the subset budget raises ResourceLimit.

One system queried several times is swept once: each spec keeps its compiled
automaton, and that its spectral bracket and word counts; a one-entry memo
keeps the fiber sizes of the last complete sweep (one system's), which serve
`weighted_entropy` at w < 1 on the same system object, N and word cap.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections.abc import Mapping
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
    lexicographic order.  It holds the sweep's keys (parent * b + letter,
    parent a word's position in the level before) and counts, in sweep
    order, and the level before: len reads the counts alone, the first
    ordered read sorts this level, and each level below not yet sorted, and
    keeps the order, values() reads the counts in it, as Python ints, and
    the first key access decodes this level's word tuples alone, one letter
    per level walking the keys down, and keeps them."""

    def __init__(self, keys: np.ndarray, counts: np.ndarray, prev: FiberLevel | None, b: int):
        self._keys, self._counts, self._prev, self._b = keys, counts, prev, b
        self._order = self._words = None

    def _ordered(self) -> np.ndarray:
        """The positions of the words in lexicographic order: by the parent's
        rank in its level, then the letter; in a loop, as tables run deep."""
        chain, level = [], self
        while level is not None and level._order is None:
            chain.append(level)
            level = level._prev
        rank = np.zeros(1, np.int64)
        for level in reversed(chain):
            if level._prev is not None:
                rank = np.empty_like(level._prev._order)
                rank[level._prev._order] = np.arange(len(rank))
            parent, letter = np.divmod(level._keys, self._b)
            level._order = np.argsort(rank[parent] * self._b + letter)
        return self._order

    def _decoded(self) -> dict:
        if self._words is None:
            order = self._ordered()
            letters, position, level = [], order, self
            while level is not None:
                position, letter = np.divmod(level._keys[position], self._b)
                letters.append(letter.tolist())
                level = level._prev
            self._words = dict(zip(zip(*reversed(letters)), self._counts[order].tolist()))
        return self._words

    def __len__(self):
        return len(self._counts)

    def values(self):
        return self._counts[self._ordered()].tolist()

    def __getitem__(self, word):
        return self._decoded()[word]

    def __iter__(self):
        return iter(self._decoded())

    def items(self):
        return self._decoded().items()


@dataclass(frozen=True)
class FiberCountTable:
    """Exact fiber cardinalities |pi_N^{-1}(v)| per projected word v, per N."""

    levels: dict  # N -> FiberLevel, {v_word(tuple): int}

    def level(self, n: int) -> FiberLevel:
        return self.levels[n]

    def total(self, n: int) -> int:
        """Exact: it counts omega's n-paths, below 2^63 when the dtype is int64."""
        return int(self.levels[n]._counts.sum())


def fiber_counts(sys: PairShiftSystem, n_max: int) -> FiberCountTable:
    levels, level = {}, None
    for n, (keys, counts) in enumerate(_fiber_levels(sys, n_max), 1):
        levels[n] = level = FiberLevel(keys, counts, level, sys.b_size)
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


_last_sweep: tuple = (None, 0, 0, ())  # (system, n_max, word cap, counts per level)


def _fiber_levels(sys: PairShiftSystem, n_max: int):
    """Yield (keys, counts) per length, in sweep order: word i of a level is
    word keys[i] // b of the level before extended by letter keys[i] % b,
    and counts[i] is its fiber size.  A complete sweep keeps its counts
    arrays in _last_sweep, keyed on the word cap it ran under.

    The frontier keeps, per image subset S (the states a word's paths reach),
    a dense |S| x words block of path counts and each word's position.  Every
    entry counts a path, so the blocks hold exactly the (word, state) entries
    reached, which the budget bounds before a level is built.  A subset's
    rows, one per (letter, target) over all letters, gather the block row of
    each first edge's source and add those of further edges one layer at a
    time; a letter's fiber sizes sum its rows, position * b + v broadcast
    gives the keys, and its words take the next range of positions.  Counts,
    at most (max out-degree)^n, are int64 below 2^63 and Python ints above."""
    aut = sys.omega.automaton

    @functools.cache
    def plan(subset):  # letters, first sources, further layers, (image, row slice)s, letter heads
        letters, images, per_letter = zip(*_subset_moves(aut, sys.b_size, subset))
        sources = [s for per_target in per_letter for s in per_target]
        depths = range(1, max(map(len, sources)))
        live = [np.array([j for j, s in enumerate(sources) if len(s) > p]) for p in depths]
        layers = [(r, np.array([sources[j][p] for j in r])) for p, r in zip(depths, live)]
        heads = np.cumsum([0, *map(len, images[:-1])])
        slices = [slice(h, h + len(image)) for h, image in zip(heads.tolist(), images)]
        return (np.array(letters)[:, None], np.array([s[0] for s in sources]), layers,
                list(zip(images, slices)), None if len(sources) == len(images) else heads)

    dtype = np.int64 if max(map(len, aut.succ)) ** min(n_max, 63) < 2**63 else object
    frontier = {(aut.root,): ([np.zeros(1, np.int64)], [np.ones((1, 1), dtype)])}
    total, levels = 0, []
    for n in range(1, n_max + 1):
        moves = [(np.concatenate(r), np.hstack(c), plan(s)) for s, (r, c) in frontier.items()]
        entries = sum(len(words) * len(succ[1]) for words, _, succ in moves)
        limits.check("word", entries, "(word, state) entries", f"fiber frontier at length {n}")
        keys, sums, pieces = [], [], []
        for words, block, (letters, first, layers, slices, heads) in moves:
            rows = block[first]
            for live, sources in layers:
                rows[live] += block[sources]
            keys.append((words * sys.b_size + letters).ravel())
            sums.append((rows, heads))
            pieces += [(image, rows[part]) for image, part in slices]
        keys = np.concatenate(keys)
        total += len(keys)  # and at least one word per level: n_max past the cap is refused
        limits.check("word", max(total, n_max), "words", "fiber table")
        counts = np.concatenate([(rows if heads is None else np.add.reduceat(rows, heads)).ravel()
                                 for rows, heads in sums])
        levels.append(counts)
        yield keys, counts
        frontier, start = {}, 0  # image -> (position ranges, blocks), joined when read
        for image, block in pieces:
            parts = frontier.setdefault(image, ([], []))
            parts[0].append(np.arange(start, start + block.shape[1]))
            parts[1].append(block)
            start += block.shape[1]
    global _last_sweep
    _last_sweep = (sys, n_max, limits.cap("word"), levels)


# ---------------------------------------------------------------------------
# Weighted entropy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedEntropyReport:
    w: float
    z_values: dict  # N -> float
    upper_bounds: tuple  # v_N = min_{j<=N} log Z_j / j (`symbolic.fekete_bounds`)
    closed_form: float | None
    best_estimate: float
    exact: bool
    submultiplicative_ok: bool


_EXACT_RUN = 1 << 10  # int64 sums of this many 53-bit mantissas cannot overflow


def exact_total(values, counts=None) -> Fraction:
    """The exact sum of counts[i] copies of each finite double values[i]
    (one copy each when counts is None).

    np.frexp splits each double into a 53-bit integer mantissa and an
    exponent, and the mantissas of one exponent add as integers
    (`_run_sums`).  The run sums add as Python ints shifted to the least
    exponent.  float() of the result divides int by int, which rounds
    correctly, half to even, as math.fsum does, so it is math.fsum of the
    expanded multiset bit for bit, in any order of the terms.

    It sums product letter values, q-box witness coordinates and up to
    16,384 inverse-square terms; `_level_totals` sums all levels of fiber
    sizes at once (up to 13,362 distinct sizes at N = 14 in the benchmark).
    """
    frac, exp = np.frexp(np.asarray(values, dtype=float))
    if not len(exp):
        return Fraction(0)
    exps, sums = _run_sums(frac, exp, counts)
    low = min(0, int(exps[0]) - 53)
    return Fraction(sum(s << (e - 53 - low) for s, e in zip(sums, exps.tolist())), 1 << -low)


def _run_sums(frac, key, counts):
    """The mantissas frac as 53-bit integers times counts, sorted by key and
    added per key: (run keys, run sums).  They add as int64 in runs of at most
    _EXACT_RUN, or _EXACT_RUN >> k for counts of bit length k <= 9, so every
    partial sum stays below 2^63; wider counts multiply them as Python ints."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    terms = frac[order]
    terms *= 2.0**53
    terms, run = terms.astype(np.int64), _EXACT_RUN
    if counts is not None:
        mult = np.asarray(counts)[order]
        width = int(abs(mult).max()).bit_length() if mult.dtype.kind in "iu" else 64
        if width <= 9:
            terms *= mult.astype(np.int64, copy=False)
            run >>= width
        else:
            terms = terms.astype(object) * mult.astype(object)
    cut = np.empty(len(key), dtype=bool)
    cut[1:] = key[1:] != key[:-1]
    cut[::run] = True  # cut[0] too
    heads = np.flatnonzero(cut)
    return key[heads], np.add.reduceat(terms, heads).tolist()


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


def _level_totals(levels) -> tuple[list, int]:
    """exact_total(values, counts) of each (values, counts) pair in levels, at
    least one value in all, as (numerators, common power-of-two denominator):
    one _run_sums for all levels."""
    frac, exp = np.frexp(np.concatenate([np.asarray(x, dtype=float) for x, _ in levels]))
    level = np.repeat(np.arange(len(levels)), [len(x) for x, _ in levels])
    keys, sums = _run_sums(frac, level * 4096 + exp,  # frexp exponents lie in (-2048, 2048)
                           np.concatenate([np.asarray(c) for _, c in levels]))
    level, exp = np.divmod(keys + 2048, 4096)
    low = min(0, int(exp.min()) - 2048 - 53)
    totals = [0] * len(levels)
    for s, shift, k in zip(sums, (exp - 2048 - 53 - low).tolist(), level.tolist()):
        totals[k] += s << shift
    return totals, 1 << -low


def _z_sweep(sys: PairShiftSystem, w: float, n_max: int):
    """Yield Z_N for N = 1..n_max at w < 1 from the fiber sizes of the generic
    sweep, those of the last sweep when it was of this system (the same
    object), n_max and word cap: one pow per distinct size of each level, all
    levels summed in one pass.  A fiber size of length k past the double
    range ends it after Z_1..Z_{k-1} with OverflowError."""
    last, *key, counts = _last_sweep
    if last is not sys or key != [n_max, limits.cap("word")]:
        counts = (level[1] for level in _fiber_levels(sys, n_max))
    levels = []
    for sizes, mult in (np.unique(c, return_counts=True) for c in counts):
        try:
            x = sizes.astype(float)
        except OverflowError:
            break
        # libm pow as float ** w (numpy's ** can differ in the last ulp)
        x = np.fromiter(map(math.pow, x.tolist(), itertools.repeat(w, len(x))), float, len(x))
        levels.append((x, mult))
    totals, den = _level_totals(levels)
    yield from (top / den for top in totals)  # int / int rounds correctly, as fsum does
    if len(levels) < n_max:
        raise OverflowError(f"a fiber size at N = {len(levels) + 1} passes the double range")


def weighted_entropy(sys: PairShiftSystem, w: float, n_max: int) -> WeightedEntropyReport:
    """Z_N for N = 1..n_max, the upper bounds v_N and, for a product system,
    the closed form.  At w = 1 Z_N is `symbolic.count_words`' count rounded
    once; below, the word budget bounds the fiber sweep of a system that is
    not a product.  A Z_N past the double range raises ParameterOverflow."""
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
    elif w == 1.0:  # Z_N = |Omega_N|
        levels = map(float, symbolic.count_words(sys.omega, n_max).values())
    else:
        levels = _z_sweep(sys, w, n_max)
    z = {}
    try:
        for n, value in enumerate(levels, 1):
            z[n] = value
    except OverflowError as exc:
        raise ParameterOverflow(
            f"Z_{len(z) + 1} or one of its terms passes the double range"
        ) from exc
    bounds = symbolic.fekete_bounds(z.values())
    return WeightedEntropyReport(
        w=w,
        z_values=z,
        upper_bounds=bounds,
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


def image_subshift(sys: PairShiftSystem) -> SubshiftSpec:
    """Subshift of B^N whose words are exactly the projections of omega's words.

    Powerset determinization of the projected transition graph; the result is
    a rooted deterministic labeled graph (sofic presentations are generally
    not vertex shifts over B).  A full image is recognized and normalized.
    More subsets than the subset budget raise ResourceLimit.
    """
    aut = sys.omega.automaton
    b = sys.b_size
    start = (aut.root,)
    subsets = {start: 0}
    succ: list[dict] = [dict()]
    queue = [start]
    while queue:
        current = queue.pop()
        idx = subsets[current]
        for v, key, _ in _subset_moves(aut, b, current):
            if key not in subsets:
                limits.check_at_least("subset", len(subsets) + 1, "subsets")
                subsets[key] = len(succ)
                succ.append(dict())
                queue.append(key)
            succ[idx][v] = subsets[key]
    image = Automaton(alphabet_size=b, root=0, succ=tuple(succ))
    if all(len(trans) == b for trans in image.succ):  # labels lie in range(b)
        return symbolic.full_shift(b)
    return automaton_spec(image, b)
