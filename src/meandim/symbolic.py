"""One-sided subshifts over finite alphabets: exact word counting and entropy.

A subshift is described declaratively (full shift, transition-matrix SFT,
finite forbidden-word list, or an allowed-tuple set over a product alphabet).
A product kind, all words over k symbols, has k^n words and entropy log k;
the others compile to a rooted deterministic transition graph, whose label
paths from the root spell exactly the admissible words (the length-N prefixes
of points): word counts are path counts, Fekete bounds follow, and the
entropy is the log of the spectral radius of the live transitions.  An
automaton keeps its word counts and spectral bracket for repeated queries.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import limits
from .errors import DomainError, EmptySubshift, ResourceLimit

KIND_FULL = "full"
KIND_SFT = "sft"
KIND_FORBIDDEN = "forbidden"
KIND_TUPLES = "tuples"
KIND_AUTOMATON = "automaton"  # rooted labeled graph (sofic images)

SPECTRAL_LOG_TOL = 1e-10  # widest certified bracket accepted on log(radius)
_NODA_MAX_SOLVES = 64  # quadratic convergence needs about ten
_DENSE_COMPONENT_CAP = 2048  # states of one component in a dense solve (32 MB)
_UNIT_ROUNDOFF = 2.0**-53


# ---------------------------------------------------------------------------
# Rooted deterministic transition graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Automaton:
    """Rooted transition graph whose label paths spell the admissible words.

    Transitions are deterministic per (state, label), so distinct words
    correspond to distinct paths from the root and word counting reduces to
    path counting.  After pruning, every state has at least one outgoing
    transition, hence every spelled word extends to a point of the subshift.
    Labels are integers: symbols for subshifts, column codes for the column
    transfer graphs of `grid2d`, which are not pruned.
    """

    alphabet_size: int
    root: int
    succ: tuple[dict, ...]  # succ[state][label] -> state

    @property
    def n_states(self) -> int:
        return len(self.succ)

    def word_counts(self, n_max: int, stop: int | None = None) -> list:
        """Exact number of admissible words for each length 1..n_max, as a new
        list, which ends at the first count past stop when one is given; the
        counts and last weight vector stay on the automaton to extend."""
        counts, weights = self.__dict__.get("_word_counts") or ([], [0] * len(self.succ))
        if not counts:  # the weights of the empty word
            weights[self.root] = 1
        while len(counts) < n_max and (stop is None or not counts or counts[-1] <= stop):
            nxt = [0] * len(weights)
            for k, trans in zip(weights, self.succ):
                if k:
                    for t in trans.values():
                        nxt[t] += k
            weights = nxt
            counts.append(sum(weights))
        self.__dict__["_word_counts"] = counts, weights
        end = max(n_max, 0)
        if stop is not None:  # counts kept for a larger stop, or none, run past it
            end = next((n for n, c in enumerate(itertools.islice(counts, end), 1) if c > stop), end)
        return counts[:end]

    def checked_count(self, n: int, budget: str, what: str = "words") -> int:
        """The number of words of length n, refused past the budget's cap.
        Where every state has a successor the counts never fall: they stop
        past 2^PRINTED_BITS (or the cap), and the first past the cap is named
        from below.  Counts not past it at length PRINTED_BITS + 1 grow slower
        than 2^n, and a length past the cap (one word's symbols) is refused."""
        cap = limits.cap(budget)
        stop = max(cap, 1 << limits.PRINTED_BITS) if all(self.succ) else None
        counts = self.word_counts(min(n, limits.PRINTED_BITS + 1), stop)
        if len(counts) < n and (stop is None or counts[-1] <= stop):
            limits.check(budget, n, "symbols in a word")
            counts = self.word_counts(n, stop)
        if len(counts) < n:
            limits.check_at_least(budget, next(c for c in counts if c > cap), what)
        return limits.check(budget, counts[-1] if n > 0 else int(n == 0), what)  # n = 0: ()

    def enumerate_words(self, n: int) -> np.ndarray:
        """All admissible words of length n, once their `checked_count` fits the
        word budget: the rows of one (count, n) array (int64, or Python ints past
        2^63), in the lexicographic order of a depth-first walk over sorted
        labels that appends each word's letters to one flat list."""
        count = self.checked_count(n, "word")
        edges = [sorted(trans.items()) for trans in self.succ]
        letters: list = []
        path: list = []
        stack = [iter(edges[self.root])] if n > 0 else []
        while stack:
            for label, t in stack[-1]:
                path.append(label)
                if len(stack) < n:
                    stack.append(iter(edges[t]))
                    break
                letters += path
                path.pop()
            else:
                stack.pop()
                if stack:
                    path.pop()
        dtype = np.int64 if self.alphabet_size <= 2**63 else object
        return np.array(letters, dtype=dtype).reshape(count, n)

    def least_word(self, state: int, length: int) -> tuple:
        """The lexicographically least word of the given length read from state."""
        out = []
        for _ in range(length):
            label = min(self.succ[state])
            out.append(label)
            state = self.succ[state][label]
        return tuple(out)

    def spectral_log(self) -> tuple[float, float]:
        """Certified bracket (lo, hi) on log of the spectral radius of the
        transition structure reachable from the root; its midpoint is the
        reported value.

        The radius is the largest over the strongly connected components.  A
        one-state component is exact (its loop count).  A larger one runs Noda
        inverse iteration, each solve on its branching states only, and the
        Collatz-Wielandt bracket min (Mx)_i/x_i <= rho <= max (Mx)_i/x_i on the
        full M holds at every step once widened by the rounding of the product.
        Raises ResourceLimit when a component's log-bracket stays wider than
        SPECTRAL_LOG_TOL (absolute), and EmptySubshift when no cycle is
        reachable.  The bracket is computed once per automaton and kept on
        it; a refusal is not kept, so it is raised again on every call.
        """
        bracket = self.__dict__.get("_spectral_log")
        if bracket is None:
            lo = hi = 0.0
            for comp in _strongly_connected(self.succ, self.root):
                c_lo, c_hi = _component_radius(self.succ, comp)
                lo, hi = max(lo, c_lo), max(hi, c_hi)
            if hi <= 0.0:
                raise EmptySubshift("transition graph has no cycle")
            bracket = self.__dict__["_spectral_log"] = (
                math.nextafter(math.log(lo), -math.inf),
                math.nextafter(math.log(hi), math.inf),
            )
        return bracket


def _strongly_connected(succ, root) -> list[list[int]]:
    """Tarjan SCCs (iterative) of the states reachable from root, each
    listed after every component it reaches."""
    index = [-1] * len(succ)  # -1 unseen; inf once listed, so it lowers no low link
    low = index[:]
    index[root] = low[root] = 0
    at = {root: 0}  # position on the stack
    stack = [root]
    comps: list[list[int]] = []
    work = [(root, iter(succ[root].values()))]
    while work:
        node, it = work[-1]
        for t in it:
            if index[t] < 0:
                index[t] = low[t] = len(at)
                at[t] = len(stack)
                stack.append(t)
                work.append((t, iter(succ[t].values())))
                break
            if index[t] < low[node]:
                low[node] = index[t]
        else:
            work.pop()
            if work and low[node] < low[work[-1][0]]:
                low[work[-1][0]] = low[node]
            if low[node] == index[node]:
                comp = stack[at[node]:][::-1]  # pop order: `_component_radius` rounds by it
                del stack[at[node]:]
                for w in comp:
                    index[w] = math.inf
                comps.append(comp)
    return comps


def _component_radius(succ, comp) -> tuple[float, float]:
    """Bracket (lo, hi) on the spectral radius of one strongly connected
    component (0, 0 for a state without a loop).

    Noda solves cover the branching states B only.  A chain state i (one successor j) has
    y_i = (x_i + m_ij y_j) / sigma = a_i + beta_i y_t(i), walked after j, for the branching
    state t(i) ending its chain (chain states alone would be a pure cycle, the whole component,
    which keeps one).  Beta folded onto the terminal columns leaves (sigma I - R) y_B = x_B +
    M_BC a_C; the Collatz-Wielandt ratios stay on the full M, so the certificate is unchanged.
    """
    n = len(comp)
    if n == 1:
        s = comp[0]
        loops = float(sum(t == s for t in succ[s].values()))
        return loops, loops
    if n > _DENSE_COMPONENT_CAP:
        raise ResourceLimit(f"spectral radius: a {n}-state component exceeds the dense-solve "
                            f"cap of {_DENSE_COMPONENT_CAP} states")
    local = {s: i for i, s in enumerate(comp)}
    out, edges = [], []  # out[i][j] = m_ij; edges: i * n + j, once per label
    for i, s in enumerate(comp):
        row = {}
        for t in succ[s].values():
            j = local.get(t)
            if j is not None:
                row[j] = row.get(j, 0.0) + 1.0
                edges.append(i * n + j)
        out.append(row)
    mat = np.bincount(edges, minlength=n * n).reshape(n, n).astype(float)
    # The start vector is all ones, so the first bracket (the row sums) is exact.
    row_sums = mat.sum(axis=1).tolist()
    lo, hi = min(row_sums), max(row_sums)
    keep = [i for i, row in enumerate(out) if len(row) > 1] or [0]
    term, chain = [None] * n, []  # t(i)'s place in keep; (i, j, m_ij), each after j
    for p, b in enumerate(keep):
        term[b] = p
    for i in [i for i, t in enumerate(term) if t is None]:
        path = []
        while term[i] is None:
            path.append((i, *out[i].popitem()))  # (i, j, m_ij); kept rows stay whole
            i = path[-1][1]
        for c, _, _ in path:
            term[c] = term[i]
        chain += reversed(path)
    keep_at = np.array(keep)
    sub = mat.take(keep_at, 0).take(keep_at, 1) if chain else mat
    shifted = -sub  # the folds below write into it; each solve puts their entries back
    folds = [(p, term[j], j, m, shifted[p, term[j]]) for p, b in enumerate(keep)
             for j, m in out[b].items() if keep[term[j]] != j]
    # Each (Mx)_i sums at most n nonnegative terms, and one division follows.
    slack = (n + 2) * _UNIT_ROUNDOFF
    x, xs, solves = np.ones(n), [1.0] * n, 0
    while hi - lo > 4 * slack * hi and solves < _NODA_MAX_SOLVES:
        # sigma > rho, so (sigma I - M)^-1 is entrywise positive for irreducible M.
        sigma, a, beta = hi * (1.0 + 8 * _UNIT_ROUNDOFF), [0.0] * n, [1.0] * n
        for i, j, m in chain:  # y_i = a_i + beta_i y_t(i); a kept state has 0 and 1
            a[i] = (xs[i] + m * a[j]) / sigma
            beta[i] = m * beta[j] / sigma
        rhs = x[keep_at]
        shifted.flat[:: len(keep) + 1] = sigma - sub.diagonal()
        for p, q, j, m, _ in folds:
            shifted[p, q] -= m * beta[j]
            rhs[p] += m * a[j]
        try:
            y_keep = np.linalg.solve(shifted, rhs).tolist()
        except np.linalg.LinAlgError:
            break
        for p, q, _, _, entry in folds:
            shifted[p, q] = entry
        solves += 1
        if not all(0.0 < v < math.inf for v in y_keep):
            break
        top = max(y_keep)  # any positive scale of x gives the same ratios
        xs = [(ai + bi * y_keep[t]) / top for ai, bi, t in zip(a, beta, term)]
        if not (0.0 < min(xs) and max(xs) < math.inf):  # a chain's under- or overflow
            break
        x = np.array(xs)
        ratios = ((mat @ x) / x).tolist()
        new_lo = min(ratios) * (1.0 - slack)
        new_hi = max(ratios) * (1.0 + slack)
        if new_lo <= lo and new_hi >= hi:
            break
        lo, hi = max(lo, new_lo), min(hi, new_hi)
    width = math.log(hi) - math.log(lo)
    if width > SPECTRAL_LOG_TOL:
        raise ResourceLimit(f"spectral radius of a {n}-state component: log-bracket width "
                            f"{width:.3g} after {solves} Noda solves exceeds the tolerance "
                            f"{SPECTRAL_LOG_TOL:g}")
    return lo, hi


# ---------------------------------------------------------------------------
# Declarative specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubshiftSpec:
    """Declarative description of a one-sided subshift.

    kinds:
      full      -- the full shift on `alphabet` symbols
      sft       -- vertex shift of a 0/1 transition matrix over the symbols
      forbidden -- all sequences avoiding a finite word list
      tuples    -- R^N for a subset R of a product alphabet A x B; symbols
                   are encoded u * b + v
      automaton -- the language of a rooted labeled graph `graph` (image
                   projections)

    Every spec compiles to one pruned `Automaton`, `automaton`, on first
    read; building a spec compiles nothing.  A product kind's word counts and
    entropy come from its symbol count, `product_size`, with no compile.
    """

    alphabet: int
    kind: str
    successors: tuple | None = None  # sft: successors[s], the symbols that may follow s
    forbidden: tuple | None = None
    tuple_sizes: tuple | None = None  # (a, b)
    tuple_set: frozenset | None = None  # {(u, v), ...}
    graph: Automaton | None = field(default=None, hash=False, repr=False)  # Automaton holds dicts
    # Always None, not a field: perfbench/tracing.py:46 reads it for the
    # image_subshift.fallbacks counter; it goes when the benchmark drops that.
    wordsets = None

    def __post_init__(self):
        if self.alphabet < 1:
            raise DomainError("alphabet size must be positive")
        if self.kind == KIND_SFT:
            rows, k = self.successors, self.alphabet
            if rows is None or len(rows) != k or not set(
                    itertools.chain.from_iterable(rows)).issubset(range(k)):
                raise DomainError(f"sft kind needs {k} successor rows of symbols in 0..{k - 1}")
        elif self.kind == KIND_FORBIDDEN:
            if self.forbidden is None:
                raise DomainError("forbidden kind needs a word list")
            for w in self.forbidden:
                if len(w) == 0:
                    raise DomainError("forbidden words must be nonempty")
                if any(not (0 <= c < self.alphabet) for c in w):
                    raise DomainError(f"forbidden word {w} leaves the alphabet")
        elif self.kind == KIND_TUPLES:
            if not self.tuple_set:
                raise DomainError("tuples kind needs a nonempty relation R")
        elif self.kind == KIND_AUTOMATON:
            if self.graph is None:
                raise DomainError("automaton kind needs a transition graph")
        elif self.kind != KIND_FULL:
            raise DomainError(f"unknown kind {self.kind!r}")

    @cached_property
    def automaton(self) -> Automaton:
        """The spec's compiled form, built and pruned on first read and kept,
        so later queries of the same spec reuse it and its spectral bracket.

        Pruning enforces forward liveness only: a state survives iff an
        infinite admissible continuation exists.  For a one-sided shift that
        is exactly the condition for a word to be a prefix of a point, so
        the admissible-word language is unchanged at every length; dropping
        backward-unreachable states would shrink it.  Raises EmptySubshift
        when no point exists; a refusal is not kept.
        """
        symbols = self.product_symbols
        if symbols is not None:  # every word over the symbols: live as built
            loops = {c: 1 for c in symbols}
            return Automaton(self.alphabet, 0, (dict(loops), loops))
        if self.kind == KIND_SFT:  # rooted at 0, before every symbol; state s + 1 is symbol s
            rows = (range(self.alphabet), *self.successors)
            graph = Automaton(self.alphabet, 0, [{t: t + 1 for t in row} for row in rows])
        elif self.kind == KIND_FORBIDDEN:
            graph = Automaton(self.alphabet, 0, _forbidden_graph(self.alphabet, self.forbidden))
        else:
            graph = self.graph
        succ, root = _prune_graph(graph.succ, graph.root)
        return replace(graph, root=root, succ=succ)

    @cached_property
    def product_size(self) -> int | None:
        """|S| of a product kind (`product_symbols`), S not built, or None; a
        full shift on more symbols than the word budget is refused."""
        if self.kind == KIND_FULL:
            return limits.check("word", self.alphabet, "symbols", "full shift")
        return len(self.tuple_set) if self.kind == KIND_TUPLES else None

    @cached_property
    def product_symbols(self) -> tuple | None:
        """The sorted symbol set S of a product kind, whose language is all
        words over S (full: every symbol; tuples: u * b + v for (u, v) in
        R), or None for the other kinds, computed once per spec."""
        if self.kind == KIND_FULL:
            return tuple(range(self.product_size))
        if self.kind == KIND_TUPLES:
            b = self.tuple_sizes[1]
            return tuple(sorted(u * b + v for u, v in self.tuple_set))
        return None


def full_shift(k: int) -> SubshiftSpec:
    return SubshiftSpec(alphabet=k, kind=KIND_FULL)


def sft_from_matrix(matrix) -> SubshiftSpec:
    """Vertex shift of a square matrix of 0/1 entries, given as a sequence of
    rows.  The spec keeps each row's successors, the columns of its 1s."""
    try:
        rows = list(matrix)
        if any(len(row) != len(rows) for row in rows):
            raise DomainError("sft kind needs a square 0/1 matrix")
    except TypeError:
        raise DomainError(f"sft matrix {matrix!r} is not a list of rows") from None
    try:
        entries_ok = all(set(row) <= {0, 1} for row in rows)
    except TypeError:  # an unhashable entry, such as [1], is no 0 or 1 either
        entries_ok = False
    if not entries_ok:
        raise DomainError("sft matrix entries must be 0 or 1")
    columns = range(len(rows))  # an entry 0 or 1 (False, 1.0, numpy ints) is an edge iff true
    successors = tuple(tuple(itertools.compress(columns, row)) for row in rows)
    return SubshiftSpec(alphabet=len(rows), kind=KIND_SFT, successors=successors)


def forbidden_words(k: int, words) -> SubshiftSpec:
    ws = tuple(sorted(tuple(int(c) for c in w) for w in words))
    return SubshiftSpec(alphabet=k, kind=KIND_FORBIDDEN, forbidden=ws)


def checked_relation(a: int, b: int, relation) -> frozenset:
    """The relation R as a set of (u, v) pairs, each checked to lie in the
    a x b product alphabet."""
    rel = frozenset((int(u), int(v)) for u, v in relation)
    for u, v in rel:
        if not (0 <= u < a and 0 <= v < b):
            raise DomainError(f"tuple {(u, v)} leaves the {a}x{b} product alphabet")
    return rel


def allowed_tuples(a: int, b: int, relation) -> SubshiftSpec:
    """The product shift R^N.  Only R is stored, so a huge a or b costs
    nothing here."""
    rel = checked_relation(a, b, relation)
    return SubshiftSpec(
        alphabet=a * b, kind=KIND_TUPLES, tuple_sizes=(a, b), tuple_set=rel
    )


def automaton_spec(aut: Automaton, alphabet: int) -> SubshiftSpec:
    """Spec of the automaton's language; its compiled form drops the states
    with no infinite continuation, so every counted word extends to a point."""
    return SubshiftSpec(alphabet=alphabet, kind=KIND_AUTOMATON, graph=aut)


def prune(spec: SubshiftSpec) -> SubshiftSpec:
    """spec, with `spec.automaton` compiled, so an empty subshift raises
    here.  The library reads `spec.automaton`; perfbench calls this name."""
    spec.automaton
    return spec


# ---------------------------------------------------------------------------
# Compilation and pruning
# ---------------------------------------------------------------------------


def _prune_graph(succ: Sequence[dict], root: int) -> tuple[tuple[dict, ...], int]:
    """Keep the states reachable from the root that have an infinite
    continuation, in O(V + E); raises EmptySubshift if the root has none.
    `_strongly_connected` lists each component after those it reaches, so one
    pass decides liveness: a component is live when it holds a cycle (two
    states or more, or a self-loop) or an edge into a live component."""
    live: set[int] = set()
    for comp in _strongly_connected(succ, root):
        s = comp[0]
        if len(comp) > 1 or any(t == s or t in live for t in succ[s].values()):
            live.update(comp)
    if root not in live:
        raise EmptySubshift("no admissible infinite sequence")
    remap = {s: i for i, s in enumerate(sorted(live))}
    pruned = tuple({l: remap[t] for l, t in succ[s].items() if t in live} for s in remap)
    return pruned, remap[root]


def _forbidden_graph(k: int, words) -> list[dict]:
    """Transitions of the Aho-Corasick automaton of the forbidden words, rooted
    at 0 (Aho and Corasick, CACM 18, 1975).

    A state is a prefix of a forbidden word, the root the empty one.
    Reading a symbol moves to the longest state that is a suffix of the word
    read so far; a state's failure state is its longest proper suffix among
    the states.  Both are filled in breadth-first order, so a state's
    failure state is complete before the state.  A state is dead when it is
    a forbidden word or its failure state is dead, that is when a forbidden
    word ends at the last symbol read: no edge enters it, and
    `_prune_graph` enforces forward liveness.  At most 1 + sum |w| states,
    and each admissible word has exactly one path.
    """
    goto: list[dict] = [{}]
    banned = [False]
    for w in words:
        s = 0
        for c in w:
            if c not in goto[s]:
                goto[s][c] = len(goto)
                goto.append({})
                banned.append(False)
            s = goto[s][c]
        banned[s] = True
    limits.check("word", len(goto) * k, "transitions",
                 f"forbidden-word automaton of {len(goto)} states x {k} symbols")
    fail = [0] * len(goto)
    succ: list[dict] = [{} for _ in goto]
    order = [0]
    for s in order:  # the live states, breadth first, appended as they are reached
        for c in range(k):
            f = succ[fail[s]].get(c) if s else 0  # None: that suffix state is dead
            t = goto[s].get(c)
            if t is None:
                t = f
            elif banned[t] or f is None:
                t = None
            else:
                fail[t] = f
                order.append(t)
            if t is not None:
                succ[s][c] = t
    return succ


# ---------------------------------------------------------------------------
# Counting and entropy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyReport:
    """Certified entropy estimates, in nats.

    counts are the word counts {n: count} for n = 1..n_max, and
    upper_bounds their `fekete_bounds`.  spectral_bracket (lo, hi) is a
    certified bracket on the limit, no wider than SPECTRAL_LOG_TOL, from
    `spectral_bracket`; spectral_value is its midpoint.
    """

    upper_bounds: tuple
    spectral_value: float
    spectral_bracket: tuple
    counts: dict


def fekete_bounds(values) -> tuple:
    """min_{j <= N} log v_j / j for N = 1..len(values), v_j > 0 ints or doubles: for
    a submultiplicative v (word counts, Z_N) upper bounds on lim log v_N / N by Fekete."""
    return tuple(itertools.accumulate((math.log(v) / n for n, v in enumerate(values, 1)), min))


def count_words(spec: SubshiftSpec, n_max: int) -> dict:
    """Exact admissible-word counts {n: count} for n = 1..n_max, refused at
    the first that the digit budget refuses."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    k = spec.product_size  # its automaton: the root and one state with k loops
    limits.check("word", spec.automaton.n_states if k is None else 2, "states")
    limits.check("word", n_max, "lengths")
    stop = limits.printed_stop()
    if k is None:
        counts = spec.automaton.word_counts(n_max, stop)
    else:  # ending as `Automaton.word_counts` ends
        counts = [k]
        while len(counts) < n_max and (stop is None or counts[-1] <= stop):
            counts.append(counts[-1] * k)
    if stop is not None and counts[-1] > stop:  # the counts end at the first past it
        limits.check_digits([(counts[-1], 1)], f"count {len(counts)}")
    return {n + 1: c for n, c in enumerate(counts)}


def enumerate_words(spec: SubshiftSpec, n: int) -> np.ndarray:
    """The spec's admissible words of length n, as `Automaton.enumerate_words`."""
    return spec.automaton.enumerate_words(n)


def spectral_bracket(spec: SubshiftSpec) -> tuple[float, float]:
    """The spec's `Automaton.spectral_log`; a product kind's is log k widened by
    one ulp each way, bit for bit what its one live state with k loops gives."""
    k = spec.product_size
    if k is None:
        return spec.automaton.spectral_log()
    log_k = math.log(float(k))
    return math.nextafter(log_k, -math.inf), math.nextafter(log_k, math.inf)


def entropy(spec: SubshiftSpec, n_max: int = 12) -> EntropyReport:
    table = count_words(spec, n_max)  # >= 1 word per length: the root is live
    lo, hi = spectral_bracket(spec)
    return EntropyReport(
        upper_bounds=fekete_bounds(table.values()),
        spectral_value=0.5 * (lo + hi),
        spectral_bracket=(lo, hi),
        counts=table,
    )


# ---------------------------------------------------------------------------
# JSON input schema
# ---------------------------------------------------------------------------


def spec_from_json(doc) -> SubshiftSpec:
    """Checked spec from its JSON document: a malformed document raises
    DomainError naming the field."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise DomainError("a subshift spec is a JSON object")
    kind = doc.get("kind")
    k = doc.get("alphabet")
    if not (_is_index(k) and k > 0):
        raise DomainError(f"alphabet {k!r} is not a positive integer")
    if kind == KIND_FULL:
        return full_shift(k)
    if kind == KIND_SFT:
        spec = sft_from_matrix(doc.get("matrix"))
    elif kind == KIND_FORBIDDEN:
        words = doc.get("forbidden")
        if not isinstance(words, list):
            raise DomainError("forbidden kind needs a list of words")
        return forbidden_words(k, [_json_word(w) for w in words])
    elif kind == KIND_TUPLES:
        t = doc.get("tuples")
        if not isinstance(t, dict):
            raise DomainError('tuples kind needs {"a": ..., "b": ..., "R": [[u, v], ...]}')
        a, b, rel = t.get("a"), t.get("b"), t.get("R")
        if not (_is_index(a) and _is_index(b) and isinstance(rel, list)):
            raise DomainError("tuples need integers a, b and a list R")
        for pair in rel:
            if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_index, pair))):
                raise DomainError(f"tuple {pair!r} is not [u, v]")
        spec = allowed_tuples(a, b, rel)
    elif kind == KIND_AUTOMATON:
        return automaton_spec(_automaton_from_json(k, doc.get("automaton")), k)
    else:
        raise DomainError(f"unknown subshift kind {kind!r}")
    if spec.alphabet != k:  # the matrix size, or a * b
        raise DomainError(f"alphabet {k} disagrees with the {kind} body's {spec.alphabet} symbols")
    return spec


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _json_word(w) -> list:
    """A word given as a digit string or as a list of symbols."""
    if isinstance(w, str) and w.isdecimal():
        return [int(c) for c in w]
    if isinstance(w, list) and all(map(_is_index, w)):
        return w
    raise DomainError(f"word {w!r} is neither a digit string nor a list of symbols")


def _automaton_from_json(k: int, body) -> Automaton:
    """Checked automaton from its JSON body (its spec prunes it on compile):
    transitions are [state, label, state] with states nonnegative integers,
    labels in [0, k), one target per (state, label), and the root one of the
    states.  States are renumbered densely, so a large state number costs
    nothing."""
    if not isinstance(body, dict):
        raise DomainError('automaton kind needs {"root": ..., "transitions": [...]}')
    transitions = body.get("transitions")
    if not isinstance(transitions, list) or not transitions:
        raise DomainError("automaton needs a nonempty transition list")
    for item in transitions:
        if not (isinstance(item, (list, tuple)) and len(item) == 3):
            raise DomainError(f"transition {item!r} is not [state, label, state]")
        s, l, t = item
        if not (_is_index(s) and _is_index(t)):
            raise DomainError(f"transition {item}: states must be nonnegative integers")
        if not (_is_index(l) and l < k):
            raise DomainError(f"transition {item}: label leaves the alphabet 0..{k - 1}")
    states = sorted({s for s, _, _ in transitions} | {t for _, _, t in transitions})
    root = body.get("root")
    if not (_is_index(root) and root <= states[-1]):
        raise DomainError(f"root {root!r} is not one of the states 0..{states[-1]}")
    local = {s: i for i, s in enumerate(states)}
    if root not in local:
        raise EmptySubshift(f"root {root} has no transitions")
    succ: list[dict] = [dict() for _ in states]
    for s, l, t in transitions:
        if succ[local[s]].setdefault(l, local[t]) != local[t]:
            raise DomainError(f"state {s} has two transitions labelled {l}")
    return Automaton(alphabet_size=k, root=local[root], succ=tuple(succ))
