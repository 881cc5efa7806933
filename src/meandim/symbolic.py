"""One-sided subshifts over finite alphabets: exact word counting and entropy.

A subshift is described declaratively (full shift, transition-matrix SFT,
finite forbidden-word list, or an allowed-tuple set over a product alphabet)
and compiled to a rooted deterministic transition graph.  Label paths from the
root spell exactly the admissible words (the length-N prefixes of points), so
exact big-integer word counts are path counts and entropy upper bounds follow
from subadditivity.  The entropy is the log of the spectral radius of the
live transition structure.
"""

from __future__ import annotations

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

    def word_counts(self, n_max: int) -> list:
        """Exact number of admissible words for each length 1..n_max."""
        weights = [0] * len(self.succ)
        weights[self.root] = 1
        counts = []
        for _ in range(n_max):
            nxt = [0] * len(weights)
            for k, trans in zip(weights, self.succ):
                if k:
                    for t in trans.values():
                        nxt[t] += k
            weights = nxt
            counts.append(sum(weights))
        return counts

    def enumerate_words(self, n: int, budget: int | None = None) -> list[tuple]:
        """All admissible words of length n, in lexicographic order: a
        depth-first walk over each state's labels in increasing order."""
        cap = limits.cap("word", budget)
        edges = [sorted(trans.items()) for trans in self.succ]
        words: list[tuple] = [()] if n == 0 else []
        path: list = []
        stack = [iter(edges[self.root])] if n > 0 else []
        while stack:
            for label, t in stack[-1]:
                path.append(label)
                if len(stack) < n:
                    stack.append(iter(edges[t]))
                    break
                words.append(tuple(path))
                if len(words) > cap:
                    stack.clear()
                    break
                path.pop()
            else:
                stack.pop()
                if stack:
                    path.pop()
        if len(words) > cap:
            limits.check("word", self.word_counts(n)[-1] if n else 1, "words", cap)
        return words

    def lex_least_extension(self, word: tuple, depth: int) -> tuple:
        """word extended to length depth by the least admissible continuation."""
        state = self.root
        for label in word:
            state = self.succ[state][label]
        out = list(word)
        while len(out) < depth:
            label = min(self.succ[state])
            out.append(label)
            state = self.succ[state][label]
        return tuple(out)

    def spectral_log(self) -> tuple[float, float]:
        """Certified bracket (lo, hi) on log of the spectral radius of the
        transition structure reachable from the root; its midpoint is the
        reported value.

        The radius is the largest over the strongly connected components.  A
        one-state component is exact (its loop count).  A larger one runs
        Noda inverse iteration, whose Collatz-Wielandt bracket
        min (Mx)_i/x_i <= rho <= max (Mx)_i/x_i holds at every step once
        widened by the rounding of the product.  Raises ResourceLimit when a
        component's log-bracket stays wider than SPECTRAL_LOG_TOL (absolute),
        and EmptySubshift when no cycle is reachable.  The bracket is
        computed once per automaton and kept on it; a refusal is not kept,
        so it is raised again on every call.
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
    """Tarjan SCCs (iterative) of the states reachable from root."""
    index = {root: 0}
    low = {root: 0}
    on_stack = {root}
    stack = [root]
    comps: list[list[int]] = []
    work = [(root, iter(succ[root].values()))]
    while work:
        node, it = work[-1]
        advanced = False
        for t in it:
            if t not in index:
                index[t] = low[t] = len(index)
                stack.append(t)
                on_stack.add(t)
                work.append((t, iter(succ[t].values())))
                advanced = True
                break
            if t in on_stack:
                low[node] = min(low[node], index[t])
        if advanced:
            continue
        work.pop()
        if work:
            parent = work[-1][0]
            low[parent] = min(low[parent], low[node])
        if low[node] == index[node]:
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == node:
                    break
            comps.append(comp)
    return comps


def _component_radius(succ, comp) -> tuple[float, float]:
    """Bracket (lo, hi) on the spectral radius of one strongly connected
    component (0, 0 for a state without a loop)."""
    n = len(comp)
    if n == 1:
        s = comp[0]
        loops = float(sum(t == s for t in succ[s].values()))
        return loops, loops
    if n > _DENSE_COMPONENT_CAP:
        raise ResourceLimit(
            f"spectral radius: a {n}-state component exceeds the dense-solve cap "
            f"of {_DENSE_COMPONENT_CAP} states"
        )
    local = {s: i for i, s in enumerate(comp)}
    mat = np.zeros((n, n))
    for s in comp:
        row = mat[local[s]]
        for t in succ[s].values():
            j = local.get(t)
            if j is not None:
                row[j] += 1.0
    # The start vector is all ones, so the first bracket (the row sums) is exact.
    row_sums = mat.sum(axis=1)
    lo, hi = float(row_sums.min()), float(row_sums.max())
    # Each (Mx)_i sums at most n nonnegative terms, and one division follows.
    slack = (n + 2) * _UNIT_ROUNDOFF
    shifted = -mat
    diag = mat.diagonal().copy()
    x = np.ones(n)
    solves = 0
    while hi - lo > 4 * slack * hi and solves < _NODA_MAX_SOLVES:
        # sigma > rho, so (sigma I - M)^-1 is entrywise positive for irreducible M.
        shifted.flat[:: n + 1] = hi * (1.0 + 8 * _UNIT_ROUNDOFF) - diag
        try:
            y = np.linalg.solve(shifted, x)
        except np.linalg.LinAlgError:
            break
        solves += 1
        if not (np.isfinite(y).all() and (y > 0).all()):
            break
        x = y / y.max()
        ratios = (mat @ x) / x
        new_lo = float(ratios.min()) * (1.0 - slack)
        new_hi = float(ratios.max()) * (1.0 + slack)
        if new_lo <= lo and new_hi >= hi:
            break
        lo, hi = max(lo, new_lo), min(hi, new_hi)
    width = math.log(hi) - math.log(lo)
    if width > SPECTRAL_LOG_TOL:
        raise ResourceLimit(
            f"spectral radius of a {n}-state component: log-bracket width {width:.3g} "
            f"after {solves} Noda solves exceeds the tolerance {SPECTRAL_LOG_TOL:g}"
        )
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
    read; building a spec compiles nothing.
    """

    alphabet: int
    kind: str
    matrix: tuple | None = None
    forbidden: tuple | None = None
    tuple_sizes: tuple | None = None  # (a, b)
    tuple_set: frozenset | None = None  # {(u, v), ...}
    graph: Automaton | None = field(default=None, compare=False, repr=False)
    # Always None, not a field: perfbench/tracing.py:46 reads it for the
    # image_subshift.fallbacks counter; it goes when the benchmark drops that.
    wordsets = None

    def __post_init__(self):
        if self.alphabet < 1:
            raise DomainError("alphabet size must be positive")
        if self.kind == KIND_SFT:
            m = self.matrix
            if m is None or any(len(row) != len(m) for row in m):
                raise DomainError("sft kind needs a square 0/1 matrix")
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
        if self.kind == KIND_SFT:
            graph = Automaton(self.alphabet, 0, _matrix_graph(self.matrix))
        elif self.kind == KIND_FORBIDDEN:
            graph = Automaton(self.alphabet, 0, _forbidden_graph(self.alphabet, self.forbidden))
        else:
            graph = self.graph
        succ, root = _prune_graph(graph.succ, graph.root)
        return replace(graph, root=root, succ=succ)

    @cached_property
    def product_symbols(self) -> tuple | None:
        """The sorted symbol set S of a product kind, whose language is all
        words over S (full: every symbol; tuples: u * b + v for (u, v) in
        R), or None for the other kinds, computed once per spec.  A full
        shift on more symbols than the word budget is refused."""
        if self.kind == KIND_FULL:
            limits.check("word", self.alphabet, "symbols", limits.cap("word"), "full shift")
            return tuple(range(self.alphabet))
        if self.kind == KIND_TUPLES:
            b = self.tuple_sizes[1]
            return tuple(sorted(u * b + v for u, v in self.tuple_set))
        return None


def full_shift(k: int) -> SubshiftSpec:
    return SubshiftSpec(alphabet=k, kind=KIND_FULL)


def sft_from_matrix(matrix) -> SubshiftSpec:
    """Vertex shift of a square matrix of 0/1 entries, given as rows."""
    try:
        rows = tuple(tuple(row) for row in matrix)
    except TypeError:
        raise DomainError(f"sft matrix {matrix!r} is not a list of rows") from None
    if not all(x in (0, 1) for row in rows for x in row):
        raise DomainError("sft matrix entries must be 0 or 1")
    rows = tuple(tuple(int(x) for x in row) for row in rows)
    return SubshiftSpec(alphabet=len(rows), kind=KIND_SFT, matrix=rows)


def forbidden_words(k: int, words) -> SubshiftSpec:
    ws = tuple(sorted(tuple(int(c) for c in w) for w in words))
    return SubshiftSpec(alphabet=k, kind=KIND_FORBIDDEN, forbidden=ws)


def allowed_tuples(a: int, b: int, relation) -> SubshiftSpec:
    rel = frozenset((int(u), int(v)) for u, v in relation)
    for u, v in rel:
        if not (0 <= u < a and 0 <= v < b):
            raise DomainError(f"tuple {(u, v)} leaves the {a}x{b} product alphabet")
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
    """Drop states with no infinite continuation, then keep only states
    reachable from the root, in O(V + E).  Raises EmptySubshift if the root
    dies.

    One backward liveness pass: a state dies when its last transition into a
    live state is lost, so each dead state's predecessors lose one each.
    """
    preds: list[list[int]] = [[] for _ in succ]
    live_out = [len(trans) for trans in succ]
    for s, trans in enumerate(succ):
        for t in trans.values():
            preds[t].append(s)
    dead = [s for s, k in enumerate(live_out) if k == 0]
    alive = [k > 0 for k in live_out]
    while dead:
        for s in preds[dead.pop()]:
            live_out[s] -= 1
            if live_out[s] == 0:
                alive[s] = False
                dead.append(s)
    if not alive[root]:
        raise EmptySubshift("no admissible infinite sequence")

    reach = {root}
    stack = [root]
    while stack:
        s = stack.pop()
        for t in succ[s].values():
            if alive[t] and t not in reach:
                reach.add(t)
                stack.append(t)
    keep = sorted(reach)
    remap = {s: i for i, s in enumerate(keep)}
    pruned = tuple(
        {l: remap[t] for l, t in succ[s].items() if alive[t]} for s in keep
    )
    return pruned, remap[root]


def _matrix_graph(matrix) -> list[dict]:
    """Transitions of a vertex shift, rooted at 0: state s + 1 is symbol s."""
    k = len(matrix)
    succ: list[dict] = [{s: s + 1 for s in range(k)}]
    for row in matrix:
        succ.append({t: t + 1 for t in range(k) if row[t]})
    return succ


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
    limits.check("word", len(goto) * k, "transitions", limits.cap("word"),
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
class CountTable:
    """Exact admissible-word counts per length."""

    counts: dict

    def __getitem__(self, n: int) -> int:
        return self.counts[n]


@dataclass(frozen=True)
class EntropyReport:
    """Certified entropy estimates, in nats.

    upper_bounds[N-1] = min_{j <= N} log counts[j] / j is a true upper bound
    for every N by Fekete's lemma.  spectral_bracket (lo, hi) is a certified
    bracket on the limit, no wider than SPECTRAL_LOG_TOL, from the spec's
    automaton; spectral_value and best_estimate are its midpoint.
    """

    upper_bounds: tuple
    spectral_value: float
    spectral_bracket: tuple
    best_estimate: float


def count_words(spec: SubshiftSpec, n_max: int, budget: int | None = None) -> CountTable:
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    aut = spec.automaton
    limits.check("word", aut.n_states, "states", limits.cap("word", budget))
    counts = aut.word_counts(n_max)
    return CountTable(counts={n + 1: c for n, c in enumerate(counts)})


def enumerate_words(spec: SubshiftSpec, n: int, budget: int | None = None) -> list[tuple]:
    return spec.automaton.enumerate_words(n, budget)


def entropy(spec: SubshiftSpec, n_max: int = 12, budget: int | None = None) -> EntropyReport:
    table = count_words(spec, n_max, budget)
    bounds = []
    best = math.inf
    for n in range(1, n_max + 1):
        c = table[n]
        if c == 0:
            raise EmptySubshift("no admissible words")
        best = min(best, math.log(c) / n)
        bounds.append(best)
    lo, hi = spec.automaton.spectral_log()
    spectral = 0.5 * (lo + hi)
    return EntropyReport(
        upper_bounds=tuple(bounds),
        spectral_value=spectral,
        spectral_bracket=(lo, hi),
        best_estimate=spectral,
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
        return sft_from_matrix(doc.get("matrix"))
    if kind == KIND_FORBIDDEN:
        words = doc.get("forbidden")
        if not isinstance(words, list):
            raise DomainError("forbidden kind needs a list of words")
        return forbidden_words(k, [_json_word(w) for w in words])
    if kind == KIND_TUPLES:
        t = doc.get("tuples")
        if not isinstance(t, dict):
            raise DomainError('tuples kind needs {"a": ..., "b": ..., "R": [[u, v], ...]}')
        a, b, rel = t.get("a"), t.get("b"), t.get("R")
        if not (_is_index(a) and _is_index(b) and isinstance(rel, list)):
            raise DomainError("tuples need integers a, b and a list R")
        for pair in rel:
            if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_index, pair))):
                raise DomainError(f"tuple {pair!r} is not [u, v]")
        return allowed_tuples(a, b, rel)
    if kind == KIND_AUTOMATON:
        return automaton_spec(_automaton_from_json(k, doc.get("automaton")), k)
    raise DomainError(f"unknown subshift kind {kind!r}")


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
