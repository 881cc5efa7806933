"""One-sided subshifts over finite alphabets: exact word counting and entropy.

A subshift is described declaratively (full shift, transition-matrix SFT,
finite forbidden-word list, or an allowed-tuple set over a product alphabet)
and compiled to a rooted deterministic transition graph.  Label paths from the
root spell exactly the admissible words (the length-N prefixes of points), so
exact big-integer word counts are path counts and entropy upper bounds follow
from subadditivity.  For graph-backed kinds the entropy is the log of the
spectral radius of the live transition structure.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EmptySubshift, ResourceLimit
from .limits import word_budget

KIND_FULL = "full"
KIND_SFT = "sft"
KIND_FORBIDDEN = "forbidden"
KIND_TUPLES = "tuples"
KIND_AUTOMATON = "automaton"  # output-only: rooted labeled graph (sofic images)

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
    """

    alphabet_size: int
    root: int
    succ: tuple[dict, ...]  # succ[state][label] -> state

    @property
    def n_states(self) -> int:
        return len(self.succ)

    def word_counts(self, n_max: int) -> list:
        """Exact number of admissible words for each length 1..n_max."""
        ways = {self.root: 1}
        counts = []
        for _ in range(n_max):
            nxt: dict = {}
            for s, c in ways.items():
                for t in self.succ[s].values():
                    nxt[t] = nxt.get(t, 0) + c
            ways = nxt
            counts.append(sum(ways.values()))
        return counts

    def enumerate_words(self, n: int, budget: int | None = None) -> list[tuple]:
        """All admissible words of length n, lexicographically sorted."""
        cap = word_budget(budget)
        words: list[tuple] = []
        stack = [(self.root, ())]
        while stack:
            state, prefix = stack.pop()
            if len(prefix) == n:
                words.append(prefix)
                if len(words) > cap:
                    raise ResourceLimit(f"word enumeration exceeds budget {cap}")
                continue
            for label in sorted(self.succ[state], reverse=True):
                stack.append((self.succ[state][label], prefix + (label,)))
        words.sort()
        return words

    def lex_least_stream(self, depth: int) -> tuple:
        """Lexicographically least admissible sequence, truncated at depth."""
        out = []
        state = self.root
        for _ in range(depth):
            label = min(self.succ[state])
            out.append(label)
            state = self.succ[state][label]
        return tuple(out)

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
        and EmptySubshift when no cycle is reachable.
        """
        lo = hi = 0.0
        for comp in _strongly_connected(self.succ, self.root):
            c_lo, c_hi = _component_radius(self.succ, comp)
            lo, hi = max(lo, c_lo), max(hi, c_hi)
        if hi <= 0.0:
            raise EmptySubshift("transition graph has no cycle")
        return (
            math.nextafter(math.log(lo), -math.inf),
            math.nextafter(math.log(hi), math.inf),
        )


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
      sft       -- vertex shift of a 0/1 transition matrix (possibly over
                   block states; `state_words` then maps states to the block
                   words they spell)
      forbidden -- all sequences avoiding a finite word list
      tuples    -- R^N for a subset R of a product alphabet A x B; symbols
                   are encoded u * b + v
      automaton -- rooted labeled graph (produced by image projections)
    """

    alphabet: int
    kind: str
    matrix: tuple | None = None
    forbidden: tuple | None = None
    tuple_sizes: tuple | None = None  # (a, b)
    tuple_set: frozenset | None = None  # {(u, v), ...}
    state_words: tuple | None = None
    full: bool = field(default=False, init=False)  # kind full; kept by `prune`
    automaton: Automaton | None = field(default=None, compare=False, repr=False)
    # Enumeration-only fallback when determinization exceeds its budget:
    # word sets per length, and no transition graph ("no automaton" marker).
    wordsets: tuple | None = field(default=None, compare=False, repr=False)

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
        elif self.kind == KIND_FULL:
            object.__setattr__(self, "full", True)
        elif self.kind != KIND_AUTOMATON:
            raise DomainError(f"unknown kind {self.kind!r}")

    @property
    def pruned(self) -> bool:
        return self.automaton is not None or self.wordsets is not None


def full_shift(k: int) -> SubshiftSpec:
    return SubshiftSpec(alphabet=k, kind=KIND_FULL)


def sft_from_matrix(matrix) -> SubshiftSpec:
    rows = tuple(tuple(int(bool(x)) for x in row) for row in matrix)
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


def _automaton_from_matrix(k: int, matrix) -> Automaton:
    succ: list[dict] = [dict() for _ in range(k + 1)]
    succ[0] = {s: s + 1 for s in range(k)}
    for s in range(k):
        for t in range(k):
            if matrix[s][t]:
                succ[s + 1][t] = t + 1
    pruned, root = _prune_graph(succ, 0)
    return Automaton(alphabet_size=k, root=root, succ=pruned)


def _automaton_from_forbidden(k: int, words) -> Automaton:
    maxlen = max(len(w) for w in words)
    if k ** (maxlen - 1) > word_budget():
        raise ResourceLimit(
            f"{k}^{maxlen - 1} block states exceed the enumeration budget"
        )
    forb = {tuple(w) for w in words}
    if maxlen == 1:
        banned = {w[0] for w in forb}
        matrix = [
            [1 if (s not in banned and t not in banned) else 0 for t in range(k)]
            for s in range(k)
        ]
        return _automaton_from_matrix(k, matrix)

    block = maxlen - 1

    def clean(word: tuple) -> bool:
        for f in forb:
            lf = len(f)
            for i in range(len(word) - lf + 1):
                if word[i : i + lf] == f:
                    return False
        return True

    # Trie of admissible prefixes up to the block length, then a sliding
    # window over blocks; every admissible word is spelled by exactly one path.
    states: dict[tuple, int] = {(): 0}
    succ: list[dict] = [dict()]
    frontier = [()]
    while frontier:
        nxt = []
        for p in frontier:
            if len(p) >= block:
                continue
            for c in range(k):
                q = p + (c,)
                if clean(q):
                    states[q] = len(succ)
                    succ.append(dict())
                    succ[states[p]][c] = states[q]
                    nxt.append(q)
        frontier = nxt
    for p, idx in list(states.items()):
        if len(p) != block:
            continue
        for c in range(k):
            word = p + (c,)
            if clean(word):
                q = word[1:]
                if q in states:
                    succ[idx][c] = states[q]
    pruned, root = _prune_graph(succ, 0)
    return Automaton(alphabet_size=k, root=root, succ=pruned)


def _automaton_from_tuples(a: int, b: int, rel) -> Automaton:
    labels = sorted(u * b + v for u, v in rel)
    succ = [{l: 1 for l in labels}, {l: 1 for l in labels}]
    return Automaton(alphabet_size=a * b, root=0, succ=tuple(succ))


def build_automaton(spec: SubshiftSpec) -> Automaton:
    if spec.automaton is not None:
        return spec.automaton
    if spec.kind == KIND_FULL:
        k = spec.alphabet
        return Automaton(
            alphabet_size=k,
            root=0,
            succ=({c: 1 for c in range(k)}, {c: 1 for c in range(k)}),
        )
    if spec.kind == KIND_SFT:
        return _automaton_from_matrix(len(spec.matrix), spec.matrix)
    if spec.kind == KIND_FORBIDDEN:
        return _automaton_from_forbidden(spec.alphabet, spec.forbidden)
    if spec.kind == KIND_TUPLES:
        a, b = spec.tuple_sizes
        return _automaton_from_tuples(a, b, spec.tuple_set)
    raise DomainError(f"cannot compile kind {spec.kind!r}")


def automaton_spec(aut: Automaton, alphabet: int) -> SubshiftSpec:
    """Spec of the automaton's language, pruned: states with no infinite
    continuation are dropped, so every counted word extends to a point."""
    succ, root = _prune_graph(aut.succ, aut.root)
    aut = Automaton(alphabet_size=aut.alphabet_size, root=root, succ=succ)
    return SubshiftSpec(alphabet=alphabet, kind=KIND_AUTOMATON, automaton=aut)


def prune(spec: SubshiftSpec) -> SubshiftSpec:
    """Equivalent spec in transition-graph normal form with dead states removed.

    The admissible-word language (prefixes of points) is unchanged for every
    length.  Only forward liveness is enforced: a state survives iff an
    infinite admissible continuation exists.  For a one-sided shift that is
    exactly the condition for a word to be a prefix of a point; dropping
    backward-unreachable states would shrink the prefix language.
    """
    if spec.wordsets is not None:
        return spec  # enumeration-only fallback; nothing to compile
    if spec.kind == KIND_AUTOMATON:
        return automaton_spec(spec.automaton, spec.alphabet)
    aut = build_automaton(spec)
    one_block = not (
        spec.kind == KIND_FORBIDDEN and max(len(w) for w in spec.forbidden) > 2
    )
    matrix, words = _graph_as_matrix(spec, aut)
    pruned = SubshiftSpec(
        alphabet=spec.alphabet,
        kind=KIND_SFT,
        matrix=matrix,
        state_words=None if one_block else words,
        tuple_sizes=spec.tuple_sizes,
        tuple_set=spec.tuple_set,
        automaton=aut,
    )
    object.__setattr__(pruned, "full", spec.full)
    return pruned


def _graph_as_matrix(spec: SubshiftSpec, aut: Automaton):
    """Transition matrix over the automaton's recurrent-layer states.

    For one-block kinds the states are live symbols and the matrix is the
    pruned k x k symbol matrix (padded with zero rows/columns for dead
    symbols so its size stays the alphabet size).  For higher-block kinds the
    matrix is over block states and `state_words` records the block words.
    """
    k = spec.alphabet
    # Identify "symbol layer" states: the targets of root transitions in the
    # matrix/full/tuples constructions are symbol states; in the forbidden
    # construction with blocks > 1 the deep layer is used instead.
    if spec.kind == KIND_FORBIDDEN and max(len(w) for w in spec.forbidden) > 2:
        block = max(len(w) for w in spec.forbidden) - 1
        # Recover block states by walking paths of length `block` from root.
        state_word: dict[int, tuple] = {}
        stack = [(aut.root, ())]
        while stack:
            s, p = stack.pop()
            if len(p) == block:
                state_word[s] = p
                continue
            for l, t in aut.succ[s].items():
                stack.append((t, p + (l,)))
        states = sorted(state_word, key=lambda s: state_word[s])
        idx = {s: i for i, s in enumerate(states)}
        n = len(states)
        matrix = [[0] * n for _ in range(n)]
        for s in states:
            for t in aut.succ[s].values():
                matrix[idx[s]][idx[t]] = 1
        words = tuple(state_word[s] for s in states)
        return tuple(tuple(r) for r in matrix), words

    live = sorted(set(aut.succ[aut.root]))
    state_of = {l: aut.succ[aut.root][l] for l in live}
    matrix = [[0] * k for _ in range(k)]
    for l in live:
        for l2, t in aut.succ[state_of[l]].items():
            matrix[l][l2] = 1
    return tuple(tuple(r) for r in matrix), tuple((l,) for l in range(k))


def ensure_pruned(spec: SubshiftSpec) -> SubshiftSpec:
    return spec if spec.pruned else prune(spec)


# ---------------------------------------------------------------------------
# Counting and entropy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountTable:
    """Exact admissible-word counts per length."""

    counts: dict
    max_length: int

    def __getitem__(self, n: int) -> int:
        return self.counts[n]

    def check_submultiplicative(self) -> None:
        """counts[n+m] <= counts[n] * counts[m], exactly, for stored lengths."""
        for n in self.counts:
            for m in self.counts:
                if n + m in self.counts:
                    if self.counts[n + m] > self.counts[n] * self.counts[m]:
                        raise AssertionError(
                            f"submultiplicativity fails at ({n}, {m})"
                        )


@dataclass(frozen=True)
class EntropyReport:
    """Certified entropy estimates, in nats.

    upper_bounds[N-1] = min_{j <= N} log counts[j] / j is a true upper bound
    for every N by Fekete's lemma.  For graph-backed kinds spectral_bracket
    (lo, hi) is a certified bracket on the limit, no wider than
    SPECTRAL_LOG_TOL, and spectral_value is its midpoint; both are None for
    word-set specs.
    """

    upper_bounds: tuple
    spectral_value: float | None
    spectral_bracket: tuple | None
    best_estimate: float
    exact: bool


def _wordset_table(spec: SubshiftSpec, n_max: int) -> CountTable:
    stored = dict(spec.wordsets)
    if n_max > max(stored):
        raise ResourceLimit(
            f"enumeration-only spec stores word sets up to length {max(stored)}"
        )
    return CountTable(
        counts={n: len(stored[n]) for n in range(1, n_max + 1)}, max_length=n_max
    )


def count_words(spec: SubshiftSpec, n_max: int, budget: int | None = None) -> CountTable:
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    spec = ensure_pruned(spec)
    if spec.automaton is None:
        return _wordset_table(spec, n_max)
    aut = spec.automaton
    if aut.n_states > word_budget(budget):
        raise ResourceLimit("state space exceeds budget")
    counts = aut.word_counts(n_max)
    return CountTable(
        counts={n + 1: c for n, c in enumerate(counts)}, max_length=n_max
    )


def enumerate_words(spec: SubshiftSpec, n: int, budget: int | None = None) -> list[tuple]:
    spec = ensure_pruned(spec)
    if spec.automaton is None:
        stored = dict(spec.wordsets)
        if n not in stored:
            raise ResourceLimit(
                f"enumeration-only spec stores word sets up to length {max(stored)}"
            )
        return sorted(stored[n])
    return spec.automaton.enumerate_words(n, budget)


def entropy(spec: SubshiftSpec, n_max: int = 12, budget: int | None = None) -> EntropyReport:
    spec = ensure_pruned(spec)
    table = count_words(spec, n_max, budget)
    bounds = []
    best = math.inf
    for n in range(1, n_max + 1):
        c = table[n]
        if c == 0:
            raise EmptySubshift("no admissible words")
        best = min(best, math.log(c) / n)
        bounds.append(best)
    if spec.automaton is None:
        return EntropyReport(
            upper_bounds=tuple(bounds),
            spectral_value=None,
            spectral_bracket=None,
            best_estimate=bounds[-1],
            exact=False,
        )
    lo, hi = spec.automaton.spectral_log()
    spectral = 0.5 * (lo + hi)
    return EntropyReport(
        upper_bounds=tuple(bounds),
        spectral_value=spectral,
        spectral_bracket=(lo, hi),
        best_estimate=spectral,
        exact=True,
    )


# ---------------------------------------------------------------------------
# JSON round trip (input schema; `automaton` is an output-only extension)
# ---------------------------------------------------------------------------


def spec_to_json(spec: SubshiftSpec) -> dict:
    if spec.wordsets is not None:
        return {
            "alphabet": spec.alphabet,
            "kind": "wordset",
            "words": {
                str(n): sorted("".join(map(str, w)) for w in ws)
                for n, ws in spec.wordsets
            },
        }
    if spec.state_words is not None or spec.kind == KIND_AUTOMATON:
        # Higher-block normal forms round-trip through the automaton form,
        # whose states are not alphabet symbols.
        aut = spec.automaton or build_automaton(spec)
        transitions = sorted(
            [s, l, t] for s, trans in enumerate(aut.succ) for l, t in trans.items()
        )
        return {
            "alphabet": spec.alphabet,
            "kind": KIND_AUTOMATON,
            "automaton": {"root": aut.root, "transitions": transitions},
        }
    doc: dict = {"alphabet": spec.alphabet, "kind": spec.kind}
    if spec.kind == KIND_SFT:
        doc["matrix"] = [list(r) for r in spec.matrix]
    elif spec.kind == KIND_FORBIDDEN:
        doc["forbidden"] = ["".join(str(c) for c in w) for w in spec.forbidden]
    elif spec.kind == KIND_TUPLES:
        a, b = spec.tuple_sizes
        doc["tuples"] = {"a": a, "b": b, "R": sorted([u, v] for u, v in spec.tuple_set)}
    return doc


def spec_from_json(doc) -> SubshiftSpec:
    if isinstance(doc, str):
        doc = json.loads(doc)
    kind = doc.get("kind")
    k = int(doc["alphabet"])
    if kind == KIND_FULL:
        return full_shift(k)
    if kind == KIND_SFT:
        return sft_from_matrix(doc["matrix"])
    if kind == KIND_FORBIDDEN:
        words = [
            [int(c) for c in w] if isinstance(w, str) else [int(c) for c in w]
            for w in doc["forbidden"]
        ]
        return forbidden_words(k, words)
    if kind == KIND_TUPLES:
        t = doc["tuples"]
        return allowed_tuples(int(t["a"]), int(t["b"]), t["R"])
    if kind == KIND_AUTOMATON:
        return automaton_spec(_automaton_from_json(k, doc["automaton"]), k)
    if kind == "wordset":
        wordsets = tuple(
            (int(n), frozenset(tuple(int(c) for c in w) for w in ws))
            for n, ws in sorted(doc["words"].items(), key=lambda kv: int(kv[0]))
        )
        return SubshiftSpec(alphabet=k, kind=KIND_AUTOMATON, wordsets=wordsets)
    raise DomainError(f"unknown subshift kind {kind!r}")


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _automaton_from_json(k: int, body) -> Automaton:
    """Checked automaton from its JSON body (`automaton_spec` prunes it):
    transitions are [state, label, state] with states nonnegative integers,
    labels in [0, k), one target per (state, label), and the root one of the
    states.  States are renumbered densely, so a large state number costs
    nothing."""
    transitions = body["transitions"]
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
    root = body["root"]
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
