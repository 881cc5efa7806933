"""Subshift counting and entropy against naive string-based oracles."""

import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meandim import symbolic as sym
from meandim.errors import DomainError, EmptySubshift, ResourceLimit
from meandim import limits

GOLDEN_ENTROPY = 0.4812118250596035  # log((1 + sqrt 5) / 2)


def naive_sft_words(matrix, n):
    """All length-n words of the vertex shift, by brute force.

    A word is in the language iff every transition is allowed and the word
    extends k more steps (k states suffice: any k-step path hits a cycle).
    """
    k = len(matrix)

    def admissible(word):
        return all(matrix[a][b] for a, b in zip(word, word[1:]))

    def extendable(last):
        frontier = {last}
        for _ in range(k):
            frontier = {t for s in frontier for t in range(k) if matrix[s][t]}
            if not frontier:
                return False
        return True

    return [
        w
        for w in itertools.product(range(k), repeat=n)
        if admissible(w) and extendable(w[-1])
    ]


def word_tuples(words):
    """An `enumerate_words` array as its list of word tuples, row by row."""
    return [tuple(w) for w in words.tolist()]


def naive_forbidden_words(k, forbidden, n, extension=8):
    """Words avoiding every forbidden factor, with brute-force extendability."""
    forb = [tuple(f) for f in forbidden]

    def clean(word):
        return not any(
            word[i : i + len(f)] == f
            for f in forb
            for i in range(len(word) - len(f) + 1)
        )

    def extendable(word):
        return any(
            clean(word + ext)
            for ext in itertools.product(range(k), repeat=extension)
        )

    return [
        w
        for w in itertools.product(range(k), repeat=n)
        if clean(w) and extendable(w)
    ]


def reference_prune(succ, root):
    """The fixed-point pruning loop: drop non-root states without a
    transition into a surviving state until nothing changes, then keep the
    states reachable from the root.  Mutates succ."""
    alive = set(range(len(succ)))
    changed = True
    while changed:
        changed = False
        for s in list(alive):
            if s == root:
                continue
            trans = {l: t for l, t in succ[s].items() if t in alive}
            if not trans:
                alive.discard(s)
                changed = True
            succ[s] = trans
    succ[root] = {l: t for l, t in succ[root].items() if t in alive}
    if not succ[root]:
        raise EmptySubshift("no admissible infinite sequence")
    reach = {root}
    stack = [root]
    while stack:
        s = stack.pop()
        for t in succ[s].values():
            if t not in reach:
                reach.add(t)
                stack.append(t)
    keep = sorted(reach)
    remap = {s: i for i, s in enumerate(keep)}
    return tuple({l: remap[t] for l, t in succ[s].items()} for s in keep), remap[root]


def reference_block_automaton(k, words):
    """The block automaton that compiled forbidden-word specs before the
    Aho-Corasick construction: a trie of the clean words up to length
    L - 1 (L the longest forbidden word), then a window sliding over those
    blocks, pruned by `reference_prune`.  Up to k^(L-1) block states."""
    forb = {tuple(w) for w in words}
    block = max((len(f) for f in forb), default=1) - 1

    def clean(word):
        return not any(
            word[i : i + len(f)] == f for f in forb for i in range(len(word) - len(f) + 1)
        )

    states = {(): 0}
    succ = [{}]
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
                    succ.append({})
                    succ[states[p]][c] = states[q]
                    nxt.append(q)
        frontier = nxt
    for p, idx in list(states.items()):
        if len(p) == block:
            for c in range(k):
                word = p + (c,)
                if clean(word) and word[1:] in states:
                    succ[idx][c] = states[word[1:]]
    pruned, root = reference_prune(succ, 0)
    return sym.Automaton(alphabet_size=k, root=root, succ=pruned)


@st.composite
def random_automata(draw):
    """(succ, root, alphabet): deterministic graphs with dead ends, chains
    into dead ends, unreachable parts and self-loops."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, 3))
    succ = [
        draw(st.dictionaries(st.integers(0, k - 1), st.integers(0, n - 1), max_size=k))
        for _ in range(n)
    ]
    return succ, draw(st.integers(0, n - 1)), k


def reference_word_counts(aut, n_max):
    """The word counter before the list-of-weights sweep: a dict of weights
    over the states reached so far."""
    ways = {aut.root: 1}
    counts = []
    for _ in range(n_max):
        nxt = {}
        for s, c in ways.items():
            for t in aut.succ[s].values():
                nxt[t] = nxt.get(t, 0) + c
        ways = nxt
        counts.append(sum(ways.values()))
    return counts


def reference_enumerate_words(aut, n):
    """The word enumerator before the iterator-stack walk: a stack of
    (state, prefix) pairs, then a sort."""
    cap = limits.cap("word")
    words = []
    stack = [(aut.root, ())]
    while stack:
        state, prefix = stack.pop()
        if len(prefix) == n:
            words.append(prefix)
            if len(words) > cap:
                total = reference_word_counts(aut, n)[-1] if n else 1
                raise ResourceLimit(f"word budget: {total} words exceed the cap {cap}")
            continue
        for label in sorted(aut.succ[state], reverse=True):
            stack.append((aut.succ[state][label], prefix + (label,)))
    words.sort()
    return words


@functools.lru_cache(maxsize=None)
def cycle_chord_log_radius(k, length):
    """Enclosure (lo, hi), as 50-digit mpmath numbers, of the log radius of
    the k-cycle plus a chord closing a second cycle of the given length.  The
    radius is 1/x for the root x of x^k + x^length = 1 in (0, 1), isolated by
    exact sign tests on Fractions to a width below 2^-100."""
    lo, hi = Fraction(0), Fraction(1)
    while hi - lo >= Fraction(1, 2**100):
        mid = (lo + hi) / 2
        p, q = mid.numerator, mid.denominator  # the sign of (mid^k + mid^length - 1) q^k
        if p**k + p**length * q ** (k - length) < q**k:
            lo = mid
        else:
            hi = mid
    with mpmath.workdps(50):
        return tuple(-mpmath.log(mpmath.mpf(x.numerator) / x.denominator) for x in (hi, lo))


def assert_holds(bracket, judge):
    """The double bracket (lo, hi) holds the judge's enclosure, compared exactly."""
    (lo, hi), (judge_lo, judge_hi) = bracket, judge
    assert mpmath.mpf(lo) <= judge_lo and judge_hi <= mpmath.mpf(hi)


def cycle_chord_matrix(k):
    """The k-cycle 0 -> 1 -> ... -> k-1 -> 0 plus the chord k-1 -> k//2."""
    matrix = [[0] * k for _ in range(k)]
    for s in range(k):
        matrix[s][(s + 1) % k] = 1
    matrix[k - 1][k // 2] = 1
    return matrix


def cycle_chord_automaton(k):
    """Vertex shift of `cycle_chord_matrix(k)`."""
    return sym.prune(sym.sft_from_matrix(cycle_chord_matrix(k))).automaton


class TestPrune:
    def test_full_shift_compiles_to_all_ones_matrix(self):
        # the language of the all-ones matrix: every word, and the kind kept
        p = sym.prune(sym.full_shift(3))
        assert p.kind == sym.KIND_FULL
        for n in range(1, 5):
            assert word_tuples(sym.enumerate_words(p, n)) == naive_sft_words([[1] * 3] * 3, n)

    def test_forbidden_11_gives_golden_mean_matrix(self):
        p = sym.prune(sym.forbidden_words(2, ["11"]))
        assert p.kind == sym.KIND_FORBIDDEN
        # the golden-mean vertex shift's language, and the naive oracle's
        for n in range(1, 5):
            words = word_tuples(sym.enumerate_words(p, n))
            assert words == naive_sft_words([[1, 1], [1, 0]], n)
            assert words == naive_forbidden_words(2, [(1, 1)], n)

    def test_no_cycle_is_empty(self):
        with pytest.raises(EmptySubshift):
            sym.prune(sym.sft_from_matrix([[0, 1], [0, 0]]))

    def test_dead_symbol_removed_but_language_kept(self):
        # symbol 2 has no outgoing edges: words ending in it are not prefixes
        matrix = [[1, 1, 1], [1, 0, 0], [0, 0, 0]]
        p = sym.prune(sym.sft_from_matrix(matrix))
        for n in range(1, 6):
            assert sorted(word_tuples(sym.enumerate_words(p, n))) == naive_sft_words(matrix, n)

    def test_prune_is_idempotent(self):
        p = sym.prune(sym.forbidden_words(2, ["11"]))
        again = sym.prune(p)
        assert sym.count_words(again, 6) == sym.count_words(p, 6)

    def test_automaton_spec_is_pruned_on_first_read(self):
        # state 1 is a dead end: the word "1" extends to no point
        aut = sym.Automaton(alphabet_size=2, root=0, succ=({0: 0, 1: 1}, {}))
        spec = sym.automaton_spec(aut, 2)
        assert spec.graph is aut and "automaton" not in vars(spec)
        assert spec.automaton.succ == ({0: 0},)
        assert sym.count_words(spec, 4) == {1: 1, 2: 1, 3: 1, 4: 1}
        assert sym.count_words(sym.prune(spec), 4) == {1: 1, 2: 1, 3: 1, 4: 1}

    def test_directly_built_automaton_spec_is_pruned(self):
        # the same graph without automaton_spec: "1" still extends to no point
        aut = sym.Automaton(alphabet_size=2, root=0, succ=({0: 0, 1: 1}, {}))
        spec = sym.SubshiftSpec(alphabet=2, kind=sym.KIND_AUTOMATON, graph=aut)
        assert spec.automaton.succ == ({0: 0},)
        assert sym.count_words(spec, 3) == {1: 1, 2: 1, 3: 1}
        assert sym.prune(spec) is spec
        # an empty language is built and refused on its first compile
        empty = sym.SubshiftSpec(alphabet=2, kind=sym.KIND_AUTOMATON,
                                 graph=sym.Automaton(2, 0, ({1: 1}, {})))
        for _ in range(2):
            with pytest.raises(EmptySubshift):
                empty.automaton

    def test_automaton_specs_of_different_graphs_differ(self):
        # 2^n words against 1: equal kinds and alphabets, different languages
        full = sym.automaton_spec(sym.Automaton(2, 0, ({0: 0, 1: 0},)), 2)
        single = sym.automaton_spec(sym.Automaton(2, 0, ({0: 0},)), 2)
        assert full != single and len({full, single}) == 2
        same = sym.automaton_spec(sym.Automaton(2, 0, ({0: 0, 1: 0},)), 2)
        assert full == same and hash(full) == hash(same)

    @settings(max_examples=300, deadline=None)
    @given(random_automata())
    def test_liveness_pass_matches_fixed_point_loop(self, case):
        succ, root, k = case
        try:
            want = reference_prune([dict(t) for t in succ], root)
        except EmptySubshift:
            with pytest.raises(EmptySubshift):
                sym._prune_graph([dict(t) for t in succ], root)
            return
        got = sym._prune_graph([dict(t) for t in succ], root)
        assert got == want
        counts = [
            sym.Automaton(alphabet_size=k, root=r, succ=g).word_counts(8)
            for g, r in (got, want)
        ]
        assert counts[0] == counts[1]


@settings(max_examples=300, deadline=None)
@given(
    random_automata(),
    st.integers(0, 6),
    st.one_of(st.none(), st.integers(0, 40)),
    st.booleans(),
)
@example(([{0: 0}, {}], 1, 1), 3, None, False)  # no word: shape (0, 3)
@example(([{0: 0}], 0, 1), 0, None, True)  # the empty word: shape (1, 0)
def test_walk_and_sweep_match_the_reference(case, n, budget, column_labels):
    # unpruned graphs, as the 2d transfer graphs are; column_labels makes the
    # labels codes past 2^63, as the columns of a tall 2d graph are, in the
    # order of the pairs (l % 2, l)
    succ, root, k = case
    if column_labels:
        succ = [{(l % 2) << 64 | l: t for l, t in trans.items()} for trans in succ]
        k = 1 << 65
    aut = sym.Automaton(alphabet_size=k, root=root, succ=tuple(succ))
    assert aut.word_counts(6) == reference_word_counts(aut, 6)
    with limits.override(budget):
        try:
            want = reference_enumerate_words(aut, n)
        except ResourceLimit as exc:
            with pytest.raises(ResourceLimit, match=str(exc)):
                aut.enumerate_words(n)
            return
        got = aut.enumerate_words(n)
        assert got.shape == (len(want), n)
        assert got.dtype == (object if column_labels else np.int64)
        assert word_tuples(got) == want


@settings(max_examples=200, deadline=None)
@given(random_automata(), st.lists(st.integers(0, 24), min_size=1, max_size=6))
@example(([{0: 0, 1: 1}, {0: 0}], 0, 2), [8, 16, 24, 5, 0])
def test_kept_word_counts_answer_lengths_in_any_order(case, lengths):
    # one automaton asked for lengths in any order answers as the reference
    # and a fresh automaton do, and a caller's edit of one answer moves no
    # later one
    succ, root, k = case
    aut = sym.Automaton(alphabet_size=k, root=root, succ=tuple(succ))
    for n in lengths:
        got = aut.word_counts(n)
        assert got == reference_word_counts(aut, n)
        assert got == sym.Automaton(alphabet_size=k, root=root, succ=tuple(succ)).word_counts(n)
        got.insert(0, -1)


@settings(max_examples=200, deadline=None)
@given(random_automata(), st.lists(st.tuples(st.integers(0, 24), st.none() | st.integers(0, 300)),
                                   min_size=1, max_size=6))
@example(([{0: 0, 1: 1}, {0: 0}], 0, 2), [(24, None), (24, 10), (24, 100), (5, 1), (3, 0)])
def test_kept_word_counts_end_at_the_first_count_past_each_stop(case, requests):
    # counts kept from a request with a larger stop, or none, ran past a
    # smaller stop's first count past it
    succ, root, k = case
    aut = sym.Automaton(alphabet_size=k, root=root, succ=tuple(succ))
    for n, stop in requests:
        want = reference_word_counts(aut, n)
        if stop is not None:
            want = want[: next((i for i, c in enumerate(want, 1) if c > stop), n)]
        fresh = sym.Automaton(alphabet_size=k, root=root, succ=tuple(succ))
        assert aut.word_counts(n, stop) == want == fresh.word_counts(n, stop)


def test_product_symbols_are_computed_once():
    spec = sym.allowed_tuples(3, 2, [(0, 0), (1, 1), (2, 0)])
    assert spec.product_symbols == (0, 3, 4)
    assert spec.product_symbols is spec.product_symbols
    assert sym.forbidden_words(2, ["11"]).product_symbols is None


class TestCountWords:
    def test_full_shift_power_counts(self):
        table = sym.count_words(sym.full_shift(3), 6)
        for n in range(1, 7):
            assert table[n] == 3**n

    def test_golden_mean_fibonacci(self):
        table = sym.count_words(sym.forbidden_words(2, ["11"]), 20)
        assert [table[n] for n in range(1, 6)] == [2, 3, 5, 8, 13]
        assert table[20] == 17711

    def test_allowed_tuples_power(self):
        spec = sym.allowed_tuples(3, 2, [(0, 0), (1, 1), (2, 0)])
        assert sym.count_words(spec, 3)[3] == 27
        # symbols u * 2^40 + v past 2^63 are enumerated as Python ints
        big = 2**40
        spec = sym.allowed_tuples(big, big, [(big - 1, 5), (0, 0)])
        words = sym.enumerate_words(spec, 2)
        assert words.dtype == object and words.shape == (4, 2)
        top = (big - 1) * big + 5
        assert word_tuples(words) == [(0, 0), (0, top), (top, 0), (top, top)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_checked_count_is_the_number_of_enumerated_words(self, k, data):
        matrix = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                                    min_size=k, max_size=k))
        try:
            aut = sym.sft_from_matrix(matrix).automaton
        except EmptySubshift:
            return
        with limits.override(10**6):
            for n in range(7):
                assert aut.checked_count(n, "word") == len(aut.enumerate_words(n))

    @pytest.mark.parametrize("n, cap, refusal", [
        (30, 20_000_000, "1073741824 words"),  # exact below 2^PRINTED_BITS
        (5, 3, "32 words"),
        (20_000, 20_000_000, "33554432 or more words"),  # the first count past the cap
        (10**12, 20_000_000, "33554432 or more words"),
    ])
    def test_checked_count_refusals(self, n, cap, refusal):
        with pytest.raises(ResourceLimit) as info, limits.override(cap):
            sym.full_shift(2).automaton.checked_count(n, "word")
        assert str(info.value) == f"word budget: {refusal} exceed the cap {cap}"

    def test_checked_count_of_a_slow_count_refuses_its_length(self):
        # one word per length: the counts never pass the cap, the word's symbols do
        aut = sym.sft_from_matrix([[1, 0], [0, 0]]).automaton
        with limits.override(20_000_000):
            assert aut.checked_count(20_000, "word") == 1
            with pytest.raises(ResourceLimit, match=r"^word budget: 1000000000000 symbols in a word "):
                aut.checked_count(10**12, "word")

    def test_counts_stop_at_the_first_one_past_the_digit_budget(self):
        spec = sym.full_shift(2)
        assert sym.count_words(spec, 14284)[14284] == 2**14284  # 4300 digits print
        with pytest.raises(ResourceLimit) as info:
            sym.count_words(spec, 10**6)
        assert str(info.value) == (
            "digit budget: count 14285: 4301 decimal digits exceed the cap 4300")

    def test_a_lower_digit_cap_refuses_the_first_count_past_it(self):
        # the 3,000 counts kept by the word-budget refusal named count 3000
        spec = sym.full_shift(2)
        with pytest.raises(ResourceLimit, match="^word budget: "):
            sym.enumerate_words(spec, 3000)
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(ResourceLimit) as info:
                sym.count_words(spec, 3000)
        finally:
            sys.set_int_max_str_digits(previous)
        assert str(info.value) == "digit budget: count 2127: 641 decimal digits exceed the cap 640"

    def test_matrix_vs_enumeration_small_alphabets(self):
        rng = random.Random(1)
        cases = 0
        while cases < 12:
            k = rng.randint(2, 4)
            matrix = [[rng.randint(0, 1) for _ in range(k)] for _ in range(k)]
            try:
                spec = sym.prune(sym.sft_from_matrix(matrix))
            except EmptySubshift:
                continue
            cases += 1
            table = sym.count_words(spec, 10)
            for n in (1, 3, 7, 10):
                assert table[n] == len(naive_sft_words(matrix, n))

    def test_higher_block_compilation(self):
        spec = sym.forbidden_words(2, ["111", "00"])
        pruned = sym.prune(spec)
        assert pruned == spec and pruned.automaton is not None
        for n in range(1, 8):
            expected = naive_forbidden_words(2, [(1, 1, 1), (0, 0)], n)
            assert sorted(word_tuples(sym.enumerate_words(pruned, n))) == expected


forbidden_cases = st.integers(1, 4).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.lists(st.integers(0, k - 1), min_size=1, max_size=5), max_size=4),
    )
)


@settings(max_examples=150, deadline=None)
@given(forbidden_cases)
@example((3, []))  # the full shift
@example((3, [[1, 2], [1, 2]]))  # a duplicate
@example((4, [[0], [2], [3, 1]]))  # single symbols
@example((2, [[0, 1, 1], [1, 1], [1, 0, 1, 0]]))  # words that contain another
@example((2, [[0], [1, 1]]))  # no infinite sequence
@example((1, [[0, 0, 0, 0, 0]]))  # one symbol
def test_aho_corasick_matches_the_block_automaton(case):
    k, words = case
    spec = sym.forbidden_words(k, words)
    try:
        ref = sym.prune(sym.automaton_spec(reference_block_automaton(k, words), k))
    except EmptySubshift:
        with pytest.raises(EmptySubshift):
            sym.prune(spec)
        return
    got = sym.prune(spec)
    assert got.automaton.n_states <= 1 + sum(map(len, words))
    for n in range(1, 8):
        assert word_tuples(sym.enumerate_words(got, n)) == word_tuples(sym.enumerate_words(ref, n))
    assert sym.count_words(got, 12) == sym.count_words(ref, 12)
    got_rep, ref_rep = sym.entropy(got, 12), sym.entropy(ref, 12)
    assert got_rep.upper_bounds == ref_rep.upper_bounds
    (lo, hi), (ref_lo, ref_hi) = got_rep.spectral_bracket, ref_rep.spectral_bracket
    assert max(lo, ref_lo) <= min(hi, ref_hi)


def test_long_words_take_one_state_per_prefix():
    # the 18 proper prefixes of the three words, the empty one included
    spec = sym.forbidden_words(6, ["3302433", "2324141", "2104245"])
    assert sym.prune(spec).automaton.n_states == 18
    assert sym.count_words(spec, 7)[7] == 6**7 - 3


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(0, 1), min_size=k, max_size=k),
            min_size=k,
            max_size=k,
        )
    )
)
def test_submultiplicativity_random_matrices(matrix):
    try:
        spec = sym.prune(sym.sft_from_matrix(matrix))
    except EmptySubshift:
        return
    table = sym.count_words(spec, 10)
    for n in table:
        for m in table:
            if n + m in table:
                assert table[n + m] <= table[n] * table[m]


class TestEntropy:
    def test_full_shift_exact(self):
        rep = sym.entropy(sym.full_shift(2), 8)
        assert rep.spectral_value == pytest.approx(math.log(2), abs=1e-12)
        assert all(u == pytest.approx(math.log(2), abs=1e-12) for u in rep.upper_bounds)

    def test_golden_mean_spectral(self):
        rep = sym.entropy(sym.forbidden_words(2, ["11"]), 12)
        assert rep.spectral_value == pytest.approx(GOLDEN_ENTROPY, abs=1e-9)
        # ratio of consecutive Fibonacci counts converges to the same value
        table = sym.count_words(sym.forbidden_words(2, ["11"]), 40)
        ratio = math.log(table[40] / table[39])
        assert abs(ratio - rep.spectral_value) < 1e-12

    def test_tuples_log_r(self):
        spec = sym.allowed_tuples(3, 2, [(0, 0), (1, 1), (2, 0)])
        assert sym.entropy(spec).spectral_value == pytest.approx(math.log(3), abs=1e-12)

    def test_fekete_brackets_dominate_spectral(self):
        rng = random.Random(7)
        for _ in range(10):
            k = rng.randint(2, 4)
            matrix = [[rng.randint(0, 1) for _ in range(k)] for _ in range(k)]
            try:
                rep = sym.entropy(sym.sft_from_matrix(matrix), 10)
            except EmptySubshift:
                continue
            for u in rep.upper_bounds:
                assert rep.spectral_value <= u + 1e-9
            assert all(a >= b - 1e-15 for a, b in zip(rep.upper_bounds, rep.upper_bounds[1:]))

    @settings(max_examples=60, deadline=None)
    @given(random_automata(), st.integers(1, 14))
    def test_report_keeps_the_word_counts(self, case, n_max):
        succ, root, k = case
        try:
            spec = sym.automaton_spec(sym.Automaton(k, root, tuple(succ)), k)
            rep = sym.entropy(spec, n_max)
        except EmptySubshift:
            return
        assert rep.counts == sym.count_words(spec, n_max)
        assert rep.upper_bounds == sym.fekete_bounds(rep.counts.values())

    def test_reducible_defective_matrix(self):
        # counts grow like n + 1: entropy 0, a hard case for plain power iteration
        rep = sym.entropy(sym.sft_from_matrix([[1, 1], [0, 1]]), 10)
        assert rep.spectral_value == pytest.approx(0.0, abs=1e-10)
        table = sym.count_words(sym.sft_from_matrix([[1, 1], [0, 1]]), 12)
        assert all(table[n] == n + 1 for n in range(1, 13))


def running_min_bounds(values):
    """The loop symbolic.entropy and weighted.weighted_entropy each ran
    before they shared fekete_bounds."""
    bounds, best = [], math.inf
    for n, v in enumerate(values, 1):
        best = min(best, math.log(v) / n)
        bounds.append(best)
    return tuple(bounds)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 10**400)
                | st.floats(min_value=5e-324, max_value=1.7e308, allow_nan=False), max_size=30))
@example([1, 1, 2**64 + 1, 10**400, 3])
@example([1.0, 2.0**-1074, 1.7e308, 0.5, 1])
def test_fekete_bounds_equal_the_running_min_loop(values):
    got = sym.fekete_bounds(values)
    assert [x.hex() for x in got] == [x.hex() for x in running_min_bounds(values)]


def spectral_log_in_child(k):
    """(seconds, lo, hi) of `cycle_chord_automaton(k).spectral_log()`, timed
    in a child with one BLAS thread, as perfbench/probe.py times it: threaded
    LAPACK on a loaded two-core host is several times slower."""
    child = (
        "import json, time\n"
        "from test_symbolic import cycle_chord_automaton\n"
        f"aut = cycle_chord_automaton({k})\n"
        "t0 = time.perf_counter()\n"
        "bracket = aut.spectral_log()\n"
        "print(json.dumps([time.perf_counter() - t0, *bracket]))\n"
    )
    src = str(Path(sym.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, str(Path(__file__).parent)])
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout)


class TestSpectralBracket:
    @pytest.mark.parametrize("k", [45, 175, 400, 800, 2000])
    def test_cycle_chord_bracket_holds_the_closed_form(self, k):
        lo, hi = cycle_chord_automaton(k).spectral_log()
        assert_holds((lo, hi), cycle_chord_log_radius(k, k - k // 2))
        assert hi - lo <= sym.SPECTRAL_LOG_TOL

    def test_800_state_cycle_chord_under_a_second(self):
        seconds, lo, hi = spectral_log_in_child(800)
        assert seconds < 1.0
        assert_holds((lo, hi), cycle_chord_log_radius(800, 400))
        assert hi - lo <= sym.SPECTRAL_LOG_TOL

    def test_2000_state_cycle_chord_under_a_quarter_second(self):
        # one branching state: each Noda step solves a 1 x 1 system
        seconds, lo, hi = spectral_log_in_child(2000)
        assert seconds < 0.25
        assert_holds((lo, hi), cycle_chord_log_radius(2000, 1000))
        assert hi - lo <= sym.SPECTRAL_LOG_TOL

    def test_pure_cycle_with_a_doubled_edge(self):
        # every state has one successor; the edge 0 -> 1 carries two labels: radius 2^(1/3)
        aut = sym.Automaton(alphabet_size=2, root=0, succ=({0: 1, 1: 1}, {0: 2}, {0: 0}))
        lo, hi = aut.spectral_log()
        with mpmath.workdps(50):
            third = mpmath.log(2) / 3
        assert_holds((lo, hi), (third, third))
        assert hi - lo <= sym.SPECTRAL_LOG_TOL

    def test_pure_cycle_is_exactly_zero(self):
        matrix = [[int(t == (s + 1) % 7) for t in range(7)] for s in range(7)]
        rep = sym.entropy(sym.sft_from_matrix(matrix), 4)
        assert rep.spectral_value == 0.0
        lo, hi = rep.spectral_bracket
        assert lo <= 0.0 <= hi

    def test_period_two_component(self):
        # complete bipartite K_{2,3} in both directions: radius sqrt(6)
        matrix = [[int((s < 2) != (t < 2)) for t in range(5)] for s in range(5)]
        lo, hi = sym.prune(sym.sft_from_matrix(matrix)).automaton.spectral_log()
        assert lo <= 0.5 * math.log(6) <= hi
        assert hi - lo <= sym.SPECTRAL_LOG_TOL

    @pytest.mark.parametrize("big_first", [False, True])
    def test_reducible_graph_takes_the_largest_component(self, big_first):
        # a golden-mean pair and a full 3-shift triple, one edge between them
        golden, full = [0, 1], [2, 3, 4]
        matrix = [[0] * 5 for _ in range(5)]
        for s in full:
            for t in full:
                matrix[s][t] = 1
        matrix[0][0] = matrix[0][1] = matrix[1][0] = 1
        source, target = (full[0], golden[0]) if big_first else (golden[0], full[0])
        matrix[source][target] = 1
        lo, hi = sym.prune(sym.sft_from_matrix(matrix)).automaton.spectral_log()
        assert lo <= math.log(3) <= hi
        assert hi - lo <= sym.SPECTRAL_LOG_TOL

    def test_one_state_with_two_loops_is_log_2(self):
        aut = sym.Automaton(alphabet_size=2, root=0, succ=({0: 0, 1: 0},))
        lo, hi = aut.spectral_log()
        assert 0.5 * (lo + hi) == math.log(2)
        assert lo < math.log(2) < hi

    def test_acyclic_graph_is_empty(self):
        aut = sym.Automaton(alphabet_size=2, root=0, succ=({0: 1, 1: 2}, {0: 2}, {}))
        with pytest.raises(EmptySubshift):
            aut.spectral_log()

    def test_too_wide_bracket_raises(self, monkeypatch):
        monkeypatch.setattr(sym, "SPECTRAL_LOG_TOL", 0.0)
        with pytest.raises(ResourceLimit, match=r"width .* tolerance 0"):
            sym.entropy(sym.forbidden_words(2, ["11"]), 4)

    def test_bracket_is_computed_once_per_automaton(self, monkeypatch):
        solved = []
        radius = sym._component_radius
        monkeypatch.setattr(
            sym, "_component_radius", lambda *args: solved.append(1) or radius(*args)
        )
        spec = sym.forbidden_words(2, ["11"])
        first = sym.entropy(spec, 4).spectral_bracket
        assert solved and sym.entropy(spec, 8).spectral_bracket == first
        assert len(solved) == 1

    def test_refusal_is_raised_again(self, monkeypatch):
        aut = sym.prune(sym.forbidden_words(2, ["11"])).automaton
        monkeypatch.setattr(sym, "SPECTRAL_LOG_TOL", 0.0)
        for _ in range(2):
            with pytest.raises(ResourceLimit, match=r"width .* tolerance 0"):
                aut.spectral_log()
        monkeypatch.undo()
        lo, hi = aut.spectral_log()
        assert lo <= GOLDEN_ENTROPY <= hi

    def test_component_over_the_dense_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sym, "_DENSE_COMPONENT_CAP", 1)
        with pytest.raises(ResourceLimit, match="2-state component"):
            sym.entropy(sym.forbidden_words(2, ["11"]), 4)

    def test_report_carries_the_bracket(self):
        rep = sym.entropy(sym.forbidden_words(2, ["11"]), 4)
        lo, hi = rep.spectral_bracket
        assert lo <= GOLDEN_ENTROPY <= hi
        assert rep.spectral_value == 0.5 * (lo + hi)


def perron_radius(matrix):
    """Spectral radius of a 0/1 matrix as the largest radius of its irreducible
    diagonal blocks.  Each block's Perron root is a simple eigenvalue, so
    `eigvals` resolves it to rounding; on the whole matrix two blocks with the
    same radius, one feeding the other, make a Jordan block, whose computed
    eigenvalues are off by about the square root of the rounding."""
    a = np.array(matrix, dtype=float)
    reach = np.eye(len(a), dtype=bool) | (a > 0)
    for _ in range(len(a).bit_length()):  # squaring: paths of up to 2^i steps
        reach = (reach.astype(float) @ reach.astype(float)) > 0
    return max(
        max(abs(np.linalg.eigvals(a[np.ix_(block, block)])))
        for block in (np.flatnonzero(row & col) for row, col in zip(reach, reach.T))
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(0, 1), min_size=k, max_size=k),
            min_size=k,
            max_size=k,
        )
    )
)
def test_bracket_holds_the_eigenvalue_radius(matrix):
    try:
        aut = sym.prune(sym.sft_from_matrix(matrix)).automaton
    except EmptySubshift:
        return
    lo, hi = aut.spectral_log()
    radius = math.log(perron_radius(matrix))
    assert lo - 1e-12 <= radius <= hi + 1e-12
    assert hi - lo <= sym.SPECTRAL_LOG_TOL


def reference_component_radius(succ, comp):
    """`symbolic._component_radius` before one-successor states left the
    solve: every Noda step solves the dense n x n system."""
    n = len(comp)
    if n == 1:
        s = comp[0]
        loops = float(sum(t == s for t in succ[s].values()))
        return loops, loops
    local = {s: i for i, s in enumerate(comp)}
    mat = np.zeros((n, n))
    for s in comp:
        row = mat[local[s]]
        for t in succ[s].values():
            j = local.get(t)
            if j is not None:
                row[j] += 1.0
    row_sums = mat.sum(axis=1)
    lo, hi = float(row_sums.min()), float(row_sums.max())
    slack = (n + 2) * 2.0**-53
    shifted = -mat
    diag = mat.diagonal().copy()
    x = np.ones(n)
    solves = 0
    while hi - lo > 4 * slack * hi and solves < sym._NODA_MAX_SOLVES:
        shifted.flat[:: n + 1] = hi * (1.0 + 8 * 2.0**-53) - diag
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
    if math.log(hi) - math.log(lo) > sym.SPECTRAL_LOG_TOL:
        raise ResourceLimit("too wide")
    return lo, hi


@st.composite
def branching_automata(draw):
    """A strongly connected automaton (a cycle through every state, plus more
    edges and parallel labels) where every state has at least two distinct
    successors."""
    n = draw(st.integers(2, 14))
    succ = []
    for s in range(n):
        targets = [(s + 1) % n] + draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
        if len(set(targets)) < 2:
            targets.append(s)
        succ.append(dict(enumerate(targets)))
    return sym.Automaton(alphabet_size=max(map(len, succ)), root=0, succ=tuple(succ))


@settings(max_examples=150, deadline=None)
@given(branching_automata())
def test_chain_free_component_keeps_the_dense_bracket_bit_for_bit(aut):
    (comp,) = sym._strongly_connected(aut.succ, aut.root)
    try:
        want = [x.hex() for x in reference_component_radius(aut.succ, comp)]
    except ResourceLimit:
        with pytest.raises(ResourceLimit):
            sym._component_radius(aut.succ, comp)
        return
    assert [x.hex() for x in sym._component_radius(aut.succ, comp)] == want


@st.composite
def chain_heavy_automata(draw):
    """A random strongly connected base graph whose every edge is subdivided
    into 0-30 chain states.  A chain state may carry two labels to its
    successor, and a chain may end by merging into an earlier chain, which
    makes in-trees of chain states."""
    n0 = draw(st.integers(1, 4))
    edges = [(s, (s + 1) % n0) for s in range(n0)]
    edges += draw(st.lists(st.tuples(st.integers(0, n0 - 1), st.integers(0, n0 - 1)), max_size=5))
    succ = [{} for _ in range(n0)]
    for s, t in edges:
        path = [len(succ) + i for i in range(draw(st.integers(0, 30)))]
        if path and len(succ) > n0 and draw(st.booleans()):
            t = draw(st.integers(n0, len(succ) - 1))  # merge into an earlier chain
        succ[s][len(succ[s])] = path[0] if path else t
        for c, nxt in zip(path, path[1:] + [t]):
            succ.append({label: nxt for label in range(draw(st.integers(1, 2)))})
    return sym.Automaton(alphabet_size=max(map(len, succ)), root=0, succ=tuple(succ))


def reachable_count_matrix(aut):
    """Label counts between the states reachable from the root."""
    seen, order = {aut.root}, [aut.root]
    for s in order:
        for t in aut.succ[s].values():
            if t not in seen:
                seen.add(t)
                order.append(t)
    place = {s: i for i, s in enumerate(order)}
    matrix = [[0] * len(order) for _ in order]
    for s in order:
        for t in aut.succ[s].values():
            matrix[place[s]][place[t]] += 1
    return matrix


@settings(max_examples=40, deadline=None)
@given(chain_heavy_automata())
def test_chain_heavy_bracket_holds_the_eigenvalue_radius(aut):
    lo, hi = aut.spectral_log()
    radius = math.log(perron_radius(reachable_count_matrix(aut)))
    assert lo - 1e-12 <= radius <= hi + 1e-12
    assert hi - lo <= sym.SPECTRAL_LOG_TOL


ZERO_ENTRIES = (0, False, 0.0, np.int64(0), np.uint8(0), np.bool_(False))
ONE_ENTRIES = (1, True, 1.0, np.int64(1), np.uint8(1), np.bool_(True))


@st.composite
def mixed_entry_matrices(draw):
    """(int matrix, the same matrix with each entry spelled as a bool, float,
    numpy int or int, given as lists or as a numpy array)."""
    k = draw(st.integers(1, 7))
    ints = draw(st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                         min_size=k, max_size=k))
    spelled = [[draw(st.sampled_from(ONE_ENTRIES if x else ZERO_ENTRIES)) for x in row]
               for row in ints]
    return ints, np.array(spelled) if draw(st.booleans()) else spelled


@settings(max_examples=150, deadline=None)
@given(mixed_entry_matrices())
def test_successor_rows_match_the_int_matrix(case):
    ints, spelled = case
    spec = sym.sft_from_matrix(spelled)
    assert spec.successors == tuple(tuple(j for j, x in enumerate(row) if x == 1) for row in ints)
    assert all(type(t) is int for row in spec.successors for t in row)
    # the dense graph the matrix compiled to before successor rows: the same automaton
    k = len(ints)
    dense = [{s: s + 1 for s in range(k)}]
    dense += [{t: t + 1 for t in range(k) if row[t]} for row in ints]
    try:
        want = sym._prune_graph(dense, 0)
    except EmptySubshift:
        with pytest.raises(EmptySubshift):
            spec.automaton
        return
    aut = spec.automaton
    assert (aut.succ, aut.root) == want
    assert [list(d.items()) for d in aut.succ] == [list(d.items()) for d in want[0]]
    assert sym.count_words(spec, 5) == {n: len(naive_sft_words(ints, n)) for n in range(1, 6)}
    try:
        bracket = sym.prune(sym.sft_from_matrix(ints)).automaton.spectral_log()
    except EmptySubshift:
        with pytest.raises(EmptySubshift):
            aut.spectral_log()
        return
    assert aut.spectral_log() == bracket
    assert bracket[0] - 1e-12 <= math.log(perron_radius(ints)) <= bracket[1] + 1e-12


def test_cycle_chord_spec_holds_its_successor_rows_only():
    # k = 800: the dense k x k copy held 4.9 MiB for the life of the spec
    k = 800
    matrix = cycle_chord_matrix(k)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spec = sym.sft_from_matrix(matrix)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 0.5 * 2**20
    assert sum(map(len, spec.successors)) == k + 1


class TestJson:
    def test_round_trip_all_kinds(self):
        # one literal document per input kind against the spec its
        # constructor builds
        cases = [
            ({"alphabet": 4, "kind": "full"}, "full", sym.full_shift(4)),
            ({"alphabet": 2, "kind": "sft", "matrix": [[1, 1], [1, 0]]},
             "sft", sym.sft_from_matrix([[1, 1], [1, 0]])),
            ({"alphabet": 2, "kind": "forbidden", "forbidden": ["11", [0, 0, 0]]},
             "forbidden", sym.forbidden_words(2, ["11", "000"])),
            ({"alphabet": 6, "kind": "tuples", "tuples": {"a": 3, "b": 2, "R": [[0, 0], [1, 1], [2, 0]]}},
             "tuples", sym.allowed_tuples(3, 2, [(0, 0), (1, 1), (2, 0)])),
            ({"alphabet": 2, "kind": "automaton",
              "automaton": {"root": 0, "transitions": [[0, 0, 0], [0, 1, 1], [1, 0, 0]]}},
             "automaton", sym.automaton_spec(sym.Automaton(2, 0, ({0: 0, 1: 1}, {0: 0})), 2)),
        ]
        for doc, kind, spec in cases:
            back = sym.spec_from_json(json.dumps(doc))
            assert back.kind == kind
            assert sym.count_words(back, 6) == sym.count_words(spec, 6)

    def test_counts_serialized_as_exact_integers(self):
        table = sym.count_words(sym.full_shift(10), 30)
        assert table[30] == 10**30  # exact big integer, no float rounding

    def test_bool_and_float_matrix_entries_read_as_ints(self):
        spec = sym.sft_from_matrix([[True, 1.0], [1, False]])
        assert spec.successors == ((0, 1), (0,))
        assert all(type(t) is int for row in spec.successors for t in row)

    @pytest.mark.parametrize("doc, sizes", [
        ({"alphabet": 5, "kind": "sft", "matrix": [[1, 1], [1, 0]]}, "alphabet 5 .* 2 symbols"),
        ({"alphabet": 1, "kind": "sft", "matrix": [[1, 1], [1, 0]]}, "alphabet 1 .* 2 symbols"),
        ({"alphabet": 7, "kind": "tuples", "tuples": {"a": 3, "b": 2, "R": [[0, 0], [1, 1]]}},
         "alphabet 7 .* 6 symbols"),
        ({"alphabet": 1, "kind": "tuples", "tuples": {"a": 3, "b": 50_000_000, "R": [[0, 0]]}},
         "alphabet 1 .* 150000000 symbols"),
    ])
    def test_alphabet_that_disagrees_with_the_body_is_refused(self, doc, sizes):
        # each compiled as the body's alphabet, ignoring the document's
        with pytest.raises(DomainError, match=sizes):
            sym.spec_from_json(doc)

    def test_non_square_matrix_is_refused(self):
        for matrix in ([[1, 1], [1]], [[1, 1, 0], [1, 0, 1]], [[1], [1]]):
            with pytest.raises(DomainError, match="^sft kind needs a square 0/1 matrix$"):
                sym.sft_from_matrix(matrix)

    @pytest.mark.parametrize("successors", [None, ((0,),), ((0, 2), (1,)), ((-1,), (0,))])
    def test_successor_rows_are_checked_against_the_alphabet(self, successors):
        with pytest.raises(DomainError, match="sft kind needs 2 successor rows of symbols in 0..1"):
            sym.SubshiftSpec(alphabet=2, kind=sym.KIND_SFT, successors=successors)

    @pytest.mark.parametrize(
        "matrix", [[[1, [1]], [1, 1]], [[1, {}], [0, 1]], [[1, 2], [1, 1]], [[1, "1"], [0, 1]]]
    )
    def test_matrix_entries_other_than_0_or_1_are_refused(self, matrix):
        # an unhashable entry is refused as one, not raised as a TypeError
        with pytest.raises(DomainError, match="^sft matrix entries must be 0 or 1$"):
            sym.sft_from_matrix(matrix)

    def test_bad_kind_rejected(self):
        with pytest.raises(DomainError):
            sym.spec_from_json({"alphabet": 2, "kind": "nonsense"})

    def test_automaton_kind_needs_a_graph(self):
        with pytest.raises(DomainError, match="automaton kind needs a transition graph"):
            sym.SubshiftSpec(alphabet=2, kind=sym.KIND_AUTOMATON)
