"""Weighted entropy and projection images against full product-word oracles."""

import gc
import itertools
import math
import random
import weakref
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from meandim import symbolic as sym
from meandim import weighted as wt
from meandim.errors import (
    DomainError,
    EmptySubshift,
    ParameterOverflow,
    ResourceLimit,
)
from meandim import limits
from test_symbolic import product_specs, reference_block_automaton

# the Z_n > Z_i * Z_j warnings of the non-factorial automata that
# pair_systems() draws stay visible; raised in any other module they fail
pytestmark = pytest.mark.filterwarnings("default:Z_:UserWarning")

R_EXAMPLE = [(0, 0), (1, 1), (2, 0)]
W_EXAMPLE = math.log(2) / math.log(3)


def naive_product_words(omega_spec, b, n):
    """Admissible n-words of a product-alphabet subshift as (u, v) tuples,
    enumerated from scratch (independent of the package's automaton)."""
    words = sym.enumerate_words(omega_spec, n)
    return [(tuple(l // b for l in w), tuple(l % b for l in w)) for w in words]


def naive_fibers(omega_spec, b, n):
    fibers = {}
    for u, v in naive_product_words(omega_spec, b, n):
        fibers[v] = fibers.get(v, 0) + 1
    return fibers


def reference_fiber_counts(sys_, n_max):
    """Fiber counts by a DFS over projected words, one dict of per-state path
    counts per word and letters in ascending order: {n: {v_word: count}}."""
    cap = limits.cap("word")
    aut = sys_.omega.automaton
    b = sys_.b_size
    levels = {}
    frontier = [((), {aut.root: 1})]
    total = 0
    for n in range(1, n_max + 1):
        nxt_frontier = []
        level = {}
        for word, vec in frontier:
            by_letter = {}
            for state, c in vec.items():
                for label, target in aut.succ[state].items():
                    slot = by_letter.setdefault(label % b, {})
                    slot[target] = slot.get(target, 0) + c
            for v, nvec in sorted(by_letter.items()):
                level[word + (v,)] = sum(nvec.values())
                nxt_frontier.append((word + (v,), nvec))
        total += len(level)
        if total > cap:
            raise ResourceLimit(f"fiber table exceeds budget {cap}")
        levels[n] = level
        frontier = nxt_frontier
    return levels


@st.composite
def pair_systems(draw):
    """Non-product pair systems with b in {1, 2, 3}: 0/1 matrices,
    forbidden-word lists and automata with dead ends."""
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    k = a * b
    symbol = st.integers(0, k - 1)
    kind = draw(st.sampled_from(["sft", "forbidden", "automaton"]))
    if kind == "sft":
        row = st.lists(st.integers(0, 1), min_size=k, max_size=k)
        spec = sym.sft_from_matrix(draw(st.lists(row, min_size=k, max_size=k)))
    elif kind == "forbidden":
        words = draw(st.lists(st.lists(symbol, min_size=2, max_size=3), min_size=1, max_size=4))
        spec = sym.forbidden_words(k, words)
    else:
        n = draw(st.integers(1, 5))
        trans = st.dictionaries(symbol, st.integers(0, n - 1), max_size=k)
        succ = tuple(draw(st.lists(trans, min_size=n, max_size=n)))
        spec = sym.automaton_spec(sym.Automaton(alphabet_size=k, root=0, succ=succ), k)
    try:
        sym.prune(spec)
    except EmptySubshift:
        assume(False)
    return wt.pair_system(a, b, spec)


# jobs.random_pair_matrix(random.Random(0)) of the benchmark package
PROBE_MATRIX = [
    [0, 0, 1, 1, 1, 1],
    [1, 0, 1, 1, 1, 1],
    [0, 0, 1, 1, 0, 1],
    [1, 1, 1, 1, 0, 1],
    [1, 1, 0, 1, 1, 0],
    [0, 1, 1, 0, 1, 1],
]


class TestFiberSweep:
    @settings(max_examples=150, deadline=None)
    @given(pair_systems(), st.integers(1, 7), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    def test_sweep_matches_reference_dfs(self, sys_, n_max, w):
        want = reference_fiber_counts(sys_, n_max)
        got = wt.fiber_counts(sys_, n_max)
        assert list(got.levels) == list(want)
        for n, level in want.items():
            assert list(got.level(n).items()) == list(level.items())
            assert list(got.level(n)) == list(level)
            assert list(got.level(n).values()) == list(level.values())
        z = wt.weighted_entropy(sys_, w, n_max).z_values
        for n, level in want.items():
            assert z[n] == math.fsum(float(c) ** w for c in level.values())
        z = wt.weighted_entropy(sys_, 1.0, n_max).z_values
        assert all(z[n] == float(got.total(n)) for n in want)
        small = sum(len(want[n]) for n in range(1, n_max + 1)) - 1
        with limits.override(small):
            with pytest.raises(ResourceLimit):
                reference_fiber_counts(sys_, n_max)
            with pytest.raises(ResourceLimit):
                wt.fiber_counts(sys_, n_max)

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_words_spread_over_many_subsets_match_reference(self, seed):
        # 8 states, each product label kept with probability 0.6: three labels
        # project onto each letter, so a level's words reach 10 to 19
        # different state subsets, each swept as its own block
        rng = random.Random(seed)
        succ = tuple(
            {lab: rng.randrange(8) for lab in range(6) if rng.random() < 0.6}
            for _ in range(8)
        )
        omega = sym.automaton_spec(sym.Automaton(alphabet_size=6, root=0, succ=succ), 6)
        sys_ = wt.pair_system(3, 2, omega)
        aut = omega.automaton
        frontier = [{aut.root: 1}]
        for _ in range(7):
            frontier = [
                {t: 1 for s in vec for lab, t in aut.succ[s].items() if lab % 2 == v}
                for vec in frontier
                for v in range(2)
            ]
        assert len({tuple(sorted(vec)) for vec in frontier if vec}) >= 10
        want = reference_fiber_counts(sys_, 9)
        got = wt.fiber_counts(sys_, 9)
        for n, level in reversed(want.items()):  # the longest first orders all levels below
            assert list(got.level(n).values()) == list(level.values())
            assert list(got.level(n).items()) == list(level.items())
            assert list(got.level(n)) == list(level)

    def test_counts_past_int64_stay_exact(self):
        # one projected letter, so the single fiber is the whole word count
        matrix = [[1] * 8 for _ in range(8)]
        matrix[0][1] = 0
        sys_ = wt.pair_system(8, 1, sym.sft_from_matrix(matrix))
        exact = sym.count_words(sys_.omega, 22)
        assert exact[22] > 2**63
        table = wt.fiber_counts(sys_, 22)
        assert all(type(table.total(n)) is int for n in range(1, 23))
        assert [table.total(n) for n in range(1, 23)] == [exact[n] for n in range(1, 23)]
        assert table.levels == reference_fiber_counts(sys_, 22)
        assert table.level(22) == {(0,) * 22: exact[22]}
        z = wt.weighted_entropy(sys_, 1.0, 22).z_values
        assert all(z[n] == float(exact[n]) for n in range(1, 23))

    def test_z_at_w1_is_the_exact_total_rounded_once(self):
        # the first letter fixes the image word: 0^N with fiber 3^N, 1^N
        # with fiber 5^N; past 2^53 rounding each fiber size first can land
        # one ulp off the exact total (first at N = 25)
        mode = [{u * 2: 1 for u in range(3)}, {u * 2 + 1: 2 for u in range(5)}]
        succ = ({**mode[0], **mode[1]}, *mode)
        omega = sym.automaton_spec(sym.Automaton(alphabet_size=10, root=0, succ=succ), 10)
        sys_ = wt.pair_system(5, 2, omega)
        z = wt.weighted_entropy(sys_, 1.0, 63).z_values
        assert all(z[n] == float(3**n + 5**n) for n in range(1, 64))
        assert z[25] != math.fsum([float(3**25), float(5**25)])

    @pytest.mark.parametrize("n_max", [10, 11])
    def test_counts_read_as_python_ints_on_either_dtype(self, n_max):
        # 64 symbols: (max out-degree)^N passes 2^63 at N = 11, so that sweep
        # keeps object counts, and its last totals pass 2^63 too
        rng = random.Random(5)
        matrix = [[int(rng.random() < 0.9) for _ in range(64)] for _ in range(64)]
        sys_ = wt.pair_system(32, 2, sym.sft_from_matrix(matrix))
        degree = max(map(len, sys_.omega.automaton.succ))
        assert degree**10 < 2**63 <= degree**11
        exact = sym.count_words(sys_.omega, n_max)
        table = wt.fiber_counts(sys_, n_max)
        for n in range(1, n_max + 1):
            level = table.level(n)
            assert all(type(c) is int for c in level.values())
            assert all(type(c) is int for _, c in level.items())
            assert type(table.total(n)) is int
            assert table.total(n) == sum(level.values()) == exact[n]
        assert (exact[n_max] >= 2**63) == (n_max == 11)

    @settings(max_examples=100, deadline=None)
    @given(pair_systems(), st.integers(1, 8), st.floats(0.0, 1.0, exclude_max=True))
    def test_z_values_equal_a_list_pow_reference_bit_for_bit(self, sys_, n_max, w):
        # w = 1 rounds each length's exact word count once; w < 1 takes the
        # histograms of the swept counts
        levels = reference_fiber_counts(sys_, n_max).values()
        for weight in (1.0, w):
            z = wt.weighted_entropy(sys_, weight, n_max).z_values
            want = [math.fsum(list(map(math.pow, map(float, level.values()),
                                       [weight] * len(level)))) for level in levels]
            assert [v.hex() for v in z.values()] == [v.hex() for v in want]

    def test_overflow_names_the_length(self):
        # one projected letter over a full 2-shift: the fiber at N is 2^N
        sys_ = wt.pair_system(2, 1, sym.sft_from_matrix([[1, 1], [1, 1]]))
        assert wt.weighted_entropy(sys_, 1.0, 1023).z_values[1023] == 2.0**1023
        with pytest.raises(ParameterOverflow, match=r"Z_1024 "):
            wt.weighted_entropy(sys_, 1.0, 1030)

    def test_sweep_budget_names_size_and_cap(self):
        # the root of the pruned probe SFT has 6 out-edges to 6 symbol states;
        # the larger budgets pin the numbers of the sort-based sweep that the
        # subset sweep replaced
        sys_ = wt.pair_system(3, 2, sym.sft_from_matrix(PROBE_MATRIX))
        for budget, length, entries in ((5, 1, 6), (50, 5, 96), (500, 8, 768)):
            message = (
                rf"^word budget: fiber frontier at length {length}: {entries} "
                rf"\(word, state\) entries exceed the cap {budget}$"
            )
            with pytest.raises(ResourceLimit, match=message), limits.override(budget):
                wt.fiber_counts(sys_, 10)
            with pytest.raises(ResourceLimit, match=message), limits.override(budget):
                wt.weighted_entropy(sys_, 0.5, 10)
        with limits.override(6):
            assert wt.fiber_counts(sys_, 1).level(1) == {(0,): 3, (1,): 3}

    def test_many_states_with_sparse_rows_stay_within_a_small_budget(self):
        # 6^5 block states, 4 or 5 out-edges each: a words x states frontier
        # would hold 2 x 7776 entries at length 1, the sparse one holds 5
        k, blocks = 6, 6**5
        succ = tuple(
            {lab: (q * k + lab) % blocks for lab in range(k) if (q + lab) % 5}
            for q in range(blocks)
        )
        omega = sym.automaton_spec(sym.Automaton(alphabet_size=k, root=0, succ=succ), k)
        assert omega.automaton.n_states == blocks
        sys_ = wt.pair_system(3, 2, omega)
        with limits.override(15_000):
            assert wt.fiber_counts(sys_, 6).levels == reference_fiber_counts(sys_, 6)

    def test_ninety_state_forbidden_system_runs_at_n12(self):
        # 531,441 projected words at N = 12, about 9 of 90 states per word;
        # the block automaton gives the 90 states (Aho-Corasick gives 6)
        words = [[1, 7], [1, 7, 6], [2, 5, 5], [5, 8, 0]]
        omega = sym.automaton_spec(reference_block_automaton(9, words), 9)
        sys_ = wt.pair_system(3, 3, omega)
        assert omega.automaton.n_states == 90
        z = wt.weighted_entropy(sys_, 1.0, 12).z_values
        words = sym.count_words(omega, 12)
        assert all(z[n] == float(words[n]) for n in range(1, 13))

    def test_probe_z_values_are_pinned(self):
        sys_ = wt.pair_system(3, 2, sym.sft_from_matrix(PROBE_MATRIX))
        rep = wt.weighted_entropy(sys_, math.log(2) / math.log(3), 14)
        assert rep.z_values == {
            1: 4.0,
            2: 12.684671474042478,
            3: 39.881286598242326,
            4: 125.40956647130241,
            5: 393.8804157726447,
            6: 1236.9811587925249,
            7: 3884.558632608918,
            8: 12198.810648977742,
            9: 38308.30412140241,
            10: 120300.7275344601,
            11: 377784.02342048753,
            12: 1186366.6244126894,
            13: 3725583.093159913,
            14: 11699561.589209871,
        }


def probe_system():
    return wt.pair_system(3, 2, sym.sft_from_matrix(PROBE_MATRIX))


class TestQueryMemos:
    def test_one_sweep_serves_fibers_and_both_weights(self, monkeypatch):
        sweeps = []
        levels = wt._fiber_levels
        monkeypatch.setattr(wt, "_fiber_levels", lambda *args: sweeps.append(1) or levels(*args))
        sys_ = probe_system()
        wt.fiber_counts(sys_, 10)
        z = [wt.weighted_entropy(sys_, w, 10).z_values for w in (0.5, W_EXAMPLE)]
        assert len(sweeps) == 1
        fresh = [wt.weighted_entropy(probe_system(), w, 10).z_values for w in (0.5, W_EXAMPLE)]
        assert len(sweeps) == 3
        assert z == fresh  # positive finite doubles: equal means the same bits

    def test_other_length_or_budget_sweeps_again(self, monkeypatch):
        monkeypatch.delenv("MEANDIM_BUDGET", raising=False)
        sys_ = probe_system()
        wt.fiber_counts(sys_, 10)
        message = (
            r"^word budget: fiber frontier at length 8: 768 \(word, state\) entries "
            r"exceed the cap 500$"
        )
        with pytest.raises(ResourceLimit, match=message), limits.override(500):
            wt.weighted_entropy(sys_, W_EXAMPLE, 10)
        sweeps = []
        levels = wt._fiber_levels
        monkeypatch.setattr(wt, "_fiber_levels", lambda *args: sweeps.append(args) or levels(*args))
        z = wt.weighted_entropy(sys_, W_EXAMPLE, 9).z_values
        with limits.override(10**7):  # the same length under another word cap
            wt.weighted_entropy(sys_, W_EXAMPLE, 9)
        assert [args[1:] for args in sweeps] == [(9,), (9,)]
        assert z == wt.weighted_entropy(probe_system(), W_EXAMPLE, 9).z_values

    def test_only_the_last_swept_system_is_kept(self):
        first = probe_system()
        wt.fiber_counts(first, 6)
        ref = weakref.ref(first)
        del first
        gc.collect()
        assert ref() is not None  # the memo holds the last sweep's system
        wt.weighted_entropy(probe_system(), W_EXAMPLE, 6)
        gc.collect()
        assert ref() is None

    def test_z_at_w1_is_counted_not_swept(self, monkeypatch):
        # Z_N = |Omega_N| comes from the path counter: no fiber sweep runs
        monkeypatch.setattr(wt, "_fiber_levels", mock.Mock(side_effect=AssertionError))
        sys_ = probe_system()
        z = wt.weighted_entropy(sys_, 1.0, 12).z_values
        assert z == {n: float(c) for n, c in sym.count_words(sys_.omega, 12).items()}

    def test_each_spec_is_pruned_once(self, monkeypatch):
        compiled = []
        prune_graph = sym._prune_graph
        monkeypatch.setattr(sym, "_prune_graph",
                            lambda *args: compiled.append(args) or prune_graph(*args))
        sys_ = probe_system()
        omega = sys_.omega
        assert compiled == []  # building a spec compiles nothing
        report = sym.entropy(omega, 6)
        counts = sym.count_words(omega, 9)
        image = wt.image_subshift(sys_)
        wt.fiber_counts(sys_, 6)
        assert "automaton" not in vars(image)  # compiled on its first read
        assert sym.prune(omega) is omega and omega.automaton is omega.automaton
        assert image.automaton is image.automaton
        assert len(compiled) == 1  # omega, once
        fresh = probe_system()
        assert sym.entropy(fresh.omega, 6) == report
        assert sym.count_words(fresh.omega, 9) == counts
        assert wt.image_subshift(fresh).automaton == image.automaton

    def test_each_system_determinizes_its_image_once(self, monkeypatch):
        sys_ = probe_system()
        image = wt.image_subshift(sys_)
        monkeypatch.setattr(wt, "_subset_moves", mock.Mock(side_effect=AssertionError))
        assert wt.image_subshift(sys_) is image


class TestFiberLevel:
    @settings(max_examples=150, deadline=None)
    @given(pair_systems(), st.integers(1, 6), st.data())
    def test_level_is_the_reference_mapping(self, sys_, n_max, data):
        want = reference_fiber_counts(sys_, n_max)
        table = wt.fiber_counts(sys_, n_max)
        n = data.draw(st.integers(1, n_max))  # decode one level before the others
        level, ref = table.level(n), want[n]
        assert len(level) == len(ref)
        assert level == ref and ref == level
        assert not (level != ref or ref != level)
        assert table.levels == want and want == table.levels
        assert list(level) == sorted(level)  # lexicographic, as the mass check reads it
        word = data.draw(st.sampled_from(list(ref)))
        assert word in level and level[word] == level.get(word) == ref[word]
        absent = (sys_.b_size,) * n  # no letter is b
        assert absent not in level and level.get(absent) is None
        for key in (absent, word + (0,), word[:-1], (), word[0], str(word)):
            with pytest.raises(KeyError):
                level[key]
        assert level.get(word[0], -1) == -1

    def test_counts_and_totals_decode_no_words(self, monkeypatch):
        want = reference_fiber_counts(probe_system(), 10)
        table = wt.fiber_counts(probe_system(), 10)
        monkeypatch.setattr(wt.FiberLevel, "_decoded", lambda self: pytest.fail("decoded"))
        for n, ref in want.items():
            assert len(table.level(n)) == len(ref)
            assert len(table.level(n).values()) == len(ref)
            assert table.total(n) == sum(ref.values())
        monkeypatch.undo()
        assert list(table.level(10).items()) == list(want[10].items())

    def test_a_level_decodes_no_other_level(self):
        # each shorter level kept a word dict of its own when one level was read
        want = reference_fiber_counts(probe_system(), 10)
        table = wt.fiber_counts(probe_system(), 10)
        assert list(table.level(10).items()) == list(want[10].items())
        assert [n for n, level in table.levels.items() if level._words is not None] == [10]
        assert table.level(4) == want[4]
        assert [n for n, level in table.levels.items() if level._words is not None] == [4, 10]

    def test_deep_tables_decode_in_a_loop(self):
        # a one-letter image: each level is one word, 3,000 levels deep
        sys_ = wt.pair_system(2, 1, sym.sft_from_matrix([[1, 0], [1, 1]]))
        table = wt.fiber_counts(sys_, 3000)
        assert table.level(3000) == {(0,) * 3000: 3001}
        assert table.level(1500) == {(0,) * 1500: 1501}


class TestFiberCounts:
    def test_example_relation_values(self):
        sys_ = wt.pair_system_from_tuples(3, 2, R_EXAMPLE)
        table = wt.fiber_counts(sys_, 3)
        assert table.level(2)[(0, 0)] == 4  # two u-choices per 0, squared
        assert table.level(1)[(1,)] == 1
        assert table.total(3) == 27

    def test_full_shift_fibers(self):
        sys_ = wt.pair_system(2, 3, sym.full_shift(6))
        table = wt.fiber_counts(sys_, 3)
        for v, count in table.level(3).items():
            assert count == 2**3

    def test_fiber_sum_matches_word_count(self):
        mat = [[1] * 4 for _ in range(4)]
        mat[3][3] = 0
        sys_ = wt.pair_system(2, 2, sym.sft_from_matrix(mat))
        total = sym.count_words(sys_.omega, 6)
        table = wt.fiber_counts(sys_, 6)
        for n in range(1, 7):
            assert table.total(n) == total[n]
            assert all(c >= 1 for c in table.level(n).values())

    def test_sft_fibers_match_naive_enumeration(self):
        rng = random.Random(3)
        built = 0
        while built < 8:
            mat = [[rng.randint(0, 1) for _ in range(4)] for _ in range(4)]
            try:
                sys_ = wt.pair_system(2, 2, sym.sft_from_matrix(mat))
                table = wt.fiber_counts(sys_, 5)
            except Exception:
                continue
            built += 1
            for n in (1, 3, 5):
                assert table.level(n) == naive_fibers(sys_.omega, 2, n)


# doubles over the whole exponent range, subnormals included
BINADE_DOUBLES = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1080, 1000))


@st.composite
def half_ulp_ties(draw):
    """A double x and 2^j copies of ulp(x) / 2^(j+1): the exact sum lies
    half-way between x and its neighbour, where rounding goes to even."""
    x = draw(st.floats(2.0**-1000, 2.0**1000))
    j = draw(st.integers(0, 13))
    return [x, math.ulp(x) / 2 ** (j + 1)], [1, 2**j]


class TestExactTotal:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(BINADE_DOUBLES, st.integers(0, 10**4)), max_size=12))
    @example([(1.0, 1), (2.0**-53, 1)])  # a tie: 1 + ulp/2 rounds to 1
    @example([(1.0 + 2.0**-52, 1), (2.0**-53, 1)])  # a tie rounding up to even
    @example([(1e308, 1), (-1e308, 1), (1e-300, 3)])
    @example([(5e-324, 10**4), (-5e-324, 3)])
    def test_equals_fsum_of_the_expanded_multiset(self, pairs):
        values, counts = [v for v, _ in pairs], [c for _, c in pairs]
        want = math.fsum(v for v, c in pairs for _ in range(c))
        assert float(wt.exact_total(values, counts)) == want
        assert float(wt.exact_total(values)) == math.fsum(values)

    @settings(max_examples=200, deadline=None)
    @given(half_ulp_ties())
    def test_half_ulp_ties_round_to_even(self, tie):
        values, counts = tie
        want = math.fsum(v for v, c in zip(values, counts) for _ in range(c))
        assert float(wt.exact_total(values, counts)) == want
        assert float(wt.exact_total(values[::-1], counts[::-1])) == want

    def test_long_runs_of_one_exponent_stay_exact(self):
        # 3 * 2^10 + 5 mantissas near 2^53 in one binade: past one int64 run
        values = np.nextafter(1.0, 2.0) + np.arange(3 * 2**10 + 5) * 2.0**-52
        assert float(wt.exact_total(values)) == math.fsum(values.tolist())

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(BINADE_DOUBLES, st.integers(0, 511)), min_size=1, max_size=30),
        st.sampled_from([1, 511, 512, 10**6, 2**70]),
    )
    def test_counts_give_the_exact_fraction(self, pairs, top):
        # the largest multiplicity is top: bit length 9 or less takes the
        # int64 path (int64 counts), 10 and more the Python-int one, as
        # object counts always do
        values = [v for v, _ in pairs]
        counts = [top] + [min(c, top) for _, c in pairs[1:]]
        want = sum((Fraction(v) * c for v, c in zip(values, counts)), Fraction(0))
        assert wt.exact_total(values, counts) == want
        assert wt.exact_total(values, np.array(counts, dtype=object)) == want

    @pytest.mark.parametrize("top", [511, 512])
    def test_huge_and_subnormal_values_with_counts(self, top):
        values = [2.0**1023 * (2 - 2.0**-52), 5e-324, -(2.0**-1022), 3 * 5e-324, -1e308, 1.0]
        counts = [top, top, 1, top - 1, top, 7]
        want = sum(Fraction(v) * c for v, c in zip(values, counts))
        assert wt.exact_total(values, counts) == want
        assert wt.exact_total(values, np.array(counts, dtype=object)) == want

    @pytest.mark.parametrize("top", [1, 2, 3, 255, 256, 511, 512])
    def test_long_runs_with_counts_stay_exact(self, top):
        # 3 * 2^10 + 5 mantissas just below 2^53 in one binade, each counted
        # top times: 2^(10 - k) of them at bit length k add up to just below
        # 2^63, so a run one term longer would overflow int64
        values = np.nextafter(2.0, 1.0) - np.arange(3 * 2**10 + 5) * 2.0**-52
        counts = np.full(len(values), top, dtype=np.int64)
        counts[::7] = 1
        want = sum(Fraction(v) * int(c) for v, c in zip(values.tolist(), counts.tolist()))
        assert wt.exact_total(values, counts) == want
        assert wt.exact_total(-values, counts) == -want

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.lists(st.tuples(BINADE_DOUBLES, st.integers(0, 511)), max_size=8),
                 min_size=1, max_size=6),
        st.sampled_from([1, 511, 512, 10**6, 2**70]),
    )
    @example([[(1.0, 1)]], 1)  # one level of one entry
    @example([[(2.0**1023 * (2 - 2.0**-52), 1)], [(5e-324, 1)], [], [(-1e308, 3)]], 512)
    @example([[(1.0, 1), (2.0**-53, 1)], [(1.0 + 2.0**-52, 1), (2.0**-53, 1)]], 1)  # ties
    def test_level_totals_equal_exact_total_per_level(self, levels, top):
        # the widest count of all levels sets the run length (int64 at 9
        # bits or less, Python ints above), so a narrow level summed with a
        # wide one takes the wide path; each level's sum stays its own
        assume(any(levels))
        levels = [([v for v, _ in level], [min(c, top) for _, c in level]) for level in levels]
        if levels[0][1]:
            levels[0][1][0] = top
        arrays = [(values, np.array(counts, dtype=np.int64 if top < 2**63 else object))
                  for values, counts in levels]
        totals, den = wt._level_totals(arrays)
        assert len(totals) == len(levels)
        for (values, counts), total in zip(arrays, totals):
            want = wt.exact_total(values, counts)
            assert Fraction(total, den) == want
            if abs(want) <= np.finfo(float).max:  # float() rounds int / int once either way
                assert total / den == float(want)

    def test_level_totals_of_long_runs_stay_exact(self):
        # 3 * 2^10 + 5 mantissas just below 2^53 in one binade, split over
        # three levels, counted 511 times: runs of 2 terms fill int64
        values = np.nextafter(2.0, 1.0) - np.arange(3 * 2**10 + 5) * 2.0**-52
        counts = np.full(len(values), 511, dtype=np.int64)
        levels = [(values[:5], counts[:5]), (values[5:2000], counts[5:2000]),
                  (values[2000:], counts[2000:])]
        totals, den = wt._level_totals(levels)
        assert [Fraction(t, den) for t in totals] == [wt.exact_total(v, c) for v, c in levels]


def reference_z_values_product(sys_, w, n_max):
    """Z_N by the full b^N array of word values, summed by math.fsum.

    With u = 2^-53, a word value is a product of N letter values rounded
    N - 1 times, so it lies within a factor (1 +- u)^(N-1) of the exact
    product; so does the exact sum of the word values against S^N, and fsum
    rounds once more.  The library rounds S^N once.  Its Z_N over this one
    therefore lies in [(1 - u) / (1 + u)^N, (1 + u) / (1 - u)^N]: relative
    (N + 1) u, up to terms in N^2 u^2.
    """
    t = list(wt.tuple_fiber_sizes(sys_).values())
    tw = np.sort(np.array(t, dtype=float) ** w)[::-1]
    z = {}
    level = tw.copy()
    for n in range(1, n_max + 1):
        z[n] = math.fsum(sorted(level.tolist(), reverse=True))
        if n < n_max:
            level = np.multiply.outer(level, tw).ravel()
    return z


def within_product_rounding(got, want, n):
    """got / want in the interval of reference_z_values_product, exactly."""
    u = Fraction(1, 2**53)
    return (1 - u) / (1 + u) ** n <= Fraction(got) / Fraction(want) <= (1 + u) / (1 - u) ** n


def column_size_relations(a):
    """Relations with a chosen size per column, up to a distinct sizes."""
    return st.lists(st.integers(0, a), min_size=2, max_size=a).map(
        lambda sizes: (a, len(sizes), {(u, v) for v, size in enumerate(sizes) for u in range(size)})
    )


class TestZValuesProduct:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 7).flatmap(lambda a: st.tuples(
            st.just(a),
            st.integers(2, a),
            st.sets(st.tuples(st.integers(0, a - 1), st.integers(0, a - 1)), min_size=1),
        ) | column_size_relations(a)),
        st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]),
        st.integers(1, 7),
    )
    @example((7, 6, {(u, v) for v in range(6) for u in range(v + 1)}), 0.0, 6)
    @example((7, 6, {(u, v) for v in range(6) for u in range(v + 1)}), 1.0, 6)
    @example((7, 6, {(u, v) for v in range(6) for u in range(v + 1)}), math.log(6) / math.log(7), 6)
    def test_power_matches_the_full_enumeration(self, system, w, n_max):
        a, b, rel = system
        rel = [(u, v % b) for u, v in rel]
        assume(rel and len({v for _, v in rel}) ** n_max <= 300_000)
        sys_ = wt.pair_system_from_tuples(a, b, rel)
        got = wt.weighted_entropy(sys_, w, n_max).z_values
        want = reference_z_values_product(sys_, w, n_max)
        assert got.keys() == want.keys()
        for n in want:
            assert within_product_rounding(got[n], want[n], n), (n, got[n], want[n])

    def test_budget_bounds_only_the_sweep(self):
        # 200 columns of sizes 1..200: 699,135 distinct word values at N = 3
        k = 200
        sys_ = wt.pair_system_from_tuples(
            k + 1, k, [(u, v) for v in range(k) for u in range(v + 1)]
        )
        w = math.log(k) / math.log(k + 1)
        s = sum(map(Fraction, (np.arange(1, k + 1, dtype=float) ** w).tolist()))
        with limits.override(1):
            rep = wt.weighted_entropy(sys_, w, 3)
        assert rep.z_values == {n: float(s**n) for n in (1, 2, 3)}

    def test_overflow_names_the_length(self):
        sys_ = wt.pair_system_from_tuples(3, 2, [(0, 0), (1, 0), (2, 0)])  # Z_N = 3^N
        assert wt.weighted_entropy(sys_, 1.0, 646).z_values[646] == float(3**646)
        with pytest.raises(ParameterOverflow, match=r"Z_647 "):
            wt.weighted_entropy(sys_, 1.0, 700)


class TestWeightedEntropy:
    def test_example_closed_form(self):
        sys_ = wt.pair_system_from_tuples(3, 2, R_EXAMPLE)
        rep = wt.weighted_entropy(sys_, W_EXAMPLE, 8)
        assert rep.closed_form == pytest.approx(math.log(1 + 2**W_EXAMPLE), abs=1e-12)
        assert rep.closed_form / math.log(2) == pytest.approx(1.3496838201, abs=1e-9)

    def test_pruned_tuples_spec_keeps_its_closed_form(self):
        omega = sym.allowed_tuples(3, 2, R_EXAMPLE)
        pruned = sym.prune(omega)
        assert pruned.kind == sym.KIND_TUPLES
        assert sym.count_words(pruned, 6) == sym.count_words(omega, 6)
        reps = [wt.weighted_entropy(wt.pair_system(3, 2, spec), 0.6309, 8)
                for spec in (omega, pruned)]
        assert reps[0] == reps[1]
        assert reps[1].closed_form == 0.9355170033117085
        assert reps[1].exact

    def test_pruned_full_shift_keeps_its_closed_form(self):
        omega = sym.full_shift(6)
        reps = [wt.weighted_entropy(wt.pair_system(3, 2, spec), 0.5, 6)
                for spec in (omega, sym.prune(omega))]
        assert reps[0] == reps[1]
        assert reps[1].closed_form == 1.2424533248940002
        assert reps[1].exact

    def test_endpoints(self):
        sys_ = wt.pair_system_from_tuples(3, 2, R_EXAMPLE)
        assert wt.weighted_entropy(sys_, 1.0, 6).best_estimate == pytest.approx(
            math.log(3), abs=1e-12
        )
        assert wt.weighted_entropy(sys_, 0.0, 6).best_estimate == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_z_values_agree_with_direct_product_enumeration(self):
        # fully independent: enumerate R^n words, group by projection, sum t^w
        rng = random.Random(11)
        for _ in range(6):
            a = rng.randint(2, 4)
            b = rng.randint(2, a)
            rel = [(u, v) for u in range(a) for v in range(b) if rng.random() < 0.7]
            if not rel:
                rel = [(0, 0)]
            sys_ = wt.pair_system_from_tuples(a, b, rel)
            w = rng.random()
            rep = wt.weighted_entropy(sys_, w, 5)
            for n in (1, 2, 4):
                fibers = {}
                for word in itertools.product(rel, repeat=n):
                    v = tuple(p[1] for p in word)
                    fibers[v] = fibers.get(v, 0) + 1
                z = math.fsum(sorted((c**w for c in fibers.values()), reverse=True))
                assert rep.z_values[n] == pytest.approx(z, rel=1e-13)

    def test_product_exactness(self):
        sys_ = wt.pair_system_from_tuples(3, 2, R_EXAMPLE)
        rep = wt.weighted_entropy(sys_, 0.37, 8)
        for n, z in rep.z_values.items():
            assert abs(math.log(z) / n - rep.closed_form) <= 1e-12

    def test_monotone_in_w(self):
        mat = [[1] * 4 for _ in range(4)]
        mat[3][3] = 0
        sys_ = wt.pair_system(2, 2, sym.sft_from_matrix(mat))
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        reports = [wt.weighted_entropy(sys_, w, 6) for w in grid]
        for n in range(1, 7):
            values = [r.z_values[n] for r in reports]
            assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))
        finals = [r.upper_bounds[-1] for r in reports]
        assert all(x <= y + 1e-9 for x, y in zip(finals, finals[1:]))

    def test_sft_endpoints_match_entropy_brackets(self):
        mat = [[1] * 4 for _ in range(4)]
        mat[3][3] = 0
        sys_ = wt.pair_system(2, 2, sym.sft_from_matrix(mat))
        rep1 = wt.weighted_entropy(sys_, 1.0, 6)
        omega_bounds = sym.entropy(sys_.omega, 6).upper_bounds
        for vn, un in zip(rep1.upper_bounds, omega_bounds):
            assert vn == pytest.approx(un, abs=1e-9)
        rep0 = wt.weighted_entropy(sys_, 0.0, 6)
        image = wt.image_subshift(sys_)
        image_bounds = sym.entropy(image, 6).upper_bounds
        for vn, un in zip(rep0.upper_bounds, image_bounds):
            assert vn == pytest.approx(un, abs=1e-9)

    def test_z_submultiplicative(self):
        mat = [[1] * 4 for _ in range(4)]
        mat[3][3] = 0
        sys_ = wt.pair_system(2, 2, sym.sft_from_matrix(mat))
        rep = wt.weighted_entropy(sys_, 0.6, 8)
        assert rep.submultiplicative_ok

    def test_product_systems_skip_the_pair_check(self, monkeypatch):
        # S^N rounded once cannot fail it, and its n_max^2 pairs took most
        # of a product call at n_max = 3000
        checked = []
        monkeypatch.setattr(wt, "_submultiplicative", lambda z: checked.append(len(z)) or True)
        product = wt.pair_system_from_tuples(2, 2, [(0, 0), (1, 0)])
        assert wt.weighted_entropy(product, 0.1, 3000).submultiplicative_ok
        assert checked == []
        sweep = wt.pair_system(3, 2, sym.sft_from_matrix(PROBE_MATRIX))
        assert wt.weighted_entropy(sweep, 0.5, 4).submultiplicative_ok
        assert checked == [4]

    def test_w_outside_range_rejected(self):
        sys_ = wt.pair_system_from_tuples(3, 2, R_EXAMPLE)
        with pytest.raises(DomainError):
            wt.weighted_entropy(sys_, 1.5, 4)


def reference_image_subshift(sys_):
    """Powerset determinization over frozensets, one by_letter dict of target
    sets per subset, with image_subshift's queue order and numbering."""
    aut = sys_.omega.automaton
    b = sys_.b_size
    cap = limits.cap("subset")
    start = frozenset([aut.root])
    subsets = {start: 0}
    succ = [dict()]
    queue = [start]
    while queue:
        current = queue.pop()
        idx = subsets[current]
        by_letter = {}
        for state in current:
            for label, target in aut.succ[state].items():
                by_letter.setdefault(label % b, set()).add(target)
        for v, targets in sorted(by_letter.items()):
            key = frozenset(targets)
            if key not in subsets:
                if len(subsets) >= cap:
                    raise ResourceLimit("subset budget")
                subsets[key] = len(succ)
                succ.append(dict())
                queue.append(key)
            succ[idx][v] = subsets[key]
    image = sym.Automaton(alphabet_size=b, root=0, succ=tuple(succ))
    if all(set(trans) == set(range(b)) for trans in image.succ):
        return sym.full_shift(b)
    return sym.automaton_spec(image, b)


class TestImageSubshift:
    @settings(max_examples=150, deadline=None)
    @given(pair_systems(), st.sampled_from([1, 2, 3, None]))
    def test_matches_reference_determinization(self, sys_, budget):
        with limits.override(budget):
            try:
                want = reference_image_subshift(sys_)
            except ResourceLimit:
                with pytest.raises(ResourceLimit):
                    wt.image_subshift(sys_)
                return
            got = wt.image_subshift(sys_)
        # a spec compares kind and alphabet only, so compare the graphs too
        assert (got, got.automaton) == (want, want.automaton)

    def test_example_image_is_full(self):
        sys_ = wt.pair_system_from_tuples(3, 2, R_EXAMPLE)
        image = wt.image_subshift(sys_)
        assert image.kind in (sym.KIND_FULL, sym.KIND_SFT)
        table = sym.count_words(image, 6)
        assert all(table[n] == 2**n for n in range(1, 7))

    def test_full_product_image_is_full(self):
        sys_ = wt.pair_system(3, 2, sym.full_shift(6))
        image = wt.image_subshift(sys_)
        assert sym.count_words(image, 5)[5] == 2**5

    def test_pair_sft_image_words_match_projection(self):
        mat = [[1] * 4 for _ in range(4)]
        mat[3][3] = 0  # forbid the repeated (1,1) symbol
        sys_ = wt.pair_system(2, 2, sym.sft_from_matrix(mat))
        image = wt.image_subshift(sys_)
        for n in range(1, 9):
            projected = sorted({v for _, v in naive_product_words(sys_.omega, 2, n)})
            assert sorted(tuple(w) for w in sym.enumerate_words(image, n).tolist()) == projected

    def test_random_pair_sfts_determinize_correctly(self):
        rng = random.Random(5)
        built = 0
        while built < 10:
            mat = [[rng.randint(0, 1) for _ in range(4)] for _ in range(4)]
            try:
                sys_ = wt.pair_system(2, 2, sym.sft_from_matrix(mat))
                image = wt.image_subshift(sys_)
            except Exception:
                continue
            built += 1
            for n in (1, 4, 7):
                projected = {v for _, v in naive_product_words(sys_.omega, 2, n)}
                assert sym.count_words(image, n)[n] == len(projected)

    def test_strictly_sofic_image(self):
        # u acts as memory: (u, v) -> (u', v') allowed iff v' == u; the image
        # then remembers one step of the u golden-mean layer
        b = 2
        mat = [[0] * 4 for _ in range(4)]
        for u, v in itertools.product(range(2), repeat=2):
            for u2, v2 in itertools.product(range(2), repeat=2):
                if v2 == u and not (u == 1 and u2 == 1):
                    mat[u * b + v][u2 * b + v2] = 1
        sys_ = wt.pair_system(2, 2, sym.sft_from_matrix(mat))
        image = wt.image_subshift(sys_)
        for n in range(1, 8):
            projected = {v for _, v in naive_product_words(sys_.omega, 2, n)}
            assert sym.count_words(image, n)[n] == len(projected)


class TestProductImage:
    @settings(max_examples=100, deadline=None)
    @given(product_specs(), st.data(), st.sampled_from([None, 0, 1, 2, 5]))
    def test_matches_the_determinized_image(self, spec, data, cap):
        k = spec.alphabet
        b = data.draw(st.sampled_from([d for d in range(1, k + 1) if k % d == 0]))
        sys_ = wt.pair_system(k // b, b, spec)
        fresh = wt.pair_system(k // b, b, replace(spec))
        with limits.override(cap):
            try:
                want = reference_image_subshift(sys_)
            except ResourceLimit as exc:
                if str(exc) == "subset budget":  # the reference names no sizes
                    exc = f"subset budget: 2 or more subsets exceed the cap {cap}"
                with pytest.raises(ResourceLimit) as info:
                    wt.image_subshift(fresh)
                assert str(info.value) == str(exc)
                return
            got = wt.image_subshift(fresh)
        assert "automaton" not in vars(fresh.omega)  # nothing determinized
        assert got.kind == (sym.KIND_FULL if want.kind == sym.KIND_FULL else sym.KIND_TUPLES)
        assert sym.count_words(got, 6) == sym.count_words(want, 6)
        bracket = sym.entropy(got, 1).spectral_bracket
        assert [x.hex() for x in bracket] == [x.hex() for x in want.automaton.spectral_log()]


class TestDeterminizationBudget:
    def test_tiny_budget_is_refused(self):
        # the full 6-shift over 2 x 3 determinizes to 4 subsets: the root's
        # and one pair of states per projected letter (budget 1: test_errors)
        sys_ = wt.pair_system(2, 3, sym.sft_from_matrix([[1] * 6] * 6))
        message = r"^subset budget: 4 or more subsets exceed the cap 3$"
        with pytest.raises(ResourceLimit, match=message), limits.override(3):
            wt.image_subshift(sys_)
        with limits.override(4):
            assert wt.image_subshift(sys_).kind == sym.KIND_FULL
        assert wt.image_subshift(sys_).kind == sym.KIND_FULL  # kept under the default cap
        with pytest.raises(ResourceLimit, match=message), limits.override(3):
            wt.image_subshift(sys_)  # and refused again under a lower one
