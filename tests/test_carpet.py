"""Carpet dimension formulas, ordering, and classical coincidence."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meandim import carpet as cp
from meandim import symbolic, weighted
from meandim.errors import DomainError

R_EXAMPLE = [(0, 0), (1, 1), (2, 0)]
MDIM_H = 1.3496838201955774  # log_2(1 + 2^(log_3 2))
MDIM_M = 1.3690702464285427  # 2 - log_3 2


def random_relation(rng, a, b):
    rel = [(u, v) for u in range(a) for v in range(b) if rng.random() < 0.55]
    return rel or [(rng.randrange(a), rng.randrange(b))]


class TestMeanDims:
    def test_worked_example(self):
        rep = cp.mean_dims(cp.carpet_from_tuples(3, 2, R_EXAMPLE), 8)
        assert rep.mdim_h.value == pytest.approx(MDIM_H, abs=1e-9)
        assert rep.mdim_m.value == pytest.approx(MDIM_M, abs=1e-9)
        assert rep.mdim_h.exact and rep.mdim_m.exact
        assert rep.h_omega == pytest.approx(math.log(3), abs=1e-12)
        assert rep.h_omega_prime == pytest.approx(math.log(2), abs=1e-12)

    def test_full_relation_gives_two(self):
        # both formulas evaluate to 2 for the full square, matching the
        # classical values (the carpet has two unit tracks per coordinate)
        rel = [(u, v) for u in range(3) for v in range(2)]
        rep = cp.mean_dims(cp.carpet_from_tuples(3, 2, rel), 6)
        assert rep.mdim_h.value == pytest.approx(2.0, abs=1e-12)
        assert rep.mdim_m.value == pytest.approx(2.0, abs=1e-12)
        assert rep.classical["dim_h"] == pytest.approx(2.0, abs=1e-12)

    def test_singleton_relation_gives_zero(self):
        rep = cp.mean_dims(cp.carpet_from_tuples(3, 2, [(2, 1)]), 6)
        assert rep.mdim_h.value == pytest.approx(0.0, abs=1e-12)
        assert rep.mdim_m.value == pytest.approx(0.0, abs=1e-12)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(DomainError):
            cp.carpet_from_tuples(2, 3, [(0, 0)])

    def test_ordering_and_range(self):
        rng = random.Random(17)
        for _ in range(200):
            a = rng.randint(2, 6)
            b = rng.randint(2, a)
            spec = cp.carpet_from_tuples(a, b, random_relation(rng, a, b))
            rep = cp.mean_dims(spec, 5)
            assert rep.mdim_h.value <= rep.mdim_m.value + 1e-9
            bound = rep.h_omega / math.log(b)
            assert rep.mdim_m.value <= bound + 1e-9
            assert bound <= math.log(a * b) / math.log(b) + 1e-9
            assert rep.mdim_h.value >= -1e-12

    def test_monotone_under_relation_growth(self):
        rng = random.Random(23)
        for _ in range(40):
            a = rng.randint(2, 5)
            b = rng.randint(2, a)
            small = set(random_relation(rng, a, b))
            extra = [
                (u, v)
                for u in range(a)
                for v in range(b)
                if (u, v) not in small and rng.random() < 0.4
            ]
            big = small | set(extra)
            rep_small = cp.mean_dims(cp.carpet_from_tuples(a, b, small), 4)
            rep_big = cp.mean_dims(cp.carpet_from_tuples(a, b, big), 4)
            assert rep_big.mdim_h.value >= rep_small.mdim_h.value - 1e-9
            assert rep_big.mdim_m.value >= rep_small.mdim_m.value - 1e-9

    def test_product_coincides_with_classical(self):
        rng = random.Random(31)
        for _ in range(60):
            a = rng.randint(2, 6)
            b = rng.randint(2, a)
            rel = random_relation(rng, a, b)
            rep = cp.mean_dims(cp.carpet_from_tuples(a, b, rel), 5)
            assert rep.classical is not None
            assert rep.mdim_h.value == pytest.approx(rep.classical["dim_h"], abs=1e-9)
            assert rep.mdim_m.value == pytest.approx(rep.classical["dim_m"], abs=1e-9)

    def test_pruned_product_keeps_classical_dims(self):
        spec = cp.carpet_from_tuples(3, 2, R_EXAMPLE)
        omega = symbolic.prune(spec.system.omega)
        pruned = cp.CarpetSpec(3, 2, weighted.pair_system(3, 2, omega))
        assert cp.mean_dims(pruned, 6) == cp.mean_dims(spec, 6)

    def test_pruned_full_shift_keeps_classical_dims(self):
        omega = symbolic.full_shift(6)
        spec, pruned = (cp.CarpetSpec(3, 2, weighted.pair_system(3, 2, o))
                        for o in (omega, symbolic.prune(omega)))
        rep = cp.mean_dims(pruned, 6)
        assert rep == cp.mean_dims(spec, 6)
        assert rep.classical == cp.classical_carpet_dims(
            3, 2, [(u, v) for u in range(3) for v in range(2)]
        )


class TestClassical:
    def test_example_values(self):
        rep = cp.classical_carpet_dims(3, 2, R_EXAMPLE)
        assert rep["dim_h"] == pytest.approx(1.3496838201, abs=1e-9)
        assert rep["dim_m"] == pytest.approx(1.3690702464, abs=1e-9)
        assert rep["r"] == 3 and rep["s"] == 2 and rep["t"] == [2, 1]

    def test_full_square(self):
        rel = [(u, v) for u in range(3) for v in range(2)]
        rep = cp.classical_carpet_dims(3, 2, rel)
        assert rep["dim_h"] == pytest.approx(2.0, abs=1e-12)
        assert rep["dim_m"] == pytest.approx(2.0, abs=1e-12)

    def test_single_cell(self):
        rep = cp.classical_carpet_dims(4, 3, [(1, 2)])
        assert rep["dim_h"] == pytest.approx(0.0, abs=1e-12)
        assert rep["dim_m"] == pytest.approx(0.0, abs=1e-12)

    def test_empty_relation_rejected(self):
        with pytest.raises(DomainError):
            cp.classical_carpet_dims(3, 2, [])


class TestGapAnalysis:
    def test_example_gap(self):
        rep = cp.gap_analysis(3, 2, R_EXAMPLE)
        assert rep["equal"] is False
        assert rep["witness"] == [1, 2]

    def test_equal_occupancies(self):
        rel = [(0, 0), (1, 0), (0, 1), (1, 1)]  # every column holds 2
        rep = cp.gap_analysis(3, 2, rel)
        assert rep["equal"] is True

    def test_square_base_always_equal(self):
        rep = cp.gap_analysis(2, 2, [(0, 0), (1, 1), (0, 1)])
        assert rep["equal"] is True

    def test_criterion_matches_numeric_on_random_relations(self):
        rng = random.Random(41)
        for _ in range(200):
            a = rng.randint(2, 6)
            b = rng.randint(2, a)
            rel = random_relation(rng, a, b)
            cl = cp.classical_carpet_dims(a, b, rel)
            assert cp.gap_analysis(a, b, rel)["equal"] == (abs(cl["dim_h"] - cl["dim_m"]) <= 1e-9)


def reference_floor_w_m(a, b, m):
    """The multiplication loop that floor_w_m replaced: a^t against b^M for
    t = 0, 1, ... until a^(t+1) passes b^M."""
    target, t, power = b**m, 0, 1
    while power * a <= target:
        power *= a
        t += 1
    return t


class TestFloorWM:
    @pytest.mark.parametrize("a, b", [(4, 2), (9, 3), (125, 5), (1000, 10), (2**53 + 1, 2**53)])
    def test_exact_powers_match_the_loop(self, a, b):
        # b^M and a^t meet, or (2^53 + 1, 2^53) round to one log: the float
        # estimate lands on either side of t
        for m in range(200):
            assert cp.floor_w_m(a, b, m) == reference_floor_w_m(a, b, m)
            assert cp.floor_w_m(b, a, m) == reference_floor_w_m(b, a, m)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 10**12), st.integers(2, 10**12), st.integers(0, 300))
    @example(10**12, 10**12 - 1, 300)
    @example(2, 10**12, 300)
    def test_matches_the_loop(self, a, b, m):
        assert cp.floor_w_m(a, b, m) == reference_floor_w_m(a, b, m)

    def test_matches_float_floor_away_from_integers(self):
        w = math.log(2) / math.log(3)
        for m in range(1, 40):
            assert cp.floor_w_m(3, 2, m) == math.floor(w * m)

    def test_integer_boundary_is_exact(self):
        # w = 1 when a == b: floor(w m) must be exactly m, immune to rounding
        for m in range(1, 30):
            assert cp.floor_w_m(5, 5, m) == m
        # a = 4, b = 2: w = 1/2 exactly
        for m in range(1, 30):
            assert cp.floor_w_m(4, 2, m) == m // 2


class TestNonProductCarpet:
    def test_sft_driven_carpet_reports_brackets(self):
        from meandim import symbolic as sym
        from meandim import weighted as wt

        # product alphabet 3 x 2 = 6 symbols; forbid repeating symbol 5
        mat = [[1] * 6 for _ in range(6)]
        mat[5][5] = 0
        spec = cp.CarpetSpec(3, 2, wt.pair_system(3, 2, sym.sft_from_matrix(mat)))
        rep = cp.mean_dims(spec, 6)
        assert not rep.mdim_h.exact  # finite-size bracket only
        assert rep.mdim_h.status == "upper_bound"
        assert rep.mdim_h.lower is None
        assert rep.mdim_m.exact  # spectral entropies on both sides
        assert rep.classical is None
        assert 0.0 <= rep.mdim_m.value <= rep.h_omega / math.log(2) + 1e-9

    def test_full_image_of_sft_keeps_formula_consistency(self):
        from meandim import symbolic as sym
        from meandim import weighted as wt

        mat = [[1] * 6 for _ in range(6)]
        mat[5][5] = 0
        sys_ = wt.pair_system(3, 2, sym.sft_from_matrix(mat))
        spec = cp.CarpetSpec(3, 2, sys_)
        rep = cp.mean_dims(spec, 6)
        # choosing u = 0 realizes any v-word, so the image is the full shift
        assert rep.h_omega_prime == pytest.approx(math.log(2), abs=1e-10)
