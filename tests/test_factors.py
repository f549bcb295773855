"""Decomposition-factor supports, counts, and the closed-form formulas."""

from __future__ import annotations

from fractions import Fraction

import pytest

from arrdmod import (
    Arrangement,
    ExponentVector,
    PreconditionError,
    ValidationError,
    classify,
    count_general_position,
    decomposition_factors,
    enumerate_flats,
    essentialize,
    flat_count_general_position,
)
from conftest import (
    concurrent,
    corpus,
    random_beta,
    random_general_position,
    triangle,
)

F = Fraction
beta = ExponentVector.from_values


class TestTriangleRegression:
    CASES = [
        (("1/2", "1/3", "1/5"), 1, [()]),
        (("2", "1/3", "1/5"), 2, [(), (1,)]),
        (("2", "-1", "1/5"), 4, [(), (1,), (2,), (1, 2)]),
        (("2", "-1", "0"), 7, [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]),
    ]

    @pytest.mark.parametrize("b,count,supports", CASES)
    def test_counts_and_supports(self, b, count, supports):
        report = decomposition_factors(triangle(), beta(b))
        assert report.count == count
        assert [f.closure_set for f in report.supports] == supports

    def test_ambient_always_supported(self):
        report = decomposition_factors(triangle(), beta(("1/2", "1/2", "1/2")))
        assert report.supports[0].closure_set == ()


class TestContracts:
    def test_not_normal_crossing_rejected(self):
        with pytest.raises(PreconditionError, match="resolve"):
            decomposition_factors(concurrent(3), beta(("1", "2", "3")))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            decomposition_factors(triangle(), beta(("1", "2")))

    def test_supports_qualify_both_directions(self, rng):
        # reported flats have all-integral closures; no qualifying flat missed
        for _ in range(10):
            arr = random_general_position(rng, 2, rng.randint(0, 5))
            b = random_beta(rng, arr.m, rng.randint(0, arr.m))
            integral = set(b.integral_indices())
            report = decomposition_factors(arr, b)
            reported = {f.closure_set for f in report.supports}
            for flat in enumerate_flats(arr).flats:
                qualifies = all(i in integral for i in flat.closure_set)
                assert (flat.closure_set in reported) == qualifies


class TestWorkBudget:
    def test_combination_skips_zero_coefficients(self):
        multiplications = []

        class Counting(Fraction):
            def __rmul__(self, other):
                multiplications.append(other)
                return Fraction(self) * other

        b = ExponentVector((Counting(1, 2), Counting(1, 3), Counting(1, 5)))
        assert b.combination((0, 2, 0)) == F(2, 3)
        assert multiplications == [2]
        assert b.combination((0, 0, 0)) == 0
        assert multiplications == [2]


class TestFormulas:
    @pytest.mark.parametrize(
        "n,k,expected", [(2, 3, 7), (2, 0, 1), (3, 5, 26), (1, 4, 5), (4, 2, 4)]
    )
    def test_count_general_position(self, n, k, expected):
        assert count_general_position(n, k) == expected

    @pytest.mark.parametrize(
        "n,m,expected", [(2, 3, 7), (2, 0, 1), (3, 6, 42), (2, 4, 11)]
    )
    def test_flat_count_general_position(self, n, m, expected):
        assert flat_count_general_position(n, m) == expected

    def test_formula_matches_enumeration(self, rng):
        for _ in range(12):
            n = rng.choice([2, 3])
            m = rng.randint(0, 5)
            arr = random_general_position(rng, n, m)
            k = rng.randint(0, m)
            b = random_beta(rng, m, k)
            assert decomposition_factors(arr, b).count == count_general_position(n, k)
            assert len(enumerate_flats(arr).flats) == flat_count_general_position(n, m)


class TestInvariances:
    def test_permutation_equivariance(self, rng):
        arr = triangle()
        b = beta(("2", "1/3", "-1"))
        base = {f.closure_set for f in decomposition_factors(arr, b).supports}
        for _ in range(10):
            order = [0, 1, 2]
            rng.shuffle(order)
            permuted_arr = Arrangement(
                arr.dim, tuple(arr.hyperplanes[i] for i in order)
            )
            permuted_beta = ExponentVector(tuple(b.entries[i] for i in order))
            permuted = {
                tuple(sorted(order[i - 1] + 1 for i in f.closure_set))
                for f in decomposition_factors(permuted_arr, permuted_beta).supports
            }
            assert permuted == base

    def test_reduction_preserves_counts(self, rng):
        # concurrent lines lifted to C^3 share a line; counts must survive
        for m in (1, 2):
            base = concurrent(m) if m >= 2 else Arrangement.from_coefficients(
                2, [((1, 0), 0)]
            )
            lifted = Arrangement.from_coefficients(
                3, [((*h.normal, 0), h.constant) for h in base.hyperplanes]
            )
            reduced, _ = essentialize(lifted)
            for k in range(m + 1):
                b = random_beta(rng, m, k)
                assert (
                    decomposition_factors(lifted, b).count
                    == decomposition_factors(reduced, b).count
                )


class TestCorpusConsistency:
    def test_all_normal_crossing_corpus_members(self, rng):
        for name, arr in corpus():
            if not classify(arr).normal_crossing:
                continue
            b = random_beta(rng, arr.m, rng.randint(0, arr.m))
            report = decomposition_factors(arr, b)
            assert report.count == len(report.supports) >= 1, name
