"""Hyperplane canonicalization, classification, essentialization."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrdmod import (
    Arrangement,
    Hyperplane,
    ResourceLimitError,
    ValidationError,
    classify,
    enumerate_flats,
    essentialize,
)
from conftest import (
    braid,
    concurrent,
    corpus,
    coxeter_b,
    grid,
    random_affine_map,
    random_general_position,
    scan_classification,
    transformed,
    triangle,
)

F = Fraction


class TestHyperplane:
    def test_canonical_form(self):
        h = Hyperplane.from_coefficients((F(-1, 2), F(-1, 2)), F(-3, 2))
        assert h.normal == (1, 1) and h.constant == 3

    def test_rescaling_collapses(self):
        base = Hyperplane.from_coefficients((2, -4), 6)
        for scale in (F(1, 3), -2, F(-5, 7)):
            assert Hyperplane.from_coefficients((2 * scale, -4 * scale), 6 * scale) == base

    def test_zero_normal_rejected(self):
        with pytest.raises(ValidationError):
            Hyperplane.from_coefficients((0, 0), 1)

    def test_evaluate(self):
        h = Hyperplane.from_coefficients((1, 1), 1)
        assert h.evaluate((F(1, 2), F(-3, 2))) == 0
        assert h.evaluate((1, 1)) == 3


class TestArrangementValidation:
    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            Arrangement.from_coefficients(2, [((1, 0), 0), ((-3, 0), 0)])

    def test_dimension_mismatch_rejected(self):
        h = Hyperplane.from_coefficients((1, 0, 0), 0)
        with pytest.raises(ValidationError):
            Arrangement(2, (h,))


class TestClassify:
    def test_triangle_general_position(self):
        k = classify(triangle())
        assert k.general_position and k.normal_crossing and not k.central

    def test_concurrent_central_not_crossing(self):
        k = classify(concurrent(3))
        assert not k.general_position and not k.normal_crossing and k.central
        assert k.common_intersection.dim == 0

    def test_parallel_crossing_not_general(self):
        arr = Arrangement.from_coefficients(
            2, [((1, 0), 0), ((0, 1), 0), ((1, 0), 1)]
        )
        k = classify(arr)
        assert not k.general_position and k.normal_crossing and not k.central

    def test_general_position_implies_normal_crossing(self, rng):
        for _ in range(20):
            arr = random_general_position(rng, rng.choice([2, 3]), rng.randint(1, 5))
            k = classify(arr)
            assert k.general_position and k.normal_crossing

    def test_invariant_under_permutation_and_rescaling(self, rng):
        for name, arr in corpus():
            k = classify(arr)
            order = list(range(arr.m))
            rng.shuffle(order)
            scales = [F(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])) for _ in order]
            shuffled = Arrangement.from_coefficients(
                arr.dim,
                [
                    (
                        [a * scales[pos] for a in arr.hyperplanes[i].normal],
                        arr.hyperplanes[i].constant * scales[pos],
                    )
                    for pos, i in enumerate(order)
                ],
            )
            k2 = classify(shuffled)
            assert (k.general_position, k.normal_crossing, k.central) == (
                k2.general_position,
                k2.normal_crossing,
                k2.central,
            ), name

    def test_invariant_under_affine_change(self, rng):
        for _ in range(15):
            arr = random_general_position(rng, 2, rng.randint(1, 4))
            u, v = random_affine_map(rng, 2)
            k1, k2 = classify(arr), classify(transformed(arr, u, v))
            assert (k1.general_position, k1.normal_crossing, k1.central) == (
                k2.general_position,
                k2.normal_crossing,
                k2.central,
            )

    def test_central_normal_crossing_has_few_hyperplanes(self, rng):
        # a normal crossing arrangement with a common point fits m <= n
        for name, arr in corpus():
            k = classify(arr)
            if k.normal_crossing and k.central:
                assert arr.m <= arr.dim, name

    def test_subset_limit(self):
        # the enumeration cap binds in dimension >= 3, never in the plane
        with pytest.raises(ResourceLimitError):
            classify(braid(4), limit=2)
        assert not classify(concurrent(5), limit=2).normal_crossing


@st.composite
def arrangements(draw):
    """Affine arrangements in C^1..C^4 with m <= 8 drawn hyperplanes and
    coefficients bounded by 1, 2 or 9: degenerate and generic cases both."""
    n = draw(st.integers(1, 4))
    bound = draw(st.sampled_from([1, 2, 9]))
    coeff = st.integers(-bound, bound)
    pairs = draw(
        st.lists(
            st.tuples(st.lists(coeff, min_size=n, max_size=n), coeff).filter(
                lambda p: any(p[0])
            ),
            max_size=8,
        )
    )
    hyperplanes = {Hyperplane.from_coefficients(a, c): None for a, c in pairs}
    return Arrangement(n, tuple(hyperplanes))


def families():
    """Classical arrangements and edge cases for the scan oracle."""
    out = list(corpus())
    out += [(f"braid{n}", braid(n)) for n in range(2, 7)]
    out += [(f"b{n}", coxeter_b(n)) for n in range(2, 6)]
    out += [(f"pencil{m}", concurrent(m)) for m in (3, 4, 7)]
    out += [(f"grid{c}", grid(c)) for c in (2, 3)]
    out += [
        ("parallel5", Arrangement.from_coefficients(2, [((1, 0), -c) for c in range(5)])),
        (
            "parallel_planes",
            Arrangement.from_coefficients(
                3, [((1, 1, 0), -c) for c in range(3)] + [((0, 0, 1), 0)]
            ),
        ),
        ("points", Arrangement.from_coefficients(1, [((k,), 1) for k in range(1, 6)])),
        ("line_empty", Arrangement.from_coefficients(1, [])),
        ("space_empty", Arrangement.from_coefficients(4, [])),
        ("space_single", Arrangement.from_coefficients(4, [((1, 2, 0, -1), 3)])),
    ]
    return out


class TestWalkAgainstScan:
    """The restricted-row walk against the subset scan it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(arrangements())
    def test_random_arrangements(self, arr):
        k = classify(arr)
        assert (k.general_position, k.normal_crossing, k.central) == (
            scan_classification(arr)
        )

    @pytest.mark.parametrize("arr", [pytest.param(a, id=name) for name, a in families()])
    def test_families(self, arr):
        k = classify(arr, limit=arr.m)
        assert (k.general_position, k.normal_crossing, k.central) == (
            scan_classification(arr)
        )


class TestEssentialize:
    def test_axes_in_3d_reduce_to_plane(self):
        arr = Arrangement.from_coefficients(3, [((1, 0, 0), 0), ((0, 1, 0), 0)])
        reduced, split = essentialize(arr)
        assert reduced == Arrangement.from_coefficients(2, [((1, 0), 0), ((0, 1), 0)])
        assert split.pivot_coords == (0, 1)
        assert split.base_point == (0, 0, 0)
        assert not split.is_identity

    def test_already_essential_untouched(self):
        for arr in (triangle(), concurrent(3)):
            reduced, split = essentialize(arr)
            assert reduced == arr and split.is_identity

    def test_idempotent_and_flat_preserving(self, rng):
        # lift central plane arrangements into C^4; the common point becomes
        # a common 2-plane, so reduction has real work to do
        for _ in range(10):
            m = rng.randint(1, 4)
            normals = set()
            while len(normals) < m:
                a = (rng.randint(-3, 3), rng.randint(-3, 3))
                if a != (0, 0):
                    normals.add(Hyperplane.from_coefficients(a, 0).normal)
            lifted = Arrangement.from_coefficients(
                4, [((*a, 0, 0), 0) for a in sorted(normals)]
            )
            reduced, split = essentialize(lifted)
            assert reduced.m == lifted.m
            assert reduced.dim == 4 - lifted.common_intersection().dim
            again, split2 = essentialize(reduced)
            assert again == reduced and split2.is_identity
            assert len(enumerate_flats(reduced).flats) == len(
                enumerate_flats(lifted).flats
            )

    def test_translated_common_intersection(self):
        # common line {x = 1, y = 2} in C^3 forces a nonzero base point
        arr = Arrangement.from_coefficients(3, [((1, 0, 0), -1), ((0, 1, 0), -2)])
        reduced, split = essentialize(arr)
        assert split.base_point == (1, 2, 0)
        assert reduced.dim == 2
        common = reduced.common_intersection()
        assert not common.is_empty and common.dim == 0

    def test_empty_arrangement_identity(self):
        arr = Arrangement.from_coefficients(3, [])
        reduced, split = essentialize(arr)
        assert reduced == arr and split.is_identity
