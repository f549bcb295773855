"""Flat enumeration, closures, Hasse diagram export."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrdmod import (
    AffineSubspace,
    Arrangement,
    Hyperplane,
    PreconditionError,
    ResourceLimitError,
    _kernel,
    closure,
    enumerate_flats,
    flat_count_general_position,
    hasse_dot,
)
from conftest import (
    braid,
    brute_force_closure_sets,
    concurrent,
    corpus,
    coxeter_b,
    random_general_position,
    triangle,
)


def covers_oracle(sets: list[frozenset]) -> set[tuple[int, int]]:
    """All index pairs (F, G) with cl(F) < cl(G) and no closure set strictly
    between them, by comparing every pair against every third set."""
    return {
        (f, g)
        for f, lower in enumerate(sets)
        for g, upper in enumerate(sets)
        if lower < upper and not any(lower < s < upper for s in sets)
    }


def characteristic_polynomial(poset) -> list[int]:
    """Coefficients of chi(t) = sum mu(ambient, F) t^dim F, lowest degree
    first, with the Moebius function computed from the cover edges alone."""
    # flats come sorted by codim, so each down-set is complete before use
    below = [set() for _ in poset.flats]
    for lower, upper in sorted(poset.cover_relations, key=lambda e: e[1]):
        below[upper] |= below[lower] | {lower}
    mu = [0] * len(poset.flats)
    for k in range(len(poset.flats)):
        mu[k] = 1 if not below[k] else -sum(mu[f] for f in below[k])
    chi = [0] * (poset.ambient_dim + 1)
    for k, flat in enumerate(poset.flats):
        chi[flat.dim] += mu[k]
    return chi


def expand(roots: list[int]) -> list[int]:
    """Coefficients of prod (t - r), lowest degree first."""
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
    return coeffs


class TestClosure:
    def test_single_hyperplane_is_closed(self):
        assert closure(triangle(), [1]) == (1,)

    def test_concurrent_point_closes_up(self):
        assert closure(concurrent(3), [1, 2]) == (1, 2, 3)

    def test_plain_crossing_stays(self):
        assert closure(triangle(), [1, 2]) == (1, 2)

    def test_empty_intersection_rejected(self):
        with pytest.raises(PreconditionError, match=r"\{1,2,3\}"):
            closure(triangle(), [1, 2, 3])

    def test_extensive_monotone_idempotent(self, rng):
        for name, arr in corpus():
            flats = enumerate_flats(arr)
            for flat in flats.flats:
                s = flat.closure_set
                for sub_size in range(len(s) + 1):
                    subset = s[:sub_size]
                    try:
                        cl = closure(arr, subset)
                    except PreconditionError:
                        continue
                    assert set(subset) <= set(cl), name
                    assert closure(arr, cl) == cl, name
            # monotonicity on nested pairs drawn from each closure set
            for flat in flats.flats:
                s = flat.closure_set
                if len(s) >= 2:
                    assert set(closure(arr, s[:1])) <= set(closure(arr, s)), name


class TestEnumerateFlats:
    def test_triangle_has_seven_flats(self):
        poset = enumerate_flats(triangle())
        assert [f.closure_set for f in poset.flats] == [
            (),
            (1,),
            (2,),
            (3,),
            (1, 2),
            (1, 3),
            (2, 3),
        ]

    def test_concurrent_has_five_flats(self):
        poset = enumerate_flats(concurrent(3))
        assert {f.closure_set for f in poset.flats} == {
            (),
            (1,),
            (2,),
            (3,),
            (1, 2, 3),
        }

    def test_empty_arrangement(self):
        poset = enumerate_flats(Arrangement.from_coefficients(2, []))
        assert len(poset.flats) == 1 and poset.cover_relations == ()

    @pytest.mark.parametrize("name,arr", corpus())
    def test_matches_brute_force_oracle(self, name, arr):
        assert {f.closure_set for f in enumerate_flats(arr).flats} == (
            brute_force_closure_sets(arr)
        )

    def test_general_position_count(self, rng):
        for _ in range(10):
            n = rng.choice([2, 3])
            m = rng.randint(0, 6)
            arr = random_general_position(rng, n, m)
            assert len(enumerate_flats(arr).flats) == flat_count_general_position(n, m)

    def test_order_independent_up_to_relabeling(self, rng):
        arr = corpus()[9][1]  # pencil_plus_parallel
        order = list(range(arr.m))
        rng.shuffle(order)
        shuffled = Arrangement(arr.dim, tuple(arr.hyperplanes[i] for i in order))
        original = {f.closure_set for f in enumerate_flats(arr).flats}
        relabeled = {
            tuple(sorted(order[i - 1] + 1 for i in f.closure_set))
            for f in enumerate_flats(shuffled).flats
        }
        assert original == relabeled

    def test_limit_enforced(self):
        with pytest.raises(ResourceLimitError):
            enumerate_flats(concurrent(5), limit=4)

    def test_env_limit_override(self, monkeypatch):
        monkeypatch.setenv("ARRDMOD_LIMIT", "3")
        with pytest.raises(ResourceLimitError):
            enumerate_flats(concurrent(5))
        # an explicit limit beats the environment
        assert len(enumerate_flats(concurrent(5), limit=5).flats) == 7

    def test_closure_of_empty_set(self):
        assert closure(triangle(), []) == ()

    def test_codims_and_subspaces_consistent(self):
        for name, arr in corpus():
            for flat in enumerate_flats(arr).flats:
                assert flat.codim == arr.dim - flat.subspace.dim
                for i in flat.closure_set:
                    assert arr.hyperplanes[i - 1].contains(flat.subspace)


class TestCovers:
    def test_triangle_cover_count(self):
        poset = enumerate_flats(triangle())
        assert len(poset.cover_relations) == 9

    def test_covers_are_minimal_jumps(self):
        # sound (every edge is a cover) and complete (every cover is an edge)
        for name, arr in corpus():
            poset = enumerate_flats(arr)
            sets = [frozenset(f.closure_set) for f in poset.flats]
            assert len(set(poset.cover_relations)) == len(poset.cover_relations), name
            assert set(poset.cover_relations) == covers_oracle(sets), name


@st.composite
def small_arrangements(draw):
    """Affine arrangements in C^2..C^4 with coefficients in -2..2, so that
    parallel classes, concurrent triples and non-central cases all occur."""
    n = draw(st.integers(2, 4))
    coeff = st.integers(-2, 2)
    pairs = draw(
        st.lists(
            st.tuples(st.lists(coeff, min_size=n, max_size=n), coeff).filter(
                lambda p: any(p[0])
            ),
            max_size=7,
        )
    )
    hyperplanes = {Hyperplane.from_coefficients(a, c): None for a, c in pairs}
    return Arrangement(n, tuple(hyperplanes))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_arrangements())
    def test_random_arrangements_match_oracles(self, arr):
        poset = enumerate_flats(arr)
        sets = [frozenset(f.closure_set) for f in poset.flats]
        assert {f.closure_set for f in poset.flats} == brute_force_closure_sets(arr)
        assert set(poset.cover_relations) == covers_oracle(sets)
        for flat in poset.flats:
            direct = AffineSubspace.from_rows(arr.equation_rows(flat.closure_set), arr.dim)
            assert flat.subspace == direct
            assert flat.subspace.pivots == direct.pivots
            assert flat.subspace.canonical_system == direct.canonical_system
            assert flat.subspace.base_point() == direct.base_point()
            assert flat.subspace.direction_basis() == direct.direction_basis()

    @pytest.mark.parametrize("n,bell", [(3, 5), (4, 15), (5, 52), (6, 203)])
    def test_braid_bell_count_and_chi(self, n, bell):
        poset = enumerate_flats(braid(n))
        assert len(poset.flats) == bell
        assert characteristic_polynomial(poset) == expand(list(range(n)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_coxeter_b_chi(self, n):
        poset = enumerate_flats(coxeter_b(n))
        assert characteristic_polynomial(poset) == expand(
            [2 * k - 1 for k in range(1, n + 1)]
        )


class TestWorkBudget:
    """Enumeration pays one row reduction per new flat and no closure tests."""

    @pytest.mark.parametrize("which,flats", [("braid_a5", 203), ("generic_4_10", 386)])
    def test_kernel_calls_per_flat(self, which, flats, rng, monkeypatch):
        arr = braid(6) if which == "braid_a5" else random_general_position(rng, 4, 10)
        calls = {"rref_scaled": 0, "annihilates": 0}
        rref_scaled = _kernel.rref_scaled
        annihilates = AffineSubspace.annihilates

        def counting_rref(rows):
            calls["rref_scaled"] += 1
            return rref_scaled(rows)

        def counting_annihilates(self, normal, constant):
            calls["annihilates"] += 1
            return annihilates(self, normal, constant)

        monkeypatch.setattr(_kernel, "rref_scaled", counting_rref)
        monkeypatch.setattr(AffineSubspace, "annihilates", counting_annihilates)
        poset = enumerate_flats(arr)
        assert len(poset.flats) == flats
        assert calls["rref_scaled"] <= len(poset.flats) - 1
        assert calls["annihilates"] == 0


class TestHasseDot:
    def test_triangle_nodes_and_edges(self):
        dot = hasse_dot(enumerate_flats(triangle()))
        assert dot.count("label=") == 7
        assert dot.count("->") == 9

    def test_empty_and_single(self):
        empty = hasse_dot(enumerate_flats(Arrangement.from_coefficients(2, [])))
        assert empty.count("label=") == 1 and "->" not in empty
        single = hasse_dot(
            enumerate_flats(Arrangement.from_coefficients(2, [((1, 0), 0)]))
        )
        assert single.count("label=") == 2 and single.count("->") == 1

    def test_byte_stable(self):
        a = hasse_dot(enumerate_flats(five := corpus()[7][1]))
        b = hasse_dot(enumerate_flats(five))
        assert a == b

    def test_valid_digraph_shape(self):
        dot = hasse_dot(enumerate_flats(concurrent(3)))
        assert dot.startswith("digraph intersection_poset {")
        assert dot.endswith("}\n")
        assert '"{1,2,3}"' in dot
