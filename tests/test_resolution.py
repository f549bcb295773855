"""Blow-up data, pulled-back counts, verdicts and certificates."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrdmod import (
    AffineSubspace,
    Arrangement,
    ExponentVector,
    Hyperplane,
    MissingResolutionError,
    PreconditionError,
    ResolutionData,
    ResolutionSource,
    UnsupportedDimensionError,
    ValidationError,
    VerdictStatus,
    certificate,
    classify,
    decomposition_factors,
    enumerate_flats,
    irreducibility_verdict,
    plane_resolution,
    pullback_exponents,
    pullback_factors,
)
from arrdmod import poset
from arrdmod.cli import execute
from arrdmod.resolution import _plane_points
from conftest import concurrent, corpus, five_lines, grid, random_beta, triangle

F = Fraction
beta = ExponentVector.from_values


class TestPlaneResolution:
    def test_triangle_needs_no_centers(self):
        res = plane_resolution(triangle())
        assert res.centers == () and res.multiplicities == ()

    def test_concurrent_origin(self):
        res = plane_resolution(concurrent(3))
        assert len(res.centers) == 1
        assert res.centers[0].point == (0, 0)
        assert res.centers[0].incident == (1, 2, 3)
        assert res.multiplicities == ((1, 1, 1),)
        assert res.source is ResolutionSource.PLANE_BLOWUP

    def test_five_lines_two_centers(self):
        res = plane_resolution(five_lines())
        assert [c.incident for c in res.centers] == [(1, 2, 3), (1, 4, 5)]
        assert [c.point for c in res.centers] == [(0, 0), (0, 1)]
        assert res.multiplicities == ((1, 1, 1, 0, 0), (1, 0, 0, 1, 1))

    def test_dimension_guard(self):
        arr3 = Arrangement.from_coefficients(3, [((1, 0, 0), 0)])
        with pytest.raises(UnsupportedDimensionError):
            plane_resolution(arr3)

    def test_centers_separate_their_lines(self):
        # distinct lines through a center have pairwise distinct directions,
        # so upstairs no point lies on three divisors
        for arr in (concurrent(4), five_lines()):
            for center in plane_resolution(arr).centers:
                directions = []
                for i in center.incident:
                    a = arr.hyperplanes[i - 1].normal
                    directions.append((-a[1], a[0]))
                for d1, d2 in combinations(directions, 2):
                    assert d1[0] * d2[1] - d1[1] * d2[0] != 0


class TestPullbackExponents:
    def test_single_center(self):
        res = plane_resolution(concurrent(3))
        ext = pullback_exponents(res, beta(("1/2", "1/2", "-1")))
        assert ext.exceptional == (F(0),)

    def test_no_centers(self):
        res = plane_resolution(triangle())
        assert pullback_exponents(res, beta(("1", "2", "3"))).exceptional == ()

    def test_two_centers(self):
        res = plane_resolution(five_lines())
        ext = pullback_exponents(res, beta(("1/2", "1/3", "1/6", "2", "-2")))
        assert ext.exceptional == (F(1), F(1, 2))

    def test_width_mismatch(self):
        res = ResolutionData.user_supplied([[1, 1, 1]])
        with pytest.raises(ValidationError):
            pullback_exponents(res, beta(("1", "2")))


class TestPullbackFactors:
    @pytest.mark.parametrize(
        "b,count",
        [
            (("1/2", "1/2", "-1"), 4),  # k=1, sum integral: 2(k+1)
            (("1/2", "1/3", "1/5"), 1),  # k=0, sum not integral: k+1
            (("1", "2", "3"), 8),  # k=3, sum integral: 2(k+1)
        ],
    )
    def test_concurrent3_counts(self, b, count):
        assert pullback_factors(concurrent(3), beta(b)).count == count

    def test_support_labels(self):
        report = pullback_factors(concurrent(3), beta(("1/2", "1/2", "-1")))
        assert [s.label() for s in report.supports] == [
            "ambient",
            "H~3",
            "E1",
            "H~3 ∩ E1",
        ]

    def test_matches_factors_when_normal_crossing(self, rng):
        for name, arr in corpus():
            if arr.dim != 2 or not classify(arr).normal_crossing:
                continue
            b = random_beta(rng, arr.m, rng.randint(0, arr.m))
            assert (
                pullback_factors(arr, b).count
                == decomposition_factors(arr, b).count
            ), name

    def test_double_point_blowup_by_request(self):
        axes = Arrangement.from_coefficients(2, [((1, 0), 0), ((0, 1), 0)])
        res = ResolutionData.user_supplied([[1, 1]])
        assert pullback_factors(axes, beta(("1", "2")), res).count == 6
        assert pullback_factors(axes, beta(("1/2", "1/2")), res).count == 2

    def test_missing_center_rejected(self):
        with pytest.raises(PreconditionError, match="not\\s+blown up"):
            pullback_factors(
                concurrent(3),
                beta(("1", "2", "3")),
                ResolutionData.user_supplied([]),
            )

    def test_bogus_row_rejected(self):
        with pytest.raises(ValidationError):
            pullback_factors(
                concurrent(3),
                beta(("1", "2", "3")),
                ResolutionData.user_supplied([[1, 1, 1], [1, 1, 0]]),
            )

    def test_five_lines_mixed(self):
        # both centers blown, exponents (1/2,1/2,-1,2,1/2): E1 sum 0, E2 sum 3
        report = pullback_factors(
            five_lines(), beta(("1/2", "1/2", "-1", "2", "1/2"))
        )
        labels = {s.label() for s in report.supports}
        assert "E1" in labels and "E2" in labels
        assert "H~3 ∩ E1" in labels and "H~4 ∩ E2" in labels
        # surviving double point {3,4} has two integral exponents, {2,5} not
        assert "H~3 ∩ H~4" in labels
        assert "H~2 ∩ H~5" not in labels
        assert report.count == len(labels) == 8


class TestVerdicts:
    def test_concurrent_nonintegral_sum_irreducible(self):
        v = irreducibility_verdict(concurrent(3), beta(("1/2", "1/2", "1/2")))
        assert v.status is VerdictStatus.IRREDUCIBLE
        assert v.certificate is not None and (1, 1, 1) in v.certificate.forms

    def test_concurrent_integral_sum_reducible(self):
        v = irreducibility_verdict(concurrent(3), beta(("1/3", "1/3", "1/3")))
        assert v.status is VerdictStatus.REDUCIBLE
        assert v.rule == "concurrent-integral-sum"

    def test_integer_exponent_witness(self):
        v = irreducibility_verdict(triangle(), beta(("2", "1/3", "1/5")))
        assert v.status is VerdictStatus.REDUCIBLE
        assert v.rule == "integral-exponent" and "H_1" in v.witness

    def test_normal_crossing_unit_certificate(self):
        v = irreducibility_verdict(triangle(), beta(("1/2", "1/3", "1/5")))
        assert v.status is VerdictStatus.IRREDUCIBLE
        assert v.certificate.forms == ((0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_higher_dim_without_resolution_inconclusive(self):
        arr = Arrangement.from_coefficients(
            3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((1, 1, 0), 0)]
        )
        v = irreducibility_verdict(arr, beta(("1/2", "1/3", "1/5")))
        assert v.status is VerdictStatus.INCONCLUSIVE
        assert v.rule == "missing-resolution"

    def test_higher_dim_with_resolution(self):
        arr = Arrangement.from_coefficients(
            3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((1, 1, 0), 0)]
        )
        res = ResolutionData.user_supplied([[1, 1, 1]])
        good = irreducibility_verdict(arr, beta(("1/2", "1/3", "1/7")), res)
        assert good.status is VerdictStatus.IRREDUCIBLE
        stuck = irreducibility_verdict(arr, beta(("1/2", "1/3", "1/6")), res)
        assert stuck.status is VerdictStatus.INCONCLUSIVE
        assert stuck.rule == "integral-resolution-sum"

    def test_zero_multiplicity_row_refused(self, tmp_path):
        # no exceptional divisor lies over no hyperplane
        with pytest.raises(ValidationError, match="all zero"):
            ResolutionData.user_supplied([[1, 1, 1], [0, 0, 0]])
        arr = Arrangement.from_coefficients(
            3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((1, 1, 0), 0)]
        )
        path = write_arrangement(tmp_path, arr, [[0, 0, 0]])
        for command in ("verdict", "certificate", "pullback"):
            code, out, err = execute([command, "--input", path])
            assert (code, out) == (2, "")
            assert err == (
                "arrdmod: multiplicities[0] is all zero; an exceptional "
                "divisor lies over at least one hyperplane\n"
            )

    def test_two_triple_points_integral_sum_inconclusive(self):
        # E1 carries 1/3+1/3+1/3 = 1; not concurrent, so no rule decides
        v = irreducibility_verdict(
            five_lines(), beta(("1/3", "1/3", "1/3", "1/5", "1/7"))
        )
        assert v.status is VerdictStatus.INCONCLUSIVE
        assert "E1" in v.reason

    def test_irreducible_verdicts_match_counts(self, rng):
        # whenever the verdict is irreducible and factors are computable,
        # the factor count must be 1
        for name, arr in corpus():
            if not classify(arr).normal_crossing:
                continue
            b = random_beta(rng, arr.m, 0)
            v = irreducibility_verdict(arr, b)
            assert v.status is VerdictStatus.IRREDUCIBLE, name
            assert decomposition_factors(arr, b).count == 1, name

    def test_reducible_witness_has_local_factors(self):
        # restricting to a neighbourhood meeting only the witness hyperplane
        # leaves a one-hyperplane arrangement with an integral exponent
        v = irreducibility_verdict(triangle(), beta(("2", "1/3", "1/5")))
        assert v.status is VerdictStatus.REDUCIBLE
        local = Arrangement.from_coefficients(2, [((1, 0), 0)])
        assert decomposition_factors(local, beta(("2",))).count == 2


class TestCertificates:
    def test_triangle_units_only(self):
        assert certificate(triangle()).forms == ((0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_concurrent_adds_sum_row(self):
        assert certificate(concurrent(3)).forms == (
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
            (1, 1, 1),
        )

    def test_five_lines_two_rows(self):
        forms = certificate(five_lines()).forms
        assert (1, 1, 1, 0, 0) in forms and (1, 0, 0, 1, 1) in forms
        assert len(forms) == 7

    def test_deduplicated_and_sorted(self):
        axes = Arrangement.from_coefficients(2, [((1, 0), 0), ((0, 1), 0)])
        res = ResolutionData.user_supplied([[0, 1], [1, 1]])
        forms = certificate(axes, res).forms
        assert forms == ((0, 1), (1, 0), (1, 1))
        assert forms == tuple(sorted(set(forms)))

    def test_higher_dim_requires_data(self):
        arr = Arrangement.from_coefficients(
            3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((1, 1, 0), 0)]
        )
        with pytest.raises(MissingResolutionError):
            certificate(arr)
        forms = certificate(arr, ResolutionData.user_supplied([[1, 1, 1]])).forms
        assert (1, 1, 1) in forms

    def test_certificate_verdict_coherence(self, rng):
        # irreducible verdicts coincide with the certificate firing
        for arr in (triangle(), concurrent(3), concurrent(4), five_lines()):
            cert = certificate(arr)
            for _ in range(20):
                b = random_beta(rng, arr.m, rng.randint(0, arr.m))
                v = irreducibility_verdict(arr, b)
                if cert.certifies(b):
                    assert v.status is VerdictStatus.IRREDUCIBLE
                elif v.status is VerdictStatus.IRREDUCIBLE:
                    pytest.fail("verdict irreducible without certificate")

    def test_evaluate(self):
        cert = certificate(concurrent(3))
        values = cert.evaluate(beta(("1/2", "1/2", "1/2")))
        assert values == (F(1, 2), F(1, 2), F(1, 2), F(3, 2))
        assert cert.certifies(beta(("1/2", "1/2", "1/2")))
        assert not cert.certifies(beta(("1/3", "1/3", "1/3")))


@st.composite
def line_arrangements(draw):
    """Line arrangements with coefficients in -2..2, so that parallel
    classes, pencils and concurrent triples all occur."""
    coeff = st.integers(-2, 2)
    triples = draw(
        st.lists(st.tuples(coeff, coeff, coeff).filter(lambda t: t[0] or t[1]), max_size=9)
    )
    lines = {Hyperplane.from_coefficients((a, b), c): None for a, b, c in triples}
    return Arrangement(2, tuple(lines))


def write_arrangement(tmp_path, arr: Arrangement, resolution=None) -> str:
    doc = {
        "dim": arr.dim,
        "hyperplanes": [
            {"coeffs": [str(a) for a in h.normal], "constant": str(h.constant)}
            for h in arr.hyperplanes
        ],
        "beta": [f"1/{i + 2}" for i in range(arr.m)],
    }
    if resolution is not None:
        doc["resolution"] = {"multiplicities": [[str(r) for r in row] for row in resolution]}
    path = tmp_path / f"lines{arr.m}.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestPlanePoints:
    """The pairwise pass finds exactly the poset's points."""

    @settings(max_examples=80, deadline=None)
    @given(line_arrangements())
    def test_matches_poset_points(self, arr):
        points = [f for f in enumerate_flats(arr).flats if f.codim == 2]
        found = _plane_points(arr)
        assert list(found) == [f.closure_set for f in points]
        for flat in points:
            x, y, d = found[flat.closure_set]
            assert d > 0
            assert (Fraction(x, d), Fraction(y, d)) == flat.subspace.base_point()
        centers = plane_resolution(arr).centers
        assert [(c.point, c.incident) for c in centers] == [
            (f.subspace.base_point(), f.closure_set)
            for f in points
            if len(f.closure_set) >= 3
        ]

    def test_keeps_the_enumeration_cap(self, tmp_path, monkeypatch):
        # the pair pass is uncapped; classification in C^3 keeps the cap
        monkeypatch.delenv("ARRDMOD_LIMIT", raising=False)
        code, out, err = execute(
            ["resolve", "--input", write_arrangement(tmp_path, concurrent(17))]
        )
        assert code == 0, err
        planes = Arrangement.from_coefficients(
            3, [((1, t, t * t), 0) for t in range(1, 18)]
        )
        path = write_arrangement(tmp_path, planes)
        code, out, err = execute(["classify", "--input", path])
        assert (code, out) == (2, "")
        assert err == "arrdmod: flat enumeration limited to m <= 16 hyperplanes, got 17\n"
        monkeypatch.setenv("ARRDMOD_LIMIT", "17")
        assert execute(["classify", "--input", path])[0] == 0

    def test_normal_crossing_verdict_needs_no_point_pass(self, tmp_path, monkeypatch):
        # the tangents t x - y - t^2 = 0 to a parabola: no three concurrent,
        # so the verdict answers past the enumeration cap without --limit
        monkeypatch.delenv("ARRDMOD_LIMIT", raising=False)
        arr = Arrangement.from_coefficients(2, [((t, -1), -t * t) for t in range(1, 18)])
        code, out, err = execute(["verdict", "--input", write_arrangement(tmp_path, arr)])
        assert code == 0, err
        assert out.startswith("verdict: IRREDUCIBLE\nrule: normal-crossing\n")

    def test_pencil_of_200_lines(self, tmp_path):
        path = write_arrangement(tmp_path, concurrent(200))
        code, out, err = execute(
            ["resolve", "--input", path, "--format", "json", "--limit", "200"]
        )
        assert code == 0, err
        centers = json.loads(out)["resolution"]["centers"]
        assert centers == [{"point": ["0", "0"], "incident": list(range(1, 201))}]

    @pytest.mark.parametrize("which", ["pencil", "grid"])
    def test_large_classify_and_verdict(self, which, tmp_path, monkeypatch):
        # the plane walk is O(m^2): classify needs no flag past 16 lines
        monkeypatch.delenv("ARRDMOD_LIMIT", raising=False)
        arr = concurrent(200) if which == "pencil" else grid(50)
        path = write_arrangement(tmp_path, arr)
        code, out, err = execute(["classify", "--input", path])
        assert code == 0, err
        central = "yes" if which == "pencil" else "no"
        assert out.splitlines() == [
            "general position: no",
            "normal crossing:  no",
            f"central:          {central}",
        ]
        code, out, err = execute(["verdict", "--input", path, "--limit", "200"])
        assert code == 0, err

    def test_grid_of_197_lines(self, tmp_path):
        c = 50
        arr = grid(c)
        assert arr.m == 4 * c - 3 == 197
        code, out, err = execute(
            ["resolve", "--input", write_arrangement(tmp_path, arr), "--limit", "200"]
        )
        assert code == 0, err
        header, *lines = out.splitlines()
        assert header == f"{c * c - 2} blow-up center(s)"
        # x = i is line i+1, y = j is line c+j+1, x - y = d is line 3c+d-1
        expected = {
            f"  ({i}, {j}) on {{{i + 1},{c + j + 1},{3 * c + i - j - 1}}}"
            for i in range(c)
            for j in range(c)
            if abs(i - j) <= c - 2
        }
        assert len(expected) == c * c - 2
        assert len(lines) == len(set(lines)) and set(lines) == expected


class TestWorkBudget:
    """Plane commands read points from the pairwise pass: no flat
    enumeration and no subspace intersection."""

    @pytest.mark.parametrize("which", ["five_lines", "grid4"])
    @pytest.mark.parametrize("user_resolution", [False, True])
    def test_plane_commands_enumerate_nothing(
        self, which, user_resolution, tmp_path, monkeypatch
    ):
        arr = five_lines() if which == "five_lines" else grid(4)
        rows = None
        if user_resolution:
            rows = plane_resolution(arr).multiplicities
        path = write_arrangement(tmp_path, arr, rows)
        calls = {"enumerate_flats": 0, "intersect_rows": 0}
        enumerate_original = poset.enumerate_flats
        intersect_rows = AffineSubspace.intersect_rows

        def counting_enumerate(*args, **kwargs):
            calls["enumerate_flats"] += 1
            return enumerate_original(*args, **kwargs)

        def counting_intersect(self, rows):
            calls["intersect_rows"] += 1
            return intersect_rows(self, rows)

        # every module that bound the function by name sees the counter
        for name, module in list(sys.modules.items()):
            if name.startswith("arrdmod") and (
                getattr(module, "enumerate_flats", None) is enumerate_original
            ):
                monkeypatch.setattr(module, "enumerate_flats", counting_enumerate)
        monkeypatch.setattr(AffineSubspace, "intersect_rows", counting_intersect)
        for command in ("resolve", "pullback", "certificate", "verdict"):
            code, out, err = execute([command, "--input", path])
            assert code == 0, (command, err)
        assert calls == {"enumerate_flats": 0, "intersect_rows": 0}
