"""Plane blow-up data, pulled-back exponents, irreducibility verdicts.

For a line arrangement the only failures of normal crossing are points on
three or more lines; blowing those up once resolves everything, and each
line passes through each blown-up point with multiplicity 0 or 1.  The
resulting exceptional multiplicity matrix feeds two things: the exponents
of the exceptional divisors (row-wise integer combinations of beta), and a
beta-free certificate whose simultaneous non-integrality proves the twisted
module irreducible.  In higher dimension the matrix must be supplied by the
caller; it is consumed as a sufficient test only.

In the plane every point of the intersection poset is the meet of two
non-parallel lines, and two lines meet in at most one point.  One pass over
all pairs of lines therefore finds every point together with the full set
of lines through it: Cramer's rule gives the meet as an integer triple, and
grouping the pairs on their reduced triples yields the closure sets.  No
flat enumeration is needed for blow-up centers, coverage checks or double
points.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Sequence

from arrdmod.arrangement import Arrangement, classify
from arrdmod.errors import (
    MissingResolutionError,
    PreconditionError,
    UnsupportedDimensionError,
    ValidationError,
)
from arrdmod.exactla import format_rational, is_integral
from arrdmod.factors import ExponentVector, FactorReport, _check_beta


class ResolutionSource(Enum):
    PLANE_BLOWUP = "plane_blowup"
    USER_SUPPLIED = "user_supplied"


@dataclass(frozen=True)
class BlowupCenter:
    """A blown-up point and the (1-based) indices of the hyperplanes on it."""

    point: tuple[Fraction, ...]
    incident: tuple[int, ...]


@dataclass(frozen=True)
class ResolutionData:
    """Exceptional-divisor bookkeeping: one multiplicity row per divisor.

    ``multiplicities[j][i]`` is the vanishing order of the i-th pulled-back
    functional along the j-th exceptional divisor.  For plane blow-ups the
    rows are 0/1 indicators of the incident lines and centers are recorded;
    user-supplied data carries rows only.
    """

    centers: tuple[BlowupCenter, ...]
    multiplicities: tuple[tuple[int, ...], ...]
    source: ResolutionSource

    @classmethod
    def user_supplied(cls, multiplicities: Sequence[Sequence[int]]) -> "ResolutionData":
        rows = []
        width = None
        for j, row in enumerate(multiplicities):
            entries = tuple(row)
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise ValidationError("ragged multiplicity matrix")
            for r in entries:
                if not isinstance(r, int) or isinstance(r, bool) or r < 0:
                    raise ValidationError(
                        f"multiplicities[{j}] must hold nonnegative integers"
                    )
            if not any(entries):
                raise ValidationError(
                    f"multiplicities[{j}] is all zero; an exceptional divisor "
                    "lies over at least one hyperplane"
                )
            rows.append(entries)
        return cls((), tuple(rows), ResolutionSource.USER_SUPPLIED)

    def row_supports(self) -> tuple[tuple[int, ...], ...]:
        """Per row, the 1-based indices with nonzero multiplicity."""
        return tuple(
            tuple(i for i, r in enumerate(row, start=1) if r)
            for row in self.multiplicities
        )


@dataclass(frozen=True)
class ExtendedExponents:
    """Exponents upstairs: the original ones on the strict transforms plus
    one integer combination per exceptional divisor."""

    strict: tuple[Fraction, ...]
    exceptional: tuple[Fraction, ...]


@dataclass(frozen=True)
class UpstairsFlat:
    """An intersection of named divisors on the blown-up surface.

    Names are ``H~i`` for the strict transform of hyperplane i and ``Ej``
    for the j-th exceptional divisor; the empty intersection is the surface.
    """

    divisors: tuple[str, ...]

    @property
    def codim(self) -> int:
        return len(self.divisors)

    def label(self) -> str:
        return " ∩ ".join(self.divisors) if self.divisors else "ambient"


class VerdictStatus(Enum):
    IRREDUCIBLE = "IRREDUCIBLE"
    REDUCIBLE = "REDUCIBLE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Certificate:
    """Integer linear forms in beta whose joint non-integrality proves the
    twisted module irreducible: the unit forms plus one multiplicity row per
    exceptional divisor, deduplicated and sorted."""

    forms: tuple[tuple[int, ...], ...]

    def evaluate(self, beta: ExponentVector) -> tuple[Fraction, ...]:
        return tuple(beta.combination(form) for form in self.forms)

    def certifies(self, beta: ExponentVector) -> bool:
        """True iff every form evaluates to a non-integer on ``beta``."""
        return all(not is_integral(v) for v in self.evaluate(beta))


@dataclass(frozen=True)
class Verdict:
    status: VerdictStatus
    rule: str
    witness: str | None = None
    certificate: Certificate | None = None
    reason: str | None = None


def _plane_points(arr: Arrangement) -> dict[tuple[int, ...], tuple[int, int, int]]:
    """Every point of a line arrangement, from one pass over line pairs.

    Lines ``a x + b y + c = 0`` with ``det = a_i b_j - a_j b_i == 0`` are
    parallel (distinct lines never coincide); any other pair meets in
    ``(b_i c_j - b_j c_i, c_i a_j - c_j a_i) / det``, keyed as the
    gcd-reduced integer triple ``(x, y, d)`` with ``d > 0``.  Returns the
    closure set (sorted 1-based lines through the point) mapped to that
    triple, in closure-set order, which is the poset's order on points:
    pairs are visited in lexicographic order, so a point is first met at its
    two smallest lines, and no two points share two lines.  The pass is
    O(m^2), so it takes no hyperplane cap.
    """
    lines = arr.equation_rows()
    through: dict[tuple[int, int, int], set[int]] = {}
    for i, (ai, bi, ci) in enumerate(lines, start=1):
        for j, (aj, bj, cj) in enumerate(lines[i:], start=i + 1):
            det = ai * bj - aj * bi
            if not det:
                continue
            x = bi * cj - bj * ci
            y = ci * aj - cj * ai
            g = gcd(x, y, det) if det > 0 else -gcd(x, y, det)
            key = (x // g, y // g, det // g)
            through.setdefault(key, set()).update((i, j))
    return {tuple(sorted(s)): key for key, s in through.items()}


def plane_resolution(arr: Arrangement) -> ResolutionData:
    """Blow-up data for a line arrangement: one center per point on >= 3 lines.

    Points on exactly two lines are already crossings and stay put.  Each
    multiplicity row is the 0/1 indicator of the lines through its center
    (degree-one functionals vanish to order exactly 1 there).
    """
    if arr.dim != 2:
        raise UnsupportedDimensionError(
            f"plane blow-ups need ambient dimension 2, got {arr.dim}; "
            "supply resolution data instead"
        )
    centers = [
        BlowupCenter((Fraction(x, d), Fraction(y, d)), lines)
        for lines, (x, y, d) in _plane_points(arr).items()
        if len(lines) >= 3
    ]
    rows = tuple(
        tuple(1 if i in c.incident else 0 for i in range(1, arr.m + 1))
        for c in centers
    )
    return ResolutionData(tuple(centers), rows, ResolutionSource.PLANE_BLOWUP)


def pullback_exponents(res: ResolutionData, beta: ExponentVector) -> ExtendedExponents:
    """Extend beta by one row-wise combination per exceptional divisor."""
    for row in res.multiplicities:
        if len(row) != len(beta):
            raise ValidationError(
                f"multiplicity row of width {len(row)} against {len(beta)} exponents"
            )
    return ExtendedExponents(
        beta.entries,
        tuple(beta.combination(row) for row in res.multiplicities),
    )


def _check_plane_coverage(arr: Arrangement, res: ResolutionData) -> None:
    """Require the indicator row of every point on >= 3 lines to be present.

    Extra rows are harmless for certificates and verdicts (they only add
    constraints), but a missing center would certify too much.
    """
    rows = set(res.multiplicities)
    for lines in _plane_points(arr):
        if len(lines) >= 3:
            indicator = tuple(1 if i in lines else 0 for i in range(1, arr.m + 1))
            if indicator not in rows:
                raise PreconditionError(
                    f"point on hyperplanes "
                    f"{{{','.join(map(str, lines))}}} has no "
                    "matching multiplicity row; the data does not cover a "
                    "resolution of this arrangement"
                )


def _plane_incidences(
    arr: Arrangement, res: ResolutionData
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Split the points into blown-up centers and untouched crossings.

    Returns (per-row incident index sets, closure sets of surviving double
    points).  Validates that the rows look like plane point blow-ups and
    that every point on >= 3 lines is covered by a row.
    """
    points = _plane_points(arr)
    if res.source is ResolutionSource.PLANE_BLOWUP:
        incident = [c.incident for c in res.centers]
    else:
        incident = list(res.row_supports())
        for row, support in zip(res.multiplicities, incident):
            if any(r not in (0, 1) for r in row):
                raise ValidationError(
                    "plane pull-back needs 0/1 multiplicity rows"
                )
            if support not in points:
                raise ValidationError(
                    f"multiplicity row {{{','.join(map(str, support))}}} does not "
                    "match a point of the arrangement"
                )
    blown = set(incident)
    if len(blown) != len(incident):
        raise ValidationError("duplicate blow-up centers")
    for key in points:
        if len(key) >= 3 and key not in blown:
            raise PreconditionError(
                f"point on hyperplanes {{{','.join(map(str, key))}}} is not "
                "blown up; the pull-back is not a normal crossing model"
            )
    survivors = sorted(key for key in points if key not in blown)
    return incident, survivors


def pullback_factors(
    arr: Arrangement,
    beta: ExponentVector,
    res: ResolutionData | None = None,
) -> FactorReport:
    """Factor supports of the pulled-back module on the blown-up plane.

    The divisors upstairs are the strict transforms and the exceptional
    lines; the only point intersections are surviving double points and
    strict-transform/exceptional crossings (each center separates its lines
    onto distinct points of its exceptional divisor, and exceptional
    divisors over distinct centers never meet).  One factor per upstairs
    flat whose divisors all carry integer exponents.
    """
    if arr.dim != 2:
        raise UnsupportedDimensionError(
            f"pull-back factor counts need ambient dimension 2, got {arr.dim}"
        )
    _check_beta(arr, beta)
    if res is None:
        res = plane_resolution(arr)
    extended = pullback_exponents(res, beta)
    incident, survivors = _plane_incidences(arr, res)

    strict_int = {i for i in range(1, arr.m + 1) if is_integral(extended.strict[i - 1])}
    exc_int = {
        j for j in range(1, len(incident) + 1)
        if is_integral(extended.exceptional[j - 1])
    }

    supports = [UpstairsFlat(())]
    supports += [UpstairsFlat((f"H~{i}",)) for i in sorted(strict_int)]
    supports += [UpstairsFlat((f"E{j}",)) for j in sorted(exc_int)]
    for key in survivors:
        i, j = key
        if i in strict_int and j in strict_int:
            supports.append(UpstairsFlat((f"H~{i}", f"H~{j}")))
    for j, lines in enumerate(incident, start=1):
        if j not in exc_int:
            continue
        for i in lines:
            if i in strict_int:
                supports.append(UpstairsFlat((f"H~{i}", f"E{j}")))
    return FactorReport(tuple(supports), len(supports))


def certificate(
    arr: Arrangement,
    res: ResolutionData | None = None,
    limit: int | None = None,
) -> Certificate:
    """The beta-free irreducibility certificate for an arrangement.

    Unit forms always; multiplicity rows whenever a resolution contributes
    exceptional divisors.  Any exponent vector (rational or not, by the
    caller's own reasoning) making every form non-integral yields an
    irreducible twisted module.

    Explicit plane resolution data is checked against the arrangement (a
    matrix missing a triple point would certify too much); data for
    dimension >= 3 cannot be checked and is trusted as given.
    """
    if res is None:
        if arr.dim == 2:
            res = plane_resolution(arr)
        elif classify(arr, limit).normal_crossing:
            res = ResolutionData((), (), ResolutionSource.USER_SUPPLIED)
        else:
            raise MissingResolutionError(
                f"certificate needs resolution data in dimension {arr.dim} "
                "for a non normal crossing arrangement"
            )
    else:
        for row in res.multiplicities:
            if len(row) != arr.m:
                raise ValidationError(
                    f"multiplicity row of width {len(row)} against {arr.m} hyperplanes"
                )
        if arr.dim == 2:
            _check_plane_coverage(arr, res)
    return _certificate_forms(arr.m, res.multiplicities)


def _certificate_forms(m: int, rows: Sequence[Sequence[int]]) -> Certificate:
    """The ``m`` unit forms plus ``rows``, deduplicated and sorted."""
    forms = {tuple(1 if j == i else 0 for j in range(m)) for i in range(m)}
    forms.update(tuple(row) for row in rows)
    return Certificate(tuple(sorted(forms)))


def irreducibility_verdict(
    arr: Arrangement,
    beta: ExponentVector,
    res: ResolutionData | None = None,
    limit: int | None = None,
) -> Verdict:
    """Decide (ir)reducibility of the twisted module; first rule wins.

    1. some integral exponent: reducible, the hyperplane is a witness;
    2. normal crossing, no integral exponent: irreducible (unit certificate);
    3. no integral exponent and every exceptional combination non-integral:
       irreducible with the full certificate;
    4. plane arrangement of concurrent lines with integral exponent sum:
       reducible (exact criterion for that shape);
    5. otherwise inconclusive, with the blocking data spelled out.
    """
    _check_beta(arr, beta)
    for i in beta.integral_indices():
        return Verdict(
            VerdictStatus.REDUCIBLE,
            rule="integral-exponent",
            witness=(
                f"exponent {format_rational(beta.entry(i))} of H_{i} = "
                f"V({arr.hyperplanes[i - 1]}) is an integer"
            ),
        )
    klass = classify(arr, limit)
    if klass.normal_crossing:
        # A normal crossing arrangement needs no blow-up (in the plane: no
        # point lies on three lines), so its certificate is the unit forms.
        return Verdict(
            VerdictStatus.IRREDUCIBLE,
            rule="normal-crossing",
            certificate=_certificate_forms(arr.m, ()),
        )
    if res is None and arr.dim == 2:
        res = plane_resolution(arr)
    elif res is not None and arr.dim == 2:
        _check_plane_coverage(arr, res)
    if res is None:
        return Verdict(
            VerdictStatus.INCONCLUSIVE,
            rule="missing-resolution",
            reason=(
                f"not normal crossing and no resolution data supplied for "
                f"ambient dimension {arr.dim}; provide a multiplicity matrix"
            ),
        )
    sums = pullback_exponents(res, beta).exceptional
    integral_sums = [j for j, v in enumerate(sums, start=1) if is_integral(v)]
    if not integral_sums:
        return Verdict(
            VerdictStatus.IRREDUCIBLE,
            rule="nonintegral-resolution-sums",
            certificate=certificate(arr, res, limit),
        )
    if arr.dim == 2 and klass.central and is_integral(beta.total()):
        point = klass.common_intersection.base_point()
        return Verdict(
            VerdictStatus.REDUCIBLE,
            rule="concurrent-integral-sum",
            witness=(
                f"all {arr.m} lines pass through "
                f"({', '.join(format_rational(x) for x in point)}) and the "
                f"exponent sum {format_rational(beta.total())} is an integer"
            ),
        )
    detail = ", ".join(
        f"E{j}: {format_rational(sums[j - 1])}" for j in integral_sums
    )
    return Verdict(
        VerdictStatus.INCONCLUSIVE,
        rule="integral-resolution-sum",
        reason=(
            f"exceptional exponent(s) {detail} are integers; the "
            "non-integrality test is only known to be exact for concurrent lines"
        ),
    )
