"""Exact rational linear algebra: row reduction and canonical affine subspaces.

Scalars are ints and ``fractions.Fraction`` (arbitrary precision, always in
lowest terms, positive denominator); floats are rejected everywhere so that
integrality questions stay decidable.  An affine subspace of C^n is stored as
the unique reduced row-echelon form of its defining system, each row scaled
to coprime integers, which makes set-equality of subspaces a syntactic
comparison and keeps the arithmetic on it in integers.

Equation convention: a row ``(a_1, ..., a_n, c)`` encodes ``a.x + c = 0``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from arrdmod import _kernel
from arrdmod.errors import ValidationError

_EXACT_TYPES = (int, Fraction)


def as_rational(value) -> Fraction:
    """Coerce ``value`` (int, Fraction or rational string) to Fraction.

    Floats are refused: they would silently break exactness.
    """
    if isinstance(value, bool) or not isinstance(value, (*_EXACT_TYPES, str)):
        raise ValidationError(f"not an exact rational: {value!r}")
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


_RATIONAL_RE = re.compile(r"[+-]?\d+(/[+-]?\d+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` with integer p, q and q != 0."""
    body = text.strip()
    if not _RATIONAL_RE.match(body):
        raise ValidationError(f"malformed rational {text!r}")
    num, _, den = body.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ZeroDivisionError as exc:
        raise ValidationError(f"malformed rational {text!r} (zero denominator)") from exc
    except ValueError:
        # int() refuses strings beyond the int string-conversion limit
        raise ValidationError(
            f"rational has more than {sys.get_int_max_str_digits()} digits "
            "in its numerator or denominator"
        ) from None


def format_rational(value: Fraction | int) -> str:
    """Render in lowest terms: ``"p"`` when integral, else ``"p/q"``.

    A value beyond the int string-conversion limit is refused with a
    ``ValidationError`` rather than the interpreter's ``ValueError``.
    """
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise ValidationError(
            f"a result has more than {sys.get_int_max_str_digits()} digits "
            "in its numerator or denominator"
        ) from None


def is_integral(value: Fraction | int) -> bool:
    return Fraction(value).denominator == 1


def _int_rows(matrix: Sequence[Sequence]) -> list[list[int]]:
    """Clear denominators row-wise (row scaling preserves the RREF)."""
    out = []
    for row in matrix:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        vals = [as_rational(x) for x in row]
        scale = lcm(*(v.denominator for v in vals)) if vals else 1
        out.append([int(v * scale) for v in vals])
    return out


def _int_functional(normal: Sequence, constant) -> tuple[list[int], int]:
    """Scale an affine functional to integer coefficients."""
    if all(type(x) is int for x in normal) and type(constant) is int:
        return list(normal), constant
    a = [as_rational(x) for x in normal]
    c = as_rational(constant)
    scale = lcm(*(x.denominator for x in a), c.denominator)
    return [int(x * scale) for x in a], int(c * scale)


class RrefResult(NamedTuple):
    matrix: tuple[tuple[Fraction, ...], ...]
    rank: int
    pivots: tuple[int, ...]


def rref(matrix: Sequence[Sequence]) -> RrefResult:
    """Unique reduced row-echelon form of a rational matrix.

    Accepts any rectangular array of ints/Fractions with at least one column;
    a matrix with zero rows is fine and has rank 0.
    """
    rows = _int_rows(matrix)
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ValidationError("ragged matrix")
    if rows and widths == {0}:
        raise ValidationError("matrix must have at least one column")
    mat, denom, pivots = _kernel.rref_scaled(rows)
    reduced = tuple(tuple(Fraction(x, denom) for x in row) for row in mat)
    return RrefResult(reduced, len(pivots), tuple(pivots))


def matrix_rank(matrix: Sequence[Sequence]) -> int:
    """Rank over Q, by forward fraction-free elimination."""
    rows = _int_rows(matrix)
    if len({len(r) for r in rows}) > 1:
        raise ValidationError("ragged matrix")
    return len(_kernel.pivot_columns(rows))


@dataclass(frozen=True)
class AffineSubspace:
    """An affine subspace of C^n stored as its canonical integer system.

    ``rows`` is the reduced row-echelon form of the defining augmented
    system with zero rows dropped, each row scaled to coprime integers with a
    positive pivot entry; it is ``None`` exactly for the empty set.  That form
    is unique, so two subspaces are equal as point sets iff their rows are
    identical, and instances hash and compare by value.  The rational views
    (``canonical_system``, ``base_point()``, ``direction_basis()``) are built
    only when asked for.
    """

    ambient_dim: int
    rows: tuple[tuple[int, ...], ...] | None
    pivots: tuple[int, ...] = ()

    @classmethod
    def ambient(cls, ambient_dim: int) -> "AffineSubspace":
        """The whole space C^n (empty defining system)."""
        return cls(ambient_dim, ())

    @classmethod
    def empty(cls, ambient_dim: int) -> "AffineSubspace":
        return cls(ambient_dim, None)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], ambient_dim: int) -> "AffineSubspace":
        """Solution set of augmented rows ``(a, c)`` meaning ``a.x + c = 0``."""
        if not rows:
            return cls.ambient(ambient_dim)
        for row in rows:
            if len(row) != ambient_dim + 1:
                raise ValidationError(
                    f"equation of length {len(row)} in ambient dimension {ambient_dim}"
                )
        return cls._from_int_rows(_int_rows(rows), ambient_dim)

    @classmethod
    def _from_int_rows(cls, rows: list[list[int]], ambient_dim: int) -> "AffineSubspace":
        mat, denom, pivots = _kernel.rref_scaled(rows)
        if ambient_dim in pivots:
            # A pivot in the constant column means the system forces 0 = 1.
            return cls.empty(ambient_dim)
        # Every pivot entry of the kernel's rows equals ``denom``, so dividing
        # each row by its gcd, signed like ``denom``, gives the canonical row.
        sign = 1 if denom > 0 else -1
        canonical = []
        for row in mat[: len(pivots)]:
            g = sign * gcd(*row)
            canonical.append(tuple(x // g for x in row))
        return cls(ambient_dim, tuple(canonical), tuple(pivots))

    @property
    def is_empty(self) -> bool:
        return self.rows is None

    @property
    def dim(self):
        """Dimension, or None for the empty set."""
        if self.is_empty:
            return None
        return self.ambient_dim - len(self.rows)

    @property
    def codim(self):
        if self.is_empty:
            return None
        return len(self.rows)

    def __repr__(self):
        if self.is_empty:
            return f"AffineSubspace.empty({self.ambient_dim})"
        return (
            f"AffineSubspace(dim={self.dim} in C^{self.ambient_dim}, "
            f"{len(self.rows)} equations)"
        )

    @cached_property
    def canonical_system(self) -> tuple[tuple[Fraction, ...], ...] | None:
        """The reduced row-echelon form over Q (pivot entries 1); ``None``
        exactly for the empty set."""
        if self.is_empty:
            return None
        return tuple(
            tuple(Fraction(x, row[p]) for x in row)
            for p, row in zip(self.pivots, self.rows)
        )

    @cached_property
    def _int_point(self) -> tuple[tuple[int, ...], int]:
        # Base point (free coordinates 0, pivots forced) as (numerators,
        # positive common denominator); the denominator is the lcm of the
        # pivot entries, so row i scales by den // pivot entry.
        n = self.ambient_dim
        den = lcm(*(row[p] for p, row in zip(self.pivots, self.rows)))
        point = [0] * n
        for p, row in zip(self.pivots, self.rows):
            point[p] = -row[n] * (den // row[p])
        return tuple(point), den

    @cached_property
    def _int_directions(self) -> tuple[tuple[int, ...], ...]:
        # One translation vector per free coordinate f: the Fraction basis
        # vector (1 at f, pivots forced) times the base point's denominator.
        den = self._int_point[1]
        basis = []
        for f in range(self.ambient_dim):
            if f in self.pivots:
                continue
            vec = [0] * self.ambient_dim
            vec[f] = den
            for p, row in zip(self.pivots, self.rows):
                vec[p] = -row[f] * (den // row[p])
            basis.append(tuple(vec))
        return tuple(basis)

    def base_point(self) -> tuple[Fraction, ...]:
        """The canonical point (free coordinates set to 0)."""
        if self.is_empty:
            raise ValidationError("empty subspace has no point")
        num, den = self._int_point
        return tuple(Fraction(x, den) for x in num)

    def direction_basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """Basis of the translation vector space (empty for a point): one
        vector per free coordinate, 1 there and 0 at the other free ones."""
        if self.is_empty:
            raise ValidationError("empty subspace has no directions")
        den = self._int_point[1]
        return tuple(tuple(Fraction(x, den) for x in w) for w in self._int_directions)

    def contains_point(self, point: Sequence) -> bool:
        if self.is_empty:
            return False
        p = [as_rational(x) for x in point]
        if len(p) != self.ambient_dim:
            raise ValidationError("point/ambient dimension mismatch")
        return all(sum(map(mul, row, p)) + row[-1] == 0 for row in self.rows)

    def restrict(self, normal: Sequence[int], constant: int) -> tuple[int, ...]:
        """The integer functional ``normal.x + constant`` in this subspace's
        own affine coordinates.

        With the base point p and the direction basis w_1..w_d, the result
        is ``(normal.w_1, ..., normal.w_d, normal.p + constant)`` times one
        positive integer, fixed per subspace.  It is all zero exactly when
        the functional vanishes on the subspace, and its linear part (all but
        the last entry) is zero exactly when the functional is constant there.
        """
        if self.is_empty:
            raise ValidationError("cannot restrict to the empty subspace")
        if len(normal) != self.ambient_dim:
            raise ValidationError("functional/ambient dimension mismatch")
        num, den = self._int_point
        return (
            *(sum(map(mul, normal, w)) for w in self._int_directions),
            sum(map(mul, normal, num)) + constant * den,
        )

    def annihilates(self, normal: Sequence, constant) -> bool:
        """True iff the affine functional ``normal.x + constant`` vanishes
        identically on this subspace (empty subspace: vacuously true)."""
        if self.is_empty:
            return True
        return not any(self.restrict(*_int_functional(normal, constant)))

    def intersect_rows(self, rows: Sequence[Sequence]) -> "AffineSubspace":
        """Intersect with the solution set of extra augmented rows."""
        if self.is_empty:
            return self
        for row in rows:
            if len(row) != self.ambient_dim + 1:
                raise ValidationError(
                    f"equation of length {len(row)} in ambient dimension "
                    f"{self.ambient_dim}"
                )
        return AffineSubspace._from_int_rows(
            [*map(list, self.rows), *_int_rows(rows)], self.ambient_dim
        )


def intersect(
    equations: Iterable[tuple[Sequence, object]], ambient_dim: int
) -> AffineSubspace:
    """Common solution set of hyperplane equations ``(normal, constant)``.

    An empty list of equations yields the ambient space.
    """
    rows = []
    for normal, constant in equations:
        normal = list(normal)
        if len(normal) != ambient_dim:
            raise ValidationError(
                f"normal of length {len(normal)} in ambient dimension {ambient_dim}"
            )
        rows.append([*normal, constant])
    return AffineSubspace.from_rows(rows, ambient_dim)
