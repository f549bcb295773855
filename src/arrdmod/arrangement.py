"""Arrangement data model: canonical hyperplanes, classification, reduction.

A hyperplane is the zero set of a degree-one functional ``a.x + c``; the
stored form is canonical (coprime integer coefficients, first nonzero normal
entry positive), so equal hyperplanes compare equal no matter how they were
given.  Classification follows the usual trichotomy: general position implies
normal crossing; central means a common point exists.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from arrdmod import _kernel
from arrdmod.errors import ResourceLimitError, ValidationError
from arrdmod.exactla import AffineSubspace, as_rational

DEFAULT_ENUM_LIMIT = 16


@dataclass(frozen=True)
class Hyperplane:
    """Canonical form of the affine hyperplane ``normal.x + constant = 0``."""

    normal: tuple[int, ...]
    constant: int

    @classmethod
    def from_coefficients(cls, normal: Sequence, constant) -> "Hyperplane":
        """Normalize arbitrary rational coefficients to canonical form."""
        a = [as_rational(x) for x in normal]
        c = as_rational(constant)
        if all(x == 0 for x in a):
            raise ValidationError("hyperplane normal must be nonzero")
        scale = lcm(*(x.denominator for x in a), c.denominator)
        ints = [int(x * scale) for x in a] + [int(c * scale)]
        g = gcd(*ints)
        ints = [x // g for x in ints]
        lead = next(x for x in ints[:-1] if x != 0)
        if lead < 0:
            ints = [-x for x in ints]
        return cls(tuple(ints[:-1]), ints[-1])

    @property
    def dim(self) -> int:
        return len(self.normal)

    def equation_row(self) -> tuple[int, ...]:
        """Augmented row ``(a, c)`` for the exactla solvers."""
        return (*self.normal, self.constant)

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.dim:
            raise ValidationError("point/hyperplane dimension mismatch")
        return sum(
            (a * as_rational(x) for a, x in zip(self.normal, point)),
            Fraction(self.constant),
        )

    def contains(self, subspace: AffineSubspace) -> bool:
        return subspace.annihilates(self.normal, self.constant)

    def __str__(self) -> str:
        terms = []
        for j, a in enumerate(self.normal):
            if a == 0:
                continue
            coef = "" if a == 1 else "-" if a == -1 else f"{a}*"
            term = f"{coef}x{j + 1}"
            terms.append(term if not terms or a < 0 else f"+{term}")
        if self.constant:
            c = self.constant
            terms.append(f"+{c}" if c > 0 else str(c))
        return "".join(terms)


@dataclass(frozen=True)
class Arrangement:
    """A finite list of pairwise distinct hyperplanes in C^dim.

    Order matters: the i-th hyperplane (1-based in reports) carries the i-th
    exponent downstream.  Repeated hyperplanes are rejected rather than
    merged, since one exponent is attached per distinct functional.
    """

    dim: int
    hyperplanes: tuple[Hyperplane, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("ambient dimension must be >= 1")
        seen = {}
        for pos, h in enumerate(self.hyperplanes):
            if not isinstance(h, Hyperplane):
                raise ValidationError("hyperplanes must be Hyperplane instances")
            if h.dim != self.dim:
                raise ValidationError(
                    f"hyperplane {pos + 1} lives in C^{h.dim}, arrangement in C^{self.dim}"
                )
            if h in seen:
                raise ValidationError(
                    f"hyperplanes {seen[h] + 1} and {pos + 1} coincide ({h})"
                )
            seen[h] = pos

    @classmethod
    def from_coefficients(
        cls, dim: int, rows: Iterable[tuple[Sequence, object]]
    ) -> "Arrangement":
        """Build from ``(normal, constant)`` pairs in any rational form."""
        return cls(dim, tuple(Hyperplane.from_coefficients(a, c) for a, c in rows))

    @property
    def m(self) -> int:
        return len(self.hyperplanes)

    def equation_rows(self, indices: Iterable[int] | None = None) -> list[tuple[int, ...]]:
        """Augmented rows for the 1-based ``indices`` (default: all)."""
        if indices is None:
            return [h.equation_row() for h in self.hyperplanes]
        rows = []
        for i in indices:
            if not 1 <= i <= self.m:
                raise ValidationError(f"hyperplane index {i} outside 1..{self.m}")
            rows.append(self.hyperplanes[i - 1].equation_row())
        return rows

    def common_intersection(self) -> AffineSubspace:
        return AffineSubspace.from_rows(self.equation_rows(), self.dim)


@dataclass(frozen=True)
class Classification:
    general_position: bool
    normal_crossing: bool
    central: bool
    common_intersection: AffineSubspace


def check_enum_limit(m: int, limit: int | None) -> None:
    """Refuse an arrangement of more than ``limit`` hyperplanes.

    This is the library's one cap, and it guards only work that can grow
    exponentially with m: flat enumeration, and :func:`classify` in
    dimension >= 3.  Passes over pairs of hyperplanes (classification and
    the point pass in the plane) are O(m^2) and never capped.  ``None``
    falls back to ``ARRDMOD_LIMIT``, then to ``DEFAULT_ENUM_LIMIT``.
    """
    cap = limit
    if cap is None:
        env = os.environ.get("ARRDMOD_LIMIT")
        try:
            cap = int(env) if env else DEFAULT_ENUM_LIMIT
        except ValueError:
            raise ValidationError(
                f"ARRDMOD_LIMIT must be an integer, got {env!r}"
            ) from None
    if m > cap:
        raise ResourceLimitError(
            f"flat enumeration limited to m <= {cap} hyperplanes, got {m}"
        )


def classify(arr: Arrangement, limit: int | None = None) -> Classification:
    """Classify an arrangement by a depth-first walk over restricted rows.

    General position: every p <= n of the hyperplanes meet in dimension
    n - p, and every n+1 of them miss each other.  Normal crossing: every
    subset with a nonempty intersection has linearly independent normals.

    A node of the walk is a subset S whose hyperplanes are independent and
    meet in a flat F_S of dimension d >= 1.  It holds only the rows of the
    hyperplanes j > max(S), restricted to F_S in F_S's own coordinates and
    keyed by :func:`_kernel.primitive_key`; the root is S = {} with the
    canonical equation rows.  At a node:

    - a row with zero linear part is a hyperplane parallel to F_S, so
      S + {j} is an empty intersection of at most n hyperplanes: general
      position fails;
    - two equal keys j < k are hyperplanes meeting F_S in the same flat, so
      S + {j, k} is dependent with a nonempty intersection: both general
      position and normal crossing fail, and the walk stops;
    - otherwise, when d >= 2, each remaining row j spawns the child
      S + {j} with the rows i > j cut by row j (:func:`_kernel.cut`).
      Children that would be points are not built.

    No node holds an all-zero row (a hyperplane containing F_S): if row j
    vanishes on F_S, with S = S' + {k}, then rows k and j are proportional
    at the parent S', where the walk has already stopped.

    Completeness.  Sort a dependent set U with a nonempty intersection and
    take its first dependent prefix u_1..u_i (i >= 2).  The nodes
    {u_1..u_t}, t <= i - 2, all exist, since every proper prefix is
    independent with a nonempty intersection of dimension >= 1, and at
    {u_1..u_(i-2)} rows u_(i-1) and u_i restrict to the same hyperplane.  An
    empty intersection of at most n hyperplanes shows up, once normal
    crossing holds, as a zero linear part at the node of its longest
    nonempty prefix.  So no node needs the rows j < max(S), no point needs a
    node, and the walk decides both properties.  In the plane it is the
    pairwise pass over lines, O(m^2); in dimension >= 3 the number of nodes
    can grow exponentially with m, so there the hyperplane count is capped
    by :func:`check_enum_limit`.  Central means the common intersection,
    one row reduction, is nonempty.
    """
    if arr.dim >= 3:
        check_enum_limit(arr.m, limit)
    general = crossing = True
    nodes = [arr.equation_rows()]
    while nodes:
        rows = nodes.pop()
        live = [r for r in rows if r is not None]
        if len(live) < len(rows):
            general = False
        if len(set(live)) < len(live):
            general = crossing = False
            break
        if live and len(live[0]) > 2:
            nodes.extend(
                _kernel.cut(k, live[t + 1 :]) for t, k in enumerate(live[:-1])
            )
    common = arr.common_intersection()
    return Classification(general, crossing, not common.is_empty, common)


@dataclass(frozen=True)
class EssentializationSplit:
    """How the ambient space was split during reduction.

    The reduced arrangement lives on the coordinates listed in
    ``pivot_coords`` (0-based), embedded through the base point: a reduced
    point t maps to ``base_point + sum(t_k * e_{pivot_k})``.
    """

    base_point: tuple[Fraction, ...]
    pivot_coords: tuple[int, ...]

    @property
    def is_identity(self) -> bool:
        return all(x == 0 for x in self.base_point) and self.pivot_coords == tuple(
            range(len(self.base_point))
        )


def essentialize(arr: Arrangement) -> tuple[Arrangement, EssentializationSplit]:
    """Restrict to a complement of the common intersection.

    When the intersection of all hyperplanes is empty or a point (or the
    arrangement is empty), the arrangement is already essential and comes
    back unchanged with an identity split.  Otherwise each functional is
    restricted to the coordinate complement spanned by the pivot columns of
    the normals, translated so the common intersection meets it in a single
    point.  Factor counts are preserved for every exponent vector.
    """
    n = arr.dim
    identity = EssentializationSplit(tuple([Fraction(0)] * n), tuple(range(n)))
    if arr.m == 0:
        return arr, identity
    common = arr.common_intersection()
    if common.is_empty or common.dim == 0:
        return arr, identity
    pivots = common.pivots
    base = common.base_point()
    reduced_rows = []
    for h in arr.hyperplanes:
        normal = tuple(Fraction(h.normal[p]) for p in pivots)
        constant = h.evaluate(base)
        reduced_rows.append((normal, constant))
    reduced = Arrangement.from_coefficients(len(pivots), reduced_rows)
    return reduced, EssentializationSplit(base, pivots)
