"""Decomposition-factor supports and counts for normal crossing arrangements.

For a normal crossing arrangement there is exactly one factor per flat whose
closure set carries only integer exponents (the ambient flat always
qualifies, over the empty set).  In general position the count collapses to
a binomial sum over the number of integral exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from arrdmod.arrangement import Arrangement, classify
from arrdmod.errors import PreconditionError, ValidationError
from arrdmod.exactla import as_rational, format_rational
from arrdmod.poset import enumerate_flats


@dataclass(frozen=True)
class ExponentVector:
    """The exponent multi-index, one exact rational per hyperplane."""

    entries: tuple[Fraction, ...]

    @classmethod
    def from_values(cls, values: Sequence) -> "ExponentVector":
        return cls(tuple(as_rational(v) for v in values))

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, index: int) -> Fraction:
        """The exponent of hyperplane ``index`` (1-based)."""
        return self.entries[index - 1]

    def integral_indices(self) -> tuple[int, ...]:
        return tuple(
            i for i, b in enumerate(self.entries, start=1) if b.denominator == 1
        )

    def combination(self, coefficients: Sequence[int]) -> Fraction:
        """The integer linear form ``sum(c_i * beta_i)``, exactly."""
        if len(coefficients) != len(self.entries):
            raise ValidationError("coefficient/exponent length mismatch")
        return sum(
            (c * b for c, b in zip(coefficients, self.entries) if c), Fraction(0)
        )

    def total(self) -> Fraction:
        return sum(self.entries, Fraction(0))

    def __str__(self) -> str:
        return "(" + ", ".join(format_rational(b) for b in self.entries) + ")"


@dataclass(frozen=True)
class FactorReport:
    """Supports of the decomposition factors, one flat each, and their count."""

    supports: tuple
    count: int


def _check_beta(arr: Arrangement, beta: ExponentVector) -> None:
    if len(beta) != arr.m:
        raise ValidationError(
            f"exponent vector has {len(beta)} entries for {arr.m} hyperplanes"
        )


def decomposition_factors(
    arr: Arrangement, beta: ExponentVector, limit: int | None = None
) -> FactorReport:
    """One factor per flat all of whose closure exponents are integers.

    Requires a normal crossing arrangement; anything else must be resolved
    first (see the resolution module / the ``resolve`` command).
    """
    _check_beta(arr, beta)
    if not classify(arr, limit).normal_crossing:
        raise PreconditionError(
            "factors requires a normal crossing arrangement; run `resolve`"
        )
    integral = set(beta.integral_indices())
    poset = enumerate_flats(arr, limit)
    supports = tuple(
        f for f in poset.flats if all(i in integral for i in f.closure_set)
    )
    return FactorReport(supports, len(supports))


def count_general_position(n: int, k: int) -> int:
    """Factor count for a general position arrangement in C^n with k
    integral exponents: sum of C(k, j) for j = 0..n."""
    return sum(comb(k, j) for j in range(n + 1))


def flat_count_general_position(n: int, m: int) -> int:
    """Number of flats of a general position arrangement of m hyperplanes
    in C^n: sum of C(m, k) for k = 0..n."""
    return sum(comb(m, k) for k in range(n + 1))
