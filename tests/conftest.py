"""Shared arrangement builders, random generators and brute-force oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from arrdmod import _kernel
from arrdmod import (
    AffineSubspace,
    Arrangement,
    ExponentVector,
    classify,
)


def triangle() -> Arrangement:
    """x, y, x+y+1: three lines in general position (no common point)."""
    return Arrangement.from_coefficients(
        2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)]
    )


def concurrent(m: int) -> Arrangement:
    """m distinct lines through the origin: x, y, x + c*y."""
    rows = [((1, 0), 0), ((0, 1), 0)]
    rows += [((1, c), 0) for c in range(1, m - 1)]
    return Arrangement.from_coefficients(2, rows[:m])


def five_lines() -> Arrangement:
    """x, y, x+y, y-1, x+y-1: two triple points plus plain crossings."""
    return Arrangement.from_coefficients(
        2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 0), ((0, 1), -1), ((1, 1), -1)]
    )


def grid(c: int) -> Arrangement:
    """Lines x = i, y = j (0 <= i, j < c) and x - y = d for |d| <= c - 2:
    4c - 3 lines, with every lattice point of the grid on three of them
    except the two corners (0, c-1) and (c-1, 0)."""
    rows = [((1, 0), -i) for i in range(c)]
    rows += [((0, 1), -j) for j in range(c)]
    rows += [((1, -1), -d) for d in range(-(c - 2), c - 1)]
    return Arrangement.from_coefficients(2, rows)


def braid(n: int) -> Arrangement:
    """Braid arrangement A_{n-1}: x_i - x_j for i < j, in C^n."""
    rows = []
    for i, j in combinations(range(n), 2):
        normal = [0] * n
        normal[i], normal[j] = 1, -1
        rows.append((normal, 0))
    return Arrangement.from_coefficients(n, rows)


def coxeter_b(n: int) -> Arrangement:
    """Coxeter arrangement B_n: x_i - x_j, x_i + x_j for i < j, and x_i."""
    rows = []
    for i, j in combinations(range(n), 2):
        for sign in (-1, 1):
            normal = [0] * n
            normal[i], normal[j] = 1, sign
            rows.append((normal, 0))
    for i in range(n):
        normal = [0] * n
        normal[i] = 1
        rows.append((normal, 0))
    return Arrangement.from_coefficients(n, rows)


def corpus() -> list[tuple[str, Arrangement]]:
    """Fixed small arrangements, degenerate cases included."""
    return [
        ("empty", Arrangement.from_coefficients(2, [])),
        ("single", Arrangement.from_coefficients(2, [((1, 0), 0)])),
        ("parallel", Arrangement.from_coefficients(2, [((1, 0), 0), ((1, 0), 1)])),
        ("axes", Arrangement.from_coefficients(2, [((1, 0), 0), ((0, 1), 0)])),
        ("triangle", triangle()),
        ("concurrent3", concurrent(3)),
        ("concurrent5", concurrent(5)),
        ("five_lines", five_lines()),
        (
            "grid",
            Arrangement.from_coefficients(
                2, [((1, 0), 0), ((1, 0), -1), ((0, 1), 0), ((0, 1), -1)]
            ),
        ),
        (
            "pencil_plus_parallel",
            Arrangement.from_coefficients(
                2,
                [((1, 0), 0), ((0, 1), 0), ((1, 1), 0), ((1, 1), 1), ((1, -1), 2)],
            ),
        ),
        (
            "planes3d",
            Arrangement.from_coefficients(
                3,
                [
                    ((1, 0, 0), 0),
                    ((0, 1, 0), 0),
                    ((0, 0, 1), 0),
                    ((1, 1, 1), -1),
                    ((1, 1, 0), 0),
                ],
            ),
        ),
        (
            "axis3d",
            Arrangement.from_coefficients(
                3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((1, 2, 0), 3)]
            ),
        ),
    ]


def random_general_position(
    rng: random.Random, n: int, m: int, coeff_bound: int = 6
) -> Arrangement:
    """Rejection-sample integer data until classify reports general position."""
    while True:
        rows = []
        for _ in range(m):
            normal = [rng.randint(-coeff_bound, coeff_bound) for _ in range(n)]
            if all(a == 0 for a in normal):
                break
            rows.append((normal, rng.randint(-4, 4)))
        if len(rows) != m:
            continue
        try:
            arr = Arrangement.from_coefficients(n, rows)
        except Exception:
            continue
        if classify(arr).general_position:
            return arr


def random_beta(rng: random.Random, m: int, k: int) -> ExponentVector:
    """m exponents with exactly k integral entries, positions shuffled."""
    integral_at = set(rng.sample(range(m), k))
    entries = []
    for i in range(m):
        if i in integral_at:
            entries.append(Fraction(rng.randint(-5, 5)))
        else:
            q = rng.choice([2, 3, 5, 7])
            entries.append(Fraction(rng.randint(-4, 4) * q + rng.randint(1, q - 1), q))
    return ExponentVector(tuple(entries))


def random_affine_map(rng: random.Random, n: int):
    """A random invertible rational matrix U (as rows) and translation v."""
    from arrdmod import matrix_rank

    while True:
        u = [
            [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(n)]
            for _ in range(n)
        ]
        if matrix_rank(u) == n:
            break
    v = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)]
    return u, v


def transformed(arr: Arrangement, u, v) -> Arrangement:
    """Pull every functional back through x -> U x + v."""
    rows = []
    for h in arr.hyperplanes:
        normal = [
            sum(Fraction(h.normal[i]) * u[i][j] for i in range(arr.dim))
            for j in range(arr.dim)
        ]
        constant = sum(
            (Fraction(h.normal[i]) * v[i] for i in range(arr.dim)),
            Fraction(h.constant),
        )
        rows.append((normal, constant))
    return Arrangement.from_coefficients(arr.dim, rows)


def scan_classification(arr: Arrangement) -> tuple[bool, bool, bool]:
    """(general position, normal crossing, central) by the subset scan.

    General position: every p <= n of the hyperplanes meet in dimension
    n - p, and every n+1 of them miss each other.  Normal crossing: every
    subset with a nonempty intersection has linearly independent normals (a
    failure always shows up on some subset of size <= n+1, so the scan stops
    there).  Each subset is ranked by its own row reduction.
    """
    n, m = arr.dim, arr.m
    rows = arr.equation_rows()
    general = True
    crossing = True
    for p in range(1, min(m, n + 1) + 1):
        for subset in combinations(range(m), p):
            pivots = _kernel.pivot_columns([list(rows[i]) for i in subset])
            nonempty = n not in pivots
            coeff_rank = len(pivots) - (0 if nonempty else 1)
            if p <= n:
                if not (nonempty and coeff_rank == p):
                    general = False
                if nonempty and coeff_rank < p:
                    crossing = False
            else:
                if nonempty:
                    general = False
                    crossing = False
        if not (general or crossing):
            break
    central = not AffineSubspace.from_rows(rows, n).is_empty
    return general, crossing, central


def brute_force_closure_sets(arr: Arrangement) -> set[tuple[int, ...]]:
    """Closure sets of all nonempty intersections over all 2^m subsets."""
    out = set()
    for p in range(arr.m + 1):
        for subset in combinations(range(1, arr.m + 1), p):
            sub = AffineSubspace.from_rows(arr.equation_rows(subset), arr.dim)
            if sub.is_empty:
                continue
            out.add(
                tuple(
                    i
                    for i, h in enumerate(arr.hyperplanes, start=1)
                    if h.contains(sub)
                )
            )
    return out


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240117)
