"""Kernel correctness: fraction-free elimination vs a naive Fraction oracle."""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from arrdmod import _kernel, exactla


def load_kernel_source():
    """``_kernel`` loaded straight from its ``.py`` file.

    An extension module of the same name beside it would win a normal
    import; loading the source explicitly keeps the pure code under test.
    """
    path = Path(_kernel.__file__).with_name("_kernel.py")
    spec = importlib.util.spec_from_file_location("arrdmod_kernel_source", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def naive_rref(rows):
    """Textbook Gauss-Jordan over Fraction; the independent reference."""
    mat = [[Fraction(x) for x in row] for row in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    pivots = []
    cur = 0
    for col in range(n_cols):
        if cur == n_rows:
            break
        sel = next((i for i in range(cur, n_rows) if mat[i][col] != 0), -1)
        if sel < 0:
            continue
        mat[sel], mat[cur] = mat[cur], mat[sel]
        piv = mat[cur][col]
        mat[cur] = [x / piv for x in mat[cur]]
        for i in range(n_rows):
            if i != cur and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[cur])]
        pivots.append(col)
        cur += 1
    return mat, pivots


def random_matrix(rng, max_rows=7, max_cols=7):
    r = rng.randint(0, max_rows)
    c = rng.randint(1, max_cols)
    rows = [
        [rng.choice([0, 0, 0, 1, -1, 2, -3, rng.randint(-99, 99)]) for _ in range(c)]
        for _ in range(r)
    ]
    # inject proportional / duplicated rows to hit rank-deficient paths
    if r >= 2 and rng.random() < 0.5:
        i, j = rng.randrange(r), rng.randrange(r)
        rows[i] = [rng.choice([1, -1, 2, -5]) * x for x in rows[j]]
    return rows


@pytest.mark.parametrize("impl_name", ["active", "pure"])
def test_rref_matches_naive_oracle(impl_name, rng):
    # "active": the module the package calls; "pure": the Python source itself
    impl = exactla._kernel if impl_name == "active" else load_kernel_source()
    for _ in range(800):
        rows = random_matrix(rng)
        mat, denom, pivots = impl.rref_scaled(rows)
        assert denom != 0
        got = [[Fraction(x, denom) for x in row] for row in mat]
        want, want_pivots = naive_rref(rows)
        assert got == want
        assert list(pivots) == want_pivots
        assert impl.pivot_columns(rows) == want_pivots


def test_inputs_never_mutated(rng):
    rows = [[2, 4, 6], [3, 5, 7], [0, 0, 1]]
    snapshot = [row[:] for row in rows]
    _kernel.rref_scaled(rows)
    _kernel.pivot_columns(rows)
    assert rows == snapshot


def test_huge_integers_stay_exact():
    big = 10**40
    mat, denom, pivots = _kernel.rref_scaled([[big, 1], [1, big]])
    got = [[Fraction(x, denom) for x in row] for row in mat]
    assert got == [[1, 0], [0, 1]] and pivots == [0, 1]


def test_zero_row_matrix():
    mat, denom, pivots = _kernel.rref_scaled([])
    assert mat == [] and denom == 1 and pivots == []
    assert _kernel.pivot_columns([[0, 0], [0, 0]]) == []
