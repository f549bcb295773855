"""Integer kernels for exact linear algebra.

The two row reductions run fraction-free (Bareiss-style) elimination over
Python's arbitrary-precision integers: every division below is exact, so no
rounding can ever occur.  ``rref_scaled`` gives the full reduced form that
affine subspaces are stored in; ``pivot_columns`` runs forward elimination
only, for callers that need just the rank and column profile.

``primitive_key`` and ``cut`` work on single affine functionals instead:
``primitive_key`` names the hyperplane a row defines, and ``cut`` restricts
rows to the hyperplane of another row, one elimination step with no
division.  Classification and flat enumeration walk flats with them.

Matrices are lists of equal-length lists of int, and a row ``(l_1, ..., l_d,
c)`` is the functional ``l.t + c`` on coordinates t_1..t_d.  Inputs are
never mutated.
"""

from __future__ import annotations

from math import gcd


def rref_scaled(rows):
    """Fraction-free Gauss-Jordan elimination.

    Returns ``(mat, denom, pivots)`` where ``mat`` has the shape of ``rows``,
    ``pivots`` lists the pivot column indices in increasing order, and the
    reduced row-echelon form of the input is ``mat[i][j] / denom`` entrywise.
    Pivot rows come first (sorted by pivot column), zero rows last; ``denom``
    is the final pivot of the elimination (1 for rank 0) and may be negative.
    """
    mat = [list(row) for row in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    pivots = []
    prev = 1
    cur = 0
    for col in range(n_cols):
        if cur == n_rows:
            break
        sel = -1
        for i in range(cur, n_rows):
            if mat[i][col] != 0:
                sel = i
                break
        if sel < 0:
            continue
        if sel != cur:
            mat[sel], mat[cur] = mat[cur], mat[sel]
        piv_row = mat[cur]
        piv = piv_row[col]
        for i in range(n_rows):
            if i == cur:
                continue
            row = mat[i]
            f = row[col]
            if f == 0:
                if prev != 1:
                    for j in range(n_cols):
                        row[j] = piv * row[j] // prev
                elif piv != 1:
                    for j in range(n_cols):
                        row[j] = piv * row[j]
                continue
            for j in range(n_cols):
                row[j] = (piv * row[j] - f * piv_row[j]) // prev
        prev = piv
        pivots.append(col)
        cur += 1
    return mat, prev, pivots


def pivot_columns(rows):
    """Pivot column indices of ``rows`` via forward fraction-free elimination.

    The length of the result is the rank.  Cheaper than :func:`rref_scaled`
    when only the column profile is needed.
    """
    mat = [list(row) for row in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    pivots = []
    prev = 1
    cur = 0
    for col in range(n_cols):
        if cur == n_rows:
            break
        sel = -1
        for i in range(cur, n_rows):
            if mat[i][col] != 0:
                sel = i
                break
        if sel < 0:
            continue
        if sel != cur:
            mat[sel], mat[cur] = mat[cur], mat[sel]
        piv_row = mat[cur]
        piv = piv_row[col]
        for i in range(cur + 1, n_rows):
            row = mat[i]
            f = row[col]
            row[col] = 0
            if f == 0:
                if prev != 1:
                    for j in range(col + 1, n_cols):
                        row[j] = piv * row[j] // prev
                elif piv != 1:
                    for j in range(col + 1, n_cols):
                        row[j] = piv * row[j]
                continue
            for j in range(col + 1, n_cols):
                row[j] = (piv * row[j] - f * piv_row[j]) // prev
        prev = piv
        pivots.append(col)
        cur += 1
    return pivots


def primitive_key(row):
    """The hyperplane of ``row`` as a canonical tuple, or ``None``.

    The row divided by the gcd of its entries, signed so that its first
    nonzero linear entry (any entry but the last) is positive.  Two rows
    with nonzero linear parts define the same hyperplane exactly when their
    keys are equal.  ``None`` means the linear part is zero: the functional
    is constant, so its zero set is empty or everything.
    """
    lead = next((x for x in row[:-1] if x), 0)
    if not lead:
        return None
    g = gcd(*row) if lead > 0 else -gcd(*row)
    return tuple(x // g for x in row)


def cut(k, rows):
    """``rows`` restricted to the hyperplane of ``k``, as primitive keys.

    ``k`` and every row of ``rows`` are integer rows on the same
    coordinates t_1..t_d, and k's linear part is nonzero.  With p the first
    column where k_p != 0, the hyperplane k = 0 takes the coordinates t_q,
    q != p, and a row r becomes ``k_p*r - r_p*k`` with column p dropped: r
    with t_p eliminated, scaled by k_p.  Each result is reduced by
    :func:`primitive_key`, so it may be ``None``.
    """
    p = next(q for q, x in enumerate(k) if x)
    kp = k[p]
    out = []
    for r in rows:
        rp = r[p]
        s = [kp * a - rp * b for a, b in zip(r, k)]
        del s[p]
        out.append(primitive_key(s))
    return out
