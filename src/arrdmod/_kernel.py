"""Integer row-reduction kernels for exact linear algebra.

Both kernels run fraction-free (Bareiss-style) elimination over Python's
arbitrary-precision integers: every division below is exact, so no rounding
can ever occur.  ``rref_scaled`` gives the full reduced form that affine
subspaces are stored in; ``pivot_columns`` runs forward elimination only,
for callers that need just the rank and column profile.

Matrices are lists of equal-length lists of int.  Inputs are never mutated.
"""

from __future__ import annotations


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
