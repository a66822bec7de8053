"""Exact dense integer linear algebra.

Two row-reduction loops, one per kind of answer.  A Hermite-style row
echelon loop (unimodular row operations only) gives integer kernel
lattices, lattice-membership tests and the facial LP's certificate space:
these ask about the integer span, which a rational elimination does not
preserve.  A fraction-free Gauss-Jordan loop gives the reduced echelon
form, the one rational elimination would reach, scaled to integers: it
solves linear systems over the rationals (the MLE's marginal equations,
the Gram system of the limit sequence's log-linear equations).  All
pivoting follows a fixed scan so repeated runs return identical results.
Matrices are plain sequences of rows; vectors are tuples.  Entries are
Python ints, which gives arbitrary precision for free.
"""

import math


def _sign_normalize(vec):
    for x in vec:
        if x > 0:
            return tuple(vec)
        if x < 0:
            return tuple(-y for y in vec)
    return tuple(vec)


def integer_kernel_lattice(rows):
    """Rows forming a basis of the integer kernel lattice ker_Z(M).

    Integer row reduction of the rows of [M^T | I], pivoting on the M^T
    part only, so the identity part tracks a unimodular transform; its
    rows next to zero rows of the echelon form are a lattice basis.
    Unlike clearing denominators of a rational basis, this yields the
    saturated lattice (every integer vector of the rational kernel is an
    integer combination of the output rows).  Rows of a unimodular
    transform already have content 1; they are sign-normalized and sorted.
    Raises ValueError for an empty row set, whose column count is unknown.
    """
    if not rows:
        raise ValueError("no rows: the column count is unknown")
    nrows = len(rows)
    ncols = len(rows[0])
    if ncols == 0:
        return []
    augmented = [[rows[i][j] for i in range(nrows)]
                 + [1 if k == j else 0 for k in range(ncols)]
                 for j in range(ncols)]
    mat, _ = integer_row_echelon(augmented, nrows)
    return sorted(_sign_normalize(row[nrows:]) for row in mat
                  if not any(row[:nrows]))


def integer_row_echelon(rows, npivot=None):
    """Integer row echelon form (Hermite-style) plus its pivot positions.

    Only unimodular row operations are used (swaps, adding an integer
    multiple of one row to another), so the rows span the same lattice.
    Pivots are sought in the first npivot columns (all by default); the
    other columns only follow the row operations.  Returns the rows and the
    (row, column) pivots: pivot k sits in row k, and the rows after the
    last pivot are zero in the first npivot columns.  A pivot keeps its sign.
    """
    mat = [list(map(int, row)) for row in rows]
    nrows = len(mat)
    pivots = []
    r = 0
    for c in range(len(mat[0]) if npivot is None else npivot):
        if r == nrows:
            break
        while True:
            best = None
            for i in range(r, nrows):
                if mat[i][c] != 0 and (best is None or abs(mat[i][c]) < abs(mat[best][c])):
                    best = i
            if best is None:
                break
            if best != r:
                mat[r], mat[best] = mat[best], mat[r]
            done = True
            for i in range(r + 1, nrows):
                if mat[i][c] != 0:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
                    if mat[i][c] != 0:
                        done = False
            if done:
                break
        if mat[r][c] != 0:
            pivots.append((r, c))
            r += 1
    return mat, pivots


def integer_span_member(v, rows):
    """True iff v lies in the integer row span of the given integer rows.

    Decided by reducing v against a Hermite-style echelon form of the rows
    (row operations are unimodular, so the span is preserved).  A pivot p
    of either sign divides v[c] iff v[c] % p == 0.
    """
    v = [int(x) for x in v]
    if not rows:
        return all(x == 0 for x in v)
    if any(len(row) != len(v) for row in rows):
        raise ValueError("dimension mismatch")
    mat, pivots = integer_row_echelon(rows)
    for r, c in pivots:
        if v[c] % mat[r][c] != 0:
            return False
        q = v[c] // mat[r][c]
        v = [x - q * y for x, y in zip(v, mat[r])]
    return all(x == 0 for x in v)


def _content_free(row):
    """row divided by its content, the (positive) gcd of its entries."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def reduced_echelon(rows, npivot):
    """Fraction-free Gauss-Jordan: (rows, pivots) of the reduced echelon form.

    Pivots are sought in the first npivot columns, column by column in
    increasing order; the other columns only follow the row operations.
    Every row is first divided by its content.  The pivot row is negated
    if need be so that its pivot p is positive; clearing column c from
    another row replaces it by p * row - row[c] * pivot row and divides it
    by its content.  Rows stay integer and content free, and every row is a
    positive multiple of the row that Gauss-Jordan over the rationals would
    hold, so the pivots are the same and entries cannot grow from step to
    step.  Returns all rows, the pivot row of pivots[k] at position k and
    after them the rows that are zero in the first npivot columns.
    """
    rows = [_content_free(list(row)) for row in rows]
    pivots = []
    r = 0
    for c in range(npivot):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        piv = rows[pr] if rows[pr][c] > 0 else [-x for x in rows[pr]]
        rows[pr] = rows[r]
        rows[r] = piv
        p = piv[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = _content_free([p * x - f * y for x, y in zip(row, piv)])
        pivots.append(c)
        r += 1
    return rows, pivots
