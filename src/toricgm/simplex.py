"""Exact phase-1 simplex on integers, specialized to facial-set certificates.

A support F of a model matrix A is facial when some vector c has
c . a_j = 0 for the columns j in F and c . a_j >= 1 for every other column.
Only the functional c A matters, and every row of A is a rational
combination of its row basis: the first rank A linearly independent rows
R (`ModelMatrix.independent_rows`, computed once per matrix).  So c is
sought on those rows alone and is 0 on every other row.  The equalities
are solved once, not by the LP.  One integer row echelon of the rows
[R_F | R_off | I] (unimodular row operations, pivots sought in the columns
of A with those of F first) turns each row into u R next to its
multiplier u.  The rows of R are independent, so no row of the echelon
form vanishes on A: there is no left kernel to drop, and each row pivots
either on F or off it.  The multipliers of the rows that pivot off F are
those that vanish on R_F, and they form a lattice basis N of
{u : u R_F = 0}.  What is left is one inequality per column off the
support,

    G y - s = 1,   s >= 0,   row j of G is a_j^T N,

where column k of G is the off part of the k-th row that pivots off F.
G has full column rank, rank A - rank A_F, and y is free (split as
p - q).  A full support leaves no rows and c = 0.  The certificate N y is
re-expanded to one entry per row of A, with 0 on the rows outside R.

Feasibility is decided by a textbook phase-1 simplex with Bland's rule
(smallest eligible index), which terminates.  Its tableau over the columns
p, q, s and one artificial a_r per row starts as [G | -G | -I | I | 1].
Row operations are linear, so q = -p and a = -s in every tableau: only p,
s and the right-hand side are stored, and the mirrored columns are read
from them (their reduced costs are -cost(p) and D - cost(s) below).
Bland's rule scans the virtual order p, q, s, a, so the pivots are those
of the full tableau.  The tableau stays integral through fraction-free
pivoting (Edmonds 1967, Bareiss 1968): each entry is the true entry times
the current basis determinant D, and a pivot on entry piv turns x into
(piv x - f y) / D, an exact division because the result is an entry of the
adjugate of the new basis times the starting matrix.  Every pivot is
positive, so D stays positive: sign tests read the stored entries directly
and ratio tests compare by cross-multiplication.  Nothing rounds; the
certificate must be exact because the limit-sequence construction
exponentiates it.  It is returned unchecked: its one caller,
`factorization.is_facial_lp`, checks it against every column of the full
model matrix in integers (`FacialCertificate.validated`).
"""

from fractions import Fraction

from .linalg import integer_row_echelon


def _entering(obj, den, k, n):
    """Bland's rule over the virtual columns p, q, s, a (k, k, n and n of
    them): the first with a negative reduced cost, or -1.  obj holds D times
    the reduced costs of the stored p and s columns."""
    for j in range(k):
        if obj[j] < 0:
            return j
    for j in range(k):
        if obj[j] > 0:
            return k + j
    for r in range(n):
        if obj[k + r] < 0:
            return 2 * k + r
    for r in range(n):
        if obj[k + r] > den:
            return 2 * k + n + r
    return -1


def _phase_one(G, rhs):
    """Solve G p - G q - s = rhs, p, q, s >= 0 for integer G and rhs >= 0.

    Returns (D, {column: numerator}) with the columns numbered p, q, s in
    that order: x_j is numerator / D on the basic columns and 0 on every
    other column.  Returns None when infeasible.  Minimizes the sum of one
    artificial variable per row (numbered after s); the stored tableau is
    [p | s | rhs] (module docstring).
    """
    n = len(G)
    if not n:
        return 1, {}
    k = len(G[0])
    tab = []
    for i in range(n):
        row = list(G[i]) + [0] * n + [rhs[i]]
        row[k + i] = -1
        tab.append(row)
    basis = [2 * k + n + i for i in range(n)]
    # D times the reduced costs of the sum of artificials, on p and s
    obj = [-sum(col) for col in zip(*tab)][:-1]
    den = 1

    while True:
        entering = _entering(obj, den, k, n)
        if entering < 0:
            break
        # stored column of the entering one and its sign there
        if entering < k:
            col, sign = entering, 1
        elif entering < 2 * k:
            col, sign = entering - k, -1
        elif entering < 2 * k + n:
            col, sign = entering - k, 1
        else:
            col, sign = entering - k - n, -1
        leaving = -1
        for i in range(n):
            a = sign * tab[i][col]
            if a <= 0:
                continue
            if leaving < 0:
                leaving = i
                continue
            # tab[i][-1] / a against the best ratio, cross-multiplied
            lhs = tab[i][-1] * sign * tab[leaving][col]
            rhs_best = tab[leaving][-1] * a
            if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leaving]):
                leaving = i
        if leaving < 0:
            raise ArithmeticError(
                "phase-1 simplex found no leaving row, but its objective is "
                "bounded below by 0")
        prow = tab[leaving]
        piv = sign * prow[col]
        for i in range(n):
            if i != leaving:
                f = sign * tab[i][col]
                tab[i] = [(piv * x - f * y) // den for x, y in zip(tab[i], prow)]
        f = den - obj[col] if entering >= 2 * k + n else sign * obj[col]
        obj = [(piv * x - f * y) // den for x, y in zip(obj, prow)]
        den = piv
        basis[leaving] = entering

    if any(tab[i][-1] for i in range(n) if basis[i] >= 2 * k + n):
        return None
    return den, {basis[i]: tab[i][-1] for i in range(n) if basis[i] < 2 * k + n}


def find_facial_certificate(A, F):
    """An exact certificate c for a facial support, or None.

    Solves G y - s = 1, s >= 0 over c = N y on the row basis of A (see the
    module docstring); c has one entry per row of A, 0 off the row basis.
    """
    support = sorted(set(F))
    inside = set(support)
    off = [j for j in range(A.ncols) if j not in inside]
    m = A.ncols
    basis_rows = A.independent_rows()
    kept = []  # echelon rows u [R_F | R_off | I] that pivot off the support
    if off:
        r, order = len(basis_rows), support + off
        rows = [[A.rows[i][j] for j in order] + [int(k == t) for t in range(r)]
                for k, i in enumerate(basis_rows)]
        mat, pivots = integer_row_echelon(rows, m)
        kept = [mat[k] for k, c in pivots if c >= len(support)]
    G = [[row[j] for row in kept] for j in range(len(support), m)]
    solution = _phase_one(G, [1] * len(off))
    if solution is None:
        return None
    den, basic = solution
    dim = len(kept)
    y = [basic.get(k, 0) - basic.get(dim + k, 0) for k in range(dim)]
    c = [0] * A.nrows
    for k, i in enumerate(basis_rows):
        c[i] = Fraction(sum(yk * row[m + k] for yk, row in zip(y, kept) if yk), den)
    return tuple(c)
