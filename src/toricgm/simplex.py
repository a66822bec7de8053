"""Exact phase-1 simplex on integers, specialized to facial-set certificates.

A support F of a model matrix is facial when some vector c has c . a_j = 0
for the columns j in F and c . a_j >= 1 for every other column.  The
equalities are solved once, not by the LP: c = N y, where the columns of N
are an integer basis of {c : c . a_j = 0 for j in F} (the integer kernel
lattice of the support columns).  What is left is one inequality per
column off the support,

    G y - s = 1,   s >= 0,   row j of G is a_j^T N,

with y free (split as p - q).  The LP has |off F| rows and
2 dim N + |off F| columns; a full support leaves no rows and c = 0.

Feasibility is decided by a textbook phase-1 simplex with Bland's rule
(smallest eligible index), which terminates.  The tableau stays integral
through fraction-free pivoting (Edmonds 1967, Bareiss 1968): each entry is
the true entry times the current basis determinant D, and a pivot on entry
piv turns x into (piv x - f y) / D, an exact division because the result is
an entry of the adjugate of the new basis times the starting matrix.  Every
pivot is positive, so D stays positive: sign tests read the stored entries
directly and ratio tests compare by cross-multiplication.  Nothing rounds;
the certificate must be exact because the limit-sequence construction
exponentiates it.  It is returned unchecked: its one caller,
`factorization.is_facial_lp`, checks it against every column of the model
matrix in integers (`FacialCertificate.validated`).
"""

from fractions import Fraction
from operator import mul

from .linalg import integer_kernel_lattice


def _dot(x, y):
    return sum(map(mul, x, y))


def _phase_one(rows, rhs):
    """Solve rows . x = rhs, x >= 0 for integer rows and an integer rhs >= 0.

    Returns (D, {column: numerator}): x_j is numerator / D on the basic
    columns and 0 on every other column.  Returns None when infeasible.
    Minimizes the sum of one artificial variable per row.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    width = ncols + nrows + 1
    # integer tableau [A | I | b] with the artificial basis
    tab = []
    for i in range(nrows):
        row = list(rows[i]) + [0] * nrows + [rhs[i]]
        row[ncols + i] = 1
        tab.append(row)
    basis = [ncols + i for i in range(nrows)]
    # reduced costs of the sum of artificials (zero on the artificials)
    obj = [-sum(row[j] for row in tab) for j in range(width)]
    obj[ncols:ncols + nrows] = [0] * nrows
    den = 1

    while True:
        entering = next((j for j in range(ncols + nrows) if obj[j] < 0), -1)
        if entering < 0:
            break
        leaving = -1
        for i in range(nrows):
            a = tab[i][entering]
            if a <= 0:
                continue
            if leaving < 0:
                leaving = i
                continue
            # tab[i][-1] / a against the best ratio, cross-multiplied
            lhs = tab[i][-1] * tab[leaving][entering]
            rhs_best = tab[leaving][-1] * a
            if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leaving]):
                leaving = i
        if leaving < 0:
            return None  # unbounded phase-1 cannot happen, defensive
        prow = tab[leaving]
        piv = prow[entering]
        for i in range(nrows):
            if i != leaving:
                f = tab[i][entering]
                tab[i] = [(piv * x - f * y) // den for x, y in zip(tab[i], prow)]
        f = obj[entering]
        obj = [(piv * x - f * y) // den for x, y in zip(obj, prow)]
        den = piv
        basis[leaving] = entering

    if any(tab[i][-1] for i in range(nrows) if basis[i] >= ncols):
        return None
    return den, {basis[i]: tab[i][-1] for i in range(nrows) if basis[i] < ncols}


def find_facial_certificate(A, F):
    """An exact certificate c for a facial support, or None.

    Solves G y - s = 1, s >= 0 over c = N y (see the module docstring).
    """
    F = set(F)
    d = A.nrows
    cols = list(zip(*A.rows))
    off = [col for j, col in enumerate(cols) if j not in F]
    if not off:
        null = []  # no LP rows: c = 0 is the certificate
    elif F:
        null = integer_kernel_lattice([cols[j] for j in sorted(F)])
    else:
        # no equalities; the kernel of an empty row set is all of Z^d
        null = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    dim = len(null)
    rows = []
    for r, col in enumerate(off):
        g = [_dot(col, n) for n in null]
        row = g + [-x for x in g] + [0] * len(off)
        row[2 * dim + r] = -1
        rows.append(row)
    solution = _phase_one(rows, [1] * len(off))
    if solution is None:
        return None
    den, basic = solution
    y = [basic.get(k, 0) - basic.get(dim + k, 0) for k in range(dim)]
    return tuple(Fraction(_dot(y, [n[i] for n in null]), den) for i in range(d))
