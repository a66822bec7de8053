"""Exact dense linear algebra over the rationals and the integers.

Kernel bases, integer kernel lattices and lattice-membership tests.  All
pivoting follows a fixed row-major scan so repeated runs return identical
bases.  Matrices are plain sequences of rows; vectors are tuples.  Entries
are Python ints or Fractions, which gives arbitrary precision for free.
"""

from fractions import Fraction


def rat_kernel_basis(rows):
    """Basis of the rational kernel {x : M x = 0}, as a list of tuples.

    Gaussian elimination with the first nonzero entry in a row-major scan
    as pivot.  Each free column contributes one basis vector (with a 1 in
    the free coordinate), so the output is deterministic and its span is
    the full kernel.  Returns [] for a trivial kernel.  Raises ValueError
    for an empty row set, whose column count is unknown.
    """
    if not rows:
        raise ValueError("no rows: the column count is unknown")
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0])
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            v[c] = -mat[i][free]
        basis.append(tuple(v))
    return basis


def _sign_normalize(vec):
    for x in vec:
        if x > 0:
            return tuple(vec)
        if x < 0:
            return tuple(-y for y in vec)
    return tuple(vec)


def integer_kernel_lattice(rows):
    """Rows forming a basis of the integer kernel lattice ker_Z(M).

    Integer row reduction of M^T with a tracked unimodular transform; the
    transform rows matching zero rows of the echelon form are a lattice
    basis.  Unlike clearing denominators of a rational basis, this yields
    the saturated lattice (every integer vector of the rational kernel is
    an integer combination of the output rows).  Rows of a unimodular
    transform already have content 1; they are sign-normalized and sorted.
    Raises ValueError for an empty row set, whose column count is unknown.
    """
    if not rows:
        raise ValueError("no rows: the column count is unknown")
    nrows = len(rows)
    ncols = len(rows[0])
    if ncols == 0:
        return []
    # Work on B = M^T (ncols x nrows); U tracks row ops, starts as identity.
    b = [[int(rows[i][j]) for i in range(nrows)] for j in range(ncols)]
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    r = 0
    for c in range(nrows):
        while True:
            best = None
            for i in range(r, ncols):
                if b[i][c] != 0 and (best is None or abs(b[i][c]) < abs(b[best][c])):
                    best = i
            if best is None:
                break
            if best != r:
                b[r], b[best] = b[best], b[r]
                u[r], u[best] = u[best], u[r]
            done = True
            for i in range(r + 1, ncols):
                if b[i][c] != 0:
                    q = b[i][c] // b[r][c]
                    b[i] = [x - q * y for x, y in zip(b[i], b[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if b[i][c] != 0:
                        done = False
            if done:
                break
        if r < ncols and b[r][c] != 0:
            r += 1
            if r == ncols:
                break
    kernel = []
    for i in range(ncols):
        if all(x == 0 for x in b[i]):
            kernel.append(_sign_normalize(u[i]))
    kernel.sort()
    return kernel


def _integer_row_echelon(rows):
    """Integer row echelon form (Hermite-style) plus its pivot positions."""
    mat = [list(map(int, row)) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
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
            if mat[r][c] < 0:
                mat[r] = [-x for x in mat[r]]
            pivots.append((r, c))
            r += 1
    return mat, pivots


def integer_span_member(v, rows):
    """True iff v lies in the integer row span of the given integer rows.

    Decided by reducing v against a Hermite-style echelon form of the rows
    (row operations are unimodular, so the span is preserved).
    """
    v = [int(x) for x in v]
    if not rows:
        return all(x == 0 for x in v)
    if any(len(row) != len(v) for row in rows):
        raise ValueError("dimension mismatch")
    mat, pivots = _integer_row_echelon(rows)
    for r, c in pivots:
        if v[c] % mat[r][c] != 0:
            return False
        q = v[c] // mat[r][c]
        v = [x - q * y for x, y in zip(v, mat[r])]
    return all(x == 0 for x in v)


def mat_vec(rows, x):
    """Matrix times column vector, exact."""
    return tuple(sum(a * b for a, b in zip(row, x)) for row in rows)
