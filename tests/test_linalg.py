import math
import random
from fractions import Fraction

import pytest

from toricgm.linalg import (integer_kernel_lattice, integer_span_member,
                            reduced_echelon)

from fixtures import mat_vec, rat_kernel_basis


def test_full_rank_kernel_empty():
    assert rat_kernel_basis([[1, 0], [0, 1]]) == []


def test_one_one_matrix():
    basis = rat_kernel_basis([[1, 1]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v != (0, 0)


def test_scaled_row_integer_kernel():
    assert integer_kernel_lattice([[2, -2]]) == [(1, 1)]


def test_rat_kernel_rejects_empty_row_set():
    # with no rows the column count, hence the kernel, is unknown
    with pytest.raises(ValueError):
        rat_kernel_basis([])


def test_integer_kernel_rejects_empty_row_set():
    with pytest.raises(ValueError):
        integer_kernel_lattice([])


def test_identity_integer_kernel():
    assert integer_kernel_lattice([[1, 0], [0, 1]]) == []


def test_kernel_vectors_annihilate():
    random.seed(7)
    for _ in range(25):
        nrows = random.randint(1, 4)
        ncols = random.randint(1, 6)
        rows = [[random.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        for v in rat_kernel_basis(rows):
            assert all(x == 0 for x in mat_vec(rows, v))
        for w in integer_kernel_lattice(rows):
            assert all(x == 0 for x in mat_vec(rows, w))


def test_integer_kernel_is_saturated():
    random.seed(11)
    for _ in range(40):
        nrows = random.randint(1, 3)
        ncols = random.randint(2, 6)
        rows = [[random.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        lattice = integer_kernel_lattice(rows)
        rank = len(lattice)
        assert rank == len(rat_kernel_basis(rows))
        # every small integer kernel vector must lie in the lattice span
        for _ in range(20):
            cand = [random.randint(-4, 4) for _ in range(ncols)]
            if all(x == 0 for x in mat_vec(rows, cand)):
                assert integer_span_member(cand, lattice)


def _rational_rref(rows, npivot):
    """Gauss-Jordan over the rationals, pivot entries scaled to 1."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(npivot):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = [x - mat[i][c] * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return mat[:r]


def test_reduced_echelon_scales_the_rational_reduced_form():
    # each pivot row is a content-free positive multiple of the row rational
    # Gauss-Jordan reaches; the rows after the pivot rows are zero in the
    # pivot columns
    rng = random.Random(13)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 2:
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
        npivot = rng.randint(1, ncols)
        out, pivots = reduced_echelon(rows, npivot)
        want = _rational_rref(rows, npivot)
        assert len(out) == nrows and len(pivots) == len(want)
        for row, c, ref in zip(out, pivots, want):
            assert row[c] > 0 and math.gcd(*row) == 1
            assert [Fraction(x, row[c]) for x in row] == ref
        assert all(not any(row[:npivot]) for row in out[len(pivots):])


def test_span_member_basics():
    lattice = [[1, 2, 0], [0, 0, 3]]
    assert integer_span_member([0, 0, 0], lattice)
    assert integer_span_member([2, 4, 0], lattice)
    assert integer_span_member([1, 2, 3], lattice)
    assert not integer_span_member([0, 0, 1], lattice)
    assert not integer_span_member([1, 0, 0], lattice)


def test_span_member_random_roundtrip():
    random.seed(3)
    for _ in range(30):
        ncols = random.randint(2, 6)
        nrows = random.randint(1, 4)
        lattice = [[random.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        combo = [0] * ncols
        for row in lattice:
            c = random.randint(-3, 3)
            combo = [x + c * y for x, y in zip(combo, row)]
        assert integer_span_member(combo, lattice)


def test_rational_arithmetic_identities():
    random.seed(5)
    for _ in range(50):
        a = Fraction(random.randint(-50, 50), random.randint(1, 50))
        b = Fraction(random.randint(-50, 50), random.randint(1, 50))
        c = Fraction(random.randint(-50, 50), random.randint(1, 50))
        if a != 0 and b != 0:
            assert (a / b) * (b / a) == 1
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
