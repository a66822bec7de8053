import dataclasses
import json
import math
import random
import re
from fractions import Fraction

import pytest

from toricgm import mle
from toricgm.cli import main
from toricgm.graphs import build_graph_matrix
from toricgm.jsonio import write_matrix
from toricgm.mle import (ISOLATION_WIDTH, CountTable, _echelonize,
                         _reduced_basis, assemble_mle_system, ips_fit,
                         isolate_positive_roots, rational_root_check,
                         reduce_zero_cells, solve_mle_exact, sufficient_stats)
from toricgm.models import ModelMatrix, monomial_map
from toricgm.orders import TermOrder
from toricgm.polynomials import (Binomial, BudgetExceeded, NotTriangular,
                                 Polynomial, buchberger,
                                 eliminate_to_triangular, monomial_of)
from toricgm.polynomials import reduce as poly_reduce
from toricgm.toric import compute_toric_basis, minimal_generators
from fixtures import (FOUR_CYCLE_COUNTS, IDX4, five_cycle,
                      four_cycle_matrix, three_chain)


def three_chain_matrix():
    return build_graph_matrix(three_chain())


def closed_form_three_chain(counts):
    """Clique-margin product oracle for the decomposable three-chain."""
    total = sum(counts)
    cells = []
    for a in range(2):
        for b in range(2):
            for c in range(2):
                n12 = sum(counts[4 * x1 + 2 * x2 + x3]
                          for x1 in range(2) for x2 in range(2)
                          for x3 in range(2) if (x1, x2) == (a, b))
                n23 = sum(counts[4 * x1 + 2 * x2 + x3]
                          for x1 in range(2) for x2 in range(2)
                          for x3 in range(2) if (x2, x3) == (b, c))
                n2 = sum(counts[4 * x1 + 2 * x2 + x3]
                         for x1 in range(2) for x2 in range(2)
                         for x3 in range(2) if x2 == b)
                cells.append(Fraction(n12 * n23, n2) if n2 else Fraction(0))
    assert sum(cells) == total
    return cells


def test_sufficient_stats_paper_values():
    A = four_cycle_matrix()
    n = CountTable(FOUR_CYCLE_COUNTS)
    stats = dict(zip(A.row_labels, sufficient_stats(A, n)))
    assert stats["{X1,X2}(00)"] == 4
    assert stats["{X1,X2}(10)"] == 5
    assert stats["{X3,X4}(10)"] == 3
    assert stats["{X1,X4}(10)"] == 2
    assert stats["{X1,X2}(11)"] == 0


def test_count_table_validation():
    with pytest.raises(ValueError):
        CountTable([0] * 4)
    with pytest.raises(ValueError):
        CountTable([1, -1])


def test_count_table_rejects_counts_that_are_not_integers():
    # a truncated count would be a different table: 1.5 is not 1
    with pytest.raises(ValueError, match=r"count 1\.5 at index 0 is not an integer"):
        CountTable([1.5, 2.9, Fraction(7, 2), True])
    with pytest.raises(ValueError, match=r"count 7/2 at index 2 "):
        CountTable([1, 2, Fraction(7, 2)])
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="at index 1"):
            CountTable([1, bad])
    # integral values of any type stay accepted
    n = CountTable([2.0, Fraction(6, 2), True, 4])
    assert n.values == (2, 3, 1, 4) and n.total == 10
    assert all(type(x) is int for x in n.values)
    counts = [1.5] + [1] * 15
    with pytest.raises(ValueError, match="index 0"):
        ips_fit(four_cycle_matrix(), counts)
    with pytest.raises(ValueError, match="index 0"):
        assemble_mle_system(four_cycle_matrix(), counts)


def test_uniform_three_chain_margins():
    A = three_chain_matrix()
    stats = sufficient_stats(A, CountTable([1] * 8))
    assert set(stats) == {2}


def test_reduce_zero_cells_paper_counts():
    A = four_cycle_matrix()
    active, red = reduce_zero_cells(A, CountTable(FOUR_CYCLE_COUNTS))
    dropped = sorted(set(range(16)) - set(active))
    assert dropped == [IDX4[s] for s in ("1100", "1101", "1110", "1111")]
    assert len(active) == 12
    assert red.nrows == 15  # one zero-margin row dropped


def test_reduce_zero_cells_identity_when_positive():
    A = three_chain_matrix()
    active, red = reduce_zero_cells(A, CountTable([1] * 8))
    assert active == list(range(8))
    assert red.rows == A.rows


def test_zero_cell_helpers_take_a_list_of_counts_as_a_table():
    # all four helpers coerce a plain list the same way
    A = four_cycle_matrix()
    table = CountTable(FOUR_CYCLE_COUNTS)
    counts = list(FOUR_CYCLE_COUNTS)
    assert sufficient_stats(A, counts) == sufficient_stats(A, table)
    assert reduce_zero_cells(A, counts) == reduce_zero_cells(A, table)
    assert assemble_mle_system(A, counts) == assemble_mle_system(A, table)
    assert ips_fit(A, counts).values == ips_fit(A, table).values
    with pytest.raises(ValueError, match="count 1.5 at index 0"):
        reduce_zero_cells(A, [1.5] + counts[1:])

def test_reduce_zero_cells_lifted_five_cycle():
    from toricgm.graphs import nondecomposable_partition
    g = five_cycle()
    A = build_graph_matrix(g)
    space = g.space()
    # lifted table: blocks (A,B,C,D) from the partition, D doubled
    counts = [0] * 32
    pattern_counts = {(0, 0): [1, 1, 1, 1], (0, 1): [1, 1, 1, 1],
                      (1, 0): [1, 1, 1, 2], (1, 1): [0, 0, 0, 0]}
    for (i, j), vals in pattern_counts.items():
        for kl, cnt in enumerate(vals):
            k, l = divmod(kl, 2)
            state = (i, j, k, l, l)
            counts[space.state_index(state)] = cnt
    active, _ = reduce_zero_cells(A, CountTable(counts))
    # drops x1=x2=1 cells and the off-diagonal D cells
    assert len(active) == 12
    for idx in active:
        state = space.states()[idx]
        assert not (state[0] == 1 and state[1] == 1)
        assert state[3] == state[4]


def test_reduce_zero_cells_one_pass_is_the_fixpoint():
    # a dropped cell has count 0, so the kept margins are unchanged and
    # reducing the reduced table again drops nothing
    A = four_cycle_matrix()
    rng = random.Random(11)
    for _ in range(40):
        counts = [rng.choice((0, 0, 1, 2)) for _ in range(16)]
        if not any(counts):
            continue
        active, red = reduce_zero_cells(A, CountTable(counts))
        kept = CountTable([counts[j] for j in active])
        again, red2 = reduce_zero_cells(red, kept)
        assert again == list(range(len(active)))
        assert red2.rows == red.rows


def test_ips_matches_printed_table():
    A = four_cycle_matrix()
    fit = ips_fit(A, CountTable(FOUR_CYCLE_COUNTS), tol=1e-9)
    printed = {"0000": 0.96, "0001": 0.83, "0010": 1.03, "0011": 1.18,
               "0100": 1.07, "0101": 0.93, "0110": 0.93, "0111": 1.07,
               "1000": 0.97, "1001": 1.24, "1010": 1.03, "1011": 1.76}
    for s, want in printed.items():
        assert abs(fit.values[IDX4[s]] - want) <= 0.01
    for s in ("1100", "1101", "1110", "1111"):
        assert fit.values[IDX4[s]] == 0.0


def test_ips_margins_and_binomials_at_convergence():
    A = four_cycle_matrix()
    n = CountTable(FOUR_CYCLE_COUNTS)
    tol = 1e-9
    fit = ips_fit(A, n, tol=tol)
    stats = sufficient_stats(A, n)
    fitted = A.apply(fit.values)
    for i in range(A.nrows):
        assert abs(fitted[i] - stats[i]) <= tol
    sys_ = assemble_mle_system(A, n)
    active = list(sys_.active)
    sub = [fit.values[j] for j in active]
    for b in sys_.binomials:
        pu = math.prod(sub[j] ** e for j, e in enumerate(b.u) if e)
        pv = math.prod(sub[j] ** e for j, e in enumerate(b.v) if e)
        assert abs(pu - pv) <= 10 * tol * max(pu, pv, 1.0)


def test_mle_system_rejects_a_basis_of_another_matrix():
    A = four_cycle_matrix()
    sys_ = assemble_mle_system(A, CountTable(FOUR_CYCLE_COUNTS))
    assert sys_.binomials == sys_.basis.binomials
    other = ModelMatrix([[1] * sys_.matrix.ncols])
    with pytest.raises(ValueError):
        dataclasses.replace(sys_, basis=compute_toric_basis(other))
    with pytest.raises(ValueError):
        dataclasses.replace(sys_, basis=sys_.binomials)


def test_mle_system_rejects_generators_outside_its_basis():
    A = four_cycle_matrix()
    sys_ = assemble_mle_system(A, CountTable(FOUR_CYCLE_COUNTS))
    assert set(sys_.generators) <= set(sys_.binomials)
    assert len(sys_.generators) < len(sys_.binomials)
    b = sys_.generators[0]
    # the same binomial the other way round is not an element of the basis
    with pytest.raises(ValueError, match="generators"):
        dataclasses.replace(sys_, generators=sys_.generators + (Binomial(b.v, b.u),))
    other = assemble_mle_system(A, CountTable([1] * A.ncols))
    with pytest.raises(ValueError, match="generators"):
        dataclasses.replace(sys_, generators=other.generators)


def test_more_than_one_nonnegative_root_raises(monkeypatch):
    # Birch's theorem leaves one nonnegative solution; if back-substitution
    # let all four positive roots of the paper table's quintic through, no
    # root may be picked over the others
    sys_ = assemble_mle_system(four_cycle_matrix(), CountTable(FOUR_CYCLE_COUNTS))
    assert len(solve_mle_exact(sys_).positive_roots) == 4
    monkeypatch.setattr(mle, "_back_substitute",
                        lambda shape, rows, pivots, var, value, nvars: [1] * nvars)
    with pytest.raises(ArithmeticError,
                       match=r"4 of 4 positive roots .* not exactly one, for the "
                             r"table with margins \[.*\] on the cells"):
        solve_mle_exact(sys_)


@pytest.fixture
def basis_misses(monkeypatch):
    """Clear the reduced-basis memo; list the matrices of its misses."""
    _reduced_basis.cache_clear()
    misses = []

    def counting(red, **kwargs):
        misses.append(red)
        return compute_toric_basis(red, **kwargs)

    monkeypatch.setattr(mle, "compute_toric_basis", counting)
    yield misses
    _reduced_basis.cache_clear()


@pytest.fixture
def selections(monkeypatch):
    """List the (basis, budget) of every minimal-generator selection."""
    calls = []

    def counting(basis, budget=None):
        calls.append((basis, budget))
        return minimal_generators(basis, budget)

    monkeypatch.setattr(mle, "minimal_generators", counting)
    return calls


def test_tables_with_the_same_zero_cells_share_one_basis(basis_misses):
    A = four_cycle_matrix()
    sys1 = assemble_mle_system(A, CountTable(FOUR_CYCLE_COUNTS))
    sys2 = assemble_mle_system(A, CountTable([3 * c for c in FOUR_CYCLE_COUNTS]))
    assert sys1.margins != sys2.margins
    assert len(basis_misses) == 1
    assert sys1.basis is sys2.basis
    assert sys2.basis.matrix == sys2.matrix


def test_tables_with_other_zero_cells_get_their_own_basis(basis_misses):
    A = four_cycle_matrix()
    sys1 = assemble_mle_system(A, CountTable(FOUR_CYCLE_COUNTS))
    sys2 = assemble_mle_system(A, CountTable([1] * A.ncols))
    assert len(basis_misses) == 2
    assert sys1.basis is not sys2.basis
    assert sys2.basis.matrix == sys2.matrix == A


def test_same_rows_under_other_labels_get_their_own_basis(basis_misses):
    # zeroing the margins in rows 0 and 2 or in rows 1 and 3 leaves the
    # same reduced rows on other cells: the memo is keyed on the labelled
    # matrix, so each is a miss, with equal binomials under its own labels
    A = four_cycle_matrix()

    def zeroed(rows):
        return CountTable([0 if any(A.rows[i][j] for i in rows) else 1
                           for j in range(A.ncols)])

    sys1 = assemble_mle_system(A, zeroed((0, 2)))
    sys2 = assemble_mle_system(A, zeroed((1, 3)))
    assert sys1.matrix.rows == sys2.matrix.rows and sys1.matrix != sys2.matrix
    assert len(basis_misses) == 2
    assert sys2.basis.binomials == sys1.basis.binomials
    assert sys1.basis.matrix == sys1.matrix
    assert sys2.basis.matrix == sys2.matrix
    assemble_mle_system(A, zeroed((1, 3)))
    assert len(basis_misses) == 2


def test_budget_exceeded_on_a_miss_is_not_memoised(basis_misses):
    A = four_cycle_matrix()
    full = CountTable([1] * A.ncols)
    with pytest.raises(BudgetExceeded):
        assemble_mle_system(A, full, budget=1)
    assert _reduced_basis.cache_info().currsize == 0
    sys_ = assemble_mle_system(A, full)
    assert len(basis_misses) == 2
    assert len(sys_.basis) == 28
    assert sys_.basis.binomials == compute_toric_basis(A).binomials
    assemble_mle_system(A, full)
    assert len(basis_misses) == 2


def test_generators_are_memoised_with_the_basis(basis_misses, selections):
    # a miss selects the generators of the basis it computed, once; a hit
    # runs no selection
    A = four_cycle_matrix()
    sys1 = assemble_mle_system(A, CountTable(FOUR_CYCLE_COUNTS), budget=10 ** 5)
    assert [(basis, budget) for basis, budget in selections] \
        == [(sys1.basis, 10 ** 5)]
    assert sys1.generators == minimal_generators(sys1.basis)
    sys2 = assemble_mle_system(A, CountTable([3 * c for c in FOUR_CYCLE_COUNTS]),
                               budget=10 ** 5)
    assert len(basis_misses) == len(selections) == 1
    assert sys2.generators is sys1.generators


def test_budget_exceeded_in_the_selection_is_not_memoised(basis_misses,
                                                          monkeypatch):
    # the basis is computed, but selecting its generators runs out of
    # S-pairs: nothing is stored, and the next call computes both afresh
    A = four_cycle_matrix()
    full = CountTable([1] * A.ncols)
    monkeypatch.setattr(mle, "minimal_generators",
                        lambda basis, budget=None: minimal_generators(basis, 1))
    with pytest.raises(BudgetExceeded):
        assemble_mle_system(A, full)
    assert len(basis_misses) == 1
    assert _reduced_basis.cache_info().currsize == 0
    monkeypatch.setattr(mle, "minimal_generators", minimal_generators)
    sys_ = assemble_mle_system(A, full)
    assert len(basis_misses) == 2
    assert len(sys_.basis) == 28 and len(sys_.generators) == 16


def test_ips_refuses_a_tolerance_or_cycle_budget_it_cannot_meet():
    A = ModelMatrix([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]])
    for tol in (0.0, -1e-9, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            ips_fit(A, [1, 2, 3, 4], tol=tol)
    for cycles in (0, -3):
        with pytest.raises(ValueError, match="max_cycles must be at least 1"):
            ips_fit(A, [1, 2, 3, 4], max_cycles=cycles)


def test_ips_loglikelihood_monotone():
    A = four_cycle_matrix()
    n = CountTable(FOUR_CYCLE_COUNTS)
    active, red = reduce_zero_cells(A, n)
    observed = red.apply([n.values[j] for j in active])
    cells = [n.total / len(active)] * len(active)
    rows = [[float(x) for x in row] for row in red.rows]

    def loglik(cells):
        tot = sum(cells)
        return sum(n.values[j] * math.log(cells[pos] / tot)
                   for pos, j in enumerate(active) if n.values[j])

    prev = loglik(cells)
    for _ in range(60):
        for i, row in enumerate(rows):
            cur = sum(row[j] * cells[j] for j in range(len(cells)))
            ratio = observed[i] / cur
            for j in range(len(cells)):
                if row[j]:
                    cells[j] *= ratio
        now = loglik(cells)
        assert now >= prev - 1e-12
        prev = now


def test_ips_fixed_point_on_model_point():
    A = three_chain_matrix()
    rng = random.Random(31)
    t = [Fraction(rng.randint(1, 4)) for _ in range(8)]
    P = monomial_map(A, t)
    scale = Fraction(48, sum(P.values))
    counts = [int(x * scale) for x in P.values]
    if sum(counts) == 0:
        counts = [1] * 8
    # use an exact model point as the table: one cycle should fix it
    n = CountTable(counts) if all(
        x * scale == int(x * scale) for x in P.values) else CountTable([1] * 8)
    fit = ips_fit(A, n, tol=1e-10)
    stats = sufficient_stats(A, n)
    assert max(abs(a - b) for a, b in zip(A.apply(fit.values), stats)) <= 1e-10


def test_ips_decomposable_closed_form():
    rng = random.Random(17)
    A = three_chain_matrix()
    counts = [rng.randint(1, 9) for _ in range(8)]
    fit = ips_fit(A, CountTable(counts), tol=1e-12)
    oracle = closed_form_three_chain(counts)
    for got, want in zip(fit.values, oracle):
        assert abs(got - float(want)) <= 1e-9


def test_assemble_system_contains_printed_generators():
    A = four_cycle_matrix()
    sys_ = assemble_mle_system(A, CountTable(FOUR_CYCLE_COUNTS))
    # the five printed minimal generators (12-cell ring, columns 0..11)
    printed = [
        (("0011", "1001"), ("0001", "1011")),
        (("0011", "0110"), ("0010", "0111")),
        (("0001", "0100"), ("0000", "0101")),
        (("0010", "1000"), ("0000", "1010")),
        (("0100", "0111", "1001", "1010"), ("0101", "0110", "1000", "1011")),
    ]
    order = TermOrder.grevlex(12)
    from toricgm.polynomials import Binomial
    gb = buchberger([b.to_polynomial() for b in sys_.binomials], order)
    names = sys_.matrix.col_labels
    pos = {s: i for i, s in enumerate(names)}
    for us, vs in printed:
        u = [0] * 12
        v = [0] * 12
        for s in us:
            u[pos[s]] += 1
        for s in vs:
            v[pos[s]] += 1
        b = Binomial(tuple(u), tuple(v))
        assert poly_reduce(b.to_polynomial(), gb, order).is_zero()
    # linear side contains a+b+c+d-4 and i+k-2
    margins = dict(zip(sys_.matrix.row_labels, sys_.margins))
    assert margins["{X1,X2}(00)"] == 4
    assert margins["{X1,X4}(10)"] == 2


def test_solve_exact_paper_psi():
    A = four_cycle_matrix()
    sys_ = assemble_mle_system(A, CountTable(FOUR_CYCLE_COUNTS))
    res = solve_mle_exact(sys_)
    assert list(res.psi) == [Fraction(480, 13), Fraction(-2368, 39),
                             Fraction(110, 9), Fraction(6713, 351),
                             Fraction(-362, 39), Fraction(1)]
    assert sys_.matrix.col_labels[res.psi_variable] == "1011"
    assert len(res.triangular) == 12
    second = res.triangular[1]
    coeff = {mono[res.psi_variable]: c for mono, c in second.terms
             if sum(mono) == mono[res.psi_variable]}
    assert coeff[4] == Fraction(6539, 22304)
    assert not res.rational
    assert rational_root_check(res.psi) == []


def test_solve_reduces_no_pivot_row(monkeypatch):
    # psi, the shape and the back-substitution come from the core's lex
    # basis alone; the pivot-row reductions wait until `triangular` is read
    def refuse(*args):
        raise AssertionError("poly_reduce called")

    monkeypatch.setattr(mle, "poly_reduce", refuse)
    res = solve_mle_exact(assemble_mle_system(four_cycle_matrix(),
                                              CountTable(FOUR_CYCLE_COUNTS)))
    assert list(res.psi) == [Fraction(480, 13), Fraction(-2368, 39),
                             Fraction(110, 9), Fraction(6713, 351),
                             Fraction(-362, 39), Fraction(1)]
    with pytest.raises(AssertionError, match="poly_reduce called"):
        res.triangular


def test_solve_exact_agrees_with_ips():
    A = four_cycle_matrix()
    n = CountTable(FOUR_CYCLE_COUNTS)
    res = solve_mle_exact(assemble_mle_system(A, n))
    fit = ips_fit(A, n, tol=1e-12)
    active, _ = reduce_zero_cells(A, n)
    assert abs(res.root - fit.values[active[res.psi_variable]]) <= 1e-3
    for pos, j in enumerate(active):
        assert abs(res.profile[pos] - fit.values[j]) <= 1e-3
    # psi nearly vanishes at the converged IPS value
    val = sum(float(c) * fit.values[IDX4["1011"]] ** k
              for k, c in enumerate(res.psi))
    assert abs(val) <= 1e-2


def test_solve_exact_decomposable_rational():
    rng = random.Random(29)
    A = three_chain_matrix()
    counts = [rng.randint(1, 9) for _ in range(8)]
    res = solve_mle_exact(assemble_mle_system(A, CountTable(counts)))
    assert res.rational
    assert len(res.psi) == 2  # degree one
    oracle = closed_form_three_chain(counts)
    assert list(res.profile) == oracle
    fit = ips_fit(A, CountTable(counts), tol=1e-12)
    assert max(abs(float(a) - b) for a, b in zip(res.profile, fit.values)) <= 1e-9


def test_saturated_model_mle_is_data():
    from toricgm.models import ModelMatrix
    A = ModelMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    counts = CountTable([3, 5, 2])
    sys_ = assemble_mle_system(A, counts)
    assert sys_.binomials == ()
    res = solve_mle_exact(sys_)
    assert res.rational
    assert list(res.profile) == [3, 5, 2]


def test_direct_buchberger_on_thirteen_polynomial_system():
    # the 5 binomials + 8 independent marginal equations, eliminated directly:
    # 12 polynomials, the first being the quintic in the last cell
    A = four_cycle_matrix()
    n = CountTable(FOUR_CYCLE_COUNTS)
    sys_ = assemble_mle_system(A, n)
    res = solve_mle_exact(sys_)
    nvars = 12
    pos = {s: i for i, s in enumerate(sys_.matrix.col_labels)}

    def mono(cells):
        m = [0] * nvars
        for s in cells:
            m[pos[s]] += 1
        return tuple(m)

    def binom(us, vs):
        return Polynomial(nvars, [(mono(us), 1), (mono(vs), -1)])

    def lin(cells, rhs):
        terms = [(mono([s]), 1) for s in cells]
        terms.append(((0,) * nvars, -rhs))
        return Polynomial(nvars, terms)

    F = [
        binom(("0011", "1001"), ("0001", "1011")),
        binom(("0011", "0110"), ("0010", "0111")),
        binom(("0001", "0100"), ("0000", "0101")),
        binom(("0010", "1000"), ("0000", "1010")),
        binom(("0100", "0111", "1001", "1010"),
              ("0101", "0110", "1000", "1011")),
        lin(("0000", "0001", "0010", "0011"), 4),
        lin(("0100", "0101", "0110", "0111"), 4),
        lin(("1000", "1001", "1010", "1011"), 5),
        lin(("0000", "0001", "1000", "1001"), 4),
        lin(("0010", "0110", "1010"), 3),
        lin(("0011", "0111", "1011"), 4),
        lin(("0001", "0101", "0011", "0111"), 4),
        lin(("1000", "1010"), 2),
    ]
    order = TermOrder.lex(nvars)
    gb = buchberger(F, order)
    assert len(gb) == 12
    first = gb[0]
    assert sorted(first.variables()) == [11]
    coeffs = [Fraction(0)] * 6
    for m, c in first.terms:
        coeffs[m[11]] = c
    assert coeffs == list(res.psi)
    # same reduced basis as the preprocessing route
    assert list(gb) == sorted(res.triangular,
                              key=lambda p: order.key(p.leading_term(order)[0]))


def test_rational_root_check_examples():
    # (x - 2)(x - 1/3)
    p = [Fraction(2, 3), Fraction(-7, 3), Fraction(1)]
    assert rational_root_check(p) == [Fraction(1, 3), Fraction(2)]
    assert rational_root_check([0, 0, 0, 0, 0, 1]) == [0]


def test_isolate_positive_roots():
    # (x-1)(x-2)(x+3) = x^3 - 7x + 6... check: roots 1, 2, -3
    p = [Fraction(6), Fraction(-7), Fraction(0), Fraction(1)]
    roots = isolate_positive_roots(p)
    assert len(roots) == 2
    vals = sorted(float(lo + hi) / 2 for lo, hi in roots)
    assert abs(vals[0] - 1) < 1e-9 and abs(vals[1] - 2) < 1e-9


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _planted_polynomial(rng):
    """A rational multiple of a product of planted rational roots (some
    repeated, some negative, sometimes 0, some near 1e9) and irreducible
    quadratics x^2 + b x + c with b^2 < 4c; returns (coefficients, the
    distinct planted roots, sorted)."""
    roots = []
    for _ in range(rng.randint(1, 4)):
        num = rng.choice((rng.randint(1, 20), rng.randint(10 ** 6, 10 ** 9)))
        r = Fraction(rng.choice((1, -1)) * num, rng.randint(1, 12))
        roots += [r] * rng.choice((1, 1, 2, 3))
    if rng.random() < 0.3:
        roots.append(Fraction(0))
    coeffs = [Fraction(rng.randint(1, 9), rng.randint(1, 9))]
    for r in roots:
        coeffs = _poly_mul(coeffs, [-r, 1])
    for _ in range(rng.randint(0, 2)):
        b = rng.randint(-20, 20)
        coeffs = _poly_mul(coeffs, [b * b // 4 + rng.randint(1, 30), b, 1])
    return coeffs, sorted(set(roots))


def test_root_layer_finds_planted_roots():
    rng = random.Random(2024)
    large = 0
    for _ in range(200):
        coeffs, roots = _planted_polynomial(rng)
        large += max(abs(c) for c in coeffs) > 10 ** 12
        assert rational_root_check(coeffs) == roots
        positive = [r for r in roots if r > 0]
        intervals = isolate_positive_roots(coeffs)
        assert len(intervals) == len(positive)
        for (lo, hi), r in zip(intervals, positive):
            # every planted root is rational: it comes back exactly
            assert lo == r == hi
    assert large >= 50


def test_root_at_first_bisection_midpoint():
    # 2x^2 - 5x + 2 = (2x - 1)(x - 2): the Cauchy bound is 1 + ceil(5/2) = 4,
    # so bisecting (0, 4] hits the root 2 exactly, then the root 1/2 while
    # refining (0, 1]; both come back as degenerate intervals
    p = [2, -5, 2]
    assert isolate_positive_roots(p) == [(Fraction(1, 2), Fraction(1, 2)),
                                         (Fraction(2), Fraction(2))]
    assert rational_root_check(p) == [Fraction(1, 2), Fraction(2)]


def test_sturm_chain_with_degree_gap():
    # -x^4 + 7x - 3: its Sturm chain has degrees 4, 3, 1, 0, and dividing
    # the cubic by the linear element (leading coefficient -7) takes three
    # elimination steps, so a signed scaling would flip that remainder and
    # the counts; two positive roots, near 0.43 and 1.74
    p = [-3, 7, 0, 0, -1]
    intervals = isolate_positive_roots(p)
    assert len(intervals) == 2
    for lo, hi in intervals:
        at_lo = sum(c * lo ** k for k, c in enumerate(p))
        at_hi = sum(c * hi ** k for k, c in enumerate(p))
        assert at_lo * at_hi < 0
    assert rational_root_check(p) == []


def test_rational_root_next_to_an_irrational_one():
    # (x - 1)(7x^2 - 77x + 71): the irrational root near 1.0157 lies within
    # 1/lc = 1/7 of the rational root 1, which must be reported once
    p = _poly_mul([-1, 1], [71, -77, 7])
    assert rational_root_check(p) == [Fraction(1)]
    intervals = isolate_positive_roots(p)
    assert len(intervals) == 3
    assert [(lo, hi) for lo, hi in intervals if lo == hi] == [(1, 1)]
    for lo, hi in intervals:
        assert hi - lo <= ISOLATION_WIDTH


def test_repeated_irrational_root():
    # (x^2 - 2)^2 (x - 3): gcd(p, p') = x^2 - 2, so the Sturm chain is the
    # remainder sequence divided by it; sqrt(2) is isolated once, and 3
    # comes back exactly
    p = _poly_mul(_poly_mul([-2, 0, 1], [-2, 0, 1]), [-3, 1])
    assert p == [-12, 4, 12, -4, -3, 1]
    (lo, hi), three = isolate_positive_roots(p)
    assert 0 < hi - lo <= ISOLATION_WIDTH and lo * lo < 2 < hi * hi
    assert three == (3, 3)
    assert rational_root_check(p) == [3]


def test_heavy_table_root_layer():
    # counts 1-9 with one zeroed margin: the univariate's constant and
    # leading coefficients have many divisors
    counts = CountTable([5, 9, 0, 2, 4, 6, 0, 9, 2, 1, 0, 8, 9, 7, 0, 8])
    A = four_cycle_matrix()
    res = solve_mle_exact(assemble_mle_system(A, counts))
    fit = ips_fit(A, counts, tol=1e-10)
    active, _ = reduce_zero_cells(A, counts)
    assert abs(float(res.root) - fit.values[active[res.psi_variable]]) <= 1e-6
    assert rational_root_check(res.psi) == []


# --- nine active cells: the last cell can be a pivot ---------------------------

def _zeroed_tables(seed, active, count, zeroed=2):
    """Distinct four-cycle tables drawn like the benchmark's: every cell 1
    but three cells at 2, then the cells of `zeroed` random clique margins
    set to zero, drawn again until `active` cells are left."""
    A = four_cycle_matrix()
    rng = random.Random(seed)
    tables = []
    while len(tables) < count:
        counts = [1] * A.ncols
        for j in rng.sample(range(A.ncols), 3):
            counts[j] = 2
        for r in rng.sample(range(A.nrows), zeroed):
            for j in range(A.ncols):
                if A.rows[r][j]:
                    counts[j] = 0
        if sum(c > 0 for c in counts) == active and counts not in tables:
            tables.append(counts)
    return tables


NINE_CELL_TABLES = _zeroed_tables(7, 9, 12)


def _assert_agrees_with_ips(A, counts, res):
    fit = ips_fit(A, counts, tol=1e-10)
    active, _ = reduce_zero_cells(A, counts)
    assert abs(float(res.root) - fit.values[active[res.psi_variable]]) <= 1e-6
    for pos, j in enumerate(active):
        assert abs(float(res.profile[pos]) - fit.values[j]) <= 1e-6


def test_nine_cell_table_with_a_pivot_as_last_cell():
    # x8 is a pivot of the echelon and takes the value 1 at both solutions
    # of the core, so the whole system's basis, which starts with x8 - 1,
    # is not in shape position; the core's basis is, and psi is its
    # univariate in its last free cell, x7
    A = four_cycle_matrix()
    counts = CountTable([1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 0])
    sys_ = assemble_mle_system(A, counts)
    nvars = len(sys_.active)
    _, pivots = _echelonize(sys_.matrix.rows, sys_.margins, nvars)
    assert pivots == [0, 1, 2, 3, 4, 6, 8]
    res = solve_mle_exact(sys_)
    assert res.psi == (-4, 3, 1)
    assert res.psi_variable == 7
    names = [f"x{i}" for i in range(nvars)]
    rendered = [p.render(names, TermOrder.lex(nvars)) for p in res.triangular]
    assert rendered[0] == "x8 - 1"
    assert {"x7^2 + 3*x7 - 4", "x5 + x7 - 2"} <= set(rendered)
    _assert_agrees_with_ips(A, counts, res)
    # psi = (x7 - 1)(x7 + 4): the MLE is rational, exactly 1 in every cell
    assert res.rational
    assert res.root == Fraction(1) and isinstance(res.root, Fraction)
    assert all(isinstance(x, Fraction) and x == 1 for x in res.profile)


# tables whose last cell is a pivot and whose core is linear: the whole
# system's basis starts with x_last - c, and psi is the core's linear
# univariate in the last free cell
LINEAR_CORE_PIVOT_LAST_TABLES = [
    [1, 0, 1, 0, 2, 0, 1, 0, 1, 2, 1, 1, 0, 0, 0, 0],
    [1, 1, 0, 1, 2, 1, 0, 1, 1, 0, 0, 0, 2, 0, 0, 0],
    [1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 1, 2, 1],
    [1, 0, 1, 0, 1, 0, 2, 0, 0, 0, 0, 0, 1, 2, 1, 1]]


@pytest.mark.parametrize("counts", LINEAR_CORE_PIVOT_LAST_TABLES)
def test_psi_lives_in_the_last_free_cell_when_the_last_cell_is_a_pivot(
        counts):
    A = four_cycle_matrix()
    sys_ = assemble_mle_system(A, CountTable(counts))
    nvars = len(sys_.active)
    _, pivots = _echelonize(sys_.matrix.rows, sys_.margins, nvars)
    assert nvars - 1 in pivots
    res = solve_mle_exact(sys_)
    assert res.psi_variable == max(set(range(nvars)) - set(pivots))
    assert len(res.psi) == 2 and res.rational
    assert all(isinstance(x, Fraction) for x in res.profile)
    assert sys_.matrix.apply(res.profile) == sys_.margins
    assert all(b.evaluate(res.profile) == 0 for b in sys_.generators)
    fit = ips_fit(A, counts, tol=1e-10)
    for pos, j in enumerate(sys_.active):
        assert abs(float(res.profile[pos]) - fit.values[j]) <= 1e-9


@pytest.mark.parametrize("counts", NINE_CELL_TABLES)
def test_nine_cell_tables_agree_with_ips(counts):
    # solved once with a cleared basis memo and once from the memo
    A = four_cycle_matrix()
    counts = CountTable(counts)
    _reduced_basis.cache_clear()
    cold = solve_mle_exact(assemble_mle_system(A, counts))
    warm = solve_mle_exact(assemble_mle_system(A, counts))
    assert _reduced_basis.cache_info().hits == 1
    assert warm == cold
    _assert_agrees_with_ips(A, counts, cold)


def test_nine_cell_sample_has_both_kinds_of_last_cell():
    A = four_cycle_matrix()
    kinds = set()
    for counts in NINE_CELL_TABLES:
        sys_ = assemble_mle_system(A, CountTable(counts))
        _, pivots = _echelonize(sys_.matrix.rows, sys_.margins, 9)
        kinds.add(8 in pivots)
    assert kinds == {True, False}


# --- FGLM against a direct lex Groebner basis ---------------------------------

def _whole_system(sys_):
    """The binomials and every marginal equation, as polynomials."""
    nvars = len(sys_.active)
    unit = [tuple(int(k == j) for k in range(nvars)) for j in range(nvars)]
    linear = [Polynomial(nvars, [(unit[j], c) for j, c in enumerate(row)]
                         + [((0,) * nvars, -b)])
              for row, b in zip(sys_.matrix.rows, sys_.margins)]
    return [b.to_polynomial() for b in sys_.binomials] + linear


# the nine-cell table whose last cell is a pivot that does not separate
PIVOT_LAST_TABLE = [1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 0]

# twelve-cell tables whose last cell, a free one, does not separate the
# solutions: the core's quotient has one dimension more than psi's degree
UNSEPARATED_TABLES = [[0, 1, 0, 1, 0, 1, 0, 1, 1, 2, 1, 1, 1, 1, 1, 1],
                      [0, 0, 0, 0, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 1]]


@pytest.mark.parametrize("counts", _zeroed_tables(11, 8, 7)
                         + _zeroed_tables(11, 9, 7) + _zeroed_tables(11, 10, 6)
                         + _zeroed_tables(11, 12, 6, zeroed=1)
                         + _zeroed_tables(13, 10, 4) + _zeroed_tables(13, 8, 4)
                         + [PIVOT_LAST_TABLE] + UNSEPARATED_TABLES)
def test_triangular_is_the_direct_lex_basis_of_the_whole_system(counts):
    # the echelon, the integer core of the minimal generators in the free
    # cells' ring, its FGLM conversion, lifted, and the pivot rows reduced
    # modulo it reach the reduced lex basis that lex Buchberger reaches on
    # the whole system: every basis binomial and every marginal equation
    sys_ = assemble_mle_system(four_cycle_matrix(), CountTable(counts))
    res = solve_mle_exact(sys_)
    direct = buchberger(_whole_system(sys_), TermOrder.lex(len(sys_.active)))
    assert list(res.triangular) == direct


def test_direct_lex_sample_has_a_pivot_as_last_cell():
    A = four_cycle_matrix()
    last_is_pivot = set()
    for counts in _zeroed_tables(11, 8, 7) + _zeroed_tables(13, 8, 4) \
            + [PIVOT_LAST_TABLE]:
        sys_ = assemble_mle_system(A, CountTable(counts))
        nvars = len(sys_.active)
        _, pivots = _echelonize(sys_.matrix.rows, sys_.margins, nvars)
        last_is_pivot.add(nvars - 1 in pivots)
    assert last_is_pivot == {True, False}


@pytest.mark.parametrize("counts", UNSEPARATED_TABLES)
def test_last_free_cell_that_does_not_separate_the_solutions(counts):
    # psi in x11 has degree 4, but x10 is a standard monomial of the lex
    # basis too (x10^2 is a lead): the basis has an element more than there
    # are cells, which only FGLM's general walk reaches.  The element that
    # introduces x10 is linear in it with a coefficient in x11, which
    # back-substitution divides by at the root
    A = four_cycle_matrix()
    counts = CountTable(counts)
    res = solve_mle_exact(assemble_mle_system(A, counts))
    assert res.psi_variable == 11 and len(res.psi) == 5
    assert len(res.triangular) == 13
    p = next(p for p in res.triangular if 10 in p.variables())
    assert max(m[10] for m, _ in p.terms) == 1
    assert any(m[10] and m[11] for m, _ in p.terms)
    _assert_agrees_with_ips(A, counts, res)


def test_solve_refuses_a_core_basis_out_of_shape_position(monkeypatch,
                                                         tmp_path, capsys):
    # <x_last^2 - 1, x_prev^2 - 1> in the free cells' ring is a reduced lex
    # basis of a zero-dimensional ideal, but its second element is
    # quadratic in the cell it brings in: no shape position to read
    def unshaped(G, order):
        k = order.nvars
        return [Polynomial(k, [(monomial_of(k, [v, v]), 1), ((0,) * k, -1)])
                for v in (k - 1, k - 2)]

    monkeypatch.setattr(mle, "eliminate_to_triangular", unshaped)
    A = four_cycle_matrix()
    sys_ = assemble_mle_system(A, CountTable(FOUR_CYCLE_COUNTS))
    message = ("not triangular: the core's lex basis is not in shape "
               f"position for the table with margins {list(sys_.margins)} "
               f"on the cells {list(sys_.matrix.col_labels)}")
    with pytest.raises(NotTriangular) as refused:
        solve_mle_exact(sys_)
    assert str(refused.value) == message
    # the command line reports it as no exact MLE
    model = str(tmp_path / "model.json")
    write_matrix(A, model)
    counts = tmp_path / "n.json"
    counts.write_text(json.dumps({"order": "lex-last-fastest",
                                  "values": list(FOUR_CYCLE_COUNTS)}))
    code = main(["mle-exact", "--model", model, "--counts", str(counts)])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_fglm_rejects_a_basis_that_is_not_zero_dimensional():
    # <x0^2 - x1> has no lead that is a pure power of x1: the quotient is
    # infinite over x1
    grev = TermOrder.grevlex(2)
    gb = [Polynomial(2, [((2, 0), 1), ((0, 1), -1)])]
    with pytest.raises(NotTriangular, match="not zero-dimensional"):
        eliminate_to_triangular(gb, grev)


# --- IPS on a matrix whose entries are not all 0/1 ------------------------------

OVERFLOW_MATRIX = ((0, 2, 3, 6, 3, 3, 6), (6, 4, 3, 0, 3, 3, 0))
OVERFLOW_COUNTS = [1, 5, 1, 4, 2, 4, 1]
OVERFLOW_MESSAGE = (r"ips_fit: the margin ratio .* raised to an entry of row "
                    r"r\d overflows a float in cycle \d+")


def test_ips_overflow_is_a_named_arithmetic_error():
    # scaling by ratio ** entry does not converge here: the ratio grows
    # until its sixth power leaves float range
    with pytest.raises(ArithmeticError, match=OVERFLOW_MESSAGE) as refused:
        ips_fit(ModelMatrix(OVERFLOW_MATRIX), OVERFLOW_COUNTS)
    assert type(refused.value) is ArithmeticError


def test_cli_ips_reports_the_overflow_and_exits_4(tmp_path, capsys):
    model = str(tmp_path / "model.json")
    write_matrix(ModelMatrix(OVERFLOW_MATRIX), model)
    counts = tmp_path / "n.json"
    counts.write_text(json.dumps({"order": "lex-last-fastest",
                                  "values": OVERFLOW_COUNTS}))
    code = main(["ips", "--model", model, "--counts", str(counts)])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert re.fullmatch(f"error: {OVERFLOW_MESSAGE}; .*\n", captured.err)


# --- root refinement against plain bisection -----------------------------------

def _bisection_reference(chain, width):
    """The refinement by plain bisection: each isolating interval halved by
    the sign of q until it is narrow enough or a midpoint is the root,
    then the rational-root test (the oracle the jump must match)."""
    q = chain[0]
    if len(q) < 2:
        return []
    lc = abs(q[-1])
    width = min(width, Fraction(1, 2 * lc))
    out = []
    for a, b, d in mle._isolate(chain):
        vb = mle._value(q, b, d)
        while vb and (b - a) * width.denominator > width.numerator * d:
            m, a, b, d = a + b, 2 * a, 2 * b, 2 * d
            vm = mle._value(q, m, d)
            if vm == 0 or (vm > 0) == (vb > 0):
                b, vb = m, vm
            else:
                a = m
        cell = (Fraction(a, d), Fraction(b, d))
        k = b * lc // d
        if k * d > a * lc and mle._value(q, k, lc) == 0:
            a, b, d = k, k, lc
        out.append((cell, (Fraction(a, d), Fraction(b, d))))
    return out


@pytest.fixture
def fallbacks(monkeypatch):
    """List the calls of the step-by-step bisection."""
    calls = []

    def counting(*args):
        calls.append(args)
        return bisect(*args)

    bisect = mle._bisect
    monkeypatch.setattr(mle, "_bisect", counting)
    return calls


def _assert_refines_like_bisection(coeffs):
    """Every cell the refinement reaches, by the jump or by bisection, and
    every interval it returns, at both widths and for q(-x), equal plain
    bisection's."""
    chain = mle._sturm_chain(coeffs)
    for signed in (chain, mle._reflect(chain)):
        q = signed[0]
        for width in (ISOLATION_WIDTH, Fraction(1)):
            reference = _bisection_reference(signed, width)
            assert mle._positive_roots(signed, width) == [
                interval for _, interval in reference]
            lc = abs(q[-1]) if len(q) > 1 else 1
            narrow = min(width, Fraction(1, 2 * lc))
            for (a, b, d), (cell, _) in zip(mle._isolate(signed), reference):
                n = 0
                while Fraction(b - a, d << n) > narrow:
                    n += 1
                vb = mle._value(q, b, d)
                if n and vb:
                    jumped = mle._final_cell(q, a, b, d, vb, n)
                    if jumped is not None:
                        a, b, d = jumped
                        assert (Fraction(a, d), Fraction(b, d)) == cell


def test_refinement_matches_bisection_on_planted_polynomials(fallbacks):
    rng = random.Random(2024)
    for _ in range(200):
        coeffs, _ = _planted_polynomial(rng)
        _assert_refines_like_bisection(coeffs)
    # roots near 1e9 are finer than a float's spacing there: some of those
    # fall back to bisection
    assert fallbacks


def test_refinement_matches_bisection_on_benchmark_psis(fallbacks):
    tables = (_zeroed_tables(11, 12, 4, zeroed=1) + _zeroed_tables(12, 10, 4)
              + _zeroed_tables(13, 8, 2) + [FOUR_CYCLE_COUNTS])
    A = four_cycle_matrix()
    for counts in tables:
        res = solve_mle_exact(assemble_mle_system(A, CountTable(counts)))
        _assert_refines_like_bisection(res.psi)
    # the float estimate finds every cell of these roots
    assert fallbacks == []


def test_coefficients_beyond_float_range_skip_the_jump(fallbacks):
    # -10^400 x^4 + 7 10^400 x - 3 10^400 + 1: primitive, no coefficient is
    # a float, so the jump is skipped, not an OverflowError raised
    p = [-3 * 10 ** 400 + 1, 7 * 10 ** 400, 0, 0, -10 ** 400]
    _assert_refines_like_bisection(p)
    before = len(fallbacks)
    mle._isolation.cache_clear()
    intervals = isolate_positive_roots(p)
    assert len(intervals) == 2 and len(fallbacks) == before + 2
    for lo, hi in intervals:
        assert 0 < hi - lo <= ISOLATION_WIDTH


def test_a_float_estimate_that_misses_falls_back_to_bisection(fallbacks):
    # (x^2 - 2)(10^8 x^2 - 2 10^8 - 1): two irrational roots 3.5e-9 apart,
    # where rounding moves the float estimate by more than a cell
    p = _poly_mul([-2, 0, 1], [-2 * 10 ** 8 - 1, 0, 10 ** 8])
    mle._isolation.cache_clear()
    (lo1, hi1), (lo2, hi2) = isolate_positive_roots(p)
    assert len(fallbacks) == 2
    assert lo1 * lo1 < 2 < hi1 * hi1 and hi1 < lo2
    _assert_refines_like_bisection(p)


def test_the_jump_tries_the_estimated_cell_and_its_two_neighbours(monkeypatch):
    # an estimate one cell off is corrected by exact signs; two cells off,
    # no candidate is confirmed and bisection has to run
    # 351 times the paper's quintic psi: four positive irrational roots
    chain = mle._sturm_chain([12960, -21312, 4290, 6713, -3258, 351])
    q = chain[0]
    for a, b, d in mle._isolate(chain):
        vb = mle._value(q, b, d)
        n = 40
        lo, hi, den = mle._bisect(q, a, b, d, vb, n)
        cell = Fraction(hi - lo, den)
        for offset, found in ((-2, False), (-1, True), (0, True), (1, True),
                              (2, False)):
            estimate = float(Fraction(lo + hi, 2 * den) + offset * cell)
            monkeypatch.setattr(mle, "_float_root", lambda *args: estimate)
            jumped = mle._final_cell(q, a, b, d, vb, n)
            assert jumped == ((lo, hi, den) if found else None)


# --- memo contracts -------------------------------------------------------------

def test_isolation_returns_a_fresh_list():
    p = [Fraction(6), Fraction(-7), Fraction(0), Fraction(1)]
    first = isolate_positive_roots(p)
    first.clear()
    assert len(isolate_positive_roots(p)) == 2


def test_zero_cell_reduction_returns_a_fresh_list():
    A = four_cycle_matrix()
    active, red = reduce_zero_cells(A, FOUR_CYCLE_COUNTS)
    active.append(99)
    again, red2 = reduce_zero_cells(A, [2 * c for c in FOUR_CYCLE_COUNTS])
    assert len(again) == 12 and 99 not in again
    assert red2 is red


def test_an_empty_extended_model_is_refused_on_every_call():
    # no count table reaches it (a cell with a positive count touches only
    # positive statistics), so the memo is called with every row zero
    A = four_cycle_matrix()
    zero = (True,) * A.nrows
    for _ in range(2):
        with pytest.raises(ValueError, match="all cells dropped"):
            mle._zero_reduction(A, zero)
    mle._zero_reduction.cache_clear()
    with pytest.raises(ValueError, match="all cells dropped"):
        mle._zero_reduction(A, zero)
    assert mle._zero_reduction.cache_info().currsize == 0


def test_rational_root_check_reuses_the_solve_isolation(monkeypatch):
    chains = []

    def counting(coeffs):
        chains.append(coeffs)
        return sturm_chain(coeffs)

    sturm_chain = mle._sturm_chain
    monkeypatch.setattr(mle, "_sturm_chain", counting)
    mle._isolation.cache_clear()
    A = four_cycle_matrix()
    res = solve_mle_exact(assemble_mle_system(A, CountTable(FOUR_CYCLE_COUNTS)))
    assert len(chains) == 1
    assert rational_root_check(res.psi) == []
    assert isolate_positive_roots(res.psi)
    assert len(chains) == 1
