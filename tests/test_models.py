import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from toricgm.graphs import build_graph_matrix, cliques
from toricgm.linalg import integer_row_echelon
from toricgm.models import (Distribution, ModelMatrix, StateSpace, VariableSpec,
                            build_loglinear_matrix, monomial_map,
                            validate_generators)

from fixtures import (FOUR_CYCLE_MATRIX, NO_THREE_WAY_MATRIX, four_cycle_matrix,
                      perfbench_workloads, random_model, rank)


def binary_space(n):
    return StateSpace([VariableSpec(f"X{i}", 2) for i in range(1, n + 1)])


def test_state_order_last_fastest():
    space = binary_space(3)
    assert space.column_labels() == ("000", "001", "010", "011",
                                     "100", "101", "110", "111")
    assert space.state_index((1, 0, 1)) == 5


@pytest.mark.parametrize("state", [(1,), (1, 2), (1, 2, 1, 5)])
def test_state_index_rejects_a_state_of_another_length(state):
    space = StateSpace([VariableSpec("A", 2), VariableSpec("B", 3),
                        VariableSpec("C", 2)])
    assert space.state_index((1, 2, 1)) == 11
    message = f"length {len(state)} in a space of 3 variables"
    with pytest.raises(ValueError, match=message):
        space.state_index(state)


def test_no_three_way_matrix_matches_print():
    space = binary_space(3)
    A = build_loglinear_matrix(space, [("X1", "X2"), ("X2", "X3"), ("X1", "X3")])
    assert [list(r) for r in A.rows] == NO_THREE_WAY_MATRIX
    assert A.row_labels[0] == "{X1,X2}(00)"
    assert A.rows[0] == (1, 1, 0, 0, 0, 0, 0, 0)


def test_three_chain_is_first_eight_rows():
    space = binary_space(3)
    full = build_loglinear_matrix(space, [("X1", "X2"), ("X2", "X3"), ("X1", "X3")])
    chain = build_loglinear_matrix(space, [("X1", "X2"), ("X2", "X3")])
    assert chain.rows == full.rows[:8]


def test_four_cycle_matrix_matches_print():
    A = four_cycle_matrix()
    assert [list(r) for r in A.rows] == FOUR_CYCLE_MATRIX
    assert A.nrows == 16 and A.ncols == 16


def test_single_full_generator_identity_pattern():
    space = binary_space(2)
    A = build_loglinear_matrix(space, [("X1", "X2")])
    assert A.column_degree == 1
    assert all(sum(col) == 1 for col in zip(*A.rows))


def test_unknown_variable_rejected():
    space = binary_space(2)
    with pytest.raises(ValueError):
        build_loglinear_matrix(space, [("X1", "bogus")])
    with pytest.raises(ValueError):
        build_loglinear_matrix(space, [()])


def test_column_sum_validation():
    with pytest.raises(ValueError, match="column sums differ"):
        ModelMatrix([[1, 0], [0, 0]])
    ModelMatrix([[1, 0], [0, 1]])  # fine


def test_column_degree_zero_rejected():
    # equal column sums of 0 would give a non-homogeneous lattice ideal
    with pytest.raises(ValueError, match="column degree 0"):
        ModelMatrix([[0, 0, 0]])
    with pytest.raises(ValueError, match="column degree 0"):
        ModelMatrix([[0, 0], [0, 0]])


def test_monomial_map_symbolic_products():
    # no-three-way interaction: image coordinates are the printed triple products
    space = binary_space(3)
    A = build_loglinear_matrix(space, [("X1", "X2"), ("X2", "X3"), ("X1", "X3")])
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    P = monomial_map(A, primes)
    t = primes
    expected = [t[0] * t[4] * t[8], t[0] * t[5] * t[9], t[1] * t[6] * t[8],
                t[1] * t[7] * t[9], t[2] * t[4] * t[10], t[2] * t[5] * t[11],
                t[3] * t[6] * t[10], t[3] * t[7] * t[11]]
    assert list(P.values) == expected


def test_monomial_map_all_ones():
    A = four_cycle_matrix()
    P = monomial_map(A, [1] * 16)
    assert set(P.values) == {Fraction(1)}


def test_monomial_map_zero_to_power_zero():
    A = ModelMatrix([[1, 0], [0, 1]])
    P = monomial_map(A, [0, 5])
    assert P.values == (Fraction(0), Fraction(5))


def test_distribution_support_and_normalize():
    d = Distribution([Fraction(1, 2), 0, Fraction(1, 2), 0])
    assert d.support == {0, 2}
    assert d.normalized().total() == 1
    assert d.is_exact
    with pytest.raises(ValueError):
        Distribution([-1, 2])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_distribution_rejects_values_that_are_not_finite(value):
    with pytest.raises(ValueError,
                       match=f"probability {value} at index 1 is not finite"):
        Distribution([0.5, value, 0.5])


def test_homogeneity_column_degree():
    rng = random.Random(1)
    for _ in range(10):
        n = rng.randint(2, 3)
        space = binary_space(n)
        names = space.names
        gens = [tuple(sorted(rng.sample(names, rng.randint(1, n))))]
        gens = list(dict.fromkeys(gens))
        A = build_loglinear_matrix(space, gens)
        assert A.column_degree == len(gens)


def reference_loglinear_matrix(space, generators):
    """The model matrix by a scan of every state for each row."""
    rows = []
    labels = []
    states = space.states()
    for gen in validate_generators(space, generators):
        pos = [space.var_index(n) for n in gen]
        for level in product(*[range(space.variables[p].levels) for p in pos]):
            rows.append([1 if tuple(s[p] for p in pos) == level else 0
                         for s in states])
            labels.append("{%s}(%s)" % (",".join(gen),
                                        "".join(str(x) for x in level)))
    return ModelMatrix(rows, row_labels=labels, col_labels=space.column_labels())


def _named_model_specs():
    return [spec for _, spec, *_ in perfbench_workloads().NAMED_MODELS]


def test_marginal_cells_partition_states_in_product_order():
    space = StateSpace([VariableSpec("A", 2), VariableSpec("B", 3),
                        VariableSpec("C", 2)])
    cells = space.marginal_cells(("C", "A"))
    assert list(cells) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for (c, a), cell in cells.items():
        assert cell == tuple(i for i, s in enumerate(space.states())
                             if s[2] == c and s[0] == a)
    assert space.marginal_cells(()) == {(): tuple(range(space.size))}
    with pytest.raises(ValueError):
        space.marginal_cells(("D",))


def test_matrix_matches_state_scan_on_named_models():
    for kind, *args in _named_model_specs():
        if kind == "graph":
            g, = args
            got = build_graph_matrix(g)
            want = reference_loglinear_matrix(g.space(), cliques(g))
        else:
            space, gens = args
            got = build_loglinear_matrix(space, gens)
            want = reference_loglinear_matrix(space, gens)
        assert got == want  # rows, row labels and column labels


def test_matrix_matches_state_scan_on_random_generators():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 4)
        space = StateSpace([VariableSpec(f"V{i}", rng.randint(2, 4))
                            for i in range(n)])
        gens = list(dict.fromkeys(
            tuple(rng.sample(space.names, rng.randint(1, n)))
            for _ in range(rng.randint(1, 4))))
        if len(set(map(frozenset, gens))) != len(gens):
            continue  # the same generator in two name orders
        got = build_loglinear_matrix(space, gens)
        want = reference_loglinear_matrix(space, gens)
        assert got == want  # rows, row labels and column labels


# --- the row basis -----------------------------------------------------------

def _first_independent(rows):
    """Indices of the rows that raise the rank of the rows before them."""
    return tuple(i for i in range(len(rows))
                 if rank(rows[:i + 1]) > rank(rows[:i]))


def _no_three_way(levels):
    space = StateSpace([VariableSpec(f"X{i + 1}", k) for i, k in enumerate(levels)])
    return build_loglinear_matrix(space, [("X1", "X2"), ("X1", "X3"), ("X2", "X3")])


@pytest.mark.parametrize("name, nrows, r", [
    ("four_cycle", 16, 9), ("no3way_2x2x2", 12, 7), ("no3way_2x3x3", 21, 14),
    ("pairwise_k4", 24, 11)])
def test_independent_rows_of_rank_deficient_models(name, nrows, r):
    # the first rank(A) independent rows: they have full rank, so they
    # span every row of A
    A = {"four_cycle": four_cycle_matrix,
         "no3way_2x2x2": lambda: _no_three_way((2, 2, 2)),
         "no3way_2x3x3": lambda: _no_three_way((2, 3, 3)),
         "pairwise_k4": lambda: build_loglinear_matrix(
             binary_space(4), list(combinations(binary_space(4).names, 2)))}[name]()
    rows = A.independent_rows()
    assert (A.nrows, len(rows), rank(A.rows)) == (nrows, r, r)
    assert rank([A.rows[i] for i in rows]) == r
    assert rows == _first_independent(A.rows)


def test_independent_rows_of_random_models():
    rng = random.Random(31)
    for _ in range(60):
        A = random_model(rng, rng.randint(1, 6), rng.randint(2, 6))
        rows = A.independent_rows()
        assert rows == _first_independent(A.rows), A.rows
        assert len(rows) == rank(A.rows)


def test_row_basis_is_computed_on_first_use_and_kept(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return integer_row_echelon(rows)

    monkeypatch.setattr("toricgm.models.integer_row_echelon", counted)
    A = ModelMatrix(NO_THREE_WAY_MATRIX)
    assert calls == []  # building a matrix costs no echelon
    rows = A.independent_rows()
    assert calls == [A.ncols]  # one echelon, of the columns
    assert A.independent_rows() is rows
    assert calls == [A.ncols]
