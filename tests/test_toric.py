import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from toricgm.graphs import UndirectedGraph, binary_graph, build_graph_matrix
from toricgm.independence import global_ideal
from toricgm.linalg import integer_kernel_lattice
from toricgm.models import (Distribution, ModelMatrix, StateSpace,
                            VariableSpec, build_loglinear_matrix, monomial_map)
from toricgm.orders import TermOrder
from toricgm.polynomials import (Binomial, BinomialRewriter, BudgetExceeded,
                                 buchberger_binomials, ideal_equal,
                                 monomial_divides)
from toricgm.toric import (_quadratic_moves, binomial_in_ideal,
                           binomial_in_kernel, compute_toric_basis,
                           evaluate_binomial, is_quadratic_basis,
                           minimal_generators)

from fixtures import (FOUR_CYCLE_SIXTEEN, IDX4, THREE_CHAIN_BINOMIALS,
                      CheapestOrder, binomial4, canonical, four_chain,
                      four_cycle, four_cycle_matrix, random_model, three_chain)


def test_three_chain_exact_basis():
    A = build_graph_matrix(three_chain())
    basis = compute_toric_basis(A)
    assert set(basis.binomials) == set(THREE_CHAIN_BINOMIALS)
    assert is_quadratic_basis(basis)


def test_saturated_model_empty_basis():
    from toricgm.graphs import binary_graph
    g = binary_graph(["X1", "X2", "X3"],
                     [("X1", "X2"), ("X2", "X3"), ("X1", "X3")])
    A = build_graph_matrix(g)
    basis = compute_toric_basis(A)
    assert len(basis) == 0
    assert is_quadratic_basis(basis)  # vacuous


def test_four_cycle_equals_sixteen_generators():
    A = four_cycle_matrix()
    basis = compute_toric_basis(A)
    order = TermOrder.grevlex(16)
    assert ideal_equal(list(basis), FOUR_CYCLE_SIXTEEN, order)
    assert not is_quadratic_basis(basis)
    assert basis.max_degree() == 4


def test_kernel_soundness_and_homogeneity():
    A = four_cycle_matrix()
    basis = compute_toric_basis(A)
    for b in basis:
        assert A.apply(b.u) == A.apply(b.v)
        assert sum(b.u) == sum(b.v)


def test_basis_elements_vanish_on_image_points():
    rng = random.Random(15)
    A = build_graph_matrix(four_chain())
    basis = compute_toric_basis(A)
    for _ in range(5):
        t = [Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(A.nrows)]
        P = monomial_map(A, t)
        for b in basis:
            assert evaluate_binomial(b, P) == 0


def test_binomial_membership_chain_statement():
    # independence of the last variable from the first two given the third
    A = build_graph_matrix(four_chain())
    basis = compute_toric_basis(A)
    wit = binomial4(("0011", "1110"), ("0010", "1111"))
    assert binomial_in_ideal(wit, basis)
    non_member = binomial4(("0000", "1111"), ("0011", "1100"))
    assert binomial_in_kernel(non_member, A) is False
    assert binomial_in_ideal(non_member, basis) is False


def test_membership_of_basis_elements():
    A = build_graph_matrix(three_chain())
    basis = compute_toric_basis(A)
    for b in basis:
        assert binomial_in_ideal(b, basis)


def test_evaluate_binomial_values():
    wit = binomial4(("0011", "1110"), ("0010", "1111"))
    vals = [Fraction(0)] * 16
    vals[IDX4["0010"]] = Fraction(1, 2)
    vals[IDX4["1111"]] = Fraction(1, 2)
    P = Distribution(vals)
    assert evaluate_binomial(wit, P) == Fraction(-1, 4)
    ones = Distribution([Fraction(1)] * 16)
    assert evaluate_binomial(wit, ones) == 0


def test_seeding_changes_nothing():
    from toricgm.independence import pairwise_ideal
    g = four_cycle()
    A = build_graph_matrix(g)
    plain = compute_toric_basis(A)
    seeded = compute_toric_basis(A, seed=pairwise_ideal(g))
    assert plain.binomials == seeded.binomials


def test_invalid_seed_rejected():
    A = build_graph_matrix(three_chain())
    bad = Binomial((1,) + (0,) * 7, (0, 1) + (0,) * 6)
    with pytest.raises(ValueError):
        compute_toric_basis(A, seed=[bad])


def test_lex_order_variant():
    A = build_graph_matrix(three_chain())
    basis = compute_toric_basis(A, order=TermOrder.lex(8))
    assert set(b.sign_free() for b in basis) == \
        set(b.sign_free() for b in THREE_CHAIN_BINOMIALS)


def enumerate_monomials(m, maxdeg):
    out = []
    for deg in range(maxdeg + 1):
        for combo in combinations_with_replacement(range(m), deg):
            mono = [0] * m
            for i in combo:
                mono[i] += 1
            out.append(tuple(mono))
    return out


@pytest.mark.parametrize("seed", [2, 5, 8, 13])
def test_saturation_completeness_small_models(seed):
    # brute force: every primitive kernel binomial of total degree <= 6
    # (3 per side, the ideals are homogeneous) reduces to zero
    rng = random.Random(seed)
    A = random_model(rng, rng.randint(2, 4), rng.randint(3, 6))
    basis = compute_toric_basis(A)
    monos = enumerate_monomials(A.ncols, 3)
    by_stat = {}
    for mono in monos:
        by_stat.setdefault(A.apply(mono), []).append(mono)
    checked = 0
    for group in by_stat.values():
        for u, v in combinations_with_replacement(group, 2):
            if u == v:
                continue
            b = Binomial(u, v)
            if not b.is_coprime():
                continue
            assert binomial_in_ideal(b, basis), (A.rows, u, v)
            checked += 1
    # vacuous only when the basis itself lives beyond the enumeration cap
    assert checked > 0 or all(sum(b.u) > 3 for b in basis)


def test_saturation_completeness_loglinear():
    # 0/1 matrices have plenty of low-degree kernel binomials
    from toricgm.models import StateSpace, VariableSpec, build_loglinear_matrix
    space = StateSpace([VariableSpec(n, 2) for n in ("X1", "X2", "X3")])
    A = build_loglinear_matrix(space, [("X1", "X2"), ("X2", "X3")])
    basis = compute_toric_basis(A)
    monos = enumerate_monomials(A.ncols, 3)
    by_stat = {}
    for mono in monos:
        by_stat.setdefault(A.apply(mono), []).append(mono)
    checked = 0
    for group in by_stat.values():
        for u, v in combinations_with_replacement(group, 2):
            if u == v:
                continue
            b = Binomial(u, v)
            if not b.is_coprime():
                continue
            assert binomial_in_ideal(b, basis)
            checked += 1
    assert checked >= 2  # at least the two degree-2 basis elements themselves


def _saturation_models():
    models = {}
    for seed in (2, 5, 8, 13):
        rng = random.Random(seed)
        models[f"random-{seed}"] = random_model(
            rng, rng.randint(2, 4), rng.randint(3, 6))
    models["four-cycle"] = four_cycle_matrix()
    space = StateSpace([VariableSpec("X1", 2), VariableSpec("X2", 3),
                        VariableSpec("X3", 3)])
    models["no-three-way-2x3x3"] = build_loglinear_matrix(
        space, [("X1", "X2"), ("X2", "X3"), ("X1", "X3")])
    return models


SATURATION_MODELS = _saturation_models()


@pytest.mark.parametrize("name", sorted(SATURATION_MODELS))
def test_one_saturation_pass_is_a_fixed_point(name):
    # a second pass would change nothing: saturating the result by any
    # single variable and re-reducing gives back the same basis
    A = SATURATION_MODELS[name]
    basis = compute_toric_basis(A)
    m = A.ncols
    assert len(basis) > 0
    for i in range(m):
        stripped = [_divide_out(b, i) for b in
                    buchberger_binomials(basis.binomials, CheapestOrder(i, m))]
        again = buchberger_binomials(stripped, basis.order)
        assert set(canonical(b, basis.order) for b in again) \
            == set(basis.binomials), (name, i)


# Buchberger runs per basis: at most one per saturated column, then the
# final one.  A column gets no run of its own when an earlier saturation run
# certifies it (it divides none of that run's leads), and the final run is
# left out when the last saturation ran under the requested order and
# dividing out common factors changed no element.  The four-cycle runs 2
# of its 4 columns and the no-three-way model 5 of its 9.
EXPECTED_RUNS = {"four-cycle": 3, "no-three-way-2x3x3": 6, "random-13": 2,
                 "random-2": 2, "random-5": 2, "random-8": 2}


@pytest.mark.parametrize("name", sorted(SATURATION_MODELS))
def test_basis_costs_one_run_per_saturated_column_plus_one(name, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return buchberger_binomials(*args, **kwargs)

    monkeypatch.setattr("toricgm.toric.buchberger_binomials", counting)
    A = SATURATION_MODELS[name]
    basis = compute_toric_basis(A)
    assert len(calls) == EXPECTED_RUNS[name] <= len(basis.saturated) + 1
    assert len(calls) < A.ncols + 1


def _markov_bases_models():
    # the named models of the markov_bases benchmark workload, then the
    # binary five-chain: (matrix, order, seed)
    from toricgm.independence import pairwise_ideal
    pairs = [(f"X{i}", f"X{j}") for i in range(1, 5) for j in range(i + 1, 5)]
    cycle = four_cycle_matrix()
    one_3level = UndirectedGraph(
        [VariableSpec("X1", 3)] + [VariableSpec(f"X{i}", 2) for i in (2, 3, 4)],
        [("X1", "X2"), ("X2", "X3"), ("X3", "X4"), ("X1", "X4")])
    five_chain = binary_graph([f"X{i}" for i in range(1, 6)],
                              [(f"X{i}", f"X{i + 1}") for i in range(1, 5)])
    return {
        "indep_4x4": (_named("indep_4x4"), None, None),
        "no3way_2x3x3": (_named("no3way_2x3x3"), None, None),
        "chain3_3level": (_named("chain3_3level"), None, None),
        "cycle4_binary": (cycle, None, None),
        "cycle4_binary_seeded": (cycle, None, pairwise_ideal(four_cycle())),
        "cycle4_binary_lex": (cycle, TermOrder.lex(cycle.ncols), None),
        "pairwise_k4_binary": (_loglinear((2, 2, 2, 2), pairs), None, None),
        "cycle4_one_3level": (build_graph_matrix(one_3level), None, None),
        "five_chain": (build_graph_matrix(five_chain), None, None),
    }


def test_saturated_mask_changes_no_basis(monkeypatch):
    # the final grevlex run skips the S-pairs whose tails share a variable
    # (its ideal, the toric ideal, is saturated by all of them); without
    # the mask every basis is the same.  The saturation runs get no mask
    cases = list(_markov_bases_models().values())
    cases += list(_agreement_models(160))
    marked = [compute_toric_basis(A, order, seed).binomials
              for A, order, seed in cases]
    masks = []

    def unmarked(gens, order, budget=None, saturated=0, strip_common=False):
        masks.append(saturated)
        return buchberger_binomials(gens, order, budget,
                                    strip_common=strip_common)

    monkeypatch.setattr("toricgm.toric.buchberger_binomials", unmarked)
    for (A, order, seed), binomials in zip(cases, marked):
        assert compute_toric_basis(A, order, seed).binomials == binomials, \
            A.rows
    assert any(masks) and not all(masks)


def test_every_run_returns_a_reduced_basis(monkeypatch):
    # run again on its own output, under the same order and with no
    # saturated mask, each Buchberger run of compute_toric_basis gives the
    # same set back.  With its rows in this order the binary K4 pairwise
    # model once made two masked saturation runs return 75 and 69
    # elements where the rerun gives 80 and 73: their inputs had every
    # common factor stripped, and nothing showed that ideal saturated by
    # the columns in the mask
    runs = []

    def recording(gens, order, *args, **kwargs):
        out = buchberger_binomials(gens, order, *args, **kwargs)
        runs.append((order, out))
        return out

    monkeypatch.setattr("toricgm.toric.buchberger_binomials", recording)
    pairs = [(f"X{i}", f"X{j}") for i in range(1, 5) for j in range(i + 1, 5)]
    A = _loglinear((2, 2, 2, 2), pairs)
    A = ModelMatrix([A.rows[i] for i in (3, 9, 22, 11, 2, 19, 23, 17, 0, 8,
                                         1, 20, 4, 6, 5, 7, 14, 10, 18, 12,
                                         16, 21, 15, 13)])
    assert len(compute_toric_basis(A)) == 61
    assert len(runs) > 1
    for order, out in runs:
        assert set(buchberger_binomials(out, order)) == set(out), order


def test_saturated_mask_bounds_a_grevlex_rerun():
    # noise-free guard: the no-three-way basis again, under grevlex with x0
    # last, every variable a nonzerodivisor modulo the toric ideal.  With
    # the mask no S-pair is treated; without it 48 are
    A = _named("no3way_2x3x3")
    basis = compute_toric_basis(A)
    m = A.ncols
    order = TermOrder.grevlex(m, list(range(1, m)) + [0])
    expected = buchberger_binomials(basis.binomials, order)
    assert buchberger_binomials(basis.binomials, order, budget=10,
                                saturated=(1 << m) - 1) == expected
    with pytest.raises(BudgetExceeded):
        buchberger_binomials(basis.binomials, order, budget=10)


def _lattice_binomials(A):
    return [Binomial(tuple(max(x, 0) for x in w), tuple(max(-x, 0) for x in w))
            for w in integer_kernel_lattice(A.rows)]


def _divide_out(b, i):
    shift = min(b.u[i], b.v[i])
    u = tuple(e - shift if j == i else e for j, e in enumerate(b.u))
    v = tuple(e - shift if j == i else e for j, e in enumerate(b.v))
    return Binomial(u, v).strip_common()


def saturate_by_every_column(A, order=None, seed=None):
    """Reference: saturate the lattice ideal by every column in turn."""
    m = A.ncols
    order = order or TermOrder.grevlex(m)
    gens = [b.strip_common() for b in _lattice_binomials(A) + list(seed or ())]
    if not gens:
        return ()
    for i in range(m):
        gens = [_divide_out(b, i)
                for b in buchberger_binomials(gens, CheapestOrder(i, m))]
    return tuple(canonical(b, order) for b in buchberger_binomials(gens, order))


def _agreement_models(count):
    # criterion-9 models, rows 1-5, columns 2-7; every fourth under lex,
    # every third seeded with two non-primitive kernel binomials
    rng = random.Random("toric-agreement")
    for k in range(count):
        A = random_model(rng, rng.randint(1, 5), rng.randint(2, 7))
        order = TermOrder.lex(A.ncols) if k % 4 == 3 else None
        lattice = _lattice_binomials(A)
        seed = None
        if k % 3 == 0 and lattice:
            b, c = lattice[0], lattice[-1]
            w = [bu - bv + cu - cv for bu, bv, cu, cv in zip(b.u, b.v, c.u, c.v)]
            seed = [Binomial(tuple(2 * e for e in b.u), tuple(2 * e for e in b.v)),
                    Binomial(tuple(max(x, 0) + 1 for x in w),
                             tuple(max(-x, 0) + 1 for x in w))]
        yield A, order, seed


def test_planned_saturation_agrees_with_every_column():
    for A, order, seed in _agreement_models(160):
        basis = compute_toric_basis(A, order=order, seed=seed)
        assert basis.binomials == saturate_by_every_column(A, order, seed), A.rows


def test_planned_saturation_agrees_on_seeded_four_cycle():
    from toricgm.independence import pairwise_ideal
    g = four_cycle()
    A = build_graph_matrix(g)
    seed = pairwise_ideal(g)
    assert compute_toric_basis(A, seed=seed).binomials \
        == saturate_by_every_column(A, seed=seed)


def _units_reached(lattice, units):
    # x^u = x^v: if every variable of one side is a unit, the monomial on
    # the other side is a unit, and so is each of its variables
    units = set(units)
    changed = True
    while changed:
        changed = False
        for b in lattice:
            sides = ({i for i, e in enumerate(b.u) if e},
                     {i for i, e in enumerate(b.v) if e})
            for one, other in (sides, sides[::-1]):
                if one <= units and not other <= units:
                    units |= other
                    changed = True
    return units


def test_saturated_columns_make_every_lattice_variable_a_unit():
    # the plan walks the lattice binomials and, for a lattice of rank two or
    # more, the quadratic moves, all of which are seeded
    models = list(SATURATION_MODELS.values())
    models += [A for A, _, _ in _agreement_models(60)]
    for A in models:
        basis = compute_toric_basis(A)
        lattice = _lattice_binomials(A)
        gens = lattice + (_quadratic_moves(A) if len(lattice) > 1 else [])
        support = {i for b in lattice for i in range(A.ncols) if b.u[i] or b.v[i]}
        assert list(basis.saturated) == sorted(set(basis.saturated))
        assert set(basis.saturated) <= support
        assert _units_reached(gens, basis.saturated) == support, A.rows


def _loglinear(levels, generators):
    space = StateSpace([VariableSpec(f"X{i}", k) for i, k in enumerate(levels, 1)])
    return build_loglinear_matrix(space, generators)


def _move_models():
    models = dict(SATURATION_MODELS)
    models["three-chain"] = build_graph_matrix(three_chain())
    models["four-chain"] = build_graph_matrix(four_chain())
    models["independence-3x4"] = _loglinear((3, 4), [("X1",), ("X2",)])
    for k, (A, _, _) in enumerate(_agreement_models(60)):
        models[f"agreement-{k}"] = A
    return models


MOVE_MODELS = _move_models()


def test_quadratic_moves_are_coprime_quadratic_kernel_binomials():
    found = 0
    for name, A in MOVE_MODELS.items():
        for b in _quadratic_moves(A):
            assert b.is_coprime(), (name, b)
            assert sum(b.u) == sum(b.v) == 2, (name, b)
            assert A.apply(b.u) == A.apply(b.v), (name, b)
            found += 1
    assert found > 0


def test_quadratic_moves_connect_every_fiber_of_distinct_columns():
    # brute force: group the pairs of distinct column values by their sum;
    # the moves form one path through each group, so |group| - 1 moves
    # connect it
    for name, A in MOVE_MODELS.items():
        cols = list(zip(*A.rows))
        reps = [j for j, col in enumerate(cols) if col not in cols[:j]]
        groups = {}
        for k, a in enumerate(reps):
            for b in reps[k:]:
                mono = _pair(A.ncols, a, b)
                groups.setdefault(A.apply(mono), set()).add(mono)
        parent = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                x = parent[x]
            return x

        moves = _quadratic_moves(A)
        for b in moves:
            parent[find(b.u)] = find(b.v)
        for group in groups.values():
            assert len({find(x) for x in group}) == 1, (name, group)
        assert len(moves) == sum(len(g) - 1 for g in groups.values()), name


def _pair(m, a, b):
    mono = [0] * m
    mono[a] += 1
    mono[b] += 1
    return tuple(mono)


def test_models_without_quadratic_moves():
    # the no-three-way and binary K4 pairwise models start at degree four
    assert _quadratic_moves(SATURATION_MODELS["no-three-way-2x3x3"]) == []
    pairs = [(f"X{i}", f"X{j}") for i in range(1, 5) for j in range(i + 1, 5)]
    assert _quadratic_moves(_loglinear((2, 2, 2, 2), pairs)) == []


@pytest.mark.parametrize("rows", [
    [[2, 1, 0], [0, 1, 2]],             # lattice (1, -2, 1): itself a move
    [[1, 1, 0], [0, 0, 1]],             # lattice (1, -1, 0): repeated column
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],  # no lattice at all
])
def test_rank_one_lattice_skips_the_move_search(rows, monkeypatch):
    A = ModelMatrix(rows)
    lattice = _lattice_binomials(A)
    assert len(lattice) <= 1
    # the search would find nothing new: at most the lattice vector itself
    assert {b.sign_free() for b in _quadratic_moves(A)} \
        <= {b.sign_free() for b in lattice}
    expected = compute_toric_basis(A).binomials

    def unexpected(A):
        raise AssertionError("move search on a lattice of rank at most one")

    monkeypatch.setattr("toricgm.toric._quadratic_moves", unexpected)
    assert compute_toric_basis(A).binomials == expected \
        == saturate_by_every_column(A)


def test_repeated_columns_give_no_redundant_moves():
    # copies of columns 0 and 5 appended to the three-chain matrix: the
    # copies take part in no move, and the others are those of the original
    base = build_graph_matrix(three_chain())
    rows = [list(row) + [row[0], row[5]] for row in base.rows]
    A = ModelMatrix(rows)
    moves = _quadratic_moves(A)
    assert [(b.u[:8], b.v[:8]) for b in moves] \
        == [(b.u, b.v) for b in _quadratic_moves(base)]
    assert all(b.u[8:] == b.v[8:] == (0, 0) for b in moves)
    cols = list(zip(*A.rows))
    for b in moves:
        used = [j for j in range(A.ncols) if b.u[j] or b.v[j]]
        assert len({cols[j] for j in used}) == len(used), b
    assert compute_toric_basis(A).binomials == saturate_by_every_column(A)


def test_five_chain_basis_is_one_run_of_the_global_ideal():
    # decomposable graph: the toric ideal is the global Markov ideal, so
    # one grevlex run over its CPD binomials is an independent route.  The
    # S-pair budget per run is the stated bound: saturating from the
    # lattice binomials alone takes 14,718 S-pairs in the first run, and
    # with the quadratic moves no run takes more than 1,353
    g = binary_graph([f"X{i}" for i in range(1, 6)],
                     [(f"X{i}", f"X{i + 1}") for i in range(1, 5)])
    A = build_graph_matrix(g)
    basis = compute_toric_basis(A, budget=2000)
    assert basis.binomials == tuple(
        buchberger_binomials(global_ideal(g), TermOrder.grevlex(A.ncols)))
    assert len(basis) == 132


# --- minimal generators --------------------------------------------------------

def _degrees(binomials):
    return [sum(b.u) for b in binomials]


@pytest.mark.parametrize("order, size", [(None, 28), ("lex", 29)])
def test_minimal_generators_of_the_binary_four_cycle(order, size):
    # the 8 quadrics and the 8 quartics of the paper: 28 (29 under lex)
    # reduced basis elements, of which 12 (13) the others generate
    A = four_cycle_matrix()
    basis = compute_toric_basis(A, None if order is None
                                else TermOrder.lex(A.ncols))
    gens = minimal_generators(basis)
    assert len(basis) == size
    assert _degrees(gens) == [2] * 8 + [4] * 8
    assert set(gens) <= set(basis.binomials)
    assert ideal_equal(gens, basis.binomials, basis.order)


def _named(name):
    def graph(levels, edges):
        return build_graph_matrix(UndirectedGraph(
            [VariableSpec(n, k) for n, k in levels], edges))

    if name == "indep_4x4":
        return graph((("X", 4), ("Y", 4)), ())
    if name == "chain3_3level":
        return graph((("X1", 3), ("X2", 3), ("X3", 3)),
                     (("X1", "X2"), ("X2", "X3")))
    space = StateSpace([VariableSpec("A", 2), VariableSpec("B", 3),
                        VariableSpec("C", 3)])
    return build_loglinear_matrix(space, [("A", "B"), ("A", "C"), ("B", "C")])


@pytest.mark.parametrize("name, degrees", [
    ("no3way_2x3x3", [4] * 9 + [6] * 6),
    ("indep_4x4", [2] * 36),
    ("chain3_3level", [2] * 27)])
def test_minimal_generators_keep_a_minimal_reduced_basis(name, degrees):
    basis = compute_toric_basis(_named(name))
    gens = minimal_generators(basis)
    assert _degrees(gens) == degrees
    assert set(gens) == set(basis.binomials)


def test_minimal_generators_on_random_matrices():
    # the reduced basis of the kept elements is the basis (they generate
    # the ideal), and dropping any one of them changes it (none is
    # generated by the others)
    rng = random.Random(2024)
    kept = total = 0
    for trial in range(150):
        A = random_model(rng, rng.randint(2, 4), rng.randint(3, 6))
        order = TermOrder.lex(A.ncols) if trial % 4 == 3 else None
        basis = compute_toric_basis(A, order)
        gens = minimal_generators(basis)
        assert _degrees(gens) == sorted(_degrees(gens))
        assert set(gens) <= set(basis.binomials)
        assert buchberger_binomials(gens, basis.order) == list(basis.binomials)
        for i in range(len(gens)):
            rest = gens[:i] + gens[i + 1:]
            assert buchberger_binomials(rest, basis.order) \
                != list(basis.binomials), (A.rows, gens[i])
        kept += len(gens)
        total += len(basis)
    assert kept < total  # the sample has redundant basis elements


@pytest.mark.parametrize("name", ["three-chain", "four-cycle",
                                  "four-cycle-lex", "no3way_2x3x3"])
def test_rewriter_picks_one_standard_monomial_per_fiber(name):
    # a reduced basis loaded into the rewriter: over every monomial of
    # degree at most 4, no lead divides the normal form, and two monomials
    # share a normal form iff A u = A v
    A = {"three-chain": build_graph_matrix(three_chain()),
         "no3way_2x3x3": _named("no3way_2x3x3")}.get(name, four_cycle_matrix())
    order = TermOrder.lex(A.ncols) if name.endswith("-lex") else None
    basis = compute_toric_basis(A, order)
    system = BinomialRewriter(basis.binomials)
    monomials = [tuple(cells.count(j) for j in range(A.ncols))
                 for degree in range(5) for cells in
                 combinations_with_replacement(range(A.ncols), degree)]
    forms = {}
    fibers = {}
    for m in monomials:
        nf = system.normal_form(m)
        assert not any(monomial_divides(b.u, nf) for b in basis), (m, nf)
        forms.setdefault(nf, set()).add(A.apply(m))
        fibers.setdefault(A.apply(m), set()).add(nf)
    assert all(len(s) == 1 for s in forms.values())
    assert all(len(s) == 1 for s in fibers.values())
    assert len(forms) < len(monomials)  # some monomials were rewritten


def test_minimal_generators_budget_bounds_the_selection():
    basis = compute_toric_basis(four_cycle_matrix())
    with pytest.raises(BudgetExceeded):
        minimal_generators(basis, budget=1)
