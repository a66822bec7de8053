import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from toricgm.graphs import build_graph_matrix
from toricgm.linalg import integer_kernel_lattice
from toricgm.models import (Distribution, StateSpace, VariableSpec,
                            build_loglinear_matrix, monomial_map)
from toricgm.orders import TermOrder
from toricgm.polynomials import Binomial, buchberger_binomials, ideal_equal
from toricgm.toric import (binomial_in_ideal, binomial_in_kernel,
                           compute_toric_basis, evaluate_binomial,
                           is_quadratic_basis)

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


# Buchberger runs per basis: one per saturated column, then the final one.
EXPECTED_RUNS = {"four-cycle": 6, "no-three-way-2x3x3": 10, "random-13": 2,
                 "random-2": 2, "random-5": 3, "random-8": 3}


@pytest.mark.parametrize("name", sorted(SATURATION_MODELS))
def test_basis_costs_one_run_per_saturated_column_plus_one(name, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return buchberger_binomials(*args, **kwargs)

    monkeypatch.setattr("toricgm.toric.buchberger_binomials", counting)
    A = SATURATION_MODELS[name]
    basis = compute_toric_basis(A)
    assert len(calls) == len(basis.saturated) + 1 == EXPECTED_RUNS[name]
    assert len(calls) < A.ncols + 1


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
    models = list(SATURATION_MODELS.values())
    models += [A for A, _, _ in _agreement_models(60)]
    for A in models:
        basis = compute_toric_basis(A)
        lattice = _lattice_binomials(A)
        support = {i for b in lattice for i in range(A.ncols) if b.u[i] or b.v[i]}
        assert list(basis.saturated) == sorted(set(basis.saturated))
        assert set(basis.saturated) <= support
        assert _units_reached(lattice, basis.saturated) == support, A.rows
