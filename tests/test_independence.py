import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from toricgm.graphs import UndirectedGraph, binary_graph, build_graph_matrix, \
    cliques, nondecomposable_partition, saturated_separations
from toricgm.independence import (CIStatement, CpdSpec, cpd_instances,
                                  cpd_polynomial,
                                  cpd_polynomials, cpr,
                                  exponential_degree_witness, global_ideal,
                                  hc_zspan_check, lift_ci_counterexample,
                                  lift_limit_potentials, pairwise_ideal,
                                  saturated_cpd_binomials)
from toricgm.models import Distribution, VariableSpec, monomial_map
from toricgm.orders import TermOrder
from toricgm.polynomials import Binomial, Polynomial
from toricgm.polynomials import reduce as poly_reduce
from toricgm.toric import binomial_in_kernel, compute_toric_basis

from fixtures import (FOUR_CHAIN_PAIRWISE, FOUR_CYCLE_PAIRWISE, IDX4,
                      MOUSSOURIS_SUPPORT, OCTAHEDRON_U, OCTAHEDRON_V,
                      binomial4, canonical, five_cycle, four_chain,
                      four_cycle, three_chain)


def signfree(bs):
    return set(b.sign_free() for b in bs)


def test_three_chain_statement_gives_markov_pair():
    from fixtures import THREE_CHAIN_BINOMIALS
    space = three_chain().space()
    stmt = CIStatement(("X1",), ("X3",), ("X2",))
    got = saturated_cpd_binomials(stmt, space)
    assert signfree(got) == signfree(THREE_CHAIN_BINOMIALS)


def test_four_cycle_statements_split_the_eight():
    space = four_cycle().space()
    stmt24 = CIStatement(("X2",), ("X4",), ("X1", "X3"))
    stmt13 = CIStatement(("X1",), ("X3",), ("X2", "X4"))
    got24 = saturated_cpd_binomials(stmt24, space)
    got13 = saturated_cpd_binomials(stmt13, space)
    assert len(got24) == len(got13) == 4
    assert signfree(got24) | signfree(got13) == signfree(FOUR_CYCLE_PAIRWISE)
    assert signfree(got24) & signfree(got13) == set()


def test_unsaturated_cpds_vanish_on_product_distributions():
    rng = random.Random(6)
    space = three_chain().space()
    stmt = CIStatement(("X1",), ("X3",), ())
    polys = cpd_polynomials(stmt, space)
    assert polys and all(p.total_degree() == 2 for p in polys)
    assert any(p.as_pure_difference() is None for p in polys)
    for _ in range(10):
        p1 = [Fraction(rng.randint(1, 9)) for _ in range(2)]
        p2 = [Fraction(rng.randint(1, 9)) for _ in range(2)]
        p3 = [Fraction(rng.randint(1, 9)) for _ in range(2)]
        point = []
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    point.append(p1[a] * p2[b] * p3[c])
        for p in polys:
            assert p.evaluate(point) == 0


def test_pairwise_ideal_four_cycle_and_chain():
    assert signfree(pairwise_ideal(four_cycle())) == signfree(FOUR_CYCLE_PAIRWISE)
    got = pairwise_ideal(four_chain())
    assert len(got) == 12
    assert signfree(got) == signfree(FOUR_CHAIN_PAIRWISE)


def test_pairwise_ideal_complete_graph_empty():
    g = binary_graph(["X1", "X2", "X3"],
                     [("X1", "X2"), ("X2", "X3"), ("X1", "X3")])
    assert pairwise_ideal(g) == []
    assert global_ideal(g) == []


def test_global_equals_pairwise_for_four_cycle():
    g = four_cycle()
    assert signfree(global_ideal(g)) == signfree(pairwise_ideal(g))


def test_global_strictly_contains_pairwise_for_four_chain():
    g = four_chain()
    pw = pairwise_ideal(g)
    gl = global_ideal(g)
    assert signfree(pw) < signfree(gl)
    wit = binomial4(("0011", "1110"), ("0010", "1111"))
    assert wit.sign_free() in signfree(gl)
    # the separating point: pairwise all vanish, the witness does not
    vals = [Fraction(0)] * 16
    vals[IDX4["0010"]] = Fraction(1, 2)
    vals[IDX4["1111"]] = Fraction(1, 2)
    P = Distribution(vals)
    assert all(b.evaluate(P.values) == 0 for b in pw)
    assert wit.evaluate(P.values) == Fraction(-1, 4)


def test_pairwise_subset_of_global_ideal():
    g = four_chain()
    order = TermOrder.grevlex(16)
    from toricgm.polynomials import buchberger
    gb = buchberger([b.to_polynomial() for b in global_ideal(g)], order)
    for b in pairwise_ideal(g):
        assert poly_reduce(b.to_polynomial(), gb, order).is_zero()


def test_pairwise_binomials_lie_in_kernel():
    for g in (three_chain(), four_chain(), four_cycle(), five_cycle()):
        A = build_graph_matrix(g)
        for b in pairwise_ideal(g):
            assert binomial_in_kernel(b, A)
        for b in global_ideal(g):
            assert binomial_in_kernel(b, A)


def test_cpr_values():
    space = three_chain().space()
    stmt = CIStatement(("X1",), ("X3",), ("X2",))
    specs = cpd_instances(stmt, space)
    rng = random.Random(2)
    # product distribution: every cpr defined is 1
    p1 = [Fraction(rng.randint(1, 9)) for _ in range(2)]
    p2 = [Fraction(rng.randint(1, 9)) for _ in range(2)]
    p3 = [Fraction(rng.randint(1, 9)) for _ in range(2)]
    point = [p1[a] * p2[b] * p3[c]
             for a in range(2) for b in range(2) for c in range(2)]
    P = Distribution(point)
    for spec in specs:
        assert cpr(P, spec, space) == 1
    # zero denominator -> None
    zero = Distribution([0] * 8)
    assert cpr(zero, specs[0], space) is None


def test_cpd_cpr_duality():
    rng = random.Random(19)
    space = four_cycle().space()
    stmt = CIStatement(("X2",), ("X4",), ("X1", "X3"))
    specs = cpd_instances(stmt, space)
    for _ in range(20):
        P = Distribution([Fraction(rng.randint(0, 6)) for _ in range(16)])
        for spec in specs:
            ratio = cpr(P, spec, space)
            if ratio is None:
                continue
            value = cpd_polynomial(spec, space).evaluate(P.values)
            assert (value == 0) == (ratio == 1)


def test_image_cpr_ratios_tied_across_conditioning():
    # on image points, the association of one edge is the same whatever the
    # opposite variables do: cpr(X3,X4|X1X2=01) = cpr(X3,X4|X1X2=10)
    rng = random.Random(23)
    g = four_cycle()
    A = build_graph_matrix(g)
    space = g.space()
    t = [Fraction(rng.randint(1, 9)) for _ in range(16)]
    P = monomial_map(A, t)
    stmt = CIStatement(("X3",), ("X4",), ("X1", "X2"))
    by_z = {spec.z: cpr(P, spec, space) for spec in cpd_instances(stmt, space)}
    assert by_z[(0, 1)] == by_z[(1, 0)]
    assert by_z[(0, 0)] == by_z[(1, 1)]


# Reference construction: one scan of every state per marginal, CPDs as
# products of Polynomial marginal sums, then zero and sign deduplication.
# The cell-map construction must give the same lists in the same order.

def _ref_joint_levels(space, names):
    return list(product(*[range(space.variables[space.var_index(n)].levels)
                          for n in names]))


def _ref_marginal_states(space, stmt, x, y, z):
    assignment = dict(zip((*stmt.X, *stmt.Y, *stmt.Z), (*x, *y, *z)))
    positions = {space.var_index(n): lvl for n, lvl in assignment.items()}
    return [idx for idx, state in enumerate(space.states())
            if all(state[p] == lvl for p, lvl in positions.items())]


def ref_cpd_instances(stmt, space):
    return [CpdSpec(stmt, x, x2, y, y2, z)
            for x, x2 in combinations(_ref_joint_levels(space, stmt.X), 2)
            for y, y2 in combinations(_ref_joint_levels(space, stmt.Y), 2)
            for z in _ref_joint_levels(space, stmt.Z)]


def ref_cpd_polynomial(spec, space):
    m = space.size

    def marginal(x, y):
        return Polynomial(m, [(tuple(int(j == idx) for j in range(m)), 1)
                              for idx in _ref_marginal_states(
                                  space, spec.statement, x, y, spec.z)])

    return (marginal(spec.x, spec.y) * marginal(spec.x2, spec.y2)
            - marginal(spec.x2, spec.y) * marginal(spec.x, spec.y2))


def ref_cpd_polynomials(stmt, space):
    seen = set()
    out = []
    for spec in ref_cpd_instances(stmt, space):
        p = ref_cpd_polynomial(spec, space)
        if p.is_zero():
            continue
        sig = (-p if p.terms[0][1] < 0 else p).terms
        if sig not in seen:
            seen.add(sig)
            out.append(p)
    return out


def ref_saturated_cpd_binomials(stmt, space, order):
    seen = set()
    out = []
    for p in ref_cpd_polynomials(stmt, space):
        diff = p.as_pure_difference()
        assert diff is not None
        b = canonical(Binomial(*diff), order)
        if b.sign_free() not in seen:
            seen.add(b.sign_free())
            out.append(b)
    return out


def ref_cpr(P, spec, space):
    def prob(x, y):
        total = 0
        for idx in _ref_marginal_states(space, spec.statement, x, y, spec.z):
            total += P[idx]
        return total

    den = prob(spec.x2, spec.y) * prob(spec.x, spec.y2)
    if den == 0:
        return None
    return prob(spec.x, spec.y) * prob(spec.x2, spec.y2) / den


def ref_saturated_ideal(statements, space):
    order = TermOrder.grevlex(space.size)
    seen = set()
    out = []
    for stmt in statements:
        for b in ref_saturated_cpd_binomials(stmt, space, order):
            if b.sign_free() not in seen:
                seen.add(b.sign_free())
                out.append(b)
    return out


def ref_pairwise_ideal(g):
    names = g.names
    return ref_saturated_ideal(
        [CIStatement((a,), (b,), tuple(n for n in names if n not in (a, b)))
         for a, b in combinations(names, 2) if not g.has_edge(a, b)], g.space())


def ref_global_ideal(g):
    return ref_saturated_ideal(
        [CIStatement(s.X, s.Y, s.Z) for s in saturated_separations(g)], g.space())


def three_level_chain():
    return UndirectedGraph([VariableSpec(n, 3) for n in ("X1", "X2", "X3")],
                           [("X1", "X2"), ("X2", "X3")])


def mixed_level_four_cycle():
    levels = {"X1": 3, "X2": 2, "X3": 2, "X4": 2}
    return UndirectedGraph([VariableSpec(n, k) for n, k in levels.items()],
                           four_cycle().edges)


CELL_MAP_GRAPHS = (three_chain, four_chain, four_cycle, five_cycle,
                   three_level_chain, mixed_level_four_cycle)


def _statements(g):
    """Every saturated separation of g, each also with its blocks reversed
    (names out of variable order) and with X and Y swapped, plus unsaturated
    statements: marginal ones (empty Z) and ones that leave variables out."""
    names = g.names
    out = []
    for sep in saturated_separations(g):
        out.append(CIStatement(sep.X, sep.Y, sep.Z))
        out.append(CIStatement(sep.Y[::-1], sep.X[::-1], sep.Z[::-1]))
    for a, b in combinations(names, 2):
        out.append(CIStatement((b,), (a,), ()))
        rest = [n for n in names if n not in (a, b)]
        out.append(CIStatement((a,), (b,), tuple(rest[:1])))
        if len(rest) > 1:
            out.append(CIStatement((b, rest[-1]), (a,), ()))
    return out


@pytest.mark.parametrize("make", CELL_MAP_GRAPHS, ids=lambda f: f.__name__)
def test_cell_map_cpds_match_state_scan(make):
    g = make()
    space = g.space()
    order = TermOrder.grevlex(space.size)
    rng = random.Random(len(space.names) * 7 + space.size)
    for stmt in _statements(g):
        specs = cpd_instances(stmt, space)
        assert specs == ref_cpd_instances(stmt, space), stmt
        assert cpd_polynomials(stmt, space) == ref_cpd_polynomials(stmt, space)
        if stmt.is_saturated(space):
            assert (saturated_cpd_binomials(stmt, space, order)
                    == ref_saturated_cpd_binomials(stmt, space, order))
        exact = Distribution([Fraction(rng.randint(0, 3), rng.randint(1, 3))
                              for _ in range(space.size)])
        numeric = [rng.random() for _ in range(space.size)]
        for spec in specs[:6]:
            assert cpd_polynomial(spec, space) == ref_cpd_polynomial(spec, space)
            assert cpr(exact, spec, space) == ref_cpr(exact, spec, space)
            assert cpr(numeric, spec, space) == ref_cpr(numeric, spec, space)


@pytest.mark.parametrize("make", CELL_MAP_GRAPHS, ids=lambda f: f.__name__)
def test_cell_map_ideals_match_state_scan(make):
    g = make()
    assert pairwise_ideal(g) == ref_pairwise_ideal(g)
    assert global_ideal(g) == ref_global_ideal(g)


def test_cpd_instances_give_distinct_nonzero_polynomials():
    for make in CELL_MAP_GRAPHS:
        g = make()
        space = g.space()
        for stmt in _statements(g):
            signatures = set()
            for spec in cpd_instances(stmt, space):
                p = cpd_polynomial(spec, space)
                assert not p.is_zero()
                signatures.add(p.terms)
                signatures.add((-p).terms)
            assert len(signatures) == 2 * len(cpd_instances(stmt, space))


def test_hc_zspan_four_cycle_and_chain():
    for g in (four_cycle(), four_chain()):
        A = build_graph_matrix(g)
        basis = compute_toric_basis(A)
        assert hc_zspan_check(basis, pairwise_ideal(g))


def test_positive_factorization_sanity():
    # image points satisfy every pairwise binomial exactly; strictly positive
    # points satisfying the full basis classify as factoring
    from toricgm.factorization import FACTORS, classify
    rng = random.Random(41)
    for g in (four_chain(), four_cycle()):
        A = build_graph_matrix(g)
        basis = compute_toric_basis(A, seed=pairwise_ideal(g))
        t = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
             for _ in range(A.nrows)]
        P = monomial_map(A, t)
        assert all(x > 0 for x in P.values)
        for b in pairwise_ideal(g):
            assert b.evaluate(P.values) == 0
        assert classify(A, basis, P).kind == FACTORS


def test_hc_zspan_sixteen_printed_generators():
    from fixtures import FOUR_CYCLE_SIXTEEN
    from toricgm.linalg import integer_span_member
    lattice = [list(b.exponent_diff()) for b in pairwise_ideal(four_cycle())]
    for b in FOUR_CYCLE_SIXTEEN:
        assert integer_span_member(list(b.exponent_diff()), lattice)


def test_three_chain_kernel_rank():
    from fixtures import rat_kernel_basis
    A = build_graph_matrix(three_chain())
    kernel = rat_kernel_basis(A.rows)
    assert len(kernel) == 2  # the 8x8 matrix has rank 6


def test_hc_zspan_empty_basis():
    g = binary_graph(["X1", "X2"], [("X1", "X2")])
    A = build_graph_matrix(g)
    basis = compute_toric_basis(A)
    assert len(basis) == 0
    assert hc_zspan_check(basis, pairwise_ideal(g))


def test_witness_degrees_and_kernel():
    for n in (1, 2, 3):
        g, wit = exponential_degree_witness(n)
        assert sum(wit.u) == 2 ** n and sum(wit.v) == 2 ** n
        assert binomial_in_kernel(wit, build_graph_matrix(g))


def test_witness_n1_is_independence_binomial():
    g, wit = exponential_degree_witness(1)
    assert g.edges == ()
    assert wit.u == (1, 0, 0, 1) and wit.v == (0, 1, 1, 0)


def test_witness_n2_lives_on_four_cycle():
    g, _ = exponential_degree_witness(2)
    assert set(map(frozenset, g.edges)) == set(map(frozenset, four_cycle().edges))


def test_witness_n3_matches_printed_octahedron_binomial():
    g, wit = exponential_degree_witness(3)
    space = g.space()
    u = [0] * 64
    v = [0] * 64
    for s in OCTAHEDRON_U:
        u[space.state_index(tuple(int(c) for c in s))] = 1
    for s in OCTAHEDRON_V:
        v[space.state_index(tuple(int(c) for c in s))] = 1
    assert wit.u == tuple(u) and wit.v == tuple(v)
    assert [c for c in cliques(g)] == [
        ("X1", "X2", "X3"), ("X1", "X2", "X6"), ("X1", "X3", "X5"),
        ("X1", "X5", "X6"), ("X2", "X3", "X4"), ("X2", "X4", "X6"),
        ("X3", "X4", "X5"), ("X4", "X5", "X6")]


def test_witness_cap():
    with pytest.raises(ValueError):
        exponential_degree_witness(7)
    with pytest.raises(ValueError):
        exponential_degree_witness(0)


def test_lift_counterexample_four_cycle_is_swap_point():
    g = four_cycle()
    part = nondecomposable_partition(g)
    P, wit = lift_ci_counterexample(g, part)
    expected = {IDX4[s]: Fraction(1, 4) for s in ("0100", "0111", "1001", "1010")}
    for idx, val in enumerate(P.values):
        assert val == expected.get(idx, 0)
    from fixtures import FOUR_CYCLE_QUARTICS
    assert wit.sign_free() == FOUR_CYCLE_QUARTICS["f12diff"].sign_free()


def test_lift_counterexample_five_cycle():
    g = five_cycle()
    part = nondecomposable_partition(g)
    P, wit = lift_ci_counterexample(g, part)
    A = build_graph_matrix(g)
    assert binomial_in_kernel(wit, A)
    assert sum(1 for x in P.values if x) == 4
    # every quadratic kernel binomial vanishes at P
    from itertools import combinations
    states = list(range(32))
    sums = {}
    for a, b in combinations(states, 2):
        key = tuple(x + y for x, y in zip(A.column(a), A.column(b)))
        sums.setdefault(key, []).append((a, b))
    for group in sums.values():
        for (a, b), (c, d) in combinations(group, 2):
            lhs = P.values[a] * P.values[b]
            rhs = P.values[c] * P.values[d]
            assert lhs == rhs


def test_lift_counterexample_pendant_vertex():
    g = binary_graph(["X1", "X2", "X3", "X4", "X5"],
                     [("X1", "X2"), ("X2", "X3"), ("X3", "X4"), ("X1", "X4"),
                      ("X1", "X5")])
    part = nondecomposable_partition(g)
    assert part.E == ("X5",)
    P, wit = lift_ci_counterexample(g, part)
    space = g.space()
    for idx in P.support:
        state = space.states()[idx]
        assert state[space.var_index("X5")] == 1  # E variables pinned at 1
    assert binomial_in_kernel(wit, build_graph_matrix(g))


def test_lift_potentials_uniform_at_one():
    g = four_cycle()
    part = nondecomposable_partition(g)
    P = lift_limit_potentials(g, part, 1)
    assert set(P.values) == {Fraction(1, 16)}


def test_lift_potentials_converge_to_uniform_eight_atoms():
    g = four_cycle()
    part = nondecomposable_partition(g)
    target = {IDX4[s] for s in MOUSSOURIS_SUPPORT}
    for n, tol in ((1000, 1e-2), (10000, 1e-3)):
        P = lift_limit_potentials(g, part, n)
        for idx, val in enumerate(P.values):
            want = Fraction(1, 8) if idx in target else Fraction(0)
            assert abs(float(val) - float(want)) <= tol


def test_lift_potentials_five_cycle_limit_support_infeasible():
    g = five_cycle()
    part = nondecomposable_partition(g)
    P = lift_limit_potentials(g, part, 1000)
    peak = max(P.values)
    support = frozenset(i for i, v in enumerate(P.values) if v / peak > Fraction(1, 100))
    A = build_graph_matrix(g)
    from toricgm.factorization import is_A_feasible
    ok, witness = is_A_feasible(A, support)
    assert not ok and witness is not None


def test_lift_potentials_factor_along_graph():
    # finite n: the distribution factors (it is built from pairwise potentials)
    g = five_cycle()
    part = nondecomposable_partition(g)
    P = lift_limit_potentials(g, part, 7)
    A = build_graph_matrix(g)
    from toricgm.factorization import in_variety_kernel_oracle
    assert in_variety_kernel_oracle(A, P)
