"""Acceptance suite: one test per numbered criterion, each printing a
PASS line with its measured time (run with -s to see them on success)."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from toricgm.factorization import (FACTORS, LIMIT_ONLY, OUTSIDE, classify,
                                   in_variety_kernel_oracle,
                                   in_variety_via_basis,
                                   is_facial_lp, is_facial_via_basis,
                                   limit_sequence)
from toricgm.graphs import (binary_graph, build_graph_matrix, is_chordal,
                            nondecomposable_partition)
from toricgm.independence import (exponential_degree_witness, global_ideal,
                                  hc_zspan_check, lift_limit_potentials,
                                  pairwise_ideal)
from toricgm.mle import (CountTable, assemble_mle_system, ips_fit,
                         rational_root_check, reduce_zero_cells,
                         solve_mle_exact)
from toricgm.models import Distribution, monomial_map
from toricgm.orders import TermOrder
from toricgm.polynomials import ideal_equal
from toricgm.toric import (binomial_in_kernel, compute_toric_basis,
                           is_quadratic_basis)

from fixtures import (FOUR_CHAIN_PAIRWISE, FOUR_CYCLE_COUNTS,
                      FOUR_CYCLE_QUARTICS, FOUR_CYCLE_SIXTEEN, IDX4,
                      MOUSSOURIS_SUPPORT, OCTAHEDRON_U, OCTAHEDRON_V,
                      THREE_CHAIN_BINOMIALS, binomial4, canonical,
                      four_chain, four_cycle, four_cycle_matrix, random_model,
                      three_chain)


def report(num, elapsed, budget, detail=""):
    print(f"ACCEPTANCE {num:>2} PASS  {elapsed:8.2f}s (budget {budget:.0f}s)"
          f"  {detail}")


def moussouris_distribution():
    vals = [Fraction(0)] * 16
    for s in MOUSSOURIS_SUPPORT:
        vals[IDX4[s]] = Fraction(1, 8)
    return Distribution(vals)


def test_criterion_01_three_chain_markov_basis():
    start = time.perf_counter()
    A = build_graph_matrix(three_chain())
    basis = compute_toric_basis(A)
    assert set(basis.binomials) == set(
        canonical(b, basis.order) for b in THREE_CHAIN_BINOMIALS)
    assert all(b.is_coprime() for b in basis)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, elapsed, 1, "three-chain basis is the printed pair")


def test_criterion_02_four_cycle_ideal_equality():
    start = time.perf_counter()
    A = four_cycle_matrix()
    basis = compute_toric_basis(A, seed=pairwise_ideal(four_cycle()))
    order = TermOrder.grevlex(16)
    assert ideal_equal(list(basis), FOUR_CYCLE_SIXTEEN, order)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(2, elapsed, 60,
           f"basis ({len(basis)} elements) generates the printed sixteen")


def test_criterion_03_trichotomy_fixtures():
    A = four_cycle_matrix()
    basis = compute_toric_basis(A, seed=pairwise_ideal(four_cycle()))

    start = time.perf_counter()
    verdict = classify(A, basis, moussouris_distribution())
    assert verdict.kind == LIMIT_ONLY
    assert verdict.covered_rows == frozenset(range(16))
    elapsed_m = time.perf_counter() - start
    assert elapsed_m < 1.0

    start = time.perf_counter()
    swap = [Fraction(0)] * 16
    for s in ("0100", "0111", "1001", "1010"):
        swap[IDX4[s]] = Fraction(1, 4)
    P = Distribution(swap)
    verdict = classify(A, FOUR_CYCLE_SIXTEEN, P)
    assert verdict.kind == OUTSIDE
    assert verdict.failed_binomial == FOUR_CYCLE_QUARTICS["f12diff"]
    others = [b for b in FOUR_CYCLE_SIXTEEN
              if b != FOUR_CYCLE_QUARTICS["f12diff"]]
    assert all(b.evaluate(P.values) == 0 for b in others)
    elapsed_s = time.perf_counter() - start
    assert elapsed_s < 1.0

    start = time.perf_counter()
    chain_point = [Fraction(0)] * 16
    chain_point[IDX4["0010"]] = Fraction(1, 2)
    chain_point[IDX4["1111"]] = Fraction(1, 2)
    Q = Distribution(chain_point)
    assert all(b.evaluate(Q.values) == 0 for b in FOUR_CHAIN_PAIRWISE)
    wit = binomial4(("0011", "1110"), ("0010", "1111"))
    assert wit.evaluate(Q.values) == Fraction(-1, 4)
    elapsed_c = time.perf_counter() - start
    assert elapsed_c < 1.0
    report(3, elapsed_m + elapsed_s + elapsed_c, 3,
           "limit-only / outside / pairwise-vs-global fixtures")


def test_criterion_04_ips_reproduction():
    start = time.perf_counter()
    A = four_cycle_matrix()
    n = CountTable(FOUR_CYCLE_COUNTS)
    fit = ips_fit(A, n, tol=1e-9)
    printed = {"0000": 0.96, "0001": 0.83, "0010": 1.03, "0011": 1.18,
               "0100": 1.07, "0101": 0.93, "0110": 0.93, "0111": 1.07,
               "1000": 0.97, "1001": 1.24, "1010": 1.03, "1011": 1.76}
    for s, want in printed.items():
        assert abs(fit.values[IDX4[s]] - want) <= 0.01
    stats = A.apply(n.values)
    fitted = A.apply(fit.values)
    assert max(abs(a - b) for a, b in zip(fitted, stats)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(4, elapsed, 5, "printed twelve-cell table within 0.01")


def test_criterion_05_exact_mle_reproduction():
    start = time.perf_counter()
    A = four_cycle_matrix()
    n = CountTable(FOUR_CYCLE_COUNTS)
    system = assemble_mle_system(A, n)
    res = solve_mle_exact(system)
    assert list(res.psi) == [Fraction(480, 13), Fraction(-2368, 39),
                             Fraction(110, 9), Fraction(6713, 351),
                             Fraction(-362, 39), Fraction(1)]
    second = res.triangular[1]
    ell = res.psi_variable
    coeff = {mono[ell]: c for mono, c in second.terms
             if sum(mono) == mono[ell]}
    assert coeff[4] == Fraction(6539, 22304)
    assert rational_root_check(res.psi) == []
    fit = ips_fit(A, n, tol=1e-12)
    active, _ = reduce_zero_cells(A, n)
    assert abs(res.root - fit.values[active[ell]]) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(5, elapsed, 120, "psi and the printed second element, exactly")


def _canonical_graph(n, edges):
    best = None
    verts = list(range(n))
    for perm in itertools.permutations(verts):
        mapped = frozenset(frozenset((perm[a], perm[b])) for a, b in edges)
        key = tuple(sorted(tuple(sorted(e)) for e in mapped))
        if best is None or key < best:
            best = key
    return best


def chordal_graphs_up_to_iso(max_vertices):
    """All chordal isomorphism classes on 1..max_vertices vertices."""
    out = []
    for n in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for bits in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
            key = _canonical_graph(n, edges)
            if key in seen:
                continue
            seen.add(key)
            g = binary_graph([f"X{i + 1}" for i in range(n)],
                             [(f"X{a + 1}", f"X{b + 1}") for a, b in edges])
            if is_chordal(g)[0]:
                out.append(g)
    return out


def test_criterion_06_decomposable_characterization():
    start = time.perf_counter()
    graphs = chordal_graphs_up_to_iso(5)
    assert len(graphs) == 44  # 1 + 2 + 4 + 10 + 27 isomorphism classes
    for g in graphs:
        A = build_graph_matrix(g)
        cpds = global_ideal(g)
        global_cpds = set(b.sign_free() for b in cpds)
        basis = compute_toric_basis(A, seed=cpds)
        assert is_quadratic_basis(basis), g
        for b in basis:
            assert b.sign_free() in global_cpds, (g, b)
    # ideal-theoretic equality with the global statements for the chains
    order = TermOrder.grevlex(8)
    A3 = build_graph_matrix(three_chain())
    assert ideal_equal(list(compute_toric_basis(A3)),
                       global_ideal(three_chain()), order)
    order = TermOrder.grevlex(16)
    A4 = build_graph_matrix(four_chain())
    assert ideal_equal(list(compute_toric_basis(A4)),
                       global_ideal(four_chain()), order)
    # and the converse: the four-cycle basis is not quadratic
    basis = compute_toric_basis(four_cycle_matrix(),
                                seed=pairwise_ideal(four_cycle()))
    assert not is_quadratic_basis(basis)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(6, elapsed, 600,
           f"{len(graphs)} chordal classes: quadratic global-CPD bases")


def test_criterion_07_degree_doubling_witnesses():
    start = time.perf_counter()
    for n, degree in ((1, 2), (2, 4), (3, 8)):
        g, wit = exponential_degree_witness(n)
        assert sum(wit.u) == degree and sum(wit.v) == degree
        assert binomial_in_kernel(wit, build_graph_matrix(g))
    g, wit = exponential_degree_witness(3)
    space = g.space()
    u = [0] * 64
    v = [0] * 64
    for s in OCTAHEDRON_U:
        u[space.state_index(tuple(int(c) for c in s))] = 1
    for s in OCTAHEDRON_V:
        v[space.state_index(tuple(int(c) for c in s))] = 1
    assert wit.u == tuple(u) and wit.v == tuple(v)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(7, elapsed, 5, "degrees 2, 4, 8; printed octahedron binomial exact")


def test_criterion_08_integer_span_fact():
    start = time.perf_counter()
    for g in (four_cycle(), four_chain()):
        A = build_graph_matrix(g)
        basis = compute_toric_basis(A, seed=pairwise_ideal(g))
        assert hc_zspan_check(basis, pairwise_ideal(g))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(8, elapsed, 10, "all basis moves in the pairwise integer span")


def test_criterion_09_oracle_equivalence_suite():
    start = time.perf_counter()
    rng = random.Random(2026)
    models = 0
    facial_checked = 0
    while models < 200:
        d = rng.randint(1, 5)
        m = rng.randint(2, 8)
        A = random_model(rng, d, m)
        basis = compute_toric_basis(A)
        points = []
        t_pos = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                 for _ in range(d)]
        image = monomial_map(A, t_pos)
        points.append(image)
        t_zero = list(t_pos)
        t_zero[rng.randrange(d)] = Fraction(0)
        points.append(monomial_map(A, t_zero))
        perturbed = list(image.values)
        perturbed[rng.randrange(m)] += Fraction(1, 1000)
        points.append(Distribution(perturbed))
        for P in points:
            via_basis, _ = in_variety_via_basis(P, basis)
            assert via_basis == in_variety_kernel_oracle(A, P), (A.rows, P)
        assert classify(A, basis, image).kind == FACTORS
        # facial agreement over every support of this model
        for r in range(m + 1):
            for F in itertools.combinations(range(m), r):
                lp, _ = is_facial_lp(A, F)
                assert lp == is_facial_via_basis(basis, F), (A.rows, F)
                facial_checked += 1
        models += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(9, elapsed, 600,
           f"200 models, {facial_checked} facial supports, oracles agree")


def test_criterion_10_limit_constructions():
    start = time.perf_counter()
    A = four_cycle_matrix()
    P = moussouris_distribution()
    prev = None
    for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
        _, P_eps = limit_sequence(A, P, eps)
        dev = max(abs(a - float(b)) for a, b in zip(P_eps.values, P.values))
        assert dev <= 10 * float(eps)
        if prev is not None:
            assert dev < prev
        prev = dev
    g = four_cycle()
    part = nondecomposable_partition(g)
    for n, tol in ((10 ** 3, 1e-2), (10 ** 4, 1e-3)):
        Q = lift_limit_potentials(g, part, n)
        dev = max(abs(float(a) - float(b))
                  for a, b in zip(Q.values, P.values))
        assert dev <= tol
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(10, elapsed, 10, "limit sequences and potential limits converge")


def test_criterion_11_full_four_cycle_degree_thirteen():
    start = time.perf_counter()
    A = four_cycle_matrix()
    counts = CountTable([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3])
    system = assemble_mle_system(A, counts, budget=10 ** 7)
    res = solve_mle_exact(system, budget=10 ** 7)
    assert len(res.psi) - 1 == 13
    assert rational_root_check(res.psi) == []
    fit = ips_fit(A, counts, tol=1e-11)
    active, _ = reduce_zero_cells(A, counts)
    assert abs(res.root - fit.values[active[res.psi_variable]]) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(11, elapsed, 60, "univariate of degree 13 for positive counts")
