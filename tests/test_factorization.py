import os
import random
import subprocess
import sys
import textwrap
import threading
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from toricgm.factorization import (FACTORS, LIMIT_ONLY, OUTSIDE,
                                   FacialCertificate, classify, covered_rows,
                                   in_variety_kernel_oracle,
                                   in_variety_via_basis, is_A_feasible,
                                   is_facial_lp, is_facial_via_basis,
                                   limit_sequence)
from toricgm.factorization import _kernel_balances, _least_norm
from toricgm.graphs import build_graph_matrix
from toricgm.linalg import integer_kernel_lattice
from toricgm.models import Distribution, ModelMatrix, monomial_map
from toricgm.polynomials import Binomial
from toricgm.simplex import _phase_one
from toricgm.toric import compute_toric_basis

from fixtures import (FOUR_CYCLE_QUARTICS, FOUR_CYCLE_SIXTEEN, IDX4,
                      MOUSSOURIS_SUPPORT, four_chain, four_cycle_matrix,
                      full_width_phase_one, full_width_rows,
                      perfbench_workloads, random_model, rank)


def moussouris_distribution():
    vals = [Fraction(0)] * 16
    for s in MOUSSOURIS_SUPPORT:
        vals[IDX4[s]] = Fraction(1, 8)
    return Distribution(vals)


def swap_support_distribution():
    vals = [Fraction(0)] * 16
    for s in ("0100", "0111", "1001", "1010"):
        vals[IDX4[s]] = Fraction(1, 4)
    return Distribution(vals)


@pytest.fixture(scope="module")
def four_cycle_basis():
    return compute_toric_basis(four_cycle_matrix())


def test_full_support_feasible_and_facial():
    A = four_cycle_matrix()
    ok, witness = is_A_feasible(A, range(16))
    assert ok and witness is None
    facial, cert = is_facial_lp(A, range(16))
    assert facial and all(x == 0 for x in cert.c)


def test_moussouris_support_not_feasible():
    A = four_cycle_matrix()
    F = [IDX4[s] for s in MOUSSOURIS_SUPPORT]
    ok, witness = is_A_feasible(A, F)
    assert not ok and witness is not None
    from toricgm.factorization import covered_rows
    assert covered_rows(A, F) == frozenset(range(16))


def test_moussouris_support_is_facial_both_routes():
    A = four_cycle_matrix()
    F = [IDX4[s] for s in MOUSSOURIS_SUPPORT]
    facial, cert = is_facial_lp(A, F)
    assert facial
    assert is_facial_via_basis(FOUR_CYCLE_SIXTEEN, F)


def test_swap_support_not_facial(four_cycle_basis):
    A = four_cycle_matrix()
    F = [IDX4[s] for s in ("0100", "0111", "1001", "1010")]
    assert not is_facial_via_basis(four_cycle_basis, F)
    facial, _ = is_facial_lp(A, F)
    assert not facial


def test_moussouris_in_variety(four_cycle_basis):
    P = moussouris_distribution()
    member, failed = in_variety_via_basis(P, FOUR_CYCLE_SIXTEEN)
    assert member and failed is None
    member, _ = in_variety_via_basis(P, four_cycle_basis)
    assert member
    assert in_variety_kernel_oracle(four_cycle_matrix(), P)


def test_swap_point_fails_exactly_one_printed_generator():
    P = swap_support_distribution()
    failing = [name for name, b in FOUR_CYCLE_QUARTICS.items()
               if b.evaluate(P.values) != 0]
    assert failing == ["f12diff"]
    assert FOUR_CYCLE_QUARTICS["f12diff"].evaluate(P.values) == Fraction(1, 256)
    member, failed = in_variety_via_basis(P, FOUR_CYCLE_SIXTEEN)
    assert not member and failed == FOUR_CYCLE_QUARTICS["f12diff"]


def test_classify_three_fixtures(four_cycle_basis):
    A = four_cycle_matrix()
    verdict = classify(A, four_cycle_basis, moussouris_distribution())
    assert verdict.kind == LIMIT_ONLY
    assert verdict.covered_rows == frozenset(range(16))
    verdict = classify(A, FOUR_CYCLE_SIXTEEN, swap_support_distribution())
    assert verdict.kind == OUTSIDE
    assert verdict.failed_binomial == FOUR_CYCLE_QUARTICS["f12diff"]
    rng = random.Random(4)
    t = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(16)]
    P = monomial_map(A, t).normalized()
    assert classify(A, four_cycle_basis, P).kind == FACTORS


def test_classify_scale_invariant(four_cycle_basis):
    A = four_cycle_matrix()
    P = moussouris_distribution()
    assert classify(A, four_cycle_basis, P.scaled(Fraction(7, 3))).kind == \
        classify(A, four_cycle_basis, P).kind


def test_kernel_oracle_agrees_with_basis(four_cycle_basis):
    A = four_cycle_matrix()
    rng = random.Random(12)
    points = [moussouris_distribution(), swap_support_distribution()]
    for _ in range(4):
        t = [Fraction(rng.randint(0, 5), rng.randint(1, 5)) for _ in range(16)]
        points.append(monomial_map(A, t))
    # perturbed image point
    t = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(16)]
    vals = list(monomial_map(A, t).values)
    vals[3] += Fraction(1, 1000)
    points.append(Distribution(vals))
    for P in points:
        member, _ = in_variety_via_basis(P, four_cycle_basis)
        assert member == in_variety_kernel_oracle(A, P)


def test_facial_routes_agree_exhaustively_small():
    # all supports of the three-chain model (m = 8)
    from fixtures import three_chain
    from toricgm.graphs import build_graph_matrix
    A = build_graph_matrix(three_chain())
    basis = compute_toric_basis(A)
    for r in range(9):
        for F in combinations(range(8), r):
            lp, _ = is_facial_lp(A, F)
            assert lp == is_facial_via_basis(basis, F)


def test_facial_lp_agrees_with_basis_on_random_models():
    rng = random.Random(909)
    verdicts = []
    for _ in range(30):
        A = random_model(rng, rng.randint(1, 5), rng.randint(2, 6))
        basis = compute_toric_basis(A)
        for _ in range(8):
            F = [j for j in range(A.ncols) if rng.random() < 0.6]
            lp, _ = is_facial_lp(A, F)
            assert lp == is_facial_via_basis(basis, F), (A.rows, F)
            verdicts.append(lp)
    assert any(verdicts) and not all(verdicts)


def test_fractional_certificate_validated_exactly():
    # c . a_j = 0 on column 2 forces c_3 = 0; then 2 c_1 >= 1, 2 c_2 >= 1
    # and c_1 + c_2 >= 1 put the certificate at (1/2, 1/2, 0)
    A = ModelMatrix([[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 2, 0]])
    facial, cert = is_facial_lp(A, [2])
    assert facial
    assert cert.c == (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    assert [sum(c * a for c, a in zip(cert.c, A.column(j)))
            for j in range(4)] == [1, 1, 0, 1]
    assert FacialCertificate.validated(A, [2], cert.c) == cert
    assert is_facial_via_basis(compute_toric_basis(A), [2])


@pytest.fixture
def lp_shapes(monkeypatch):
    """(rows, columns) of the matrix G of every phase-1 LP solved while the
    test runs (0 columns when G has no rows)."""
    shapes = []

    def probe(G, rhs):
        shapes.append((len(G), len(G[0]) if G else 0))
        return _phase_one(G, rhs)

    monkeypatch.setattr("toricgm.simplex._phase_one", probe)
    return shapes


def test_full_support_certificate_solves_no_lp_rows(lp_shapes):
    A = four_cycle_matrix()
    facial, cert = is_facial_lp(A, range(16))
    assert facial and cert.c == (0,) * A.nrows
    assert lp_shapes == [(0, 0)]


@pytest.mark.parametrize("support", [
    [IDX4[s] for s in MOUSSOURIS_SUPPORT],
    [IDX4[s] for s in ("0100", "0111", "1001", "1010")],
    [0],
    [],
])
def test_lp_has_one_row_per_column_off_the_support(support, lp_shapes):
    # one row per column off F; one column per basis vector of the
    # certificate space on the row basis of A: rank A - rank A_F
    A = four_cycle_matrix()
    is_facial_lp(A, support)
    off = A.ncols - len(support)
    rank_F = rank([A.column(j) for j in support])
    assert lp_shapes == [(off, rank(A.rows) - rank_F)]


def _random_lp_matrix(rng):
    """Random integer G with zero, duplicate and negated columns, of rank
    below its column count more often than not."""
    n = rng.randint(1, 7)
    span = [[rng.randint(-3, 3) for _ in range(n)]
            for _ in range(rng.randint(1, 4))]
    cols = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if kind < 0.15:
            cols.append([0] * n)
        elif kind < 0.3 and cols:
            cols.append(list(rng.choice(cols)))
        elif kind < 0.45 and cols:
            cols.append([-x for x in rng.choice(cols)])
        else:
            a, b = rng.choice(span), rng.choice(span)
            cols.append([x + rng.randint(0, 1) * y for x, y in zip(a, b)])
    return [[col[i] for col in cols] for i in range(n)]


def test_half_width_tableau_pivots_as_the_full_one():
    rng = random.Random(15)
    outcomes = set()
    for _ in range(400):
        G = _random_lp_matrix(rng)
        rhs = [rng.choice((0, 1, 1, 2)) for _ in G]
        solution = _phase_one(G, rhs)
        assert solution == full_width_phase_one(full_width_rows(G), rhs), (G, rhs)
        outcomes.add(solution is None)
    assert outcomes == {True, False}


def _classify_models():
    """The four models of the benchmark's classify_stream workload: the
    binary four-cycle, no-three-way interaction on 2x2x2 and 2x3x3 tables
    and all pairwise interactions of four binary variables."""
    from toricgm.models import StateSpace, VariableSpec, build_loglinear_matrix

    def loglinear(levels, generators):
        space = StateSpace([VariableSpec(f"X{i + 1}", k) for i, k in enumerate(levels)])
        return build_loglinear_matrix(space, generators)

    no3way = (("X1", "X2"), ("X1", "X3"), ("X2", "X3"))
    return [four_cycle_matrix(), loglinear((2, 2, 2), no3way),
            loglinear((2, 3, 3), no3way),
            loglinear((2, 2, 2, 2), list(combinations(["X1", "X2", "X3", "X4"], 2)))]


def test_certificates_on_classify_models_and_random_models():
    # the verdict is the basis route's, and every certificate passes the
    # exact check (is_facial_lp runs FacialCertificate.validated)
    rng = random.Random(1515)
    models = _classify_models()
    models += [random_model(rng, rng.randint(1, 5), rng.randint(2, 7))
               for _ in range(30)]
    verdicts = []
    for A in models:
        basis = compute_toric_basis(A)
        for _ in range(12):
            F = [j for j in range(A.ncols) if rng.random() < 0.7]
            facial, cert = is_facial_lp(A, F)
            assert facial == is_facial_via_basis(basis, F), (A.rows, F)
            assert facial == (cert is not None)
            verdicts.append(facial)
    assert any(verdicts) and not all(verdicts)


def _rank_deficient_supports():
    """(name, A, supports): all 256 supports of no-three-way 2x2x2, and
    sampled ones of the binary four-cycle (with the level flips of the
    Moussouris support) and of all pairwise interactions of four binary
    variables.  Each matrix has more rows than its rank."""
    four_cycle, no3way, _, k4 = _classify_models()
    rng = random.Random(3232)
    moussouris = [IDX4[s] for s in MOUSSOURIS_SUPPORT]
    return [
        ("no3way_2x2x2", no3way,
         [[j for j in range(8) if mask >> j & 1] for mask in range(256)]),
        ("four_cycle", four_cycle,
         [sorted(j ^ flip for j in moussouris) for flip in range(16)]
         + [sorted(rng.sample(range(16), rng.randint(1, 15))) for _ in range(60)]),
        ("pairwise_k4", k4,
         [sorted(rng.sample(range(16), rng.randint(1, 15))) for _ in range(60)]),
    ]


@pytest.mark.parametrize("name, A, supports", [
    pytest.param(*case, id=case[0]) for case in _rank_deficient_supports()])
def test_lp_and_oracle_on_the_row_basis_of_rank_deficient_models(
        name, A, supports, lp_shapes):
    # the LP and the kernel lattice use only the rows of A.independent_rows():
    # the facial flag is the basis route's, the certificate is 0 on every
    # other row and passes the check against all of A, the LP has
    # |off F| x (rank A - rank A_F) entries, and the kernel oracle agrees
    # with the basis at a uniform and at a random point on the support
    basis = compute_toric_basis(A)
    rows = A.independent_rows()
    assert len(rows) == rank(A.rows) < A.nrows
    rng = random.Random(name)
    facial_seen = set()
    for F in supports:
        del lp_shapes[:]
        facial, cert = is_facial_lp(A, F)
        assert facial == is_facial_via_basis(basis, F), F
        off = A.ncols - len(F)
        assert lp_shapes == [(off, len(rows) - rank([A.column(j) for j in F]))
                             if off else (0, 0)], F
        facial_seen.add(facial)
        if facial:
            assert all(x == 0 for i, x in enumerate(cert.c) if i not in rows)
            assert FacialCertificate.validated(A, F, cert.c) == cert
        if not F:
            continue
        for values in ([1] * len(F), [rng.randint(1, 6) for _ in F]):
            P = Distribution([values[F.index(j)] if j in F else 0
                              for j in range(A.ncols)])
            assert in_variety_kernel_oracle(A, P) == \
                in_variety_via_basis(P, basis)[0], (F, values)
    assert facial_seen == {True, False}


def test_phase_one_without_leaving_row_raises(monkeypatch):
    # a phase-1 objective is bounded below by 0: an entering column with no
    # positive entry is a defect, not an infeasible LP
    import toricgm.simplex as simplex
    monkeypatch.setattr(simplex, "_entering", lambda obj, den, k, n: k)
    with pytest.raises(ArithmeticError, match="no leaving row"):
        simplex._phase_one([[1, 0], [0, 1]], [1, 1])


@pytest.mark.parametrize("check", [is_facial_lp, is_A_feasible, covered_rows],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("index", [-1, 16])
def test_support_index_outside_the_columns_raises(check, index):
    A = four_cycle_matrix()
    with pytest.raises(ValueError, match=f"support index {index} is not a column"):
        check(A, [0, index])


# Eight values against the sixteen columns of the binary four-cycle.  Zipping
# them against the exponent vectors would drop the missing cells silently.
SHORT = Distribution([Fraction(1, 8)] * 8)
LENGTH_ERROR = "distribution has 8 values, but the model has 16 columns"


def test_classify_rejects_a_short_distribution(four_cycle_basis):
    with pytest.raises(ValueError, match=LENGTH_ERROR):
        classify(four_cycle_matrix(), four_cycle_basis, SHORT)


@pytest.mark.parametrize("printed", [False, True])
def test_basis_membership_rejects_a_short_distribution(four_cycle_basis, printed):
    basis = FOUR_CYCLE_SIXTEEN if printed else four_cycle_basis
    with pytest.raises(ValueError, match=LENGTH_ERROR):
        in_variety_via_basis(SHORT, basis)


def test_kernel_oracle_rejects_a_short_distribution():
    with pytest.raises(ValueError, match=LENGTH_ERROR):
        in_variety_kernel_oracle(four_cycle_matrix(), SHORT)


def test_limit_sequence_rejects_a_short_distribution():
    with pytest.raises(ValueError, match=LENGTH_ERROR):
        limit_sequence(four_cycle_matrix(), SHORT, Fraction(1, 10))


def test_feasible_implies_facial_on_image_supports():
    A = four_cycle_matrix()
    rng = random.Random(3)
    for _ in range(6):
        t = [Fraction(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(16)]
        P = monomial_map(A, t)
        F = sorted(P.support)
        ok, _ = is_A_feasible(A, F)
        assert ok  # images always have feasible support
        facial, _ = is_facial_lp(A, F)
        assert facial


def test_limit_sequence_moussouris(four_cycle_basis):
    A = four_cycle_matrix()
    P = moussouris_distribution()
    prev = None
    for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
        t_eps, P_eps = limit_sequence(A, P, eps)
        assert all(x >= 0 for x in t_eps)
        member, _ = in_variety_via_basis(P_eps, four_cycle_basis, tol=1e-9)
        assert member
        dev = max(abs(a - float(b)) for a, b in zip(P_eps.values, P.values))
        assert dev <= 10 * float(eps)
        if prev is not None:
            assert dev < prev
        prev = dev


def test_limit_sequence_factors_point_exact_zeros():
    A = four_cycle_matrix()
    rng = random.Random(8)
    t = [Fraction(rng.randint(1, 6)) for _ in range(16)]
    t[0] = Fraction(0)  # kill one clique level: support shrinks, stays feasible
    P = monomial_map(A, t)
    _, P_eps = limit_sequence(A, P, Fraction(1, 2))
    for j in range(16):
        if j not in P.support:
            assert P_eps.values[j] == 0.0
        else:
            assert abs(P_eps.values[j] - float(P.values[j])) <= \
                1e-8 * float(P.values[j])


def test_limit_sequence_epsilon_one_consistency():
    A = four_cycle_matrix()
    P = moussouris_distribution()
    t1, P1 = limit_sequence(A, P, Fraction(1))
    recomputed = monomial_map(A, [Fraction(x).limit_denominator(10**12)
                                  for x in t1])
    assert max(abs(a - float(b))
               for a, b in zip(P1.values, recomputed.values)) < 1e-9


def test_limit_sequence_rejects_outside_point():
    A = four_cycle_matrix()
    with pytest.raises(ValueError, match="not in variety"):
        limit_sequence(A, swap_support_distribution(), Fraction(1, 10))


def test_limit_sequence_runs_without_numpy():
    # numpy is blocked in a fresh interpreter: importing it raises
    code = textwrap.dedent("""
        import sys
        sys.modules["numpy"] = None
        from fractions import Fraction
        from toricgm.factorization import limit_sequence
        from toricgm.models import Distribution
        from fixtures import IDX4, MOUSSOURIS_SUPPORT, four_cycle_matrix
        P = Distribution([Fraction(1, 8) if s in MOUSSOURIS_SUPPORT else 0
                          for s in sorted(IDX4, key=IDX4.get)])
        t, _ = limit_sequence(four_cycle_matrix(), P, Fraction(1, 10))
        print(len(t))
    """)
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "16"


@pytest.mark.parametrize("seed", range(40))
def test_least_norm_solves_and_is_orthogonal_to_the_kernel(seed):
    # random consistent systems D tau = D x, rank-deficient ones included
    # (more columns than rows, or a last row that is a sum of rows); the
    # least-norm solution is orthogonal to every vector of the exact
    # integer kernel
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    D = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and seed % 2:
        D[-1] = [a + b for a, b in zip(D[0], D[1 % (nrows - 1)])]
    x = [rng.uniform(-5, 5) for _ in range(ncols)]
    b = [sum(a * y for a, y in zip(row, x)) for row in D]
    tau = _least_norm(D, b)
    assert max(abs(sum(a * t for a, t in zip(row, tau)) - y)
               for row, y in zip(D, b)) <= 1e-9
    for z in integer_kernel_lattice(D):
        assert abs(sum(a * t for a, t in zip(z, tau))) <= 1e-9


def test_empty_support_convention():
    A = four_cycle_matrix()
    zero = Distribution([Fraction(0)] * 16)
    ok, _ = is_A_feasible(A, zero.support)
    assert ok  # no column of a graph model has empty support
    basis = FOUR_CYCLE_SIXTEEN
    member, _ = in_variety_via_basis(zero, basis)
    assert member


# --- the integer route against the Fraction definition -----------------------

def _fraction_membership(P, binomials):
    """(member, first failing binomial) from P^u == P^v in Fraction."""
    for b in binomials:
        pu = pv = Fraction(1)
        for x, eu, ev in zip(P.values, b.u, b.v):
            pu *= x ** eu
            pv *= x ** ev
        if pu != pv:
            return False, b
    return True, None


def _fraction_kernel_balances(A, P, F):
    for w in integer_kernel_lattice(A.restrict(F).rows):
        lhs = rhs = Fraction(1)
        for j, e in zip(F, w):
            if e > 0:
                lhs *= P.values[j] ** e
            else:
                rhs *= P.values[j] ** -e
        if lhs != rhs:
            return False
    return True


def _random_exact_point(rng, n):
    """Zero cells, ones and mixed denominators."""
    return Distribution([rng.choice([Fraction(0), Fraction(1),
                                     Fraction(rng.randint(1, 40),
                                              rng.choice([1, 2, 3, 7, 9, 25, 64]))])
                         for _ in range(n)])


def _random_binomials(rng, P, count):
    """Random binomials, homogeneous or not, some of them vanishing at P
    with |u| != |v| (through a unit cell or zero cells on both sides)."""
    n = len(P)
    ones = [j for j, x in enumerate(P.values) if x == 1]
    zeros = [j for j, x in enumerate(P.values) if x == 0]
    out = []
    while len(out) < count:
        u = [rng.choice([0, 0, 0, 1, 2]) for _ in range(n)]
        v = [rng.choice([0, 0, 0, 1, 2]) for _ in range(n)]
        kind = rng.randrange(3)
        if kind == 0 and ones:
            v = list(u)
            v[rng.choice(ones)] += rng.randint(1, 3)
        elif kind == 1 and zeros:
            u[rng.choice(zeros)] += 1
            v[rng.choice(zeros)] += rng.randint(2, 3)
        if u != v:
            out.append(Binomial(u, v) if rng.random() < 0.5 else Binomial(v, u))
    return out


def test_integer_membership_matches_fraction_definition(four_cycle_basis):
    A = four_cycle_matrix()
    rng = random.Random(2024)
    basis = list(four_cycle_basis)
    inhomogeneous = outcomes = 0
    for trial in range(60):
        if trial % 3 == 0:
            t = [Fraction(rng.randint(0, 5), rng.randint(1, 7)) for _ in range(16)]
            P = monomial_map(A, t)
        else:
            P = _random_exact_point(rng, 16)
        binomials = _random_binomials(rng, P, 6)
        rng.shuffle(binomials)
        inhomogeneous += sum(sum(b.u) != sum(b.v) for b in binomials)
        for Q in (P, P.scaled(Fraction(7, 3))):
            for bs in (basis, binomials, basis + binomials):
                expect = _fraction_membership(Q, bs)
                assert in_variety_via_basis(Q, bs) == expect, (Q, bs)
                outcomes |= 1 << expect[0]
    assert inhomogeneous and outcomes == 3  # both verdicts were reached


def test_integer_kernel_balances_match_fraction_definition():
    rng = random.Random(77)
    matrices = [four_cycle_matrix()] + [random_model(rng, rng.randint(1, 4),
                                                     rng.randint(2, 7))
                                        for _ in range(20)]
    verdicts = set()
    for A in matrices:
        for _ in range(6):
            t = [Fraction(rng.randint(1, 6), rng.randint(1, 6))
                 for _ in range(A.nrows)]
            values = list(monomial_map(A, t).values)
            if rng.random() < 0.5:
                values[rng.randrange(A.ncols)] *= Fraction(rng.randint(2, 5), 3)
            P = Distribution(values)
            F = sorted(j for j in range(A.ncols) if rng.random() < 0.7)
            if not F:
                continue
            expect = _fraction_kernel_balances(A, P, F)
            assert _kernel_balances(A, P, F) == expect, (A.rows, P, F)
            verdicts.add(expect)
    assert verdicts == {True, False}


def test_float_point_takes_the_float_path(four_cycle_basis, monkeypatch):
    A = four_cycle_matrix()
    rng = random.Random(5)
    P = monomial_map(A, [rng.uniform(0.5, 2.0) for _ in range(16)])
    assert not P.is_exact

    def no_integers(values):
        raise AssertionError("a float point reached the integer route")

    monkeypatch.setattr("toricgm.factorization.common_denominator", no_integers)
    assert in_variety_via_basis(P, four_cycle_basis, tol=1e-9) == (True, None)
    vals = list(P.values)
    vals[5] *= 1 + 1e-6
    member, failed = in_variety_via_basis(Distribution(vals), four_cycle_basis,
                                          tol=1e-9)
    assert not member and (failed.u[5] or failed.v[5])


# --- the certificate check is exact ------------------------------------------

@pytest.mark.parametrize("c, message", [
    # column 0 gets 2 c_1 = 1 - 10^-12 off the support
    ((Fraction(1, 2) - Fraction(1, 2 * 10**12), Fraction(1, 2), Fraction(0)),
     "certificate below 1 off the support"),
    # column 2 gets 2 c_3 = 10^-12 on the support
    ((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2 * 10**12)),
     "certificate not orthogonal on the support"),
])
def test_certificate_near_misses_rejected(c, message, monkeypatch):
    A = ModelMatrix([[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 2, 0]])
    assert FacialCertificate.validated(A, [2], (Fraction(1, 2), Fraction(1, 2), 0))
    with pytest.raises(ValueError, match=message):
        FacialCertificate.validated(A, [2], c)
    # the LP's certificate is checked once, by is_facial_lp
    import toricgm.factorization as fz
    monkeypatch.setattr(fz, "find_facial_certificate", lambda A, F: c)
    with pytest.raises(ValueError, match=message):
        is_facial_lp(A, [2])


@pytest.mark.parametrize("c", [
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2), 0, 0, 0),
], ids=["short", "long"])
def test_certificate_of_the_wrong_length_rejected(c):
    # a zip of c against each column would check only a common prefix
    A = ModelMatrix([[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 2, 0]])
    with pytest.raises(ValueError, match=f"certificate has {len(c)} entries, "
                                         "but the model matrix has 3 rows"):
        FacialCertificate.validated(A, [2], c)


def test_certificate_support_index_outside_the_columns_rejected():
    A = ModelMatrix([[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 2, 0]])
    with pytest.raises(ValueError, match="support index 99 is not a column "
                                         "of the 3x4 model matrix"):
        FacialCertificate.validated(A, [2, 99], (Fraction(1, 2), Fraction(1, 2), 0))


def test_certificate_exactly_one_with_thirds_accepted():
    A = ModelMatrix([[3, 0, 0, 1], [0, 3, 0, 2], [0, 0, 3, 0]])
    c = (Fraction(1, 3), Fraction(1, 3), Fraction(0))
    assert FacialCertificate.validated(A, [2], c).c == c


# --- exact work per call ----------------------------------------------------

@pytest.fixture
def work_counts(monkeypatch):
    """Calls of the facial LP and of the kernel lattice made by factorization."""
    import toricgm.factorization as fz
    counts = {"lp": 0, "kernel": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(fz, "find_facial_certificate",
                        counted("lp", fz.find_facial_certificate))
    monkeypatch.setattr(fz, "integer_kernel_lattice",
                        counted("kernel", fz.integer_kernel_lattice))
    return counts


def test_work_counts_per_call(four_cycle_basis, work_counts):
    A = four_cycle_matrix()
    P = moussouris_distribution()
    assert classify(A, four_cycle_basis, P).kind == LIMIT_ONLY
    assert work_counts == {"lp": 0, "kernel": 0}
    assert in_variety_kernel_oracle(A, P)
    assert work_counts == {"lp": 1, "kernel": 1}
    # limit_sequence reads the face the oracle kept on the point
    limit_sequence(A, P, Fraction(1, 10))
    assert work_counts == {"lp": 1, "kernel": 1}
    # a support that is not facial stops after the LP
    assert not in_variety_kernel_oracle(A, swap_support_distribution())
    assert work_counts == {"lp": 2, "kernel": 1}


# --- one face per point and matrix ------------------------------------------

def imbalanced_distribution():
    # the uniform point (full support, so facial) with one value doubled
    return Distribution([Fraction(2 if j == 5 else 1, 17) for j in range(16)])


def test_oracle_and_limit_sequence_share_one_face(work_counts):
    A = four_cycle_matrix()
    P = moussouris_distribution()
    assert in_variety_kernel_oracle(A, P)
    t1, _ = limit_sequence(A, P, Fraction(1, 10))
    t2, P2 = limit_sequence(A, P, Fraction(1, 100))
    assert work_counts == {"lp": 1, "kernel": 1}
    # the kept face gives what a fresh point computes
    assert limit_sequence(A, moussouris_distribution(), Fraction(1, 100)) \
        == (t2, P2)
    assert t1 != t2
    assert work_counts == {"lp": 2, "kernel": 2}


def test_an_equal_but_distinct_point_computes_its_face_afresh(work_counts):
    A = four_cycle_matrix()
    P, Q = moussouris_distribution(), moussouris_distribution()
    assert P == Q and P is not Q
    assert in_variety_kernel_oracle(A, P)
    assert Q.faces() == {}
    assert in_variety_kernel_oracle(A, Q)
    assert work_counts == {"lp": 2, "kernel": 2}
    assert P.faces() == Q.faces() and P.faces() is not Q.faces()


def test_one_point_keeps_one_face_per_matrix(work_counts):
    four_cycle, chain = four_cycle_matrix(), build_graph_matrix(four_chain())
    P = moussouris_distribution()
    # the support is facial on the four-cycle, not on the four-chain
    assert [in_variety_kernel_oracle(A, P)
            for A in (four_cycle, chain)] == [True, False]
    assert work_counts == {"lp": 2, "kernel": 1}
    assert set(P.faces()) == {four_cycle, chain}
    # each matrix reads back its own face
    assert [in_variety_kernel_oracle(A, P)
            for A in (four_cycle, chain)] == [True, False]
    assert work_counts == {"lp": 2, "kernel": 1}


def test_threads_sharing_a_point_get_one_answer():
    # the memo's check-then-store may race: a lost store costs a second
    # solve, never a wrong face
    A = four_cycle_matrix()
    P = moussouris_distribution()
    epsilons = (Fraction(1, 10), Fraction(1, 100))
    results = []

    def work():
        for eps in epsilons:
            results.append((eps, in_variety_kernel_oracle(A, P),
                            limit_sequence(A, P, eps)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    Q = moussouris_distribution()
    expect = {eps: limit_sequence(A, Q, eps) for eps in epsilons}
    assert len(results) == 12
    assert all(member and limit == expect[eps]
               for eps, member, limit in results)
    assert P.faces() == Q.faces()


@pytest.mark.parametrize("point, message", [
    (swap_support_distribution, "support is not facial"),
    (imbalanced_distribution, "kernel relation fails on support"),
], ids=["not_facial", "imbalanced"])
def test_a_kept_face_outside_the_variety_still_raises(point, message):
    A = four_cycle_matrix()
    P = point()
    assert not in_variety_kernel_oracle(A, P)
    assert len(P.faces()) == 1
    for eps in (Fraction(1, 10), Fraction(1, 100)):
        with pytest.raises(ValueError, match=message):
            limit_sequence(A, P, eps)


def test_classify_stream_solves_one_face_per_op(work_counts):
    # two rounds of the benchmark's classify_stream (seed 1): each op runs
    # classify, the kernel oracle, and on a limit-only point limit_sequence
    # at epsilon and, in the check, at epsilon squared
    workload = perfbench_workloads().ClassifyStream(1)
    rounds = workload.rounds()
    kinds = set()
    for ops in (next(rounds), next(rounds)):
        for op in ops:
            work_counts.update(lp=0, kernel=0)
            workload.check(op, workload.run(op))
            assert work_counts == {"lp": 1, "kernel": 1}, op.expect
            kinds.add(op.expect)
    assert kinds == {FACTORS, LIMIT_ONLY, OUTSIDE}


# --- unusable epsilon --------------------------------------------------------

@pytest.mark.parametrize("epsilon", [
    Fraction(1, 10**400), float("nan"), float("inf"),
], ids=["float_zero", "nan", "inf"])
def test_limit_sequence_refuses_an_epsilon_without_a_usable_float(epsilon):
    with pytest.raises(ValueError, match="epsilon must have a positive "
                                         "finite float value"):
        limit_sequence(four_cycle_matrix(), moussouris_distribution(), epsilon)


def test_limit_sequence_refuses_a_parameter_that_overflows():
    # the Moussouris certificate has a -1 entry, at row 12: eps ** -1 is
    # 1e320, beyond the largest float
    with pytest.raises(ValueError, match=r"t_12\(eps\) = inf at epsilon "
                                         "1e-320 is not a positive finite"):
        limit_sequence(four_cycle_matrix(), moussouris_distribution(),
                       Fraction(1, 10**320))
