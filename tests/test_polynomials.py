import random
from fractions import Fraction
from operator import add

import pytest

from toricgm import mle, polynomials
from toricgm.factorization import in_variety_via_basis
from toricgm.models import Distribution, ModelMatrix, monomial_map
from toricgm.orders import TermOrder
from toricgm.polynomials import (Binomial, BudgetExceeded, NotTriangular,
                                 Polynomial, buchberger,
                                 buchberger_binomials, eliminate_to_triangular,
                                 ideal_equal, monomial_divides, reduce)
from fixtures import (FOUR_CYCLE_PAIRWISE, CheapestOrder,
                      fraction_normal_form, perfbench_workloads,
                      pure_difference, s_polynomial)


def poly(nvars, *terms):
    return Polynomial(nvars, terms)


def random_monomial(rng, nvars, maxdeg=3):
    return tuple(rng.randint(0, maxdeg) for _ in range(nvars))


def random_poly(rng, nvars, nterms=4):
    return Polynomial(nvars, [(random_monomial(rng, nvars),
                               Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
                              for _ in range(nterms)])


def random_system(seed):
    """Random polynomials of three terms in 2-4 variables, under lex for odd
    seeds and grevlex for even ones: three of them in three variables when
    seed % 6 == 4, two otherwise."""
    rng = random.Random(seed)
    nvars = 2 + seed % 3
    order = TermOrder.lex(nvars) if seed % 2 else TermOrder.grevlex(nvars)
    npolys = 3 if seed % 6 == 4 else 2
    return [random_poly(rng, nvars, 3) for _ in range(npolys)], order


SYSTEM_SEEDS = range(60)


# --- term order axioms ------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda n: TermOrder.lex(n),
    lambda n: TermOrder.grevlex(n),
    lambda n: TermOrder.grevlex(n, (0, 2, 3, 1)),  # saturation step by x1
])
def test_term_order_axioms(make):
    rng = random.Random(42)
    order = make(4)
    one = (0, 0, 0, 0)
    for _ in range(200):
        u = random_monomial(rng, 4)
        v = random_monomial(rng, 4)
        w = random_monomial(rng, 4)
        assert order.key(one) <= order.key(u)
        # total order
        if u != v:
            assert order.key(u) != order.key(v)
        # multiplicative
        uw = tuple(a + b for a, b in zip(u, w))
        vw = tuple(a + b for a, b in zip(v, w))
        assert (order.key(u) < order.key(v)) == (order.key(uw) < order.key(vw))


@pytest.mark.parametrize("order", [
    TermOrder.lex(4, (2, 0, 3, 1)),
    TermOrder.grevlex(4, (3, 1, 0, 2)),
    TermOrder.grevlex(4, (1, 3, 0, 2)),  # saturation steps by x2, x0
    TermOrder.grevlex(4, (1, 2, 3, 0)),
])
def test_term_order_keys_are_linear(order):
    # the generic engine adds keys to shift terms instead of recomputing them
    rng = random.Random(43)
    for _ in range(200):
        u = random_monomial(rng, 4)
        v = random_monomial(rng, 4)
        uv = tuple(map(add, u, v))
        assert order.key(uv) == tuple(map(add, order.key(u), order.key(v)))
        # the engine's heap key is the negated key
        assert order.neg_key(u) == tuple(-x for x in order.key(u))


def test_grevlex_with_variable_last_orders_each_degree_like_cheapest():
    # a reduced basis of a homogeneous ideal depends only on how the order
    # compares monomials of one degree; there, grevlex with x_i last and the
    # order giving x_i weight zero agree, so toric saturation may use either
    rng = random.Random(44)
    for n in range(2, 9):
        for i in range(n):
            last = TermOrder.grevlex(n, [j for j in range(n) if j != i] + [i])
            cheap = CheapestOrder(i, n)
            for _ in range(100):
                u = random_monomial(rng, n)
                v = list(random_monomial(rng, n))
                while sum(v) != sum(u):  # move v to the degree of u
                    j = rng.randrange(n)
                    if sum(v) < sum(u):
                        v[j] += 1
                    elif v[j]:
                        v[j] -= 1
                v = tuple(v)
                assert (last.key(u) < last.key(v)) \
                    == (cheap.key(u) < cheap.key(v)), (n, i, u, v)


# --- division ---------------------------------------------------------------

def test_reduce_member_to_zero():
    order = TermOrder.lex(2)
    g = poly(2, ((1, 0), 1), ((0, 1), -1))  # x - y
    assert reduce(g, [g], order).is_zero()


def test_reduce_multiple_plus_constant():
    order = TermOrder.lex(2)
    g = poly(2, ((1, 0), 1), ((0, 1), -1))
    f = Polynomial.variable(2, 0) * g + Polynomial.constant(2, Fraction(3, 7))
    r = reduce(f, [g], order)
    assert r == Polynomial.constant(2, Fraction(3, 7))


def test_reduce_no_term_divisible():
    order = TermOrder.lex(3)
    g = poly(3, ((2, 0, 0), 1), ((0, 1, 0), -1))  # x^2 - y
    f = poly(3, ((1, 1, 1), 1))
    r = reduce(f, [g], order)
    lm = g.leading_term(order)[0]
    assert all(not monomial_divides(lm, m) for m, _ in r.terms)


def test_division_reexpansion():
    # f - reduce(f, G) must lie in <G>: re-expand via explicit quotients check
    rng = random.Random(9)
    order = TermOrder.grevlex(3)
    for _ in range(20):
        G = [random_poly(rng, 3, 3) for _ in range(2)]
        G = [g for g in G if not g.is_zero()]
        if not G:
            continue
        f = random_poly(rng, 3, 5)
        r = reduce(f, G, order)
        gb = buchberger(G, order)
        assert reduce(f - r, gb, order).is_zero()


def random_fraction(rng):
    """A nonzero rational that is not an integer."""
    while True:
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))
        if c.denominator > 1:
            return c


@pytest.mark.parametrize("seed", range(40))
def test_reduce_is_the_exact_normal_form(seed):
    # modulo a Groebner basis the normal form is unique, so the integer
    # pseudo-division, once divided by its multipliers, must give what
    # division over the rationals gives, whatever the reducers' scaling
    rng = random.Random(seed)
    nvars = 2 + seed % 2
    order = TermOrder.grevlex(nvars) if seed % 3 else TermOrder.lex(nvars)
    F = [Polynomial(nvars, [(random_monomial(rng, nvars, 2), random_fraction(rng))
                            for _ in range(3)]) for _ in range(2)]
    F = [f for f in F if f]
    gb = buchberger(F, order)
    scaled = [g * random_fraction(rng) for g in gb]
    f = Polynomial(nvars, [(random_monomial(rng, nvars), random_fraction(rng))
                           for _ in range(6)])
    want = fraction_normal_form(f, gb, order)
    assert reduce(f, gb, order) == want
    assert reduce(f, scaled, order) == want
    assert reduce(f - want, scaled, order).is_zero()


# --- buchberger -------------------------------------------------------------

def test_single_generator_fixed():
    order = TermOrder.lex(2)
    g = poly(2, ((1, 0), 1), ((0, 1), -1))
    assert buchberger([g], order) == [g]


@pytest.mark.parametrize("seed", SYSTEM_SEEDS)
def test_reduced_basis_input_permutation_invariant(seed):
    F, order = random_system(seed)
    gb1 = buchberger(F, order)
    gb2 = buchberger(list(reversed(F)), order)
    assert gb1 == gb2


@pytest.mark.parametrize("seed", SYSTEM_SEEDS)
def test_buchberger_criterion_on_output(seed):
    F, order = random_system(seed)
    gb = buchberger(F, order)
    for f in F:
        assert reduce(f, gb, order).is_zero()
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            s = s_polynomial(gb[i], gb[j], order)
            assert reduce(s, gb, order).is_zero()


@pytest.fixture
def interreduce_inputs(monkeypatch):
    """Wrap the final auto-reduction of the generic engine: assert that no
    lead of its input divides another, and list the leads of each call."""
    calls = []
    inner = polynomials._interreduce

    def checked(elements):
        leads = [e[0] for e in elements]
        assert not any(i != j and monomial_divides(a, b)
                       for i, a in enumerate(leads) for j, b in enumerate(leads))
        calls.append(leads)
        return inner(elements)

    monkeypatch.setattr(polynomials, "_interreduce", checked)
    return calls


def test_generic_engine_leaves_a_minimal_basis_to_auto_reduce(
        interreduce_inputs):
    for seed in SYSTEM_SEEDS:
        F, order = random_system(seed)
        buchberger(F, order)
    assert len(interreduce_inputs) == len(SYSTEM_SEEDS)
    assert any(len(leads) > 2 for leads in interreduce_inputs)


@pytest.mark.parametrize("seed", [1, 2])
def test_mle_cores_leave_a_minimal_basis_to_auto_reduce(seed,
                                                        interreduce_inputs):
    # the cores of the benchmark's exact-MLE tables, first four rounds
    workload = perfbench_workloads().MleFits(seed)
    rounds = workload.rounds()
    tables = [op.args[0] for _ in range(4) for op in next(rounds)]
    for counts in tables:
        mle.solve_mle_exact(mle.assemble_mle_system(workload.A,
                                                     mle.CountTable(counts)))
    assert len(interreduce_inputs) >= len(tables) // 2
    assert any(len(leads) > 2 for leads in interreduce_inputs)


def test_binomial_inputs_give_binomial_output():
    order = TermOrder.grevlex(4)
    b1 = Binomial((1, 0, 1, 0), (0, 2, 0, 0))
    b2 = Binomial((1, 0, 0, 1), (0, 1, 1, 0))
    gb = buchberger([b1, b2], order)
    assert all(pure_difference(p) is not None for p in gb)


def test_binomial_engine_matches_generic():
    rng = random.Random(77)
    order = TermOrder.grevlex(4)
    for _ in range(15):
        bins = []
        for _ in range(3):
            u = random_monomial(rng, 4, 2)
            v = random_monomial(rng, 4, 2)
            if u != v:
                bins.append(Binomial(u, v))
        if not bins:
            continue
        gb_fast = [b.to_polynomial() for b in buchberger_binomials(bins, order)]
        assert gb_fast == buchberger(bins, order)


@pytest.mark.parametrize("order", [TermOrder.grevlex(16), TermOrder.lex(16)])
def test_generic_engine_gives_the_binomial_basis_of_the_pairwise_ideal(order):
    # the four-cycle's pairwise ideal, a pure-difference input of buchberger
    gb_fast = [b.to_polynomial()
               for b in buchberger_binomials(FOUR_CYCLE_PAIRWISE, order)]
    assert buchberger(FOUR_CYCLE_PAIRWISE, order) == gb_fast


def test_budget_exceeded_is_loud():
    order = TermOrder.grevlex(4)
    b1 = Binomial((1, 0, 1, 0), (0, 2, 0, 0))
    b2 = Binomial((1, 0, 0, 1), (0, 1, 1, 0))
    with pytest.raises(BudgetExceeded):
        buchberger_binomials([b1, b2], order, budget=0)


def test_budget_exceeded_is_loud_on_the_generic_engine():
    order = TermOrder.grevlex(2)
    f = poly(2, ((2, 0), 1), ((0, 1), 1))            # x^2 + y
    g = poly(2, ((1, 1), 1), ((0, 0), 1))            # x*y + 1
    assert buchberger([f, g], order)
    with pytest.raises(BudgetExceeded):
        buchberger([f, g], order, budget=0)


# --- inputs of another arity than the order's --------------------------------

WIDE = Binomial((1, 0, 0, 1), (0, 1, 1, 0))  # four variables


@pytest.mark.parametrize("inputs, nvars", [
    ([WIDE, Binomial((2, 0, 0, 0), (0, 0, 0, 2))], 4),  # wider than the order
    ([Binomial((1, 0), (0, 1))], 2),  # narrower
])
def test_buchberger_binomials_refuses_another_arity(inputs, nvars):
    with pytest.raises(ValueError, match=f"arity {nvars} does not match "
                                         "the 3 variables"):
        buchberger_binomials(inputs, TermOrder.grevlex(3))


def test_saturated_tails_refuse_an_inhomogeneous_input():
    # x0 - x2^2 and x0 - x1*x2: the pair of the two leads x2^2 and x1*x2
    # has tails sharing x0, and its S-binomial x0*x1 - x0*x2 is not a
    # multiple of a lower-degree element of the ideal, so skipping the
    # pair would return a basis that is not a Groebner basis
    inputs = [Binomial((1, 0, 0), (0, 0, 2)), Binomial((1, 0, 0), (0, 1, 1))]
    order = TermOrder.grevlex(3)
    assert Binomial((1, 1, 0), (1, 0, 1)) in buchberger_binomials(inputs, order)
    with pytest.raises(ValueError, match="homogeneous inputs"):
        buchberger_binomials(inputs, order, saturated=0b111)


def test_saturated_tails_refuse_lex():
    inputs = [Binomial((1, 0, 0, 1), (0, 1, 1, 0))]
    with pytest.raises(ValueError, match="grevlex order, not lex"):
        buchberger_binomials(inputs, TermOrder.lex(4), saturated=0b1111)
    assert buchberger_binomials(inputs, TermOrder.grevlex(4), saturated=0b1111) \
        == [Binomial((0, 1, 1, 0), (1, 0, 0, 1))]


@pytest.mark.parametrize("f", [
    poly(4, ((1, 0, 0, 0), 1), ((0, 0, 1, 1), 2)),  # the generic engine
    WIDE.to_polynomial(),  # a pure difference
])
def test_buchberger_refuses_another_arity(f):
    with pytest.raises(ValueError, match="arity 4 does not match the 3"):
        buchberger([f], TermOrder.lex(3))


def test_reduce_refuses_another_arity():
    f = poly(4, ((1, 0, 0, 0), 1), ((0, 0, 1, 1), 2))
    order = TermOrder.grevlex(2)
    g = poly(2, ((1, 0), 1), ((0, 1), -1))
    with pytest.raises(ValueError, match="arity 4 does not match the 2"):
        reduce(f, [f], order)
    with pytest.raises(ValueError, match="arity 4 does not match the 2"):
        reduce(g, [f], order)
    with pytest.raises(ValueError, match="arity 4 does not match the 2"):
        reduce(f, [g], order)


# --- triangular shape -------------------------------------------------------

def test_triangular_simple():
    f = poly(2, ((1, 0), 1), ((0, 1), -1))          # x - y
    g = poly(2, ((0, 1), 1), ((0, 0), -1))          # y - 1
    tri = eliminate_to_triangular([f, g], TermOrder.lex(2))
    # univariate-in-lowest first; the second element is x - 1 once reduced
    assert tri[0] == poly(2, ((0, 1), 1), ((0, 0), -1))
    assert len(tri) == 2
    assert tri[1] == poly(2, ((1, 0), 1), ((0, 0), -1))


def test_triangular_reduces_tails():
    # {x^2 - y, y} -> [y, x^2]
    f = poly(2, ((2, 0), 1), ((0, 1), -1))
    g = poly(2, ((0, 1), 1))
    tri = eliminate_to_triangular([f, g], TermOrder.lex(2))
    assert tri == [poly(2, ((0, 1), 1)), poly(2, ((2, 0), 1))]


def test_not_triangular_raises():
    f = poly(2, ((1, 0), 1), ((0, 1), -1))  # x - y alone: positive-dimensional
    with pytest.raises(NotTriangular):
        eliminate_to_triangular([f], TermOrder.lex(2))


def test_triangular_looking_basis_of_a_positive_dimensional_ideal_raises():
    # [x0^2] is univariate, but x1 is free: the quotient is infinite
    f = poly(2, ((2, 0), 1))
    with pytest.raises(NotTriangular, match="not zero-dimensional"):
        eliminate_to_triangular([f], TermOrder.lex(2))


def zero_dimensional_system(seed):
    """Per variable x_v, x_v^d plus random Fraction terms of lower total
    degree, in 2 or 3 variables: x_v^d leads under every degree order, so
    the ideal is zero-dimensional, its quotient of dimension prod d."""
    rng = random.Random(seed)
    nvars = 2 + seed % 2
    F = []
    for v in range(nvars):
        d = rng.randint(2, 5 - nvars)
        terms = [(tuple(d if i == v else 0 for i in range(nvars)), 1)]
        while len(terms) < 4:
            m = random_monomial(rng, nvars, d - 1)
            if sum(m) < d:
                terms.append((m, random_fraction(rng)))
        F.append(Polynomial(nvars, terms))
    return F


@pytest.mark.parametrize("kind", ["grevlex", "lex"])
@pytest.mark.parametrize("seed", range(12))
def test_fglm_reaches_the_lex_basis_of_random_zero_dimensional_systems(
        seed, kind):
    # the input basis under grevlex with a permuted priority list, or
    # under lex, converts to what lex Buchberger reaches directly
    F = zero_dimensional_system(seed)
    nvars = F[0].nvars
    if kind == "lex":
        order = TermOrder.lex(nvars)
    else:
        rng = random.Random(seed)
        priority = list(range(nvars))
        while priority == sorted(priority):
            rng.shuffle(priority)
        order = TermOrder.grevlex(nvars, priority)
    lex = TermOrder.lex(nvars)
    assert eliminate_to_triangular(buchberger(F, order), order) == \
        buchberger(F, lex)


# --- ideal equality ---------------------------------------------------------

def test_ideal_equal_reflexive():
    order = TermOrder.grevlex(2)
    F = [poly(2, ((1, 0), 1), ((0, 1), -1))]
    assert ideal_equal(F, F, order)


def test_ideal_not_equal():
    order = TermOrder.lex(1)
    F = [poly(1, ((1,), 1))]
    G = [poly(1, ((2,), 1))]
    assert not ideal_equal(F, G, order)
    assert ideal_equal(G, [poly(1, ((2,), 5))], order)


# --- one monomial value and one monomial text for every caller --------------

def test_monomial_value_takes_zero_to_the_zero_as_one():
    # x0^0 x1^2 at (0, 3): the zero coordinate carries exponent 0
    point = (Fraction(0), Fraction(3))
    assert Polynomial(2, [((0, 2), 1)]).evaluate(point) == 9
    assert Binomial((0, 2), (1, 1)).evaluate(point) == 9
    A = ModelMatrix([[0, 1], [2, 1]])
    assert monomial_map(A, [0, 3]).values == (Fraction(9), Fraction(0))


def test_monomial_value_is_exact_on_exact_input():
    x = (Fraction(1, 3), Fraction(2, 5), Fraction(7))
    p = Polynomial(3, [((2, 1, 0), Fraction(1, 2)), ((0, 0, 0), 1)])
    value = p.evaluate(x)
    assert type(value) is Fraction
    assert value == Fraction(1, 2) * Fraction(1, 9) * Fraction(2, 5) + 1
    value = Binomial((0, 1, 2), (1, 0, 0)).evaluate(x)
    assert type(value) is Fraction
    assert value == Fraction(2, 5) * 49 - Fraction(1, 3)
    P = monomial_map(ModelMatrix([[1, 0], [1, 2]]), x[:2])
    assert P.is_exact and P.values == (Fraction(2, 15), Fraction(4, 25))


def test_monomial_value_multiplies_floats_left_to_right():
    x0, x1, x2 = 0.1, 0.7, 1.3
    p = Polynomial(3, [((2, 0, 1), Fraction(1, 3)), ((0, 3, 0), -2)])
    assert p.evaluate((x0, x1, x2)) == (1 / 3) * x0 ** 2 * x2 + -2 * x1 ** 3
    assert Binomial((2, 0, 1), (0, 3, 0)).evaluate((x0, x1, x2)) == \
        x0 ** 2 * x2 - x1 ** 3
    A = ModelMatrix([[2, 0], [0, 1], [1, 2]])
    assert monomial_map(A, [x0, x1, x2]).values == (x0 ** 2 * x2,
                                                    x1 * x2 ** 2)


def test_in_variety_via_basis_compares_the_float_products():
    # 2x2 independence: p00 p11 = p01 p10 exactly in decimals, but the
    # float products differ in the last bit
    b = Binomial((1, 0, 0, 1), (0, 1, 1, 0))
    P = Distribution([0.03, 0.07, 0.27, 0.63])
    assert 0.03 * 0.63 != 0.07 * 0.27
    assert in_variety_via_basis(P, [b], tol=0.0) == (False, b)
    assert in_variety_via_basis(P, [b], tol=1e-15) == (True, None)
    exact = Distribution(["0.03", "0.07", "0.27", "0.63"])
    assert in_variety_via_basis(exact, [b]) == (True, None)


@pytest.mark.parametrize("u, v, text", [
    ((2, 0, 1), (0, 0, 0), "a^2*c - 1"),
    ((0, 3, 0), (0, 1, 1), "b^3 - b*c"),
    ((1, 1, 1), (0, 0, 2), "a*b*c - c^2"),
])
def test_both_classes_print_one_monomial_text(u, v, text):
    names = ("a", "b", "c")
    b = Binomial(u, v)
    assert b.render(names) == text
    assert b.to_polynomial().render(names) == text
    lead, tail = text.split(" - ")
    assert Binomial(v, u).render(names) == f"{tail} - {lead}"
