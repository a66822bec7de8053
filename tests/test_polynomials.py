import random
from fractions import Fraction
from operator import add

import pytest

from toricgm.orders import TermOrder
from toricgm.polynomials import (Binomial, BudgetExceeded, NotTriangular,
                                 Polynomial, PreparedBasis, buchberger,
                                 buchberger_binomials, eliminate_to_triangular,
                                 ideal_equal, monomial_divides, reduce)
from fixtures import CheapestOrder, fraction_normal_form, s_polynomial


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
    assert reduce(f, PreparedBasis(scaled, order), order) == want
    assert reduce(f - want, scaled, order).is_zero()


def test_reduce_rejects_a_basis_prepared_for_another_order():
    g = poly(2, ((1, 0), 2), ((0, 1), -1))
    prepared = PreparedBasis([g], TermOrder.lex(2))
    with pytest.raises(ValueError):
        reduce(g, prepared, TermOrder.grevlex(2))


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


def test_binomial_inputs_give_binomial_output():
    order = TermOrder.grevlex(4)
    b1 = Binomial((1, 0, 1, 0), (0, 2, 0, 0))
    b2 = Binomial((1, 0, 0, 1), (0, 1, 1, 0))
    gb = buchberger([b1, b2], order)
    assert all(p.as_pure_difference() is not None for p in gb)


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
        # force generic route by going through one non-pure scaled copy
        polys = [b.to_polynomial() * Fraction(3, 2) for b in bins]
        gb_slow = buchberger(polys + [polys[0] + polys[0] - 2 * polys[0]], order)
        assert gb_fast == gb_slow


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


# --- triangular shape -------------------------------------------------------

def test_triangular_simple():
    f = poly(2, ((1, 0), 1), ((0, 1), -1))          # x - y
    g = poly(2, ((0, 1), 1), ((0, 0), -1))          # y - 1
    tri = eliminate_to_triangular([f, g], (0, 1))
    # univariate-in-lowest first; the second element is x - 1 once reduced
    assert tri[0] == poly(2, ((0, 1), 1), ((0, 0), -1))
    assert len(tri) == 2
    assert tri[1] == poly(2, ((1, 0), 1), ((0, 0), -1))


def test_triangular_reduces_tails():
    # {x^2 - y, y} -> [y, x^2]
    f = poly(2, ((2, 0), 1), ((0, 1), -1))
    g = poly(2, ((0, 1), 1))
    tri = eliminate_to_triangular([f, g], (0, 1))
    assert tri == [poly(2, ((0, 1), 1)), poly(2, ((2, 0), 1))]


def test_not_triangular_raises():
    f = poly(2, ((1, 0), 1), ((0, 1), -1))  # x - y alone: positive-dimensional
    with pytest.raises(NotTriangular):
        eliminate_to_triangular([f], (0, 1))


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
