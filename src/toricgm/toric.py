"""Toric ideals of model matrices: Markov/Groebner bases by lattice-ideal
saturation, plus membership and evaluation services for binomials.

The basis computation starts from a lattice basis of the integer kernel
(optionally seeded with known kernel binomials), then saturates variable
by variable: a Groebner basis in an order making x_i cheapest lets every
generator be divided by its maximal x_i power.  One pass over the
variables is exact.  Saturating by x_1, then x_2, ..., then x_n gives
I : (x_1 ... x_n)^inf, which is the toric ideal (Sturmfels, Groebner Bases
and Convex Polytopes, ch. 12, Lemma 12.1).  Each step is exact because
ModelMatrix requires equal column sums, so every ideal here is homogeneous
and the cheap variable divides a trailing term whenever it divides the
leading one.  A final reduced basis is produced under the requested order.
Every output binomial satisfies A u = A v exactly.
"""

from dataclasses import dataclass

from .linalg import integer_kernel_lattice
from .models import ModelMatrix
from .orders import TermOrder
from .polynomials import (Binomial, BinomialRewriter, buchberger_binomials,
                          monomial_div)


@dataclass(frozen=True)
class ToricBasis:
    """Reduced Groebner basis of the toric ideal of a model matrix."""
    matrix: ModelMatrix
    binomials: tuple
    order: TermOrder

    def __post_init__(self):
        for b in self.binomials:
            if self.matrix.apply(b.u) != self.matrix.apply(b.v):
                raise ValueError("binomial violates the kernel condition")
            if not b.is_coprime():
                raise ValueError("basis binomial not in coprime form")
            if sum(b.u) != sum(b.v):
                raise ValueError("basis binomial not homogeneous")

    def __len__(self):
        return len(self.binomials)

    def __iter__(self):
        return iter(self.binomials)

    def max_degree(self):
        return max((sum(b.u) for b in self.binomials), default=0)


def _kernel_binomials(A):
    out = []
    for w in integer_kernel_lattice(A.rows):
        u = tuple(x if x > 0 else 0 for x in w)
        v = tuple(-x if x < 0 else 0 for x in w)
        out.append(Binomial(u, v))
    return out


def _strip_variable(b, i):
    shift = min(b.u[i], b.v[i])
    if shift == 0:
        return b
    e = tuple(shift if j == i else 0 for j in range(b.nvars))
    return Binomial(monomial_div(b.u, e), monomial_div(b.v, e))


def compute_toric_basis(A, order=None, seed=None, budget=None):
    """Reduced Groebner basis of the toric ideal of A under the given order.

    Seed binomials must satisfy the kernel condition (validated).  The
    default order is grevlex; lex is useful for elimination work.  The
    work is A.ncols + 1 Buchberger runs (one saturation step per column,
    then the final basis); `budget` bounds the S-pairs of each run.
    """
    m = A.ncols
    if order is None:
        order = TermOrder.grevlex(m)
    if order.nvars != m:
        raise ValueError("order arity must match the column count")
    gens = _kernel_binomials(A)
    for b in (seed or ()):
        if A.apply(b.u) != A.apply(b.v):
            raise ValueError("seed binomial violates the kernel condition")
        gens.append(b)
    gens = [b.strip_common() for b in gens if b.u != b.v]
    if not gens:
        return ToricBasis(A, (), order)

    for i in range(m):
        basis = buchberger_binomials(gens, TermOrder.cheapest(i, m), budget)
        gens = [_strip_variable(b, i).strip_common() for b in basis]

    final = buchberger_binomials(gens, order, budget)
    return ToricBasis(A, tuple(b.canonical(order) for b in final), order)


def binomial_in_kernel(b, A):
    """Exact toric-ideal membership via the kernel condition A u = A v."""
    return A.apply(b.u) == A.apply(b.v)


def binomial_in_ideal(b, basis):
    """True iff the binomial lies in the toric ideal of the basis.

    Both the normal-form route (reduce to zero against the basis) and the
    kernel route (A u = A v) are computed; for a toric ideal they must
    agree, and disagreement raises.
    """
    system = _rewriting_system(basis)
    reduces = system(b.u) == system(b.v)
    kernel = binomial_in_kernel(b, basis.matrix)
    if reduces != kernel:
        raise AssertionError(
            "normal-form and kernel membership disagree; basis is not a "
            "Groebner basis of the toric ideal")
    return reduces


def _rewriting_system(basis):
    system = BinomialRewriter(basis.order)
    for b in basis.binomials:
        system.add(b.u, b.v)
    return system.normal_form


def evaluate_binomial(b, P):
    """P^u - P^v, exact for rational distributions."""
    if len(P) != len(b.u):
        raise ValueError("dimension mismatch")
    return b.evaluate(P.values)


def is_quadratic_basis(basis):
    """True iff every element has total degree two per side."""
    return all(sum(b.u) == 2 and sum(b.v) == 2 for b in basis.binomials)
