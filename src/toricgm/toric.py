"""Toric ideals of model matrices: Markov/Groebner bases by lattice-ideal
saturation, plus membership and evaluation services for binomials.

The basis computation starts from the lattice ideal J: the binomials of a
basis B of the integer kernel lattice (from `integer_kernel_lattice`),
optionally together with known kernel binomials as seeds.  J lies in the
toric ideal I_A, and I_A = J : (x_1 ... x_n)^inf (Sturmfels, Groebner Bases
and Convex Polytopes, Lemma 12.2).  Only the variables of a planned set
sigma are saturated.

Plan.  Walk B in its output order.  Of the variables of b that no earlier
vector assigned, those on the side of b holding more of them (the u side on
a tie) join the skipped set tau; those on the other side join sigma.

Why it is exact.  Work in R = k[x][x_sigma^-1] / J and follow the same
walk.  When b is reached, the variables it adds to tau all sit on one side,
and every other variable of b is in sigma or was reached earlier, so it is
already a unit in R.  Since x^(b+) = x^(b-) in R, the monomial in the new
tau variables is a unit, so each of them is a unit.  A variable that occurs in no b occurs in no generator (a seed's
exponent difference is a kernel vector, and its common part is stripped),
so it is a non-zero-divisor in R.  Hence, for f in I_A, f x^a in J implies
f = 0 in R, that is, f lies in J : x_sigma^inf.  Conversely J : x_sigma^inf
lies in I_A, because I_A is prime and contains no monomial.  So
I_A = J : x_sigma^inf.

Saturating by the variables of sigma one at a time, in increasing index
order, gives J : x_sigma^inf (Lemma 12.1, after Bayer-Stillman): take the
reduced Groebner basis under grevlex with x_i last in the priority list,
and divide every element by its largest x_i power.  This is exact because
ModelMatrix requires equal column sums, so every ideal here is homogeneous,
and in that order x_i divides a homogeneous binomial iff it divides its
leading term.  Dividing out the common part of both sides covers the x_i
power.  Cutting the number of saturations this way follows Hosten-Sturmfels
(GRIN, IPCO 1995) and Bigatti-La Scala-Robbiano (Computing toric ideals,
JSC 1999).  A final reduced basis is produced under the requested order;
the reduced basis of the prime ideal I_A is coprime and oriented as it
comes.  Every output binomial satisfies A u = A v exactly.
"""

from dataclasses import dataclass

from .linalg import integer_kernel_lattice
from .models import ModelMatrix
from .orders import TermOrder
from .polynomials import Binomial, BinomialRewriter, buchberger_binomials


@dataclass(frozen=True)
class ToricBasis:
    """Reduced Groebner basis of the toric ideal of a model matrix."""
    matrix: ModelMatrix
    binomials: tuple
    order: TermOrder
    saturated: tuple = ()  # column indices the saturation ran over

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


def _saturation_plan(lattice):
    """Sorted column indices to saturate by: the sigma of the module
    docstring, planned by one walk over the lattice binomials in order."""
    assigned = set()
    sigma = []
    for b in lattice:
        pos = [i for i, e in enumerate(b.u) if e and i not in assigned]
        neg = [i for i, e in enumerate(b.v) if e and i not in assigned]
        sigma.extend(neg if len(pos) >= len(neg) else pos)
        assigned.update(pos, neg)
    return tuple(sorted(sigma))


def compute_toric_basis(A, order=None, seed=None, budget=None):
    """Reduced Groebner basis of the toric ideal of A under the given order.

    Seed binomials must satisfy the kernel condition (validated).  The
    default order is grevlex; lex is useful for elimination work.  The
    work is |sigma| + 1 Buchberger runs (one saturation step per planned
    column, recorded in `ToricBasis.saturated`, then the final basis);
    `budget` bounds the S-pairs of each run.
    """
    m = A.ncols
    if order is None:
        order = TermOrder.grevlex(m)
    if order.nvars != m:
        raise ValueError("order arity must match the column count")
    gens = _kernel_binomials(A)
    sigma = _saturation_plan(gens)
    for b in (seed or ()):
        if A.apply(b.u) != A.apply(b.v):
            raise ValueError("seed binomial violates the kernel condition")
        gens.append(b)
    gens = [b.strip_common() for b in gens if b.u != b.v]
    if not gens:
        return ToricBasis(A, (), order)

    for i in sigma:
        last = TermOrder.grevlex(m, [j for j in range(m) if j != i] + [i])
        gens = [b.strip_common()
                for b in buchberger_binomials(gens, last, budget)]

    final = buchberger_binomials(gens, order, budget)
    return ToricBasis(A, tuple(final), order, sigma)


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
