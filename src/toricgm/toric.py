"""Toric ideals of model matrices: Markov/Groebner bases by lattice-ideal
saturation, minimal generating sets chosen from them, plus membership and
evaluation services for binomials.

The basis computation starts from the ideal J generated by the binomials of
a basis B of the integer kernel lattice (from `integer_kernel_lattice`), the
quadratic moves Q, and any seed binomials.  Every generator is a kernel
binomial, so J lies in the toric ideal I_A; J contains the lattice ideal of
B, so I_A = J : (x_1 ... x_n)^inf (Sturmfels, Groebner Bases and Convex
Polytopes, Lemma 12.2).  Only the variables of a planned set sigma are
saturated.

Moves.  Q holds coprime binomials x_a x_b - x_c x_d with A e_a + A e_b =
A e_c + A e_d: over one column of each distinct value, the pairs with the
same sum are chained, each to the next.  They are cheap kernel binomials
that shorten both the plan and the first Buchberger run (Bigatti, La Scala
and Robbiano, Computing toric ideals, JSC 1999, seed with such binomials
too).  When B has at most one vector, a kernel move can only be that
vector, so the search is skipped and Q is empty.

Plan.  Let W be B followed by Q.  Repeatedly take the generator w of W with
the fewest not yet assigned variables on its smaller side, ties going to
the most not yet assigned in all, then to the first in W.  Of its
unassigned variables, those on the side holding more of them (the u side on
a tie) join the skipped set tau; those on the other side join sigma.  Stop
once every variable of W is assigned.

Why it is exact.  Work in R = k[x][x_sigma^-1] / J and follow the same
walk.  When w is taken, its new sigma variables are units, and so is every
variable of w assigned earlier (by induction).  So every variable of w that
does not join tau now is a unit, and these include a whole side of w.
Since x^(w+) = x^(w-) in R (w lies in J), the monomial in the new tau
variables is a unit, so each of them is a unit.  Hence every variable of W
is a unit in R.  A variable that occurs in no element of W occurs in no
kernel vector (B spans the kernel), so in no generator of J (a seed's
exponent difference is a kernel vector, and its common part is stripped);
it is a non-zero-divisor in R.  Hence, for f in I_A, f x^a in J implies
f = 0 in R, that is, f lies in J : x_sigma^inf.  Conversely J : x_sigma^inf
lies in I_A, because I_A is prime and contains no monomial.  So
I_A = J : x_sigma^inf, whatever kernel binomials Q holds.

Chain.  The columns of sigma are settled one Buchberger run at a time.
Let C be the set of planned columns run or certified so far; the
generators gens of the next run satisfy the invariant
J : x_C^inf <= <gens> <= I_A, so once C holds all of sigma, <gens> =
J : x_sigma^inf = I_A.  A run takes the first planned column i not yet
in C and runs under grevlex with the other columns not in C last in the
priority list and x_i very last.  It divides the common monomial factor
out of each new element (`strip_common` in `polynomials`), so it returns
the reduced Groebner basis G of an ideal J' with <gens> <= J' <=
<gens> : (x_1 ... x_n)^inf <= I_A.  Dividing every element of G by its
largest x_i power gives a Groebner basis of J' : x_i^inf, with the same
leads but for their x_i powers (Lemma 12.1, after Bayer-Stillman).  This
is exact because ModelMatrix requires equal column sums, so every ideal
here is homogeneous, and in that order x_i divides a homogeneous binomial
iff it divides its leading term.

Lead certificate.  A variable x_j that divides no lead of a Groebner
basis is a nonzerodivisor modulo its ideal: x_j times a standard monomial
is standard, so the normal form of x_j f is x_j times that of f, and it
is zero only when that of f is.  Every planned column j not in C that
divides no lead of G is therefore a nonzerodivisor modulo J' : x_i^inf,
that ideal equals its saturation by x_j, and j joins C with i and gets no
run of its own.  Putting those columns last in the order keeps them out
of the leads, so most of them are certified.  The next gens are G with
every common factor divided out: their ideal contains J' : x_i^inf and
lies in I_A, which is prime and holds no monomial, so the invariant
holds.  Cutting the number of saturations this way follows
Hosten-Sturmfels (GRIN, IPCO 1995).  A final reduced basis is produced
under the requested order; the reduced basis of the prime ideal I_A is
coprime and oriented as it comes.  Every output binomial satisfies
A u = A v exactly.

Skipped S-pairs.  Only the final run skips S-pairs.  It starts from I_A,
which is prime and holds no monomial, so every column is a nonzerodivisor
there; under grevlex it is given every column as `saturated` and skips
the S-pairs whose tails share one of them (see `polynomials`), and under
lex, where that argument does not hold, none.  The saturation runs get no
mask: their ideals are only known to lie between J : x_C^inf and I_A, and
a mask that claims more than that can make a run return a set that is not
a Groebner basis.

Fold.  When the last saturation run is under the requested order and
dividing out common factors changes no element of its output, that output
is the reduced basis of <gens> = I_A, and reduced bases are unique: it is
returned as it is and no final run is made.  Under the default grevlex
this happens when the last run saturates the last column, no other
planned column is left then, and dividing out changes no element.
"""

from dataclasses import dataclass

from .linalg import integer_kernel_lattice
from .models import ModelMatrix
from .orders import TermOrder
from .polynomials import (Binomial, BinomialRewriter, support_mask,
                          buchberger_binomials, monomial_of)


@dataclass(frozen=True)
class ToricBasis:
    """Reduced Groebner basis of the toric ideal of a model matrix."""
    matrix: ModelMatrix
    binomials: tuple
    order: TermOrder
    saturated: tuple = ()  # column indices the saturation ran over

    def __post_init__(self):
        for b in self.binomials:
            if not binomial_in_kernel(b, self.matrix):
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
    return [Binomial.from_difference(w) for w in integer_kernel_lattice(A.rows)]


def _quadratic_moves(A):
    """Coprime degree-2 kernel binomials x_a x_b - x_c x_d, chained within
    each fiber of A e_a + A e_b over one column of each distinct value.

    The entries are nonnegative, so coding a column as an integer in base
    2 max + 1 is exact for pair sums too: two pairs have the same sum iff
    their codes add up to the same integer.  Two pairs of distinct columns
    with the same sum share no column, so each move is coprime.
    """
    base = 2 * max(map(max, A.rows)) + 1
    firsts = {}
    for j, col in enumerate(zip(*A.rows)):
        firsts.setdefault(col, j)
    codes = [(j, sum(e * base ** r for r, e in enumerate(col)))
             for col, j in firsts.items()]
    fibers = {}
    for k, (a, ca) in enumerate(codes):
        for b, cb in codes[k:]:
            fibers.setdefault(ca + cb, []).append((a, b))
    return [Binomial(monomial_of(A.ncols, ab), monomial_of(A.ncols, cd))
            for pairs in fibers.values()
            for ab, cd in zip(pairs, pairs[1:])]


def _saturation_plan(gens):
    """Sorted column indices to saturate by: the sigma of the module
    docstring, planned by a greedy walk over the generators."""
    sides = [(support_mask(b.u), support_mask(b.v)) for b in gens]
    free = 0
    for pos, neg in sides:
        free |= pos | neg
    sigma = 0
    while free:
        pos, neg = min(((pos & free, neg & free) for pos, neg in sides
                        if (pos | neg) & free), key=_walk_key)
        sigma |= neg if pos.bit_count() >= neg.bit_count() else pos
        free &= ~(pos | neg)
    return tuple(i for i in range(sigma.bit_length()) if sigma >> i & 1)


def _walk_key(sides):
    # fewest unassigned variables on the smaller side, then most in all
    p, q = sides[0].bit_count(), sides[1].bit_count()
    return min(p, q), -p - q


def compute_toric_basis(A, order=None, seed=None, budget=None):
    """Reduced Groebner basis of the toric ideal of A under the given order.

    Seed binomials must satisfy the kernel condition (validated).  The
    default order is grevlex; lex is useful for elimination work.  The
    generators are the lattice binomials, the quadratic moves (when the
    lattice has rank two or more) and the seeds.  The walk over lattice
    and moves plans the columns sigma to saturate by (recorded in
    `ToricBasis.saturated`).  Each saturation run strips common factors
    from its new elements and settles its column and every planned column
    left that divides none of its leads; a final run under `order`
    follows unless the last saturation run can be folded into it (module
    docstring): at most |sigma| + 1 runs.  `budget` bounds the S-pairs of
    each run.
    """
    m = A.ncols
    if order is None:
        order = TermOrder.grevlex(m)
    if order.nvars != m:
        raise ValueError("order arity must match the column count")
    gens = _kernel_binomials(A)
    if len(gens) > 1:
        gens += _quadratic_moves(A)
    sigma = _saturation_plan(gens)
    for b in (seed or ()):
        if not binomial_in_kernel(b, A):
            raise ValueError("seed binomial violates the kernel condition")
        gens.append(b)
    gens = [b.strip_common() for b in gens]
    if not gens:
        return ToricBasis(A, (), order)

    left = list(sigma)  # not empty: gens holds a nonzero kernel vector
    while left:
        i = left.pop(0)
        last = TermOrder.grevlex(
            m, [j for j in range(m) if j not in left and j != i] + left + [i])
        run = buchberger_binomials(gens, last, budget, strip_common=True)
        leads = 0
        for b in run:
            leads |= support_mask(b.u)
        # a column that divides no lead is certified (module docstring)
        left = [j for j in left if leads >> j & 1]
        gens = [b.strip_common() for b in run]
    if last == order and gens == run:
        return ToricBasis(A, tuple(run), order, sigma)

    every = (1 << m) - 1 if order.kind == "grevlex" else 0
    final = buchberger_binomials(gens, order, budget, every)
    return ToricBasis(A, tuple(final), order, sigma)


def minimal_generators(basis, budget=None):
    """The elements of the reduced basis that the others do not generate,
    in increasing degree: a minimal Markov basis of the toric ideal.

    Degree d at a time: the ideal K of the elements kept below d gets its
    reduced d-truncated Groebner basis under the basis's order (one
    `buchberger_binomials` run with `max_degree` d, `budget` bounding its
    S-pairs), and x^u - x^v of degree d is kept only when a union-find has
    not yet joined the normal forms of u and v.  K is homogeneous, so the
    truncated basis gives every monomial of degree d its exact normal form
    modulo K, and the S-pairs of higher degree, which these normal forms
    never read, are not treated.  The ideal is a pure-difference ideal, so
    modulo K every monomial is its normal-form monomial, and the degree-d
    part of I_A is K_d plus the span of the kept differences: an element
    whose normal forms are joined is a combination of the kept ones (so
    the kept set still generates I_A), and the kept ones form a forest on
    the normal forms, whose edges are linearly independent (so none of
    them is generated by the others).
    """
    by_degree = {}
    for b in basis.binomials:
        by_degree.setdefault(sum(b.u), []).append(b)
    kept = []
    for degree in sorted(by_degree):
        system = BinomialRewriter(buchberger_binomials(
            kept, basis.order, budget, max_degree=degree))
        parent = {}

        def find(m):
            root = m
            while parent.get(root, root) != root:
                root = parent[root]
            while m != root:
                parent[m], m = root, parent[m]
            return root

        for b in by_degree[degree]:
            ru = find(system.normal_form(b.u))
            rv = find(system.normal_form(b.v))
            if ru != rv:
                parent[ru] = rv
                kept.append(b)
    return tuple(kept)


def binomial_in_kernel(b, A):
    """Exact toric-ideal membership via the kernel condition A u = A v."""
    return A.apply(b.u) == A.apply(b.v)


def binomial_in_ideal(b, basis):
    """True iff the binomial lies in the toric ideal of the basis.

    Both the normal-form route (reduce to zero against the basis) and the
    kernel route (A u = A v) are computed; for a toric ideal they must
    agree, and disagreement raises.
    """
    system = BinomialRewriter(basis.binomials)
    reduces = system.normal_form(b.u) == system.normal_form(b.v)
    kernel = binomial_in_kernel(b, basis.matrix)
    if reduces != kernel:
        raise AssertionError(
            "normal-form and kernel membership disagree; basis is not a "
            "Groebner basis of the toric ideal")
    return reduces


def is_quadratic_basis(basis):
    """True iff every element has total degree two per side."""
    return all(sum(b.u) == 2 and sum(b.v) == 2 for b in basis.binomials)
