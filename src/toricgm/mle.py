"""Maximum likelihood estimation for the extended models, two ways.

Numeric route: iterative proportional scaling on the zero-reduced table,
cycling through the sufficient-statistic rows.  Exact route: the cell
parametrization of the MLE as a polynomial system (toric binomials of the
reduced matrix plus all marginal-matching linear equations).  The linear
equations fix the pivot cells; the rest, a core in the free cells, is
eliminated by a lexicographic Groebner basis whose triangular form starts
with a univariate polynomial psi.  One pass over the core's basis lists
the free cell each element fixes, and back-substitution from a positive
root along it, then through the linear equations, gives the cell
profile.  Every rational MLE, whatever the degree of psi, is reported
exactly, with the profile back-substituted from the exact root.

The binomials are a minimal generating set of the toric ideal: the
elements of its reduced Groebner basis that the others do not generate
(`toric.minimal_generators`, a minimal Markov basis; Diaconis and
Sturmfels, Ann. Statist. 26, 1998).  They generate the same ideal, and
reduced Groebner bases are unique, so every basis below is the one the
whole reduced basis would give, from fewer polynomials.

The linear part is solved over the integers.  The marginal equations are
brought to reduced echelon form fraction-free (`linalg.reduced_echelon`,
shared with the limit-sequence solve): clearing a column from a row
multiplies the row by the positive pivot entry, subtracts a multiple of
the pivot row and divides by the row's content.  Each row so stays a
positive integer multiple of the row rational Gauss-Jordan would hold:
the same pivots, the same solutions, and entries that cannot grow from
step to step.  A pivot row reads a_c x_c = L_c, with L_c an integer linear
form in the free cells.  Each binomial x^u - x^v is multiplied by the
positive integer prod_c a_c^max(u_c, v_c) before x_c is replaced by
L_c / a_c, which makes the substituted binomial an integer polynomial;
scaling a generator by a nonzero constant leaves the ideal and its reduced
Groebner basis unchanged, so the core is exactly the one rational
substitution gives.  The core is built in the ring of the k free cells:
the pivot cells no longer occur in it, and grevlex and lex on all cells
induce grevlex(k) and lex(k) on the free ones, so its bases are the
whole ring's with the pivot cells dropped, on exponent tuples of length k.
FGLM (`eliminate_to_triangular`) converts the core's grevlex basis, empty
or not, to its reduced lex basis by the same fraction-free elimination:
each monomial of its walk is one integer row, its pseudo-remainder
tagged with the monomial times the multipliers.  That basis, lifted to all
cells, is all the solve reads.  With each pivot row a_c x_c + l_c over
a_c, reduced once modulo it to x_c + NF(l_c) / a_c, it makes the whole
system's reduced lex basis, which `MleExactResult.triangular` builds when
it is read.  l_c holds only free cells after c, and a lex reduction brings
in no larger variable, so x_c stays the lead; the leads are coprime
(Buchberger's first criterion), and every tail is in normal form.

The root layer works in integers.  psi is scaled once to a content-free
integer polynomial p, whose one remainder sequence p, p', -rem, ...
(positive scalings only), divided by its last element gcd(p, p'), is the
squarefree part q = p / gcd(p, p') and a Sturm chain of q.  The positive
roots of q (and of q(-x), for the rational roots) are isolated by
bisecting (0, Cauchy bound] with Sturm counts.  Every sign read is the
sign of the integer d^deg q(a / d), computed by homogeneous Horner, so no
comparison rests on rounding: the intervals are exact.  Each isolating
interval is then refined to the cell where bisection by the sign of q
alone would end.  The number of halvings is known in advance, so a float
Newton estimate of the root names the cell of that depth, and exact
signs at its two ends accept it or, failing that, one neighbour; only
when no candidate is confirmed (the float misses by more than a cell, or
q's coefficients are beyond float range) does the step-by-step bisection
run.  A float so only saves evaluations: the cell is bisection's either
way.  Rational roots need no search over divisors: a root a / d in lowest
terms of the integer q has d dividing lc(q), so once an interval is
narrower than 1 / lc(q) it holds at most one candidate, and that one is
tested exactly where the root is isolated.  A rational root so comes back
as the degenerate interval (r, r), and any other interval holds an
irrational root.

Three bounded least-recently-used memos, process-wide, keep the work
that many tables or calls share; each is exact, stores only immutable
values and stores no exception, so a call that raises raises again.
Many tables share their zero cells, hence their reduced matrix: the
active cells and the reduced `ModelMatrix` are kept per matrix and
pattern of zero sufficient statistics (`reduce_zero_cells`, which both
`assemble_mle_system` and `ips_fit` call).  The toric basis of a reduced
matrix and its minimal generators are kept together per reduced matrix,
labels included, and budget: both belong to the matrix, not to the
counts, and a `BudgetExceeded`, in the basis or in the selection, leaves
nothing behind.  `MleSystem` still checks the basis against the reduced
matrix it is built with and the generators against the basis.  The Sturm
chain and positive isolation of a psi are kept per psi, so
`rational_root_check` after `solve_mle_exact` (or
`isolate_positive_roots`) on the same psi reads them and isolates only
the roots of q(-x).  A list a call returns is fresh on every call; the
matrices, bases and generators it returns are immutable and shared.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .linalg import common_denominator, content_free, reduced_echelon
from .models import CountTable, Distribution
from .orders import TermOrder
from .polynomials import (NotTriangular, Polynomial, buchberger,
                          eliminate_to_triangular, monomial_of,
                          monomial_value, terms_product)
from .polynomials import reduce as poly_reduce
from .toric import ToricBasis, compute_toric_basis, minimal_generators


def _count_table(n):
    """n as a CountTable (built when n is a plain sequence of counts)."""
    return n if isinstance(n, CountTable) else CountTable(n)


def sufficient_stats(A, n):
    """The sufficient-statistic vector A n of a table or list of counts."""
    n = _count_table(n)
    if len(n) != A.ncols:
        raise ValueError("count table length must match the column count")
    return A.apply(n.values)


def reduce_zero_cells(A, n):
    """(active column indices, reduced matrix) after zero-margin removal.

    Every cell touching a zero sufficient statistic is forced to zero in
    the extended MLE and dropped; rows with zero margins are dropped too.
    The test reads only the observed margins, which dropping a cell (with
    its zero count) cannot change, so one pass is already the fixpoint.
    n may be a table or list of counts, as in sufficient_stats.

    Both depend only on A and on which statistics are zero, so they are
    kept per (A, zero pattern) in a bounded memo (module docstring); each
    call returns a fresh list of the active cells, and the "all cells
    dropped" ValueError is raised on every call, never stored.
    """
    stats = sufficient_stats(A, n)
    active, red = _zero_reduction(A, tuple(x == 0 for x in stats))
    return list(active), red


@lru_cache(maxsize=256)
def _zero_reduction(A, zero):
    """(active cells, reduced matrix) of A once the rows flagged in `zero`
    have a zero statistic: reduce_zero_cells, memoised on its key."""
    active = tuple(j for j in range(A.ncols)
                   if not any(row[j] and z for row, z in zip(A.rows, zero)))
    if not active:
        raise ValueError("all cells dropped: empty extended model")
    return active, A.restrict(active, [i for i, z in enumerate(zero) if not z])


def ips_fit(A, n, tol=1e-9, max_cycles=10 ** 5):
    """Iterative proportional scaling fit, scaled to the sample total.

    Cycles through the reduced sufficient-statistic rows, scaling the
    touched cells by the observed/fitted margin ratio (to the power of the
    matrix entry; entries are 0/1 for log-linear models, where convergence
    is guaranteed).  Returns a full-length numeric distribution with exact
    zeros on dropped cells once margins match within tol.  tol must be a
    positive number (not nan) and max_cycles at least 1 (ValueError).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, not {tol}")
    if max_cycles < 1:
        raise ValueError(f"max_cycles must be at least 1, not {max_cycles}")
    n = _count_table(n)
    active, red = reduce_zero_cells(A, n)
    observed = [float(x) for x in red.apply([n.values[j] for j in active])]
    cells = [n.total / len(active)] * len(active)
    rows = [[float(x) for x in row] for row in red.rows]
    supports = [[j for j, e in enumerate(row) if e] for row in red.rows]
    for cycle in range(1, max_cycles + 1):
        for i, row in enumerate(rows):
            current = sum(row[j] * cells[j] for j in supports[i])
            if current <= 0:
                raise ArithmeticError("fitted margin collapsed to zero")
            ratio = observed[i] / current
            try:
                for j in supports[i]:
                    e = row[j]
                    cells[j] *= ratio if e == 1 else ratio ** e
            except OverflowError:
                raise ArithmeticError(
                    f"ips_fit: the margin ratio {ratio!r} raised to an entry "
                    f"of row {red.row_labels[i]} overflows a float in cycle "
                    f"{cycle}; scaling by entries other than 0/1 need not "
                    "converge") from None
        err = max(abs(sum(row[j] * cells[j] for j in supports[i]) - observed[i])
                  for i, row in enumerate(rows))
        if err <= tol:
            break
    else:
        raise ArithmeticError(f"IPS did not converge in {max_cycles} cycles")
    full = [0.0] * A.ncols
    for pos, j in enumerate(active):
        full[j] = cells[pos]
    return Distribution(full)


@dataclass(frozen=True)
class MleSystem:
    """Cell parametrization of the MLE: binomials plus marginal equations."""
    active: tuple              # original column indices that stay
    matrix: object             # reduced ModelMatrix (kept rows x active cols)
    basis: ToricBasis          # toric basis of the reduced matrix
    generators: tuple          # the basis elements of a minimal generating set
    margins: tuple             # observed sufficient statistics, kept rows

    def __post_init__(self):
        if any(x <= 0 for x in self.margins):
            raise ValueError("kept rows must have positive margins")
        # ToricBasis has checked its binomials against its own matrix
        if not isinstance(self.basis, ToricBasis) or \
                self.basis.matrix.rows != self.matrix.rows:
            raise ValueError("basis is not a toric basis of the reduced matrix")
        if not set(self.generators) <= set(self.basis.binomials):
            raise ValueError("generators are not elements of the basis")

    @property
    def binomials(self):
        return self.basis.binomials


@lru_cache(maxsize=256)
def _reduced_basis(red, budget):
    """(toric basis, minimal generators) of the reduced matrix `red`,
    memoised on the matrix and the budget (module docstring).

    A miss calls `compute_toric_basis` and `minimal_generators` as bound in
    this module at call time, so a wrapper installed on either name sees
    every miss.
    """
    basis = compute_toric_basis(red, budget=budget)
    return basis, minimal_generators(basis, budget)


def assemble_mle_system(A, n, budget=None):
    """Zero-reduce the table and set up the exact MLE system.

    The binomial part is the toric basis of the reduced matrix and the
    minimal generating set chosen from it, computed once per reduced matrix
    and budget (see the module docstring); the linear part keeps every
    reduced row's marginal equation, redundancy included.
    """
    n = _count_table(n)
    active, red = reduce_zero_cells(A, n)
    margins = red.apply([n.values[j] for j in active])
    basis, generators = _reduced_basis(red, budget)
    return MleSystem(active=tuple(active), matrix=red, basis=basis,
                     generators=generators, margins=tuple(margins))


@dataclass(frozen=True)
class MleExactResult:
    basis: tuple               # the core's reduced lex basis, lifted to all
                               # cells, by increasing lead; psi and the
                               # shape are read from it (empty, with psi
                               # read from `triangular`, when no cell is free)
    echelon: tuple             # (row, pivot c) of each echelonized marginal
                               # equation a_c x_c + l_c = 0: its integer
                               # coefficients on the active cells, then
                               # its constant
    psi: tuple                 # univariate coefficients, ascending degree
    psi_variable: int          # active-cell index the univariate lives in
    positive_roots: tuple      # floats: midpoints of the isolating intervals
                               # (width <= 1e-12), float(r) for a rational r
    root: object               # the statistically valid root: a Fraction iff
                               # its interval was the degenerate (r, r)
    profile: tuple             # cell values at that root, in active order
    rational: bool             # root rational; root and profile then exact

    @property
    def triangular(self):
        """The whole system's reduced lex basis, in back-substitution order,
        built from `basis` and `echelon` on each access: one `poly_reduce`
        per pivot row."""
        rows = [row for row, _ in self.echelon]
        pivots = [c for _, c in self.echelon]
        return tuple(_triangular(list(self.basis), rows, pivots,
                                 len(self.profile)))


def solve_mle_exact(sys, budget=None):
    """Lex elimination of the MLE system and its positive solution.

    Variable priority is the active cells in ascending state order.  The
    marginal equations are echelonized over the integers, which makes each
    pivot cell a linear form in the free cells, a_c x_c = L_c.  Put into
    the minimal generators of the toric ideal, these leave a core in the
    ring of the k free cells alone.  It is brought to its reduced lex basis
    there, by a grevlex(k) Groebner basis and `eliminate_to_triangular`
    (FGLM: fraction-free linear algebra on the finite quotient), also when
    it is empty.  grevlex(k) and lex(k) are the orders the whole ring's
    grevlex and lex induce on the free cells, so these are the bases the
    whole ring would reach.  The result keeps the core's lex basis, lifted
    back to every cell, as `basis`, and the echelon rows as `echelon`.
    Its `triangular`, the unique reduced lex basis of the whole system
    (`basis` and each pivot row x_c + l_c / a_c reduced once modulo it,
    sorted by increasing lead; module docstring), is built only when read.

    psi is the univariate that starts the core's lex basis, in the last
    free cell, and that basis is read once, by `_shape`, for all roots: in
    shape position every later element is linear in the one cell it
    introduces, so back-substitution from a root of psi fixes every free
    cell, and the echelon rows then fix the pivot cells.  With no free cell
    the core is empty and `triangular`, then linear, is built and read
    instead.  Whenever `triangular` is in shape position so is the core's
    basis, and with the last cell free both give the same psi.
    Raises NotTriangular, an ArithmeticError, when the ideal fails to be
    zero-dimensional or the basis read is not in shape position, and
    ArithmeticError unless exactly one positive root of psi
    back-substitutes to a nonnegative profile.
    """
    nvars = len(sys.active)
    rows, pivots = _echelonize(sys.matrix.rows, sys.margins, nvars)
    free = [i for i in range(nvars) if i not in pivots]
    core = _core(sys.generators, rows, pivots, free)
    grev = TermOrder.grevlex(len(free))
    core_basis = _lift(eliminate_to_triangular(buchberger(core, grev, budget),
                                               grev), free, nvars)
    # with no free cell the core is empty and triangular is linear
    basis = core_basis or _triangular(core_basis, rows, pivots, nvars)
    shape = _shape(basis)
    if shape is None:
        raise NotTriangular(
            "not triangular: the core's lex basis is not in shape position "
            f"for the table with margins {list(sys.margins)} on the cells "
            f"{list(sys.matrix.col_labels)}")
    var, steps = shape
    psi = _univariate_coeffs(basis[0], var)
    roots = isolate_positive_roots(psi)
    midpoints = [float(lo + hi) / 2 for lo, hi in roots]
    candidates = []
    for (lo, hi), mid in zip(roots, midpoints):
        # a degenerate interval is a rational root, substituted exactly
        value = lo if lo == hi else mid
        profile = _back_substitute(steps, rows, pivots, var, value, nvars)
        if profile is not None and all(
                x >= (0 if lo == hi else -1e-9) for x in profile):
            candidates.append((value, profile))
    if len(candidates) != 1:
        # Birch's theorem: the MLE is the one nonnegative solution
        raise ArithmeticError(
            f"{len(candidates)} of {len(roots)} positive roots of psi give a "
            "nonnegative profile, not exactly one, for the table with margins "
            f"{list(sys.margins)} on the cells {list(sys.matrix.col_labels)}")
    ((value, profile),) = candidates
    return MleExactResult(
        basis=tuple(core_basis),
        echelon=tuple((tuple(row), c) for row, c in zip(rows, pivots)),
        psi=tuple(psi), psi_variable=var, positive_roots=tuple(midpoints),
        root=value, profile=tuple(profile),
        rational=isinstance(value, Fraction))


def _triangular(core_basis, rows, pivots, nvars):
    """The whole system's reduced lex basis, sorted by increasing lead: the
    lifted core lex basis and each echelon row a_c x_c + l_c over a_c,
    reduced once modulo it (module docstring)."""
    lex = TermOrder.lex(nvars)
    # echelon row (a_c, ..., e) over a_c is the polynomial x_c + l_c / a_c
    monomials = [monomial_of(nvars, [j]) for j in range(nvars)]
    monomials.append((0,) * nvars)
    return sorted(core_basis + [
        poly_reduce(Polynomial(nvars, [(m, Fraction(a, row[c]))
                                       for m, a in zip(monomials, row) if a]),
                    core_basis, lex)
        for row, c in zip(rows, pivots)],
        key=lambda p: lex.key(p.leading_term(lex)[0]))


def _echelonize(matrix_rows, margins, nvars):
    """Fraction-free Gauss-Jordan (`reduced_echelon`) on the marginal
    equations A x = b, each written as the integer row (A_i, -b_i).

    Returns (rows, pivots), one row per pivot c: a x_c + sum of b_j x_j
    over the free cells j + e = 0, with a > 0.  Raises ValueError when the
    equations are inconsistent.
    """
    rows, pivots = reduced_echelon(
        [[*row, -rhs] for row, rhs in zip(matrix_rows, margins)], nvars)
    if any(row[nvars] for row in rows[len(pivots):]):
        raise ValueError("inconsistent marginal equations")
    return rows[:len(pivots)], pivots


def _core(binomials, rows, pivots, free):
    """The binomials with the pivot cells eliminated, over the integers, as
    polynomials in the free cells alone (variable i is the cell free[i]).

    Echelon row k reads a_c x_c = L_c for its pivot c, with L_c an integer
    linear form in the free cells.  x^u - x^v times the positive integer
    prod_c a_c^max(u_c, v_c) is, once each x_c is replaced by L_c / a_c,
    the integer polynomial whose side u is the free part of x^u times
    prod_c L_c^u_c a_c^(max(u_c, v_c) - u_c), so no fraction arises.  The
    powers of each L_c are computed once per call.  Zero polynomials are
    dropped; a nonzero constant means the margins contradict the binomials
    (ValueError).
    """
    k, nvars = len(free), len(free) + len(pivots)
    one = (0,) * k
    forms = {}  # pivot -> (a_c, [L_c^0, L_c^1, ...])
    for row, c in zip(rows, pivots):
        form = {monomial_of(k, [i]): -row[j]
                for i, j in enumerate(free) if row[j]}
        if row[nvars]:
            form[one] = -row[nvars]
        forms[c] = (row[c], [{one: 1}, form])

    def power(c, e):
        powers = forms[c][1]
        while len(powers) <= e:
            powers.append(terms_product(powers[-1].items(),
                                        powers[1].items()))
        return powers[e]

    core = []
    for b in binomials:
        tops = [(c, max(b.u[c], b.v[c])) for c in pivots if b.u[c] or b.v[c]]
        p = {}
        for mono, sign in ((b.u, 1), (b.v, -1)):
            side = {tuple(mono[j] for j in free): 1}
            scale = sign
            for c, top in tops:
                side = terms_product(side.items(), power(c, mono[c]).items())
                scale *= forms[c][0] ** (top - mono[c])
            for m, x in side.items():
                p[m] = p.get(m, 0) + scale * x
        p = {m: x for m, x in p.items() if x}
        if not p:
            continue
        if list(p) == [one]:
            raise ValueError("inconsistent system: margins contradict binomials")
        core.append(Polynomial(k, p))
    return core


def _lift(basis, free, nvars):
    """The polynomials of the free cells' ring, variable i the cell free[i],
    as polynomials over all nvars cells."""
    def lift(mono):
        full = [0] * nvars
        for j, e in zip(free, mono):
            full[j] = e
        return tuple(full)

    return [Polynomial(nvars, [(lift(m), c) for m, c in p.terms]) for p in basis]


def _shape(basis):
    """(var, steps) of a reduced lex basis of a zero-dimensional ideal: it
    starts with a univariate in var, and each later element introduces at
    most one cell; steps lists (element, that cell) where one does.  None
    unless each such element is linear in its cell (shape position)."""
    (var,) = basis[0].variables()
    seen = {var}
    steps = []
    for p in basis[1:]:
        new = p.variables() - seen
        if new:
            (v,) = new
            if any(m[v] > 1 for m, _ in p.terms):
                return None
            steps.append((p, v))
            seen.add(v)
    return var, steps


def _univariate_coeffs(p, var):
    degree = max(mono[var] for mono, _ in p.terms)
    coeffs = [Fraction(0)] * (degree + 1)
    for mono, coeff in p.terms:
        coeffs[mono[var]] = coeff
    return coeffs


def _back_substitute(steps, rows, pivots, psi_var, root_value, nvars):
    """Every cell, given the value of the univariate's variable.

    Each step (p, v) of the shape-position basis is linear in v, which it
    fixes from the cells before it; then every pivot cell is read off its
    echelon row, a form in the free cells alone.  Exact for a Fraction
    root.
    Returns None when a division degenerates.
    """
    exact = isinstance(root_value, Fraction)
    zero = Fraction(0) if exact else 0.0
    values = [None] * nvars
    values[psi_var] = root_value
    for p, v in steps:
        lin = const = zero
        for mono, coeff in p.terms:
            term = monomial_value(values, mono[:v] + (0,) + mono[v + 1:],
                                  coeff if exact else float(coeff))
            if mono[v]:
                lin = lin + term
            else:
                const = const + term
        if lin == 0:
            return None
        values[v] = -const / lin
    for row, c in zip(rows, pivots):
        rest = zero + row[nvars]
        for j, b in enumerate(row[:nvars]):
            if b and j != c:
                rest += b * values[j]
        values[c] = -rest / row[c]
    return values


# --- exact univariate real-root machinery ----------------------------------
#
# Polynomials here are sequences of Python ints in ascending degree.  A point
# of the line is a pair (a, d) with d > 0 standing for a / d, and an
# interval (a, b, d) is the half-open (a / d, b / d].

# Width to which isolate_positive_roots refines its intervals.
ISOLATION_WIDTH = Fraction(1, 10 ** 12)
# The float root estimate is skipped for coefficients of more bits (so that
# they and the Cauchy bound stay finite floats) and stops after this many
# steps; it only proposes a cell, which exact signs then confirm.
_FLOAT_ROOT_BITS = 1000
_FLOAT_ROOT_STEPS = 100


def _primitive(p):
    """p divided by its (positive) content; trailing zeros dropped."""
    while p and p[-1] == 0:
        p.pop()
    return content_free(p)


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _value(p, a, d):
    """d ** deg(p) * p(a / d): an integer with the sign of p at a / d."""
    v, dk = 0, 1
    for c in reversed(p):
        v = v * a + c * dk
        dk *= d
    return v


def _neg_rem(a, b):
    """A positive multiple of -rem(a, b), content-free.

    Each elimination step scales the dividend by |lc(b)| / g > 0, so the
    remainder keeps its sign at every point: what a Sturm chain needs.
    """
    a = list(a)
    lb = b[-1]
    while len(a) >= len(b):
        g = math.gcd(lb, a[-1])
        m, f = abs(lb) // g, a[-1] // g if lb > 0 else -a[-1] // g
        shift = len(a) - len(b)
        a = [x * m for x in a]
        for i, c in enumerate(b):
            a[i + shift] -= f * c
        a.pop()
    return _primitive([-x for x in a])


def _exact_quotient(p, g):
    """p / g for an integer g dividing p; integral by Gauss's lemma."""
    p = list(p)
    q = [0] * (len(p) - len(g) + 1)
    for k in reversed(range(len(q))):
        q[k], r = divmod(p[k + len(g) - 1], g[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        for i, c in enumerate(g):
            p[k + i] -= q[k] * c
    if any(p):
        raise ArithmeticError("inexact polynomial division")
    return q


def _sturm_chain(coeffs):
    """A Sturm chain of q, the content-free squarefree integer polynomial
    with the nonzero roots of coeffs and q(0) != 0; q comes first.

    p is coeffs times a positive rational, integral, with its factors of x
    divided out.  Its remainder sequence p, p', -rem, ... ends with
    g = gcd(p, p'); each element over g (exact, by Gauss's lemma) gives
    q = p / g and a chain of q: at a root of p of multiplicity k, p' / g
    has the sign of k q', and the last quotient is constant."""
    p = [Fraction(c) for c in coeffs]
    while p and p[-1] == 0:
        p.pop()
    if not p:
        raise ValueError("zero polynomial")
    p = _primitive(common_denominator(p)[1])
    chain = [p[next(i for i, c in enumerate(p) if c):]]
    b = _primitive(_derivative(chain[0]))
    while b:
        chain.append(b)
        b = _neg_rem(chain[-2], b)
    g = chain[-1]
    return chain if len(g) == 1 else [_exact_quotient(f, g) for f in chain]


def _reflect(chain):
    """The Sturm chain of q(-x) from one of q(x): element i, f(x), becomes
    (-1)^i f(-x), which keeps every sign rule of the chain."""
    return [[-c if (i + k) % 2 else c for k, c in enumerate(f)]
            for i, f in enumerate(chain)]


def _variations(chain, a, d):
    """Sign changes along the chain at a / d, zeros dropped."""
    signs = [v > 0 for v in (_value(p, a, d) for p in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _isolate(chain):
    """One interval per positive root of q = chain[0], given its Sturm
    chain; q is squarefree with q(0) != 0.

    Bisects (0, B], B the Cauchy bound, by Sturm counts: V(x) - V(y) is
    the number of roots in (x, y], also when y is itself a root, so a
    midpoint root stays the right end of its left half.  The counts at
    both ends ride on the stack, so a split costs one chain evaluation.
    """
    q = chain[0]
    bound = 1 + math.ceil(Fraction(max(map(abs, q[:-1])), abs(q[-1])))
    stack = [(0, bound, 1, _variations(chain, 0, 1),
              _variations(chain, bound, 1))]
    out = []
    while stack:
        a, b, d, va, vb = stack.pop()
        if va - vb == 1:
            out.append((a, b, d))
        elif va - vb > 1:
            m = a + b
            vm = _variations(chain, m, 2 * d)
            stack.append((2 * a, m, 2 * d, va, vm))
            stack.append((m, 2 * b, 2 * d, vm, vb))
    return out


def _positive_roots(chain, width):
    """One interval (lo, hi] per positive root of the squarefree integer q
    = chain[0], q(0) != 0, given its Sturm chain, at most min(width,
    1 / (2 lc(q))) wide; a rational root r comes back as (r, r).

    Each isolating interval is refined to the cell where bisection by the
    sign of q ends: the root lies on the side where q changes sign, and a
    midpoint where q vanishes ends the bisection as the right end.  The
    number of halvings that brings the interval under the width is known
    in advance, so `_final_cell` jumps to that depth from a float estimate
    of the root and confirms the cell by exact signs; only when it cannot
    does `_bisect` halve step by step.  Both give the same cell.  By the
    rational root theorem a rational root lies on the grid of multiples of
    1 / lc(q), and an interval narrower than half that step holds at most
    one of them, k / lc(q) with k = floor(lc(q) hi): the root is rational
    iff k / lc(q) lies inside and q(k / lc(q)) == 0.
    """
    q = chain[0]
    if len(q) < 2:
        return []
    lc = abs(q[-1])
    width = min(width, Fraction(1, 2 * lc))
    out = []
    for a, b, d in _isolate(chain):
        vb = _value(q, b, d)
        if vb:
            # the fewest halvings n with (b - a) / (d 2^n) <= width
            n = (-(-(b - a) * width.denominator // (width.numerator * d))
                 - 1).bit_length()
            if n:
                a, b, d = (_final_cell(q, a, b, d, vb, n)
                           or _bisect(q, a, b, d, vb, n))
        k = b * lc // d
        if k * d > a * lc and _value(q, k, lc) == 0:
            a, b, d = k, k, lc
        out.append((Fraction(a, d), Fraction(b, d)))
    return out


def _bisect(q, a, b, d, vb, n):
    """The cell (a', b', d') that n halvings of (a / d, b / d] by the sign
    of q reach, vb the sign-carrying q at b / d; a midpoint where q
    vanishes stops them as the right end of its cell."""
    for _ in range(n):
        m, a, b, d = a + b, 2 * a, 2 * b, 2 * d
        vm = _value(q, m, d)
        if vm == 0:
            return a, m, d
        if (vm > 0) == (vb > 0):
            b = m
        else:
            a = m
    return a, b, d


def _final_cell(q, a, b, d, vb, n):
    """The cell `_bisect(q, a, b, d, vb, n)` reaches, found from a float
    estimate of the root; None when no candidate is confirmed.

    Cell t of depth n, 1 <= t <= 2^n, is (g(t - 1), g(t)] with grid point
    g(t) = (a 2^n + t (b - a)) / (d 2^n).  The root lies right of g(t)
    when q there is nonzero with the sign opposite to vb; g(0) = a / d is
    left of it by isolation, and g(2^n) = b / d is not.  The cell that
    holds the estimate is tried first, then the neighbour its ends point
    to, each accepted only on the exact signs at both of its ends.  A root
    on g(t) stops bisection at the first depth where it is a grid point, as
    the right end of that depth's cell.
    """
    x = _float_root(q, a, b, d, vb)
    if x is None:
        return None
    last, span = 1 << n, b - a
    top, den = a << n, d << n
    p, s = x.as_integer_ratio()
    t = min(max(-(-(p * den - top * s) // (s * span)), 1), last)
    sides = {0: -1, last: 1}    # i -> -1, 0 or 1: g(i) left of, at or
                                # right of the root

    def side(i):
        if i not in sides:
            v = _value(q, top + i * span, den)
            sides[i] = 0 if v == 0 else 1 if (v > 0) == (vb > 0) else -1
        return sides[i]

    for _ in range(2):
        if side(t) < 0:
            t += 1
        elif side(t - 1) >= 0:
            t -= 1
        else:
            if side(t) == 0:
                shift = (t & -t).bit_length() - 1
                t, top, den = t >> shift, a << n - shift, d << n - shift
            return top + (t - 1) * span, top + t * span, den
    return None


def _float_root(q, a, b, d, vb):
    """A float estimate of the one root of q in (a / d, b / d], with vb
    the sign of q right of it: Newton's method, kept inside a bracket that
    bisects whenever a step leaves it.  None when a coefficient is beyond
    float range or an iterate's value is not finite."""
    if max(map(abs, q)).bit_length() > _FLOAT_ROOT_BITS:
        return None
    sign = 1.0 if vb > 0 else -1.0
    f = [sign * c for c in q]
    lo, hi = a / d, b / d
    x = (lo + hi) / 2
    for _ in range(_FLOAT_ROOT_STEPS):
        v = dv = 0.0
        for c in reversed(f):
            dv = dv * x + v
            v = v * x + c
        if not (math.isfinite(v) and math.isfinite(dv)):
            return None
        if v == 0:
            return x
        if v < 0:
            lo = x
        else:
            hi = x
        nxt = x - v / dv if dv else hi
        if not lo < nxt < hi:
            nxt = (lo + hi) / 2
        if nxt == x:
            return x
        x = nxt
    return x


@lru_cache(maxsize=64)
def _isolation(psi):
    """(Sturm chain, sorted positive isolating intervals at ISOLATION_WIDTH)
    of the squarefree integer part of psi, a tuple: computed once per psi
    and shared by isolate_positive_roots and rational_root_check."""
    chain = tuple(map(tuple, _sturm_chain(psi)))
    return chain, tuple(sorted(_positive_roots(chain, ISOLATION_WIDTH)))


def isolate_positive_roots(coeffs):
    """Disjoint rational intervals (lo, hi], one per distinct positive root.

    coeffs are rational, in ascending degree.  Every sign is that of an
    integer, d ** deg * q(a / d) for the squarefree integer part q, so the
    Sturm counts that isolate the roots and the refinement of each interval
    to ISOLATION_WIDTH are exact; a float estimate only proposes the cell
    that exact signs then confirm.  An interval is the degenerate (r, r)
    iff its root r is rational; every other interval holds an irrational
    root.  The isolation is memoised on the coefficients (module
    docstring); each call returns a fresh list.
    """
    return list(_isolation(tuple(coeffs))[1])


def rational_root_check(psi):
    """All rational roots of a rational-coefficient univariate, sorted.

    Zero is handled up front.  The positive rational roots are the
    degenerate intervals of psi's memoised positive isolation (the one
    isolate_positive_roots returns); the negative ones are those of the
    positive roots of q(-x), q the squarefree integer part of psi, each
    narrowed only as far as the rational test needs.  Every reported root
    is verified by exact evaluation of psi itself.
    """
    chain, positive = _isolation(tuple(psi))
    roots = [Fraction(0)] if psi[0] == 0 else []
    roots += [lo for lo, hi in positive if lo == hi]
    roots += [-lo for lo, hi in _positive_roots(_reflect(chain), 1)
              if lo == hi]
    for r in roots:
        if sum(Fraction(c) * r ** i for i, c in enumerate(psi)) != 0:
            raise ArithmeticError(f"rational root {r} does not annihilate psi")
    return sorted(roots)
