"""Maximum likelihood estimation for the extended models, two ways.

Numeric route: iterative proportional scaling on the zero-reduced table,
cycling through the sufficient-statistic rows.  Exact route: the cell
parametrization of the MLE as a polynomial system (toric binomials of the
reduced matrix plus all marginal-matching linear equations), eliminated by
a lexicographic Groebner basis whose triangular form ends in a univariate
polynomial psi; back-substitution from its positive root produces the cell
profile.  Rational MLEs (linear univariate part) are reported exactly.

The root layer works in integers.  psi is scaled once to a content-free
integer polynomial p, reduced to its squarefree part q = p / gcd(p, p').
Its positive roots are isolated by bisecting (0, Cauchy bound] with Sturm
counts (a chain built with positive scalings only) and refined by the sign
of q alone.  Every sign read is the sign of the integer d^deg q(a / d),
computed by homogeneous Horner, so no comparison rests on rounding: the
intervals are exact.  Rational roots need no search over divisors: a root
a / d in lowest terms of the integer q has d dividing lc(q), so once an
interval is narrower than 1 / lc(q) it holds at most one candidate, and
that one is tested exactly.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .models import Distribution
from .orders import TermOrder
from .polynomials import (Binomial, NotTriangular, Polynomial, buchberger,
                          eliminate_to_triangular)
from .polynomials import reduce as poly_reduce
from .toric import compute_toric_basis


class CountTable:
    """Nonnegative integer cell counts with a positive total."""

    __slots__ = ("values", "total")

    def __init__(self, values):
        vals = tuple(int(x) for x in values)
        if any(x < 0 for x in vals):
            raise ValueError("negative cell count")
        total = sum(vals)
        if total <= 0:
            raise ValueError("count table must have a positive total")
        self.values = vals
        self.total = total

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def sufficient_stats(A, n):
    """The sufficient-statistic vector A times the count table."""
    if len(n) != A.ncols:
        raise ValueError("count table length must match the column count")
    return A.apply(n.values)


def reduce_zero_cells(A, n):
    """(active column indices, reduced matrix) after zero-margin removal.

    Every cell touching a zero sufficient statistic is forced to zero in
    the extended MLE and dropped; rows with zero margins are dropped too.
    Margins never change during the iteration (dropped cells carry zero
    counts), but the pass repeats to a fixpoint anyway.
    """
    stats = sufficient_stats(A, n)
    active = set(range(A.ncols))
    while True:
        dropped = set()
        for j in list(active):
            for i in range(A.nrows):
                if A.rows[i][j] > 0 and stats[i] == 0:
                    dropped.add(j)
                    break
        if not dropped & active:
            break
        active -= dropped
    if not active:
        raise ValueError("all cells dropped: empty extended model")
    active = sorted(active)
    keep_rows = [i for i in range(A.nrows) if stats[i] > 0]
    return active, A.restrict(active, keep_rows)


def ips_fit(A, n, tol=1e-9, max_cycles=10 ** 5):
    """Iterative proportional scaling fit, scaled to the sample total.

    Cycles through the reduced sufficient-statistic rows, scaling the
    touched cells by the observed/fitted margin ratio (to the power of the
    matrix entry; entries are 0/1 for log-linear models, where convergence
    is guaranteed).  Returns a full-length numeric distribution with exact
    zeros on dropped cells once margins match within tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = n if isinstance(n, CountTable) else CountTable(n)
    active, red = reduce_zero_cells(A, n)
    observed = [float(x) for x in red.apply([n.values[j] for j in active])]
    cells = [n.total / len(active)] * len(active)
    rows = [[float(x) for x in row] for row in red.rows]
    supports = [[j for j, e in enumerate(row) if e] for row in red.rows]
    for _ in range(max_cycles):
        for i, row in enumerate(rows):
            current = sum(row[j] * cells[j] for j in supports[i])
            if current <= 0:
                raise ArithmeticError("fitted margin collapsed to zero")
            ratio = observed[i] / current
            for j in supports[i]:
                e = row[j]
                cells[j] *= ratio if e == 1 else ratio ** e
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
    binomials: tuple           # toric basis of the reduced matrix
    margins: tuple             # observed sufficient statistics, kept rows
    cell_names: tuple

    def __post_init__(self):
        if any(x <= 0 for x in self.margins):
            raise ValueError("kept rows must have positive margins")
        for b in self.binomials:
            if self.matrix.apply(b.u) != self.matrix.apply(b.v):
                raise ValueError("system binomial violates the kernel condition")

    def linear_polynomials(self):
        nvars = len(self.active)
        out = []
        for row, rhs in zip(self.matrix.rows, self.margins):
            terms = [(tuple(1 if k == j else 0 for k in range(nvars)), coeff)
                     for j, coeff in enumerate(row) if coeff]
            terms.append(((0,) * nvars, -rhs))
            out.append(Polynomial(nvars, terms))
        return out


def assemble_mle_system(A, n, basis=None, budget=None):
    """Zero-reduce the table and set up the exact MLE system.

    The binomial part is the toric basis of the reduced matrix (optionally
    seeded by restricting a full-model basis to the surviving cells); the
    linear part keeps every reduced row's marginal equation, redundancy
    included.
    """
    n = n if isinstance(n, CountTable) else CountTable(n)
    active, red = reduce_zero_cells(A, n)
    seed = []
    if basis is not None:
        keep = set(active)
        for b in basis:
            if all(e == 0 or j in keep for j, e in enumerate(b.u)) and \
                    all(e == 0 or j in keep for j, e in enumerate(b.v)):
                seed.append(Binomial(
                    tuple(b.u[j] for j in active),
                    tuple(b.v[j] for j in active)))
    reduced_basis = compute_toric_basis(red, seed=seed or None, budget=budget)
    margins = red.apply([n.values[j] for j in active])
    return MleSystem(active=tuple(active), matrix=red,
                     binomials=tuple(reduced_basis.binomials),
                     margins=tuple(margins),
                     cell_names=tuple(red.col_labels))


@dataclass(frozen=True)
class MleExactResult:
    triangular: tuple          # reduced lex basis in back-substitution order
    psi: tuple                 # univariate coefficients, ascending degree
    psi_variable: int          # active-cell index the univariate lives in
    positive_roots: tuple      # floats, isolated to 1e-12
    root: object               # the statistically valid root (Fraction if rational)
    profile: tuple             # cell values at that root, in active order
    rational: bool


def solve_mle_exact(sys, budget=None):
    """Lex elimination of the MLE system and its positive solution.

    Variable priority is the active cells in ascending state order.  The
    linear equations are echelonized first and substituted into the
    binomials; the zero-dimensional core is eliminated by a grevlex
    Groebner basis followed by FGLM order conversion (exact linear algebra
    on the finite quotient).  The echelon's leads are its pivot variables
    and the core's leads lie in the free ones, so by the product criterion
    their union is a lex basis of the whole system; it is auto-reduced once,
    in eliminate_to_triangular.  Raises NotTriangular when the ideal fails
    to be zero-dimensional.
    """
    nvars = len(sys.active)
    order = TermOrder.lex(nvars)
    linear, pivots = _echelonize(sys.linear_polynomials(), nvars)
    substitution = _substitution_point(linear, pivots, nvars)
    core = []
    for b in sys.binomials:
        p = b.to_polynomial().evaluate(substitution)
        if p.is_zero():
            continue
        if not p.variables():
            raise ValueError("inconsistent system: margins contradict binomials")
        core.append(p)
    if core:
        free = [i for i in range(nvars) if i not in pivots]
        grev = TermOrder.grevlex(nvars)
        core_grev = buchberger(core, grev, budget)
        core_basis = _fglm_to_lex(core_grev, grev, order, free)
    else:
        core_basis = []
    # pivot leads and core leads are coprime: the union is a lex basis
    triangular = eliminate_to_triangular(linear + core_basis, tuple(range(nvars)))
    (var,) = triangular[0].variables()
    psi = _univariate_coeffs(triangular[0], var)
    roots = isolate_positive_roots(psi)
    if not roots:
        raise ArithmeticError("no positive root: extended MLE missing?")
    exact_root = None
    if len(psi) == 2:  # degree one: rational solution
        exact_root = -psi[0] / psi[1]
    candidates = []
    for interval in roots:
        value = exact_root if exact_root is not None else \
            float(interval[0] + interval[1]) / 2
        profile = _back_substitute(triangular, var, value, nvars)
        if profile is not None and all(
                (x >= 0 if exact_root is not None else x >= -1e-9)
                for x in profile):
            candidates.append((value, profile))
    if not candidates:
        raise ArithmeticError("no nonnegative solution among the roots")
    if len(candidates) > 1:
        # the nonnegative solution is unique; numerically prefer the most
        # interior profile if a spurious near-boundary root sneaks through
        candidates.sort(key=lambda c: -min(c[1]))
    value, profile = candidates[0]
    return MleExactResult(
        triangular=tuple(triangular), psi=tuple(psi), psi_variable=var,
        positive_roots=tuple(float(lo + hi) / 2 for lo, hi in roots),
        root=value, profile=tuple(profile),
        rational=exact_root is not None)


def _fglm_to_lex(gb, from_order, lex_order, variables):
    """Reduced lex basis of a zero-dimensional ideal, by FGLM conversion.

    Walks monomials of the quotient-supporting variables in increasing lex
    order; each normal form (against the source basis) that is linearly
    dependent on the kept ones yields one reduced lex basis element, and
    independent monomials extend the staircase.  Exact rational linear
    algebra throughout; the quotient must be finite over the given
    variables or NotTriangular is raised.
    """
    import heapq

    if not gb:
        return []
    nvars = gb[0].nvars
    leads = [p.leading_term(from_order)[0] for p in gb]
    for v in variables:
        if not any(all(e == 0 or i == v for i, e in enumerate(lm)) and lm[v]
                   for lm in leads):
            raise NotTriangular(
                "not triangular: core ideal is not zero-dimensional")

    def normal_vector(mono):
        nf = poly_reduce(Polynomial(nvars, [(mono, 1)]), gb, from_order)
        return dict(nf.terms)

    one = (0,) * nvars
    heap = [(lex_order.key(one), one)]
    seen = {one}
    emitted = []        # (lead monomial, polynomial)
    kept = []           # lex-standard monomials, increasing
    echelon = []        # (pivot monomial, vector dict, combo dict over kept)
    while heap:
        _, mono = heapq.heappop(heap)
        if any(all(a <= b for a, b in zip(lead, mono)) for lead, _ in emitted):
            continue
        vec = normal_vector(mono)
        # reduce against the echelon; combo expresses the eliminated part
        # over the raw normal forms of the kept monomials
        combo = {}
        for pivot, row_vec, row_combo in echelon:
            c = vec.get(pivot)
            if not c:
                continue
            factor = c / row_vec[pivot]
            for m2, c2 in row_vec.items():
                nc = vec.get(m2, 0) - factor * c2
                if nc:
                    vec[m2] = nc
                else:
                    vec.pop(m2, None)
            for k, c2 in row_combo.items():
                nc = combo.get(k, 0) + factor * c2
                if nc:
                    combo[k] = nc
                else:
                    combo.pop(k, None)
        if not vec:
            # dependent: mono - sum combo[k] * kept[k] is a lex basis element
            terms = [(mono, Fraction(1))]
            terms += [(kept[k], -c) for k, c in combo.items()]
            emitted.append((mono, Polynomial(nvars, terms)))
            continue
        # independent: new staircase monomial; vec = raw - sum combo[k] raw_k
        idx = len(kept)
        kept.append(mono)
        pivot = max(vec, key=lambda m: from_order.key(m))
        row_combo = {k: -c for k, c in combo.items()}
        row_combo[idx] = Fraction(1)
        echelon.append((pivot, vec, row_combo))
        for v in variables:
            child = tuple(e + 1 if i == v else e for i, e in enumerate(mono))
            if child not in seen:
                seen.add(child)
                heapq.heappush(heap, (lex_order.key(child), child))
    return [p for _, p in sorted(emitted,
                                 key=lambda e: lex_order.key(e[0]))]


def _echelonize(linear, nvars):
    """Gauss-Jordan the linear polynomials: pivot per highest variable."""
    rows = []
    for p in linear:
        vec = [Fraction(0)] * (nvars + 1)
        for mono, coeff in p.terms:
            if sum(mono) == 0:
                vec[nvars] = coeff
            else:
                vec[mono.index(1)] = coeff
        rows.append(vec)
    pivots = []
    r = 0
    for c in range(nvars):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][nvars] != 0:
            raise ValueError("inconsistent marginal equations")
    out = []
    for i, c in enumerate(pivots):
        terms = [(tuple(1 if k == j else 0 for k in range(nvars)), coeff)
                 for j, coeff in enumerate(rows[i][:nvars]) if coeff]
        terms.append(((0,) * nvars, rows[i][nvars]))
        out.append(Polynomial(nvars, terms))
    return out, pivots


def _substitution_point(linear, pivots, nvars):
    """Variable list sending each pivot variable to its tail expression."""
    point = [Polynomial.variable(nvars, i) for i in range(nvars)]
    for p, c in zip(linear, pivots):
        point[c] = Polynomial.variable(nvars, c) - p
    return point


def _univariate_coeffs(p, var):
    degree = max(mono[var] for mono, _ in p.terms)
    coeffs = [Fraction(0)] * (degree + 1)
    for mono, coeff in p.terms:
        if any(e and i != var for i, e in enumerate(mono)):
            raise ValueError("polynomial is not univariate")
        coeffs[mono[var]] = coeff
    return coeffs


def _back_substitute(triangular, psi_var, root_value, nvars):
    """Solve the triangular system given a value for the last variable.

    Every later polynomial must be linear in the single variable it
    introduces (the shape the reduced lex basis of a zero-dimensional
    radical-ish system takes); returns None when a division degenerates.
    """
    exact = isinstance(root_value, Fraction)
    values = {psi_var: root_value}
    for p in triangular[1:]:
        new = [v for v in p.variables() if v not in values]
        if not new:
            continue
        if len(new) > 1:
            raise NotTriangular("triangular step introduces two variables")
        v = new[0]
        degree = max(mono[v] for mono, _ in p.terms)
        if degree != 1:
            raise NotTriangular("triangular step is nonlinear in its variable")
        lin = Fraction(0) if exact else 0.0
        const = Fraction(0) if exact else 0.0
        for mono, coeff in p.terms:
            term = coeff if exact else float(coeff)
            for i, e in enumerate(mono):
                if i == v or not e:
                    continue
                term = term * (values[i] ** e)
            if mono[v]:
                lin = lin + term
            else:
                const = const + term
        if lin == 0:
            return None
        values[v] = -const / lin
    return [values.get(i, Fraction(0) if exact else 0.0) for i in range(nvars)]


# --- exact univariate real-root machinery ----------------------------------
#
# Polynomials here are lists of Python ints in ascending degree.  A point
# of the line is a pair (a, d) with d > 0 standing for a / d, and an
# interval (a, b, d) is the half-open (a / d, b / d].

# Width to which isolate_positive_roots refines its intervals.
ISOLATION_WIDTH = Fraction(1, 10 ** 12)


def _primitive(p):
    """p divided by its (positive) content; trailing zeros dropped."""
    while p and p[-1] == 0:
        p.pop()
    g = math.gcd(*p)
    return [c // g for c in p]


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


def _squarefree_part(coeffs):
    """Content-free squarefree integer polynomial q with the nonzero roots
    of coeffs and q(0) != 0.

    q is p / gcd(p, p') for p, a positive rational multiple of coeffs with
    integer coefficients, after its factors of x are divided out.
    """
    p = [Fraction(c) for c in coeffs]
    while p and p[-1] == 0:
        p.pop()
    if not p:
        raise ValueError("zero polynomial")
    den = math.lcm(*(c.denominator for c in p))
    p = _primitive([c.numerator * (den // c.denominator) for c in p])
    p = p[next(i for i, c in enumerate(p) if c):]
    a, b = p, _primitive(_derivative(p))
    while b:
        a, b = b, _neg_rem(a, b)
    return p if len(a) == 1 else _exact_quotient(p, a)


def _sturm_chain(q):
    chain = [q, _primitive(_derivative(q))]
    while len(chain[-1]) > 1:
        chain.append(_neg_rem(chain[-2], chain[-1]))
    return chain


def _variations(chain, a, d):
    """Sign changes along the chain at a / d, zeros dropped."""
    signs = [v > 0 for v in (_value(p, a, d) for p in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _isolate(q):
    """One interval per positive root of a squarefree q with q(0) != 0.

    Bisects (0, B], B the Cauchy bound, by Sturm counts: V(x) - V(y) is
    the number of roots in (x, y], also when y is itself a root, so a
    midpoint root stays the right end of its left half.  The counts at
    both ends ride on the stack, so a split costs one chain evaluation.
    """
    chain = _sturm_chain(q)
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


def _refine(q, a, b, d, width):
    """Shrink an interval holding one simple root of q to at most width.

    Only the sign of q is read: the root lies on the side where q changes
    sign.  A root found exactly at a / d returns the interval (r, r),
    that is, a == b.
    """
    vb = _value(q, b, d)
    if vb == 0:
        return b, b, d
    while (b - a) * width.denominator > width.numerator * d:
        m, a, b, d = a + b, 2 * a, 2 * b, 2 * d
        vm = _value(q, m, d)
        if vm == 0:
            return m, m, d
        if (vm > 0) == (vb > 0):
            b = m
        else:
            a = m
    return a, b, d


def isolate_positive_roots(coeffs):
    """Disjoint rational intervals (lo, hi], one per distinct positive root.

    coeffs are rational, in ascending degree.  Every sign is that of an
    integer, d ** deg * q(a / d) for the squarefree integer part q, so the
    Sturm counts that isolate the roots and the sign bisection that
    refines each interval to ISOLATION_WIDTH are exact.  A degenerate
    (r, r) interval marks a root hit exactly.
    """
    q = _squarefree_part(coeffs)
    if len(q) < 2:
        return []
    out = []
    for a, b, d in _isolate(q):
        a, b, d = _refine(q, a, b, d, ISOLATION_WIDTH)
        out.append((Fraction(a, d), Fraction(b, d)))
    return sorted(out)


def rational_root_check(psi):
    """All rational roots of a rational-coefficient univariate, sorted.

    Let q be the squarefree integer part of psi.  If a / d in lowest terms
    is a root of q, then d divides lc(q) (rational root theorem), so every
    rational root is a multiple of 1 / lc(q).  The roots of q(x) and of
    q(-x) are isolated and each interval is narrowed by sign bisection
    below 1 / lc(q); it then holds at most one such multiple, and that
    multiple is tested exactly.  Zero is handled up front.  Every reported
    root is verified by exact evaluation of psi itself.
    """
    q = _squarefree_part(psi)
    roots = [Fraction(0)] if psi[0] == 0 else []
    if len(q) < 2:
        return roots
    lc = abs(q[-1])
    width = Fraction(1, 2 * lc)
    for sign in (1, -1):
        qs = [c * sign ** i for i, c in enumerate(q)]
        for a, b, d in _isolate(qs):
            a, b, d = _refine(qs, a, b, d, width)
            if a != b:
                k = b * lc // d  # the largest multiple of 1 / lc up to b / d
                if k * d <= a * lc or _value(qs, k, lc) != 0:
                    continue
                b, d = k, lc
            roots.append(Fraction(sign * b, d))
    for r in roots:
        if sum(Fraction(c) * r ** i for i, c in enumerate(psi)) != 0:
            raise ArithmeticError(f"rational root {r} does not annihilate psi")
    return sorted(roots)
