"""Maximum likelihood estimation for the extended models, two ways.

Numeric route: iterative proportional scaling on the zero-reduced table,
cycling through the sufficient-statistic rows.  Exact route: the cell
parametrization of the MLE as a polynomial system (toric binomials of the
reduced matrix plus all marginal-matching linear equations), eliminated by
a lexicographic Groebner basis whose triangular form ends in a univariate
polynomial; its positive real roots are isolated by exact Sturm-sequence
bisection, and back-substitution produces the cell profile.  Rational MLEs
(linear univariate part) are reported exactly.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .models import Distribution
from .orders import TermOrder
from .polynomials import (Binomial, NotTriangular, Polynomial, buchberger,
                          eliminate_to_triangular, reduce_groebner_basis)
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
    on the finite quotient), and the union with the echelon linear part is
    auto-reduced: the product criterion makes it the reduced lex basis of
    the whole system.  Raises NotTriangular when the ideal fails to be
    zero-dimensional.
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
    combined = reduce_groebner_basis(linear + core_basis, order)
    triangular = eliminate_to_triangular(combined, tuple(range(nvars)))
    psi_poly = triangular[0]
    psi_vars = sorted(psi_poly.variables())
    if len(psi_vars) != 1:
        raise NotTriangular("no univariate polynomial in the basis")
    var = psi_vars[0]
    psi = _univariate_coeffs(psi_poly, var)
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


def _uni_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _uni_eval(p, x):
    out = 0
    for c in reversed(p):
        out = out * x + c
    return out


def _uni_derivative(p):
    return [c * i for i, c in enumerate(p)][1:]


def _uni_deflate(p, root):
    """Exact synthetic division of p by (x - root)."""
    out = []
    carry = Fraction(0)
    for c in reversed(p):
        carry = c + carry * root
        out.append(carry)
    out.reverse()
    if out[0] != 0:
        raise ValueError("not a root, cannot deflate")
    return out[1:]


def _uni_rem(a, b):
    a = list(a)
    while len(a) >= len(b) and _uni_trim(a):
        if not a:
            break
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[i + shift] -= factor * c
        a.pop()
        _uni_trim(a)
    return a


def _positive_normalize(p):
    """Scale by a positive rational: integer coefficients, content one."""
    if not p:
        return p
    denom = 1
    for c in p:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    ints = [int(c * denom) for c in p]
    g = 0
    for c in ints:
        g = math.gcd(g, abs(c))
    return [Fraction(c, g) for c in ints] if g > 1 else \
        [Fraction(c) for c in ints]


def sturm_chain(p):
    chain = [_positive_normalize(list(p))]
    chain.append(_positive_normalize(_uni_derivative(chain[0])))
    while _uni_trim(chain[-1]):
        nxt = [-c for c in _uni_rem(chain[-2], chain[-1])]
        if not _uni_trim(nxt):
            break
        chain.append(_positive_normalize(nxt))
    return [c for c in chain if c]


def _sign_changes(chain, x):
    signs = []
    for p in chain:
        v = _uni_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain, lo, hi):
    """Distinct real roots in the half-open interval (lo, hi]."""
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def isolate_positive_roots(coeffs, width=Fraction(1, 10 ** 12)):
    """Disjoint rational intervals, one per distinct positive real root.

    Intervals are refined to the requested width (pass None to skip
    refinement); a degenerate (r, r) interval marks an exact rational hit.
    """
    p = _uni_trim([Fraction(c) for c in coeffs])
    if not p:
        raise ValueError("zero polynomial")
    shift = 0
    while p and p[0] == 0:
        p.pop(0)
        shift += 1
    out = []
    if not p:
        return out
    chain = sturm_chain(p)
    bound = 1 + max(abs(c) for c in p[:-1]) / abs(p[-1]) if len(p) > 1 \
        else Fraction(1)
    stack = [(Fraction(0), Fraction(bound))]
    intervals = []
    while stack:
        lo, hi = stack.pop()
        k = count_roots(chain, lo, hi)
        if k == 0:
            continue
        if k == 1:
            intervals.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if _uni_eval(p, mid) == 0:
            # exact rational hit: record it, deflate, start over
            quotient = p
            while _uni_eval(quotient, mid) == 0 and len(quotient) > 1:
                quotient = _uni_deflate(quotient, mid)
            rest = isolate_positive_roots(quotient, width)
            return sorted(rest + [(mid, mid)])
        stack.append((lo, mid))
        stack.append((mid, hi))
    refined = []
    for lo, hi in intervals:
        if width is not None:
            while hi - lo > width:
                mid = (lo + hi) / 2
                if count_roots(chain, lo, mid) == 1:
                    hi = mid
                else:
                    lo = mid
        refined.append((lo, hi))
    refined.sort()
    return refined


_TRIAL_DIVISION_LIMIT = 10 ** 12


def rational_root_check(psi):
    """All rational roots of a rational-coefficient univariate polynomial.

    Candidates come from the rational root theorem (divisors of the
    trailing and leading integer coefficients) when those are small enough
    to factor by trial division; otherwise each isolated real root is
    tested against the simplest rational in its interval, shrinking the
    interval until a denominator bound rules rationals out.  Either way
    every reported root is verified by exact evaluation.
    """
    p = _uni_trim([Fraction(c) for c in psi])
    if not p:
        raise ValueError("zero polynomial")
    roots = []
    shift = 0
    while p and p[0] == 0:
        p.pop(0)
        shift += 1
    if shift:
        roots.append(Fraction(0))
    if len(p) <= 1:
        return sorted(roots)
    denom_lcm = 1
    for c in p:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm,
                                                          c.denominator)
    ints = [int(c * denom_lcm) for c in p]
    a0, an = abs(ints[0]), abs(ints[-1])
    if a0 <= _TRIAL_DIVISION_LIMIT and an <= _TRIAL_DIVISION_LIMIT:
        for num in _divisors(a0):
            for den in _divisors(an):
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if _uni_eval(p, cand) == 0 and cand not in roots:
                        roots.append(cand)
        return sorted(roots)
    roots.extend(_rational_roots_by_isolation(p, an))
    return sorted(set(roots))


def _rational_roots_by_isolation(p, denominator_bound):
    """Rational roots via real-root isolation and simplest-rational probes."""
    out = []
    for sign in (1, -1):
        q = p if sign == 1 else [c * (-1) ** i for i, c in enumerate(p)]
        for lo, hi in isolate_positive_roots(q, width=None):
            if lo == hi:
                out.append(sign * lo)
                continue
            root = _rational_in_interval(q, lo, hi, denominator_bound)
            if root is not None:
                out.append(sign * root)
    return out


def _rational_in_interval(p, lo, hi, qmax):
    """The rational root inside an isolating interval, if one exists.

    Shrinks the interval until two distinct rationals with denominator at
    most qmax cannot both fit; at each stage the simplest rational in the
    interval (Stern-Brocot) is tested exactly.
    """
    chain = sturm_chain(p)
    floor = Fraction(1, 2 * qmax * qmax)
    while True:
        for endpoint in (lo, hi):
            if _uni_eval(p, endpoint) == 0:
                return endpoint
        cand = _simplest_rational(lo, hi)
        if _uni_eval(p, cand) == 0:
            return cand
        if hi - lo < floor:
            return None
        mid = (lo + hi) / 2
        if _uni_eval(p, mid) == 0:
            return mid
        if count_roots(chain, lo, mid) == 1:
            hi = mid
        else:
            lo = mid


def _simplest_rational(lo, hi):
    """A smallest-denominator rational strictly inside (lo, hi), 0 <= lo."""
    if not 0 <= lo < hi:
        raise ValueError("need 0 <= lo < hi")
    a = lo.numerator // lo.denominator
    if lo == a:
        if a + 1 < hi:
            return Fraction(a + 1)
        # interval sits inside (a, a+1): pick a + 1/n for the least valid n
        gap = hi - a
        n = (Fraction(1) / gap).numerator // (Fraction(1) / gap).denominator + 1
        return a + Fraction(1, n)
    if a + 1 < hi:
        return Fraction(a + 1)
    return a + 1 / _simplest_rational(
        Fraction(1) / (hi - a), Fraction(1) / (lo - a))


def _divisors(n):
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)
