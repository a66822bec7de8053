"""Sparse multivariate polynomials over exact rationals and a deterministic
Buchberger engine.

Polynomial is Fraction-valued.  The generic engine scales each input once
to a content-free integer polynomial and keeps its elements that way:
integer coefficients of content one and a positive leading coefficient,
with the lead monomial, lead key and each tail term's key computed once
per element.  Reduction is pseudo-division, f <- (lc_g / d) f - (c / d)
x^s g with d = gcd(c, lc_g), so no Fraction is formed per step, and the
key of a shifted term is the sum of two known keys, since every TermOrder
key is linear in the exponent vector.  Fractions appear only in public
results: the monic reduced bases, and the exact normal forms of reduce,
whose integer remainder is divided once by the product of its multipliers.

buchberger() returns the unique reduced Groebner basis: monic, fully
auto-reduced, sorted by increasing leading monomial.  It runs the generic
engine on every input, pure differences too, and fully reduces each new
element: reduced tails keep later S-polynomials short.  The binomial
engine buchberger_binomials, which `toric` calls, takes pure differences
x^u - x^v alone (their S-polynomials and reductions stay pure
differences, so no coefficient bookkeeping is needed).  One S-pair
routine serves both engines.  It sees leading monomials only: pairs are
pruned by the Gebauer-Moeller update (Gebauer and Moeller, On an
installation of Buchberger's algorithm, JSC 6, 1988) and selected smallest
first, ties by index pair.  The generic engine ranks pairs by their lcm
under the order, the normal strategy; the binomial engine by the degree of
their lcm.  On homogeneous input that is the sugar strategy (Giovini et
al., "One sugar cube, please", ISSAC 1991): under grevlex it only reorders
pairs of one degree, and under lex it keeps lcms of high degree but small
under lex from coming first, which made lex toric bases of 7-8 columns
exceed thousands of S-pairs.  The update works on the support of each
lead: lcm degrees come from the shared support, the M, F and chain
criteria test divisibility on the support masks and the exponents above
one, and only the normal strategy forms a full-width lcm, once per opened
pair, to key it.  A budget bounds the number of S-pairs treated and fails
loudly rather than truncating.
eliminate_to_triangular converts a Groebner basis of a zero-dimensional
ideal under any order to the reduced lex basis, by FGLM on the integer
rows the pseudo-division gives.

The binomial engine computes each term-order key and each support mask
once.  An input is keyed once per side to orient, deduplicate and sort it;
a new element is keyed once per side to orient it, and its lead key is
kept for the final sort.  Each element keeps its lead and tail as sparse
(variable, exponent) lists with their support masks.  The S-binomial of
elements i and j is built from those: its i side x^(lcm - l_i) t_i raises
the tail t_i by l_j - l_i on the support of l_j, where l_j exceeds l_i,
and its mask is the tail mask of i plus those variables.  So no
full-width lcm, quotient or product is formed per pair, and the sides,
like the final tails, are rewritten to normal form from known masks.

Saturated tails.  The binomial engine may be told a set S of variables
that are nonzerodivisors modulo the ideal I of its inputs, when I is
homogeneous and the order is degree-compatible (grevlex).  It then never
opens the pair of x^a - x^b and x^c - x^d when the tails x^b and x^d share
a variable x_j of S (Hemmecke and Malkin, JSC 44, 2009, use this for
lattice ideals, which are saturated by every variable).  Both terms of
the S-binomial x^(L-a) x^b - x^(L-c) x^d, L = lcm(x^a, x^c), are divisible
by x_j, so it is x_j h with h in I (x_j is a nonzerodivisor) and of degree
deg L - 1.  By induction on the degree the final basis G is a Groebner
basis: if every element of I of degree below D reduces to zero modulo G,
so does h, and then x_j h has a standard representation with every term
below L.  A skipped pair thus behaves as one that reduced to zero, and
the other criteria, whose arguments only use pairs of lower or equal
degree, stay exact; so a skipped pair still dominates in the M and F
criteria.  The induction needs the pairs in non-decreasing degree: the
engine takes them by lcm degree, and on homogeneous input a new element
has the degree of its pair.  An inhomogeneous input breaks this (a pair
can give an element of lower degree), so buchberger_binomials refuses a
nonzero S then, and under any order but grevlex, the one order `toric`
masks and the tests check.
"""

import heapq
import math
from fractions import Fraction
from itertools import compress
from operator import add as _add, le as _le, sub as _sub

from .linalg import common_denominator
from .orders import TermOrder

DEFAULT_SPAIR_BUDGET = 10 ** 6


class BudgetExceeded(RuntimeError):
    """The S-pair budget ran out before the basis was finished."""


class NotTriangular(ArithmeticError):
    """No triangular lex basis to read: the ideal is not zero-dimensional,
    or the lex basis of the exact MLE's core is not in shape position."""


def monomial_of(nvars, indices):
    """Exponent vector over nvars variables of the product of the listed
    variables: one listed k times gets exponent k."""
    mono = [0] * nvars
    for i in indices:
        mono[i] += 1
    return tuple(mono)


def monomial_lcm(a, b):
    return tuple(map(max, a, b))


def monomial_divides(a, b):
    """True iff x^a divides x^b."""
    return all(map(_le, a, b))


def monomial_div(a, b):
    """Exponent vector of x^a / x^b (caller guarantees divisibility)."""
    return tuple(map(_sub, a, b))


def monomial_value(point, m, start=1):
    """start * x^m at the point, multiplied left to right.

    Factors with m_i = 0 are skipped, so 0^0 = 1.  Exact values give an
    exact result, and a float result equals start * x_0 ** m_0 *
    x_1 ** m_1 * ... written out, bit for bit.
    """
    return math.prod((x ** e for x, e in zip(point, m) if e), start=start)


def monomial_text(m, names):
    """x^m as text, e.g. "x1^2*x3"; "1" for the empty monomial."""
    return "*".join(f"{names[i]}^{e}" if e > 1 else names[i]
                    for i, e in enumerate(m) if e) or "1"


class Polynomial:
    """Immutable sparse polynomial: a map from exponent tuples to Fractions."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        combined = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValueError("monomial arity mismatch")
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            prev = combined.get(mono)
            c = coeff if prev is None else prev + coeff
            if c:
                combined[mono] = c
            elif prev is not None:
                del combined[mono]
        self.nvars = nvars
        self.terms = tuple(sorted(combined.items()))

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, [((0,) * nvars, c)])

    @classmethod
    def variable(cls, nvars, i, exponent=1):
        return cls(nvars, [(monomial_of(nvars, [i] * exponent), 1)])

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.terms))

    def __add__(self, other):
        other = self._coerce(other)
        return Polynomial(self.nvars, list(self.terms) + list(other.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        return Polynomial(self.nvars,
                          list(self.terms) + [(m, -c) for m, c in other.terms])

    def __neg__(self):
        return Polynomial(self.nvars, [(m, -c) for m, c in self.terms])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial.zero(self.nvars)
            return Polynomial(self.nvars, [(m, c * other) for m, c in self.terms])
        return Polynomial(self.nvars,
                          terms_product(self.terms, self._coerce(other).terms))

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError("mixed ambient rings")
            return other
        return Polynomial.constant(self.nvars, other)

    def leading_term(self, order):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=lambda t: order.key(t[0]))

    def total_degree(self):
        return max((sum(m) for m, _ in self.terms), default=0)

    def variables(self):
        """Indices of variables that actually occur."""
        seen = set()
        for m, _ in self.terms:
            for i, e in enumerate(m):
                if e:
                    seen.add(i)
        return seen

    def evaluate(self, point):
        """Exact evaluation at a vector of Fractions (or floats)."""
        total = 0
        for m, c in self.terms:
            total += monomial_value(point, m, c)
        return total

    def render(self, names, order=None):
        """Human-readable string, terms sorted descending under order."""
        if not self.terms:
            return "0"
        terms = list(self.terms)
        if order is not None:
            terms.sort(key=lambda t: order.key(t[0]), reverse=True)
        else:
            terms.sort(reverse=True)
        parts = []
        for m, c in terms:
            mono = monomial_text(m, names)
            if not any(m):
                word = str(c)
            elif c == 1:
                word = mono
            elif c == -1:
                word = f"-{mono}"
            else:
                word = f"{c}*{mono}"
            parts.append(word)
        out = parts[0]
        for word in parts[1:]:
            if word.startswith("-"):
                out += " - " + word[1:]
            else:
                out += " + " + word
        return out

    def __repr__(self):
        return f"Polynomial({self.nvars}, {list(self.terms)!r})"


def terms_product(p, q):
    """The product of two polynomials given as (monomial, coefficient)
    pairs, as a map from monomial to its nonzero coefficient."""
    out = {}
    for m1, c1 in p:
        for m2, c2 in q:
            m = tuple(map(_add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


class Binomial:
    """Pure difference x^u - x^v between two monomials."""

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        self.u = tuple(u)
        self.v = tuple(v)
        if len(self.u) != len(self.v):
            raise ValueError("exponent vectors must share arity")
        if self.u == self.v:
            raise ValueError("binomial sides must differ")

    @classmethod
    def from_difference(cls, w):
        """x^(w+) - x^(w-) for an integer vector w: the inverse of
        exponent_diff."""
        return cls([e if e > 0 else 0 for e in w], [-e if e < 0 else 0 for e in w])

    @property
    def nvars(self):
        return len(self.u)

    def exponent_diff(self):
        return tuple(a - b for a, b in zip(self.u, self.v))

    def strip_common(self):
        """Divide out the common monomial factor (coprime form)."""
        common = tuple(map(min, self.u, self.v))
        if not any(common):
            return self
        return Binomial(monomial_div(self.u, common), monomial_div(self.v, common))

    def is_coprime(self):
        return all(min(a, b) == 0 for a, b in zip(self.u, self.v))

    def sign_free(self):
        """Orientation-independent key, for set comparisons."""
        return (self.u, self.v) if self.u >= self.v else (self.v, self.u)

    def to_polynomial(self):
        return Polynomial(self.nvars, [(self.u, 1), (self.v, -1)])

    def evaluate(self, point):
        return monomial_value(point, self.u) - monomial_value(point, self.v)

    def render(self, names):
        return (f"{monomial_text(self.u, names)} - "
                f"{monomial_text(self.v, names)}")

    def __eq__(self, other):
        return isinstance(other, Binomial) and self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        return f"Binomial({self.u!r}, {self.v!r})"


# --- generic engine: content-free integer polynomials ------------------------
#
# A term is a triple (monomial, negated sort key, integer coefficient); keys
# are negated so that heapq pops the largest monomial first.  An element is
# a tuple (lead, negated lead key, lead support mask, lead coefficient,
# tail terms) with content one and a positive lead coefficient.  Every
# TermOrder key is linear in the exponent vector, so the key of a shifted
# term is the sum of two known keys and no key is recomputed per step.


def _integer_terms(p, order):
    """(terms of p times the lcm of its denominators, that lcm)."""
    den, nums = common_denominator([c for _, c in p.terms])
    return [(m, order.neg_key(m), k) for (m, _), k in zip(p.terms, nums)], den


def _element(lead_term, tail):
    """Element from its lead term and tail terms, divided by its content
    and signed so that the lead coefficient is positive."""
    lead, nlead, lc = lead_term
    g = math.gcd(lc, *(c for _, _, c in tail))
    if lc < 0:
        g = -g
    if g != 1:
        lc //= g
        tail = [(m, k, c // g) for m, k, c in tail]
    return lead, nlead, _support_mask(lead), lc, tail


def _polynomials(F):
    """The nonzero members of F as Polynomials, each Binomial x^u - x^v
    as its two-term Polynomial."""
    polys = (f.to_polynomial() if isinstance(f, Binomial) else f for f in F)
    return [p for p in polys if p]


def _check_arity(nvars, order):
    if nvars != order.nvars:
        raise ValueError(f"arity {nvars} does not match the {order.nvars} "
                         "variables of the term order")


def _prepared(G, order):
    """The nonzero members of G as elements under order, each prepared
    once: scaled to integer coefficients of content one with a positive
    leading coefficient, its lead monomial, lead key, and tail terms with
    their keys computed here.  Scaling a reducer does not change a normal
    form.  Raises ValueError when a member's arity is not the order's."""
    elements = []
    for g in _polynomials(G):
        _check_arity(g.nvars, order)
        terms, _ = _integer_terms(g, order)
        i = min(range(len(terms)), key=lambda t: terms[t][1])
        elements.append(_element(terms[i], terms[:i] + terms[i + 1:]))
    return elements


def _pseudo_reduce(terms, elements):
    """Pseudo-remainder of an integer polynomial modulo prepared elements.

    terms are the polynomial's terms, one per monomial.  Its largest term
    c x^m whose monomial is divisible by a lead (elements are tried in list
    order) is cancelled by f <- (lc/d) f - (c/d) x^s g, with d = gcd(c, lc)
    and x^s = x^m / lead(g); all coefficients stay integers.  Returns
    (rest, mult): the terms of the remainder, largest first, none of them
    divisible by a lead, and the product mult > 0 of the multipliers lc/d,
    so that rest / mult is the normal form that division over the
    rationals gives.
    """
    coeffs = {m: c for m, _, c in terms}
    heap = [(nk, m) for m, nk, _ in terms]
    heapq.heapify(heap)
    rest = []  # (monomial, negated key, coefficient, mult when emitted)
    mult = 1
    while heap:
        nk, m = heapq.heappop(heap)
        c = coeffs.pop(m, 0)
        if not c:
            continue
        mmask = _support_mask(m)
        for lead, nlead, mask, lc, tail in elements:
            if not mask & ~mmask and all(map(_le, lead, m)):
                break
        else:
            rest.append((m, nk, c, mult))
            continue
        d = math.gcd(c, lc)
        if d != lc:
            a = lc // d
            mult *= a
            for k in coeffs:
                coeffs[k] *= a
        b = c // d
        shift = tuple(map(_sub, m, lead))
        nshift = tuple(map(_sub, nk, nlead))
        for tm, tnk, tc in tail:
            m2 = tuple(map(_add, tm, shift))
            prev = coeffs.get(m2)
            if prev is None:
                coeffs[m2] = -b * tc
                heapq.heappush(heap, (tuple(map(_add, tnk, nshift)), m2))
            else:
                nc = prev - b * tc
                if nc:
                    coeffs[m2] = nc
                else:
                    del coeffs[m2]
    return [(m, nk, c * (mult // at)) for m, nk, c, at in rest], mult


def reduce(f, G, order):
    """Full normal form of f modulo the polynomial list G.

    No term of the result is divisible by any leading monomial of G, and
    f minus the result lies in the ideal generated by G.  Reducers are
    tried in list order, so the result is deterministic.  The reduction
    runs on integers; the remainder is divided once by the product of its
    multipliers, so the result is the exact normal form with Fraction
    coefficients.  Raises ValueError when the arity of f or of a member of
    G is not the order's.
    """
    _check_arity(f.nvars, order)
    elements = _prepared(G, order)
    polys = _polynomials([f])
    if not polys:
        return f  # the zero polynomial
    terms, den = _integer_terms(polys[0], order)
    rest, mult = _pseudo_reduce(terms, elements)
    scale = den * mult
    return Polynomial(f.nvars, [(m, Fraction(c, scale)) for m, _, c in rest])


def buchberger(F, order, budget=None):
    """The unique reduced Groebner basis of <F> under the given order.

    Each input and each S-polynomial, pure differences too, is fully
    pseudo-reduced against the live elements and, when nonzero, kept with
    integer coefficients of content one; the S-pair routine retires the
    elements whose leads a newer lead divides.  Raises BudgetExceeded when
    more than `budget` S-pairs would have to be treated (never returns a
    wrong partial answer), and ValueError when an input's arity is not
    the order's.
    """
    if budget is None:
        budget = DEFAULT_SPAIR_BUDGET
    polys = _polynomials(F)
    for p in polys:
        _check_arity(p.nvars, order)
    if not polys:
        return []
    elements = []
    leads = []
    masks = []
    alive = []

    def add(terms):
        live = [e for e, a in zip(elements, alive) if a]
        rest, _ = _pseudo_reduce(terms, live)
        if not rest:
            return -1
        e = _element(rest[0], rest[1:])
        elements.append(e)
        leads.append(e[0])
        masks.append(e[2])
        alive.append(True)
        return len(elements) - 1

    def s_pair(i, j):
        # (lc_j / d) x^a f_i - (lc_i / d) x^b f_j: the leads cancel
        lcm = monomial_lcm(leads[i], leads[j])
        nlcm = order.neg_key(lcm)
        d = math.gcd(elements[i][3], elements[j][3])
        coeffs = {}
        keys = {}
        for (lead, nlead, _, _, tail), a in ((elements[i], elements[j][3] // d),
                                             (elements[j], -elements[i][3] // d)):
            shift = tuple(map(_sub, lcm, lead))
            nshift = tuple(map(_sub, nlcm, nlead))
            for tm, tnk, tc in tail:
                m = tuple(map(_add, tm, shift))
                if m in coeffs:
                    coeffs[m] += a * tc
                else:
                    coeffs[m] = a * tc
                    keys[m] = tuple(map(_add, tnk, nshift))
        return [(m, keys[m], c) for m, c in coeffs.items() if c]

    inputs = [_integer_terms(p, order)[0] for p in polys]
    _s_pair_loop(inputs, add, s_pair, leads, masks, alive, order.key, budget)
    # the live leads are an antichain: add reduces each new element
    # against them, and the update retires those its lead divides
    return _interreduce([e for e, a in zip(elements, alive) if a])


def _interreduce(elements):
    """Auto-reduce the prepared elements of a minimal Groebner basis (no
    lead divides another): monic Polynomials, sorted by increasing leading
    monomial."""
    reduced = []
    for i, (lead, nlead, _, lc, tail) in enumerate(elements):
        rest, _ = _pseudo_reduce([(lead, nlead, lc)] + tail,
                                 elements[:i] + elements[i + 1:])
        lc = rest[0][2]
        reduced.append((nlead, Polynomial(
            len(lead), [(m, Fraction(c, lc)) for m, _, c in rest])))
    reduced.sort(key=lambda e: e[0], reverse=True)
    return [p for _, p in reduced]


# --- binomial engine and the shared S-pair loop ----------------------------


def _support_mask(m):
    mask = 0
    for i, e in enumerate(m):
        if e:
            mask |= 1 << i
    return mask


def _s_pair_loop(inputs, add, s_pair, leads, masks, alive, key, budget,
                 saturated=0, tail_masks=None):
    """Buchberger's S-pair loop, run on leading monomials alone.

    add(item) reduces an input, or the S-polynomial s_pair(i, j) of
    elements i and j, against the live elements.  A nonzero remainder is
    appended to the engine's basis and to leads, masks (support bitmasks)
    and alive, and add returns its index; otherwise add returns -1.  Each
    new element runs the Gebauer-Moeller update: it opens the pairs with
    the live elements that the M, F, product and saturated-tail criteria
    keep, closes the open pairs the chain criterion covers, and retires
    (alive[g] = False) the elements whose lead its lead divides.  A
    retired element stops reducing, but its open pairs stay.  Open pairs
    are treated smallest first, ties by index pair: by the lcm under key,
    the normal strategy, or, when key is None, by the degree of the lcm.
    Raises BudgetExceeded once more than `budget` pairs would be treated.

    The update reads the support of each lead, not its full exponent
    vector: per element it keeps the lead's degree and its exponents above
    one, since on a shared support an exponent of one decides nothing.  For
    a new lead h and a live lead g:
    - deg lcm(h, g) = deg h + deg g - sum of min(h_v, g_v) over the shared
      support.  That sum is the size of the shared support plus
      min(h_v, g_v) - 1 wherever both exponents exceed one.
    - Candidates are taken by (deg lcm(h, g), g).  This is the order of
      (deg, lcm, g): two lcms of one degree divide one another only when
      they are equal, and then both orders fall back to g.  So every
      divisor comes before what it dominates, and one pass against the
      kept candidates applies the M and F criteria.
    - lcm(h, p) divides lcm(h, g) iff p does, that is iff g_v >= p_v
      wherever p_v > h_v.  So a kept candidate p is stored as this excess
      of p over h: a bitmask, and the entries above one that the mask
      alone does not settle.
    - The chain criterion closes (i, j) when h divides lcm(i, j) and
      differs from lcm(i, h) and lcm(j, h); since these divide lcm(i, j),
      they differ iff their degrees do.  h divides lcm(i, j) iff its
      support lies in the pair's mask and each exponent of h above one is
      reached by lead i or lead j.
    An open pair is kept as the support mask and degree of its lcm; only
    the normal strategy forms the lcm, once, to key it.

    saturated is a bitmask of variables that are nonzerodivisors modulo
    the ideal; with it, tail_masks[i] is the support mask of the tail of
    binomial element i, and a pair whose two tails share a saturated
    variable is never opened (it still dominates in the M and F criteria,
    as a coprime pair does).  buchberger_binomials checks what makes this
    exact (module docstring): homogeneous inputs under grevlex.
    """
    pairs = {}  # open (i, j), i < j -> (support mask, degree) of the lcm
    heap = []
    degs = []  # per element: the degree of its lead
    highs = []  # per element: the (variable, exponent) of its lead above one
    shared = []  # per element: the saturated variables of its tail

    def update(new):
        mh = leads[new]
        mask_h = masks[new]
        high_h = [(v, e) for v, e in enumerate(mh) if e > 1]
        deg_h = sum(mh)
        degs.append(deg_h)
        highs.append(high_h)
        tail_h = tail_masks[new] & saturated if saturated else 0
        shared.append(tail_h)

        def lcm_degree(g):
            d = deg_h + degs[g] - (mask_h & masks[g]).bit_count()
            if high_h and highs[g]:
                lg = leads[g]
                for v, e in high_h:
                    if lg[v] > 1:
                        d -= min(e, lg[v]) - 1
            return d

        cands = []
        retired = []
        for g in compress(range(new), alive):
            cands.append((lcm_degree(g), g))
            if not mask_h & ~masks[g]:
                lg = leads[g]
                if all(lg[v] >= e for v, e in high_h):
                    retired.append(g)
        cands.sort()
        kept = []  # excess over h of each kept lead: (mask, entries above 1)
        for d, g in cands:
            lg = leads[g]
            mask_g = masks[g]
            for ex_mask, ex_high in kept:
                if not ex_mask & ~mask_g and (
                        not ex_high or all(lg[v] >= e for v, e in ex_high)):
                    break  # dominated: the M or F criterion
            else:
                ex_high = [(v, e) for v, e in highs[g] if e > mh[v]]
                ex_mask = mask_g & ~mask_h
                for v, _ in ex_high:
                    ex_mask |= 1 << v
                kept.append((ex_mask, ex_high))
                if not mask_h & mask_g or tail_h & shared[g]:
                    continue  # coprime, or tails share a saturated variable
                pairs[(g, new)] = (mask_h | mask_g, d)
                heapq.heappush(heap, (
                    d if key is None else key(tuple(map(max, mh, lg))),
                    g, new))
        # close old pairs whose lcm the new lead divides (chain criterion)
        stale = []
        for pair, (mask_ij, d_ij) in pairs.items():
            i, j = pair
            if j == new or mask_h & ~mask_ij:
                continue
            if high_h:
                li, lj = leads[i], leads[j]
                if not all(li[v] >= e or lj[v] >= e for v, e in high_h):
                    continue
            if lcm_degree(i) != d_ij and lcm_degree(j) != d_ij:
                stale.append(pair)
        for pair in stale:
            del pairs[pair]
        for g in retired:
            alive[g] = False

    for item in inputs:
        new = add(item)
        if new >= 0:
            update(new)
    treated = 0
    while pairs:
        _, i, j = heapq.heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue
        treated += 1
        if treated > budget:
            raise BudgetExceeded(f"S-pair budget of {budget} exceeded")
        new = add(s_pair(i, j))
        if new >= 0:
            update(new)


class BinomialRewriter:
    """Rewriting system x^lead -> x^tail on monomials.

    BinomialRewriter(basis) loads a finished reduced basis, each x^u - x^v
    as u -> v; normal_form(m) is then the standard monomial of the fiber of
    m.  The binomial engine starts from an empty one and adds elements.
    Leads are bucketed on their smallest support variable, with a bitmask
    prefilter; a monomial visits the buckets of its own support variables
    in increasing order, so the first live lead that divides it is the
    reducer.  Each element also keeps its lead and tail as sparse lists of
    (variable, exponent), and the support masks of both: a rewriting step changes the monomial and its support mask on
    those variables only, rather than rebuilding every entry and
    recomputing the mask.  A monomial whose mask is already known (an
    S-binomial side, a tail) is rewritten from that mask, with no pass over
    its entries.  The leads, masks and alive arrays are the ones the
    S-pair routine reads and writes: a retired element (its lead divisible
    by a newer lead) keeps its open S-pairs but stops reducing.
    """

    __slots__ = ("leads", "tails", "masks", "tail_masks", "alive", "buckets",
                 "firsts", "lead_terms", "tail_terms")

    def __init__(self, binomials=()):
        self.leads = []
        self.tails = []
        self.masks = []
        self.tail_masks = []
        self.alive = []
        self.buckets = {}
        self.firsts = 0
        self.lead_terms = []
        self.tail_terms = []
        for b in binomials:
            self.add(b.u, b.v)

    def add(self, lead, tail):
        idx = len(self.leads)
        lead_terms = [(v, e) for v, e in enumerate(lead) if e]
        tail_terms = [(v, e) for v, e in enumerate(tail) if e]
        self.leads.append(lead)
        self.tails.append(tail)
        self.masks.append(_support_mask(lead))
        self.tail_masks.append(_support_mask(tail))
        self.alive.append(True)
        self.lead_terms.append(lead_terms)
        self.tail_terms.append(tail_terms)
        first = 1 << lead_terms[0][0]
        self.firsts |= first
        self.buckets.setdefault(first, []).append(idx)
        return idx

    def find_reducer(self, m, mmask):
        leads = self.leads
        masks = self.masks
        alive = self.alive
        buckets = self.buckets
        live = mmask & self.firsts
        while live:
            low = live & -live
            live ^= low
            for idx in buckets[low]:
                if alive[idx] and not masks[idx] & ~mmask \
                        and all(map(_le, leads[idx], m)):
                    return idx
        return -1

    def normal_form(self, m):
        return self._normal_form(list(m), _support_mask(m))

    def _normal_form(self, m, mask):
        """The normal form, as a tuple, of the monomial in the list m
        (rewritten in place), whose support mask is mask."""
        hit = self.find_reducer(m, mask)
        while hit >= 0:
            for v, e in self.lead_terms[hit]:
                x = m[v] - e
                m[v] = x
                if not x:
                    mask ^= 1 << v
            for v, e in self.tail_terms[hit]:
                m[v] += e
                mask |= 1 << v
            hit = self.find_reducer(m, mask)
        return tuple(m)


def buchberger_binomials(inputs, order, budget=None, saturated=0,
                         strip_common=False):
    """Reduced Groebner basis of an ideal generated by pure differences.

    Input and output are Binomial values; the output is the reduced basis
    under the given order: each element lead first with its tail in normal
    form, sorted by increasing leading monomial.  Each monomial is keyed
    under the order once: an input side to orient, deduplicate and sort
    the inputs, a new element's two sides to orient it, and its lead key
    is kept for the final sort.  S-pairs run through the shared routine on
    a BinomialRewriter's own arrays, smallest lcm degree first, ties by
    index pair, so no pair is keyed.  The S-binomial of elements i and j
    is built from the sparse leads: its i side x^(lcm - l_i) t_i is the
    tail t_i raised by l_j - l_i where l_j exceeds l_i, and its support
    mask is the tail mask of i plus those variables, so both sides are
    rewritten from known masks.  `saturated` is a bitmask of variables
    that are nonzerodivisors modulo the ideal of the inputs; the S-pairs
    whose tails share one of them are skipped.  That is exact only for
    homogeneous inputs under grevlex (module docstring), so a nonzero mask
    with any other input or order raises ValueError; the default 0 skips
    nothing.  With `strip_common`, each new element has the common
    monomial factor of its two sides divided out right after they are
    rewritten to normal form, so the run returns the reduced
    basis of an ideal between <inputs> and <inputs> : (x_1 ... x_n)^inf
    rather than of <inputs> itself: a new element x^c (x^a - x^b) reduces
    to zero through x^a - x^b, so every S-pair still has a standard
    representation.  Raises ValueError when an input's arity is not the
    order's.
    """
    if budget is None:
        budget = DEFAULT_SPAIR_BUDGET
    if saturated and order.kind != "grevlex":
        raise ValueError("a saturated-tail mask needs the grevlex order, "
                         f"not {order.kind}")
    key = order.key
    start = set()  # (lead key, tail, lead) of each oriented input
    for b in inputs:
        u, v = b.u, b.v
        _check_arity(len(u), order)
        if saturated and sum(u) != sum(v):
            raise ValueError("a saturated-tail mask needs homogeneous "
                             "inputs")
        ku, kv = key(u), key(v)
        start.add((ku, v, u) if ku > kv else (kv, u, v))
    if not start:
        return []
    items = [((list(u), _support_mask(u)), (list(v), _support_mask(v)))
             for _, v, u in sorted(start)]

    system = BinomialRewriter()
    leads = system.leads
    tails = system.tails
    tail_masks = system.tail_masks
    lead_terms = system.lead_terms
    lead_keys = []
    normal_form = system._normal_form

    def add(item):
        (m, mask_m), (n, mask_n) = item
        a = normal_form(m, mask_m)
        b = normal_form(n, mask_n)
        if a == b:
            return -1
        if strip_common:
            common = tuple(map(min, a, b))
            if any(common):
                a = tuple(map(_sub, a, common))
                b = tuple(map(_sub, b, common))
        ka, kb = key(a), key(b)
        if ka < kb:
            a, b, ka = b, a, kb
        lead_keys.append(ka)
        return system.add(a, b)

    def side(i, j):
        # x^(lcm(l_i, l_j) - l_i) t_i, with its support mask
        li = leads[i]
        m = list(tails[i])
        mask = tail_masks[i]
        for v, e in lead_terms[j]:
            x = e - li[v]
            if x > 0:
                m[v] += x
                mask |= 1 << v
        return m, mask

    def s_pair(i, j):
        return side(i, j), side(j, i)

    _s_pair_loop(items, add, s_pair, leads, system.masks, system.alive,
                 None, budget, saturated, tail_masks)
    kept = sorted(compress(range(len(leads)), system.alive),
                  key=lead_keys.__getitem__)
    return [Binomial(leads[i], normal_form(list(tails[i]), tail_masks[i]))
            for i in kept]


def eliminate_to_triangular(G, order):
    """The reduced lex basis, sorted by increasing lead, of the
    zero-dimensional ideal of G, a Groebner basis under `order`, by
    fraction-free FGLM (Faugere, Gianni, Lazard and Mora, JSC 16, 1993).

    Walks the monomials m of the ring in increasing lex order.  Each m gives
    one integer row, straight from the pseudo-division of m against G
    (prepared once): coordinates (0, s) hold the integer remainder, and
    the tag (1, m) holds the product of the multipliers.  So the row is
    that product times the normal form of m beside m itself, and no
    Fraction is formed per monomial.  The row is reduced against the
    echelon as in `reduced_echelon` (p * row - f * pivot row, over its
    content).  If its normal-form part vanishes, the tag part over its
    coefficient of m is the basis element with lead m; else the row joins
    the echelon on any normal-form pivot (the reduced basis is unique).
    Under lex this is the auto-reduction of G.  The result is triangular:
    a power of each variable is a lead, so it starts with a univariate in
    the last variable, and each later element brings in at most one new
    variable, the largest of its lead.  Raises NotTriangular unless the
    quotient is finite.
    """
    nvars = order.nvars
    lex_order = TermOrder.lex(nvars)
    elements = _prepared(G, order)
    for v in range(nvars):
        if not any(all(e == 0 or i == v for i, e in enumerate(lm)) and lm[v]
                   for lm, *_ in elements):
            raise NotTriangular(
                "not triangular: the ideal is not zero-dimensional")

    def augmented_row(mono):
        rest, mult = _pseudo_reduce([(mono, order.neg_key(mono), 1)], elements)
        row = {(0, m): c for m, _, c in rest}
        row[1, mono] = mult
        return row

    one = (0,) * nvars
    heap = [(lex_order.key(one), one)]
    seen = {one}
    emitted = []        # (lead monomial, polynomial)
    echelon = []        # (pivot coordinate, row)
    while heap:
        _, mono = heapq.heappop(heap)
        if any(monomial_divides(lead, mono) for lead, _ in emitted):
            continue
        row = augmented_row(mono)
        for pivot, prow in echelon:
            f = row.get(pivot)
            if not f:
                continue
            p = prow[pivot]
            row = {k: p * c for k, c in row.items()}
            for k, c in prow.items():
                nc = row.get(k, 0) - f * c
                if nc:
                    row[k] = nc
                else:
                    del row[k]
            g = math.gcd(*row.values())
            if g > 1:
                row = {k: c // g for k, c in row.items()}
        pivot = next((k for k in row if not k[0]), None)
        if pivot is None:
            lc = row[1, mono]
            emitted.append((mono, Polynomial(
                nvars, [(m, Fraction(c, lc)) for (_, m), c in row.items()])))
            continue
        echelon.append((pivot, row))
        for v in range(nvars):
            child = tuple(e + 1 if i == v else e for i, e in enumerate(mono))
            if child not in seen:
                seen.add(child)
                heapq.heappush(heap, (lex_order.key(child), child))
    return [p for _, p in emitted]


def ideal_equal(F, G, order, budget=None):
    """True iff the two generating sets span the same ideal: reduced
    Groebner bases are unique, so the ideals are equal iff theirs are."""
    return buchberger(F, order, budget) == buchberger(G, order, budget)
