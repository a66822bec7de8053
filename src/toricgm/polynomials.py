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

A binomial fast path covers pure differences x^u - x^v (S-polynomials and
reductions of pure differences stay pure differences, so no coefficient
bookkeeping is needed).  buchberger() returns the unique reduced Groebner
basis: monic, fully auto-reduced, sorted by increasing leading monomial.
One S-pair routine serves both engines.  It sees leading monomials only:
pairs are pruned by the Gebauer-Moeller update (Gebauer and Moeller, On an
installation of Buchberger's algorithm, JSC 6, 1988) and selected by the
normal strategy (smallest lcm, ties by index pair).  A budget bounds the
number of S-pairs treated and fails loudly rather than truncating.
"""

import heapq
import math
from fractions import Fraction
from operator import add as _add, le as _le, sub as _sub

from .orders import TermOrder

DEFAULT_SPAIR_BUDGET = 10 ** 6


class BudgetExceeded(RuntimeError):
    """The S-pair budget ran out before the basis was finished."""


class NotTriangular(ValueError):
    """A lex basis that does not triangularize (positive-dimensional tail)."""


def monomial_mul(a, b):
    return tuple(map(_add, a, b))


def monomial_lcm(a, b):
    return tuple(map(max, a, b))


def monomial_divides(a, b):
    """True iff x^a divides x^b."""
    return all(map(_le, a, b))


def monomial_div(a, b):
    """Exponent vector of x^a / x^b (caller guarantees divisibility)."""
    return tuple(map(_sub, a, b))


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
        mono = tuple(exponent if j == i else 0 for j in range(nvars))
        return cls(nvars, [(mono, 1)])

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
        other = self._coerce(other)
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = monomial_mul(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return Polynomial(self.nvars, acc)

    __rmul__ = __mul__

    def __radd__(self, other):
        return self.__add__(other)

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

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
            val = c
            for x, e in zip(point, m):
                if e:
                    val *= x ** e
            total += val
        return total

    def as_pure_difference(self):
        """Return (u, v) if the (scaled) polynomial is x^u - x^v, else None."""
        if len(self.terms) != 2:
            return None
        (m1, c1), (m2, c2) = self.terms
        if c1 + c2 != 0:
            return None
        if c1 > 0:
            return (m1, m2)
        return (m2, m1)

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
            factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                       for i, e in enumerate(m) if e]
            mono = "*".join(factors) if factors else "1"
            if c == 1 and factors:
                word = mono
            elif c == -1 and factors:
                word = f"-{mono}"
            elif factors:
                word = f"{c}*{mono}"
            else:
                word = str(c)
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

    @property
    def nvars(self):
        return len(self.u)

    def exponent_diff(self):
        return tuple(a - b for a, b in zip(self.u, self.v))

    def strip_common(self):
        """Divide out the common monomial factor (coprime form)."""
        common = tuple(min(a, b) for a, b in zip(self.u, self.v))
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
        pu = pv = 1
        for x, e in zip(point, self.u):
            if e:
                pu *= x ** e
        for x, e in zip(point, self.v):
            if e:
                pv *= x ** e
        return pu - pv

    def render(self, names):
        def side(m):
            parts = [f"{names[i]}^{e}" if e > 1 else names[i]
                     for i, e in enumerate(m) if e]
            return "*".join(parts) if parts else "1"

        return f"{side(self.u)} - {side(self.v)}"

    def __eq__(self, other):
        return isinstance(other, Binomial) and self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        return f"Binomial({self.u!r}, {self.v!r})"


def _neg_key(key):
    return tuple(-x for x in key)


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
    den = math.lcm(*(c.denominator for _, c in p.terms))
    return [(m, _neg_key(order.key(m)), c.numerator * (den // c.denominator))
            for m, c in p.terms], den


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


def _prepare(p, order):
    terms, _ = _integer_terms(p, order)
    i = min(range(len(terms)), key=lambda t: terms[t][1])
    return _element(terms[i], terms[:i] + terms[i + 1:])


def _pseudo_reduce(terms, elements, top=False):
    """Pseudo-remainder of an integer polynomial modulo prepared elements.

    terms are the polynomial's terms, one per monomial.  Its largest term
    c x^m whose monomial is divisible by a lead (elements are tried in list
    order) is cancelled by f <- (lc/d) f - (c/d) x^s g, with d = gcd(c, lc)
    and x^s = x^m / lead(g); all coefficients stay integers.  Returns
    (rest, mult): the terms of the remainder, largest first, and the
    product mult > 0 of the multipliers lc/d, so that rest / mult is the
    normal form that division over the rationals gives.  With top=True the
    reduction stops at the first irreducible term, and rest holds that
    term followed by the unreduced tail (in no particular order).
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
            if top:
                for nk2, m2 in heap:
                    c2 = coeffs.pop(m2, 0)
                    if c2:
                        rest.append((m2, nk2, c2, mult))
                break
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


class PreparedBasis:
    """Polynomials prepared once under one order for repeated `reduce`.

    Each nonzero polynomial is scaled to integer coefficients of content
    one with a positive leading coefficient; its lead monomial, lead key,
    and tail terms with their keys are computed here and never again.
    Scaling a reducer does not change a normal form.
    """

    __slots__ = ("order", "elements")

    def __init__(self, G, order):
        self.order = order
        self.elements = []
        for g in G:
            if isinstance(g, Binomial):
                g = g.to_polynomial()
            if not g.is_zero():
                self.elements.append(_prepare(g, order))

    def leads(self):
        return [e[0] for e in self.elements]


def reduce(f, G, order):
    """Full normal form of f modulo the polynomial list G.

    No term of the result is divisible by any leading monomial of G, and
    f minus the result lies in the ideal generated by G.  Reducers are
    tried in list order, so the result is deterministic.  G may be a
    PreparedBasis under the same order.  The reduction runs on integers;
    the remainder is divided once by the product of its multipliers, so
    the result is the exact normal form with Fraction coefficients.
    """
    if not isinstance(G, PreparedBasis):
        G = PreparedBasis(G, order)
    elif G.order != order:
        raise ValueError("prepared basis is for another term order")
    if isinstance(f, Binomial):
        f = f.to_polynomial()
    if f.is_zero():
        return f
    terms, den = _integer_terms(f, order)
    rest, mult = _pseudo_reduce(terms, G.elements)
    scale = den * mult
    return Polynomial(f.nvars, [(m, Fraction(c, scale)) for m, _, c in rest])


def buchberger(F, order, budget=None):
    """The unique reduced Groebner basis of <F> under the given order.

    When every input is a pure difference the computation runs on the
    binomial fast path.  Otherwise each input and each S-polynomial is
    pseudo-reduced at the top against the live elements and, when nonzero,
    kept with integer coefficients of content one; the S-pair routine
    retires the elements whose leads a newer lead divides.  Raises
    BudgetExceeded when more than `budget` S-pairs would have to be
    treated (never returns a wrong partial answer).
    """
    if budget is None:
        budget = DEFAULT_SPAIR_BUDGET
    polys = []
    for f in F:
        if isinstance(f, Binomial):
            f = f.to_polynomial()
        if not f.is_zero():
            polys.append(f)
    if not polys:
        return []
    diffs = [p.as_pure_difference() for p in polys]
    if all(d is not None for d in diffs):
        binomials = buchberger_binomials([Binomial(u, v) for u, v in diffs],
                                         order, budget)
        return [b.to_polynomial() for b in binomials]

    elements = []
    leads = []
    masks = []
    alive = []

    def add(terms):
        live = [e for e, a in zip(elements, alive) if a]
        rest, _ = _pseudo_reduce(terms, live, top=True)
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
        nlcm = _neg_key(order.key(lcm))
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
    return _interreduce([e for e, a in zip(elements, alive) if a])


def _interreduce(elements):
    """Minimalize and auto-reduce prepared elements of a Groebner basis:
    monic Polynomials, sorted by increasing leading monomial."""
    keep = []
    for idx, (lm, *_) in enumerate(elements):
        if not any(jdx != idx and monomial_divides(lm2, lm)
                   and (lm2 != lm or jdx < idx)
                   for jdx, (lm2, *_) in enumerate(elements)):
            keep.append(elements[idx])
    reduced = []
    for i, (lead, nlead, _, lc, tail) in enumerate(keep):
        rest, _ = _pseudo_reduce([(lead, nlead, lc)] + tail,
                                 keep[:i] + keep[i + 1:])
        lc = rest[0][2]
        reduced.append((nlead, Polynomial(
            len(lead), [(m, Fraction(c, lc)) for m, _, c in rest])))
    reduced.sort(key=lambda e: e[0], reverse=True)
    return [p for _, p in reduced]


def reduce_groebner_basis(basis, order):
    """Minimalize and auto-reduce a Groebner basis: monic, sorted ascending."""
    return _interreduce(PreparedBasis(basis, order).elements)


# --- binomial fast path ---------------------------------------------------


def _support_mask(m):
    mask = 0
    for i, e in enumerate(m):
        if e:
            mask |= 1 << i
    return mask


def _s_pair_loop(inputs, add, s_pair, leads, masks, alive, key, budget):
    """Buchberger's S-pair loop, run on leading monomials alone.

    add(item) reduces an input, or the S-polynomial s_pair(i, j) of
    elements i and j, against the live elements.  A nonzero remainder is
    appended to the engine's basis and to leads, masks (support bitmasks)
    and alive, and add returns its index; otherwise add returns -1.  Each
    new element runs the Gebauer-Moeller update: it opens the pairs with
    the live elements that the M, F and product criteria keep, closes the
    open pairs the chain criterion covers, and retires (alive[g] = False)
    the elements whose lead its lead divides.  A retired element stops
    reducing, but its open pairs stay.  Open pairs are treated by the
    normal strategy: smallest lcm under key first, ties by index pair.
    Raises BudgetExceeded once more than `budget` pairs would be treated.
    """
    pairs = {}  # open (i, j), i < j -> (lcm, mask) of the leading monomials
    heap = []

    def update(new):
        mh = leads[new]
        mask_h = masks[new]
        cands = []
        for g in range(new):
            if alive[g]:
                lcm_hg = tuple(map(max, mh, leads[g]))
                cands.append((sum(lcm_hg), lcm_hg, g, not (mask_h & masks[g])))
        # Ascending degree puts every divisor before what it dominates (and
        # keys are injective), so one pass against the kept list implements
        # the M and F criteria.
        cands.sort()
        kept = []
        for _, lcm_hg, g, cop in cands:
            mask_hg = mask_h | masks[g]
            dominated = False
            for lcm_hp, mask_hp in kept:
                if mask_hp & ~mask_hg:
                    continue
                if all(map(_le, lcm_hp, lcm_hg)):
                    dominated = True
                    break
            if dominated:
                continue
            kept.append((lcm_hg, mask_hg))
            if cop:
                continue  # product criterion: never process coprime pairs
            pairs[(g, new)] = (lcm_hg, mask_hg)
            heapq.heappush(heap, (key(lcm_hg), g, new))
        # close old pairs whose lcm the new lead divides (chain criterion)
        stale = []
        for pair, (lcm_ij, mask_ij) in pairs.items():
            i, j = pair
            if j == new or mask_h & ~mask_ij or not all(map(_le, mh, lcm_ij)):
                continue
            if (tuple(map(max, leads[i], mh)) != lcm_ij
                    and tuple(map(max, leads[j], mh)) != lcm_ij):
                stale.append(pair)
        for pair in stale:
            del pairs[pair]
        for g in range(new):
            if alive[g] and not (mask_h & ~masks[g]) \
                    and all(map(_le, mh, leads[g])):
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
    """Mutable rewriting system x^lead -> x^tail with cached normal forms.

    The binomial engine builds its basis in one; a finished basis loaded
    into one gives normal forms of monomials.  Elements are indexed by a
    bucket on the smallest support variable of the lead, with a bitmask
    prefilter, so normal forms stay cheap even on bases with a few hundred
    elements.  The leads, masks and alive arrays are the ones the S-pair
    routine reads and writes: a retired element (alive False; its lead is
    divisible by a newer lead) keeps its open S-pairs but stops reducing.
    Retiring needs no cache flush, because it happens only right after an
    add, which flushes the cache.
    """

    __slots__ = ("leads", "tails", "masks", "keys", "alive", "buckets",
                 "order", "_nf_cache")

    def __init__(self, order):
        self.order = order
        self.leads = []
        self.tails = []
        self.masks = []
        self.keys = []
        self.alive = []
        self.buckets = {}
        self._nf_cache = {}

    def add(self, lead, tail):
        idx = len(self.leads)
        self.leads.append(lead)
        self.tails.append(tail)
        self.masks.append(_support_mask(lead))
        self.keys.append(self.order.key(lead))
        self.alive.append(True)
        first = next(i for i, e in enumerate(lead) if e)
        self.buckets.setdefault(first, []).append(idx)
        self._nf_cache.clear()
        return idx

    def active(self):
        return [i for i, a in enumerate(self.alive) if a]

    def find_reducer(self, m, mmask):
        leads = self.leads
        masks = self.masks
        alive = self.alive
        buckets = self.buckets
        for v, e in enumerate(m):
            if not e:
                continue
            bucket = buckets.get(v)
            if not bucket:
                continue
            for idx in bucket:
                if not alive[idx] or masks[idx] & ~mmask:
                    continue
                if all(map(_le, leads[idx], m)):
                    return idx
        return -1

    def normal_form(self, m):
        cached = self._nf_cache.get(m)
        if cached is not None:
            return cached
        start = m
        while True:
            mmask = _support_mask(m)
            hit = self.find_reducer(m, mmask)
            if hit < 0:
                break
            lead = self.leads[hit]
            tail = self.tails[hit]
            m = tuple(x - a + b for x, a, b in zip(m, lead, tail))
        if len(self._nf_cache) < 1 << 20:
            self._nf_cache[start] = m
        return m


def buchberger_binomials(inputs, order, budget=None):
    """Reduced Groebner basis of an ideal generated by pure differences.

    Input and output are Binomial values; the output is the reduced basis
    under the given order (canonically oriented, tails in normal form,
    sorted by increasing leading monomial).  S-pairs run through the
    shared routine on the rewriter's own arrays.
    """
    if budget is None:
        budget = DEFAULT_SPAIR_BUDGET
    seen = set()
    start = []
    for b in inputs:
        u, v = b.u, b.v
        if order.key(u) < order.key(v):
            u, v = v, u
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        start.append((u, v))
    if not start:
        return []
    start.sort(key=lambda uv: (order.key(uv[0]), uv[1]))

    system = BinomialRewriter(order)
    leads = system.leads
    tails = system.tails

    def add(uv):
        a = system.normal_form(uv[0])
        b = system.normal_form(uv[1])
        if a == b:
            return -1
        if order.key(a) < order.key(b):
            a, b = b, a
        return system.add(a, b)

    def s_pair(i, j):
        li, lj = leads[i], leads[j]
        lcm = monomial_lcm(li, lj)
        return (monomial_mul(monomial_div(lcm, li), tails[i]),
                monomial_mul(monomial_div(lcm, lj), tails[j]))

    _s_pair_loop(start, add, s_pair, leads, system.masks, system.alive,
                 order.key, budget)
    kept = sorted(system.active(), key=lambda i: system.keys[i])
    return [Binomial(leads[i], system.normal_form(tails[i])) for i in kept]


def eliminate_to_triangular(G, priority):
    """Sort a lex Groebner basis into triangular (back-substitution) shape.

    G must be a Groebner basis under lex with the given priority; it is
    auto-reduced here, so the output is the reduced lex basis.  The output
    starts with a polynomial univariate in the lowest-priority
    indeterminate and each later polynomial introduces at most one new
    indeterminate.  Raises NotTriangular when the basis has a
    positive-dimensional tail and no such shape exists.
    """
    polys = []
    for g in G:
        if isinstance(g, Binomial):
            g = g.to_polynomial()
        if not g.is_zero():
            polys.append(g)
    if not polys:
        raise NotTriangular("not triangular: empty basis")
    order = TermOrder.lex(polys[0].nvars, priority)
    polys = reduce_groebner_basis(polys, order)
    seen = set()
    for p in polys:
        new = p.variables() - seen
        if len(new) > 1:
            raise NotTriangular("not triangular: "
                                f"{len(new)} new indeterminates in one polynomial")
        seen |= new
    if len(polys[0].variables()) != 1:
        raise NotTriangular("not triangular: no univariate polynomial")
    return polys


def ideal_equal(F, G, order, budget=None):
    """True iff the two generating sets span the same ideal: reduced
    Groebner bases are unique, so the ideals are equal iff theirs are."""
    return buchberger(F, order, budget) == buchberger(G, order, budget)
