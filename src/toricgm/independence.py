"""Conditional-independence algebra.

Cross-product differences (CPDs) and ratios (CPRs), the pairwise and
global Markov binomial ideals of an undirected graph, the integer-span
certificate behind the Hammersley-Clifford factorization argument, and
the lifted counterexample constructions that transport the four-cycle
phenomena to arbitrary non-chordal graphs.

A CPD for the statement "X independent of Y given Z" picks two joint
levels x < x2 of X, two y < y2 of Y and one z of Z and equates the cross
products of four marginal probabilities,

    p(x,y,z) p(x2,y2,z) - p(x2,y,z) p(x,y2,z).

Each marginal is the sum over one cell of `StateSpace.marginal_cells` on
the names X, Y, Z: the states that agree with that joint level, read from
one cell map per statement.  The four cells are pairwise distinct, so no
CPD is zero, and distinct instances of one statement have distinct cell
pairs, so no two of them agree up to sign; nothing is deduplicated within
a statement.  A saturated statement (X, Y, Z covering all variables) has
cells of exactly one state each, so its CPDs are the binomials
p_a p_b - p_c p_d, built directly from the four state indices.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .graphs import binary_graph, build_graph_matrix, \
    saturated_separations, validate_partition
from .linalg import integer_span_member
from .models import Distribution
from .orders import TermOrder
from .polynomials import Binomial, Polynomial


@dataclass(frozen=True)
class CIStatement:
    """X independent of Y given Z (disjoint variable-name tuples)."""
    X: tuple
    Y: tuple
    Z: tuple

    def __post_init__(self):
        if not self.X or not self.Y:
            raise ValueError("X and Y must be nonempty")
        seen = set()
        for grp in (self.X, self.Y, self.Z):
            for name in grp:
                if name in seen:
                    raise ValueError(f"variable {name!r} repeated across blocks")
                seen.add(name)

    def is_saturated(self, space):
        return set(self.X) | set(self.Y) | set(self.Z) == set(space.names)


@dataclass(frozen=True)
class CpdSpec:
    """One cross-product difference instance of a CI statement."""
    statement: CIStatement
    x: tuple
    x2: tuple
    y: tuple
    y2: tuple
    z: tuple


def _statement_cells(stmt, space):
    return space.marginal_cells((*stmt.X, *stmt.Y, *stmt.Z))


def _spec_cells(cells, spec):
    """The cells (x,y,z), (x2,y2,z), (x2,y,z) and (x,y2,z) of an instance."""
    x, x2, y, y2, z = spec.x, spec.x2, spec.y, spec.y2, spec.z
    return (cells[(*x, *y, *z)], cells[(*x2, *y2, *z)],
            cells[(*x2, *y, *z)], cells[(*x, *y2, *z)])


def _instances_with_cells(stmt, space):
    """(spec, its four cells) per CPD instance, from one cell map: unordered
    level pairs for X and for Y, every z."""
    cells = _statement_cells(stmt, space)
    nx = len(stmt.X)
    nxy = nx + len(stmt.Y)
    xlevels = dict.fromkeys(level[:nx] for level in cells)
    ylevels = dict.fromkeys(level[nx:nxy] for level in cells)
    zlevels = dict.fromkeys(level[nxy:] for level in cells)
    for x, x2 in combinations(xlevels, 2):
        for y, y2 in combinations(ylevels, 2):
            for z in zlevels:
                spec = CpdSpec(stmt, x, x2, y, y2, z)
                yield spec, _spec_cells(cells, spec)


def cpd_instances(stmt, space):
    """All CPD instances: unordered level pairs for X and for Y, every z."""
    return [spec for spec, _ in _instances_with_cells(stmt, space)]


def _cpd_from_cells(m, cells):
    """p(x,y,z) p(x2,y2,z) - p(x2,y,z) p(x,y2,z) in marginal sums over the
    four cells; they are disjoint, so no two terms meet."""
    xy, x2y2, x2y, xy2 = cells
    return Polynomial(m, [(_pair(m, a, b), 1) for a in xy for b in x2y2]
                      + [(_pair(m, c, d), -1) for c in x2y for d in xy2])


def _pair(m, a, b):
    """Exponent vector of the monomial p_a p_b."""
    mono = [0] * m
    mono[a] += 1
    mono[b] += 1
    return tuple(mono)


def cpd_polynomial(spec, space):
    """The quadratic polynomial of one CPD instance."""
    return _cpd_from_cells(
        space.size, _spec_cells(_statement_cells(spec.statement, space), spec))


def cpd_polynomials(stmt, space):
    """The CPD polynomials of a statement, one per instance, in instance
    order; no two agree up to sign and none is zero.

    Saturated statements yield pure-difference quadratic binomials, the
    rest quadratic polynomials in marginal sums.
    """
    return [_cpd_from_cells(space.size, cells)
            for _, cells in _instances_with_cells(stmt, space)]


def saturated_cpd_binomials(stmt, space, order=None):
    """CPD binomials of a saturated statement, canonical, one per instance.

    Every cell of a saturated statement holds a single state a, so the CPD
    is the binomial p_a p_b - p_c p_d.  The four states are distinct, so
    both sides are coprime as built; only the orientation is chosen.
    """
    if not stmt.is_saturated(space):
        raise ValueError("statement is not saturated")
    if order is None:
        order = TermOrder.grevlex(space.size)
    m = space.size
    key = order.key
    out = []
    for _, ((a,), (b,), (c,), (d,)) in _instances_with_cells(stmt, space):
        u, v = _pair(m, a, b), _pair(m, c, d)
        out.append(Binomial(u, v) if key(u) > key(v) else Binomial(v, u))
    return out


def _saturated_binomials(statements, space):
    """Saturated CPD binomials of the statements, in statement order,
    deduplicated by `sign_free`."""
    order = TermOrder.grevlex(space.size)
    seen = set()
    out = []
    for stmt in statements:
        for binom in saturated_cpd_binomials(stmt, space, order):
            key = binom.sign_free()
            if key not in seen:
                seen.add(key)
                out.append(binom)
    return out


def pairwise_ideal(g):
    """Generators from the nonedge statements X_i indep X_j given the rest."""
    names = g.names
    return _saturated_binomials(
        (CIStatement((a,), (b,), tuple(n for n in names if n not in (a, b)))
         for a, b in combinations(names, 2) if not g.has_edge(a, b)),
        g.space())


def global_ideal(g, cap=12):
    """Generators from all saturated separation statements of the graph."""
    return _saturated_binomials(
        (CIStatement(sep.X, sep.Y, sep.Z) for sep in saturated_separations(g, cap)),
        g.space())


def cpr(P, spec, space):
    """Cross-product ratio of a CPD instance; None when the denominator is 0."""
    xy, x2y2, x2y, xy2 = (sum((P[idx] for idx in cell), 0) for cell in
                          _spec_cells(_statement_cells(spec.statement, space), spec))
    num = xy * x2y2
    den = x2y * xy2
    if den == 0:
        return None
    return num / den


def hc_zspan_check(basis, pairwise):
    """True iff every basis exponent vector is an integer combination of the
    pairwise CPD vectors (the strengthened Hammersley-Clifford statement)."""
    lattice = [list(b.exponent_diff()) for b in pairwise]
    for b in basis:
        if not integer_span_member(list(b.exponent_diff()), lattice):
            return False
    return True


def exponential_degree_witness(n, cap=6):
    """Graph of n noninteracting binary pairs plus a degree-2^n witness.

    The graph on 2n binary variables has every edge except {X_i, X_{i+n}}.
    The witness binomial multiplies the states whose odd coordinates agree
    and whose even-coordinate parity matches (left side) or differs (right
    side); it lies in the toric ideal of the graph model and is of degree
    exactly 2^n per side.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise ValueError(f"n={n} exceeds cap {cap}")
    names = [f"X{i}" for i in range(1, 2 * n + 1)]
    edges = [(names[i], names[j]) for i in range(2 * n) for j in range(i + 1, 2 * n)
             if j - i != n]
    g = binary_graph(names, edges)
    space = g.space()
    m = space.size
    u = [0] * m
    v = [0] * m
    for c in (0, 1):
        for evens in product((0, 1), repeat=n):
            state = []
            for k in range(n):
                state.append(c)        # odd position 2k+1
                state.append(evens[k])  # even position 2k+2
            idx = space.state_index(tuple(state))
            if sum(evens) % 2 == c:
                u[idx] += 1
            else:
                v[idx] += 1
    witness = Binomial(tuple(u), tuple(v))
    A = build_graph_matrix(g)
    if A.apply(witness.u) != A.apply(witness.v):
        raise AssertionError("witness violates the kernel condition")
    return g, witness


def _require_binary(g):
    if any(v.levels != 2 for v in g.variables):
        raise ValueError("lifted constructions need binary variables")


def _block_of(part):
    lookup = {}
    for label, block in zip("ABCDE", part.blocks()):
        for name in block:
            lookup[name] = label
    return lookup


def _block_state(g, part, pattern):
    """Full state in which every variable takes its block's pattern value."""
    i, j, k, l, m = pattern
    values = {"A": i, "B": j, "C": k, "D": l, "E": m}
    lookup = _block_of(part)
    return tuple(values[lookup[name]] for name in g.names)


# Block patterns (A, B, C, D, E) of the four supported atoms and of the
# swapped four composing the quartic witness.
_ATOM_PATTERNS = [(0, 1, 0, 0, 1), (0, 1, 1, 1, 1), (1, 0, 0, 1, 1), (1, 0, 1, 0, 1)]
_SWAP_PATTERNS = [(0, 1, 0, 1, 1), (0, 1, 1, 0, 1), (1, 0, 0, 0, 1), (1, 0, 1, 1, 1)]


def lift_ci_counterexample(g, part):
    """Block-constant distribution plus a quartic witness in the toric ideal.

    The distribution puts mass 1/4 on four block-constant states; every
    quadratic binomial of the toric ideal vanishes on it while the quartic
    witness does not, which is what rules out quadratic descriptions of
    non-chordal models.
    """
    _require_binary(g)
    validate_partition(g, part)
    space = g.space()
    m = space.size
    values = [Fraction(0)] * m
    u = [0] * m
    v = [0] * m
    for pattern in _ATOM_PATTERNS:
        idx = space.state_index(_block_state(g, part, pattern))
        values[idx] = Fraction(1, 4)
        u[idx] += 1
    for pattern in _SWAP_PATTERNS:
        v[space.state_index(_block_state(g, part, pattern))] += 1
    witness = Binomial(tuple(u), tuple(v))
    A = build_graph_matrix(g)
    if A.apply(witness.u) != A.apply(witness.v):
        raise AssertionError("lifted witness violates the kernel condition")
    return Distribution(values), witness


def lift_limit_potentials(g, part, n):
    """Pairwise-potential distribution whose n -> infinity limit leaves the
    model's parametrized image.

    Within-block edges of the four cycle blocks get agreement potentials n;
    the four block-crossing directions get n^(xy-y), n^(xy-y), n^(xy) and
    n^(-xy); everything touching E stays 1.  Exact rationals throughout; at
    n = 1 this is the uniform distribution.
    """
    _require_binary(g)
    validate_partition(g, part)
    if n < 1:
        raise ValueError("n must be at least 1")
    n = Fraction(n)
    lookup = _block_of(part)
    space = g.space()
    names = g.names

    def potential(block_a, block_b, x, y):
        if "E" in (block_a, block_b):
            return Fraction(1)
        if block_a == block_b:
            return n if x == y else Fraction(1)
        pair = block_a + block_b
        if pair in ("AB", "BC"):
            return n ** (x * y - y)
        if pair in ("BA", "CB"):
            return n ** (x * y - x)
        if pair in ("CD", "DC"):
            return n ** (x * y)
        if pair in ("AD", "DA"):
            return n ** (-x * y)
        raise AssertionError(f"unexpected block pair {pair}")

    weights = []
    for state in space.states():
        w = Fraction(1)
        for a, b in g.edges:
            ia, ib = space.var_index(a), space.var_index(b)
            w *= potential(lookup[a], lookup[b], state[ia], state[ib])
        weights.append(w)
    total = sum(weights)
    return Distribution([w / total for w in weights])
