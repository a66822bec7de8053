"""Shared fixtures: standard graphs, printed matrices and binomial sets, the
rational linear algebra the integer kernels are checked against, the
rational polynomial arithmetic the integer Buchberger engine is checked
against, the fiber-connectivity oracle that toric bases are checked
against, and the benchmark's workload module."""

import importlib.util
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path

from toricgm.graphs import binary_graph, build_graph_matrix
from toricgm.models import ModelMatrix
from toricgm.polynomials import (Binomial, Polynomial, monomial_divides,
                                 monomial_of)

BIN3 = ["".join(map(str, s)) for s in product((0, 1), repeat=3)]
BIN4 = ["".join(map(str, s)) for s in product((0, 1), repeat=4)]
IDX4 = {s: i for i, s in enumerate(BIN4)}
IDX3 = {s: i for i, s in enumerate(BIN3)}


def perfbench_workloads():
    """`perfbench/workloads.py`, loaded by path (it is not a package)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_model(rng, d, m):
    """Random d x m nonnegative matrix adjusted to equal column sums (the
    oracle-equivalence models of acceptance criterion 9)."""
    rows = [[rng.randint(0, 3) for _ in range(m)] for _ in range(d)]
    sums = [sum(rows[i][j] for i in range(d)) for j in range(m)]
    target = max(sums) if max(sums) > 0 else 1
    for j in range(m):
        rows[rng.randrange(d)][j] += target - sums[j]
    return ModelMatrix(rows)


def three_chain():
    return binary_graph(["X1", "X2", "X3"], [("X1", "X2"), ("X2", "X3")])


def four_chain():
    return binary_graph(["X1", "X2", "X3", "X4"],
                        [("X1", "X2"), ("X2", "X3"), ("X3", "X4")])


def four_cycle():
    return binary_graph(["X1", "X2", "X3", "X4"],
                        [("X1", "X2"), ("X2", "X3"), ("X3", "X4"), ("X1", "X4")])


def five_cycle():
    return binary_graph(["X1", "X2", "X3", "X4", "X5"],
                        [("X1", "X2"), ("X2", "X3"), ("X3", "X4"),
                         ("X4", "X5"), ("X1", "X5")])


def octahedron():
    names = [f"X{i}" for i in range(1, 7)]
    edges = [(f"X{i}", f"X{j}") for i in range(1, 7) for j in range(i + 1, 7)
             if j - i != 3]
    return binary_graph(names, edges)


def binomial4(us, vs):
    """Quartic-ring binomial from lists of four-bit state strings."""
    u = [0] * 16
    v = [0] * 16
    for s in us:
        u[IDX4[s]] += 1
    for s in vs:
        v[IDX4[s]] += 1
    return Binomial(tuple(u), tuple(v))


def binomial3(us, vs):
    u = [0] * 8
    v = [0] * 8
    for s in us:
        u[IDX3[s]] += 1
    for s in vs:
        v[IDX3[s]] += 1
    return Binomial(tuple(u), tuple(v))


# The two conditional-independence binomials of the binary three-chain.
THREE_CHAIN_BINOMIALS = [
    binomial3(("001", "100"), ("000", "101")),
    binomial3(("011", "110"), ("010", "111")),
]

# The eight pairwise-independence binomials of the binary four-cycle.
FOUR_CYCLE_PAIRWISE = [
    binomial4(("1011", "1110"), ("1010", "1111")),
    binomial4(("0111", "1101"), ("0101", "1111")),
    binomial4(("1001", "1100"), ("1000", "1101")),
    binomial4(("0110", "1100"), ("0100", "1110")),
    binomial4(("0011", "1001"), ("0001", "1011")),
    binomial4(("0011", "0110"), ("0010", "0111")),
    binomial4(("0001", "0100"), ("0000", "0101")),
    binomial4(("0010", "1000"), ("0000", "1010")),
]

# The eight quartic cross-product-ratio binomials of the binary four-cycle,
# keyed by the edge whose association they tie across the opposite pair.
FOUR_CYCLE_QUARTICS = {
    "f12diff": binomial4(("0100", "0111", "1001", "1010"),
                         ("0101", "0110", "1000", "1011")),
    "f23diff": binomial4(("0010", "0101", "1011", "1100"),
                         ("0011", "0100", "1010", "1101")),
    "f34diff": binomial4(("0001", "0110", "1010", "1101"),
                         ("0010", "0101", "1001", "1110")),
    "f14diff": binomial4(("0001", "0111", "1010", "1100"),
                         ("0011", "0101", "1000", "1110")),
    "f12same": binomial4(("0000", "0011", "1101", "1110"),
                         ("0001", "0010", "1100", "1111")),
    "f23same": binomial4(("0000", "0111", "1001", "1110"),
                         ("0001", "0110", "1000", "1111")),
    "f34same": binomial4(("0000", "0111", "1011", "1100"),
                         ("0011", "0100", "1000", "1111")),
    "f14same": binomial4(("0000", "0110", "1011", "1101"),
                         ("0010", "0100", "1001", "1111")),
}

FOUR_CYCLE_SIXTEEN = FOUR_CYCLE_PAIRWISE + list(FOUR_CYCLE_QUARTICS.values())

# The twelve pairwise-independence binomials of the binary four-chain.
FOUR_CHAIN_PAIRWISE = [
    binomial4(("0010", "1000"), ("0000", "1010")),
    binomial4(("0001", "1000"), ("0000", "1001")),
    binomial4(("0001", "0100"), ("0000", "0101")),
    binomial4(("0011", "1001"), ("0001", "1011")),
    binomial4(("0011", "1010"), ("0010", "1011")),
    binomial4(("0011", "0110"), ("0010", "0111")),
    binomial4(("0110", "1100"), ("0100", "1110")),
    binomial4(("0101", "1100"), ("0100", "1101")),
    binomial4(("1001", "1100"), ("1000", "1101")),
    binomial4(("0111", "1101"), ("0101", "1111")),
    binomial4(("0111", "1110"), ("0110", "1111")),
    binomial4(("1011", "1110"), ("1010", "1111")),
]

# Support of the uniform eight-atom limit distribution on the four-cycle.
MOUSSOURIS_SUPPORT = ["0000", "0001", "1000", "0011", "1100", "0111", "1110", "1111"]

# The degree-eight witness on the octahedron model (six binary variables).
OCTAHEDRON_U = ["000000", "000101", "010001", "010100",
                "101011", "101110", "111010", "111111"]
OCTAHEDRON_V = ["000001", "000100", "010000", "010101",
                "101010", "101111", "111011", "111110"]

# 12x8 matrix of the no-three-way-interaction model (three binary factors).
NO_THREE_WAY_MATRIX = [
    [1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 1],
    [1, 0, 0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 0, 1],
    [1, 0, 1, 0, 0, 0, 0, 0],
    [0, 1, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 1, 0],
    [0, 0, 0, 0, 0, 1, 0, 1],
]

# 16x16 binary four-cycle matrix, rows grouped by clique in canonical
# (lexicographic) clique order {1,2} < {1,4} < {2,3} < {3,4}, level tuples
# with the last coordinate fastest.
_R = {
    "12": {"00": "1111000000000000", "01": "0000111100000000",
           "10": "0000000011110000", "11": "0000000000001111"},
    "23": {"00": "1100000011000000", "01": "0011000000110000",
           "10": "0000110000001100", "11": "0000001100000011"},
    "34": {"00": "1000100010001000", "01": "0100010001000100",
           "10": "0010001000100010", "11": "0001000100010001"},
    "14": {"00": "1010101000000000", "01": "0101010100000000",
           "10": "0000000010101010", "11": "0000000001010101"},
}
FOUR_CYCLE_MATRIX = [
    [int(c) for c in _R[clique][level]]
    for clique in ("12", "14", "23", "34")
    for level in ("00", "01", "10", "11")
]

FOUR_CYCLE_COUNTS = [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 0, 0, 0, 0]


def four_cycle_matrix():
    return build_graph_matrix(four_cycle())


# --- the saturation order before grevlex-with-x_i-last ------------------------

class CheapestOrder:
    """Key-only term order giving x_i weight zero, ties broken by grevlex
    on the other variables: the order each toric saturation step once ran
    under.  Enough for `buchberger_binomials`, which only reads `key`."""

    def __init__(self, i, nvars):
        self.i = i
        self.nvars = nvars

    def key(self, m):
        deg = sum(m)
        return (deg - m[self.i], deg,
                *(-m[p] for p in reversed(range(self.nvars))))


def canonical(b, order):
    """Coprime form of a binomial with the larger monomial under order first."""
    b = b.strip_common()
    return b if order.key(b.u) >= order.key(b.v) else Binomial(b.v, b.u)


def pure_difference(p):
    """(u, v) if the Polynomial p is a multiple of x^u - x^v, else None."""
    if len(p.terms) != 2:
        return None
    (m1, c1), (m2, c2) = p.terms
    if c1 + c2 != 0:
        return None
    return (m1, m2) if c1 > 0 else (m2, m1)


# --- rational linear algebra oracles -----------------------------------------

def rat_kernel_basis(rows):
    """Basis of the rational kernel {x : M x = 0}, as a list of tuples.

    Gaussian elimination with the first nonzero entry in a row-major scan
    as pivot.  Each free column contributes one basis vector (with a 1 in
    the free coordinate), so the output is deterministic and its span is
    the full kernel.  Returns [] for a trivial kernel.  Raises ValueError
    for an empty row set, whose column count is unknown.
    """
    if not rows:
        raise ValueError("no rows: the column count is unknown")
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0])
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            v[c] = -mat[i][free]
        basis.append(tuple(v))
    return basis


def rank(rows):
    """Rank of a rational matrix given by its rows (0 for no rows)."""
    return len(rows[0]) - len(rat_kernel_basis(rows)) if rows else 0


def mat_vec(rows, x):
    """Matrix times column vector, exact."""
    return tuple(sum(a * b for a, b in zip(row, x)) for row in rows)


# --- rational polynomial oracles ---------------------------------------------

def s_polynomial(f, g, order):
    """The S-polynomial x^a f / lc(f) - x^b g / lc(g), over Fractions."""
    lmf, lcf = f.leading_term(order)
    lmg, lcg = g.leading_term(order)
    lcm = tuple(map(max, lmf, lmg))
    a = tuple(x - y for x, y in zip(lcm, lmf))
    b = tuple(x - y for x, y in zip(lcm, lmg))
    return (f * Polynomial(f.nvars, [(a, 1 / lcf)])
            - g * Polynomial(g.nvars, [(b, 1 / lcg)]))


def fraction_normal_form(f, G, order):
    """Remainder of f on division by G over Fractions: the largest term of
    what is left is cancelled by the first g in G whose lead divides it, or
    moved to the remainder."""
    leads = [g.leading_term(order) for g in G]
    rem = {}
    while f:
        m, c = f.leading_term(order)
        for g, (lm, lc) in zip(G, leads):
            if monomial_divides(lm, m):
                shift = tuple(x - y for x, y in zip(m, lm))
                f = f - g * Polynomial(f.nvars, [(shift, c / lc)])
                break
        else:
            rem[m] = c
            f = f - Polynomial(f.nvars, [(m, c)])
    return Polynomial(f.nvars, rem)


# --- the full-width facial LP ------------------------------------------------

def full_width_phase_one(rows, rhs):
    """Solve rows . x = rhs, x >= 0 for integer rows and an integer rhs >= 0,
    on the full integer tableau [rows | I | rhs] with one artificial column
    per row: the phase-1 simplex that `toricgm.simplex._phase_one` runs with
    its mirrored columns left out.  Returns (D, {column: numerator}) or None
    when infeasible; Bland's rule, fraction-free pivots."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    width = ncols + nrows + 1
    tab = []
    for i in range(nrows):
        row = list(rows[i]) + [0] * nrows + [rhs[i]]
        row[ncols + i] = 1
        tab.append(row)
    basis = [ncols + i for i in range(nrows)]
    obj = [-sum(row[j] for row in tab) for j in range(width)]
    obj[ncols:ncols + nrows] = [0] * nrows
    den = 1
    while True:
        entering = next((j for j in range(ncols + nrows) if obj[j] < 0), -1)
        if entering < 0:
            break
        leaving = -1
        for i in range(nrows):
            a = tab[i][entering]
            if a <= 0:
                continue
            if leaving < 0:
                leaving = i
                continue
            lhs = tab[i][-1] * tab[leaving][entering]
            rhs_best = tab[leaving][-1] * a
            if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leaving]):
                leaving = i
        prow = tab[leaving]
        piv = prow[entering]
        for i in range(nrows):
            if i != leaving:
                f = tab[i][entering]
                tab[i] = [(piv * x - f * y) // den for x, y in zip(tab[i], prow)]
        f = obj[entering]
        obj = [(piv * x - f * y) // den for x, y in zip(obj, prow)]
        den = piv
        basis[leaving] = entering
    if any(tab[i][-1] for i in range(nrows) if basis[i] >= ncols):
        return None
    return den, {basis[i]: tab[i][-1] for i in range(nrows) if basis[i] < ncols}


def full_width_rows(G):
    """The rows [G | -G | -I] of the facial LP G y - s = 1 with y = p - q."""
    n = len(G)
    return [list(g) + [-x for x in g] + [-int(i == r) for i in range(n)]
            for r, g in enumerate(G)]


# --- fiber connectivity -------------------------------------------------------

def fiber_oracle(A, binomials, max_degree):
    """(disconnected, counts) for the moves x^u - x^v of the binomials on
    the fibers {u >= 0 : A u = b} of degree 1 to max_degree, found with no
    Groebner basis.

    The monomials of each degree d are grouped by A u, and a union-find
    joins m with m - u + v wherever u divides m (the reverse move is the
    same edge seen from the other end).  counts[d] is the sum over the
    degree-d fibers of (their components under the moves of degree below
    d) - 1: the number of degree-d elements of every minimal Markov basis
    (Takemura and Aoki, Ann. Inst. Statist. Math. 56, 2004).
    disconnected lists the (degree, A u) of each fiber that the moves of
    every degree leave in more than one component.  A set of moves is a
    Markov basis iff it connects every fiber (Diaconis and Sturmfels, Ann.
    Statist. 26, 1998); this checks the fibers up to max_degree.
    """
    disconnected = []
    counts = {}
    for d in range(1, max_degree + 1):
        monomials = [monomial_of(A.ncols, cells) for cells in
                     combinations_with_replacement(range(A.ncols), d)]
        fibers = {}
        for m in monomials:
            fibers.setdefault(tuple(A.apply(m)), []).append(m)
        parent = {m: m for m in monomials}

        def find(m):
            while parent[m] != m:
                parent[m] = m = parent[parent[m]]
            return m

        def join(moves):
            for b in moves:
                for m in monomials:
                    if monomial_divides(b.u, m):
                        moved = tuple(x - y + z for x, y, z in zip(m, b.u, b.v))
                        parent[find(m)] = find(moved)

        def components(fiber):
            return len({find(m) for m in fiber})

        join(b for b in binomials if sum(b.u) < d)
        counts[d] = sum(components(f) - 1 for f in fibers.values())
        join(b for b in binomials if sum(b.u) == d)
        disconnected += [(d, image) for image, f in fibers.items()
                         if components(f) > 1]
    return disconnected, counts
