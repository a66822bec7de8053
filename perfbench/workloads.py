"""The three benchmark workloads: Markov bases, membership decisions and
exact MLE fits.

A workload is built from a seed (its set-up) and then yields rounds of
operations.  An operation is one request a caller would make: `run`
performs it through the toricgm API and `check` verifies the answer,
raising WrongAnswer on any mismatch.  Every round has the same fixed
composition (the seed only draws the numbers inside it), so a run that
stops at a round boundary sees the same mix of operation kinds on every
seed.

API functions are always looked up as module attributes at call time
(`toric.compute_toric_basis`, not an imported name), so that a traced run
can wrap them; see tracing.py.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from toricgm import factorization, graphs, independence, linalg, mle, models, toric
from toricgm.orders import TermOrder
from toricgm.polynomials import Binomial, BudgetExceeded, NotTriangular

# Exceptions an operation may end with that count as a failed operation.
# Anything else, and any wrong answer, aborts the run.
FAILURES = (NotTriangular, BudgetExceeded, ArithmeticError)


class WrongAnswer(Exception):
    """The program returned a result that a correctness check rejects."""


@dataclass(frozen=True)
class Op:
    kind: str          # label used in reports (e.g. "named", "random", "limit_only")
    args: tuple
    expect: object = None
    reuse_key: object = None   # equal keys: an earlier op's per-input work recurs


def _graph(levels, edges):
    return graphs.UndirectedGraph(
        [models.VariableSpec(name, k) for name, k in levels], edges)


def _space(levels):
    return models.StateSpace([models.VariableSpec(name, k) for name, k in levels])


BINARY4 = (("X1", 2), ("X2", 2), ("X3", 2), ("X4", 2))
CYCLE_EDGES = (("X1", "X2"), ("X2", "X3"), ("X3", "X4"), ("X1", "X4"))
ALL_PAIRS4 = tuple((f"X{i}", f"X{j}") for i in range(1, 5) for j in range(i + 1, 5))


def _build(spec):
    """Model matrix of ("graph", g) or ("loglinear", space, generators)."""
    if spec[0] == "graph":
        return graphs.build_graph_matrix(spec[1])
    return models.build_loglinear_matrix(spec[1], spec[2])


def _permute_rows(A, perm):
    """The same model with its rows in another order: the toric ideal is
    unchanged, but the matrix (and every intermediate lattice basis) is a
    new input."""
    return models.ModelMatrix([A.rows[i] for i in perm],
                              row_labels=[A.row_labels[i] for i in perm],
                              col_labels=A.col_labels)


def _kernel_binomials(A):
    """Lattice generators as binomials, built here rather than by toric's
    own helper so that the check does not reuse the code it checks."""
    out = []
    for w in linalg.integer_kernel_lattice(A.rows):
        out.append(Binomial(tuple(max(x, 0) for x in w),
                            tuple(max(-x, 0) for x in w)))
    return out


def _check_lattice_in_ideal(A, basis):
    for b in _kernel_binomials(A):
        if not toric.binomial_in_ideal(b, basis):
            raise WrongAnswer(f"kernel generator {b} not in the ideal of "
                              f"the computed basis of {A.rows}")


def random_model(rng, d, m):
    """A random d x m model matrix with equal column sums, drawn the same
    way as the acceptance suite's oracle-equivalence models."""
    rows = [[rng.randint(0, 3) for _ in range(m)] for _ in range(d)]
    sums = [sum(rows[i][j] for i in range(d)) for j in range(m)]
    target = max(sums) if max(sums) > 0 else 1
    for j in range(m):
        rows[rng.randrange(d)][j] += target - sums[j]
    return models.ModelMatrix(rows)


# --- markov_bases ------------------------------------------------------------

CYCLE4 = _graph(BINARY4, CYCLE_EDGES)

# (name, model spec, term order, seed with the pairwise ideal, reference
# basis size, operations per round).  Sizes are those of the reduced
# Groebner basis of the toric ideal, which the row order of the matrix does
# not change.
NAMED_MODELS = (
    ("indep_4x4", ("graph", _graph((("X", 4), ("Y", 4)), ())), "grevlex", False, 36, 1),
    ("no3way_2x3x3", ("loglinear", _space((("A", 2), ("B", 3), ("C", 3))),
                      (("A", "B"), ("A", "C"), ("B", "C"))), "grevlex", False, 15, 15),
    ("chain3_3level", ("graph", _graph((("X1", 3), ("X2", 3), ("X3", 3)),
                                       (("X1", "X2"), ("X2", "X3")))),
     "grevlex", False, 27, 1),
    ("cycle4_binary", ("graph", CYCLE4), "grevlex", False, 28, 1),
    ("cycle4_binary_seeded", ("graph", CYCLE4), "grevlex", True, 28, 1),
    ("cycle4_binary_lex", ("graph", CYCLE4), "lex", False, 29, 1),
    ("pairwise_k4_binary", ("loglinear", _space(BINARY4), ALL_PAIRS4),
     "grevlex", False, 61, 1),
    ("cycle4_one_3level", ("graph", _graph((("X1", 3),) + BINARY4[1:], CYCLE_EDGES)),
     "grevlex", False, 117, 1),
)

# Random models: RANDOM_PER_STRATUM per (rows, columns) stratum per round;
# every fourth random operation uses lex instead of grevlex.  Seven and
# eight columns are left out: with three to five rows they include draws
# whose basis takes from a second to minutes (see WORKLOADS.md), while no
# draw with at most six columns took 0.1 s.  The median falls among the
# random models, so they are many (125 per round) for it to move little
# from seed to seed; the 15 no-three-way 2x3x3 operations, slower than
# nearly every random one, then hold the 90th percentile in their middle
# rather than on a boundary between two kinds of operation.
RANDOM_ROWS = range(1, 6)
RANDOM_COLS = range(2, 7)
RANDOM_PER_STRATUM = 5
LEX_EVERY = 4
# Row orders of the named models come from a fixed pool per model, the same
# for every seed, one slice per round: a run (two to four rounds) sees no
# row order twice, and the time of the slowest named model, which varies
# by up to 1.5x with the row order, does not move from seed to seed.
ROW_ORDER_ROUNDS = 8


class MarkovBases:
    """compute_toric_basis on a new model in every operation."""

    def __init__(self, seed):
        self.rng = random.Random(f"markov_bases:{seed}")
        self.row_orders = {}
        for name, spec, *_, copies in NAMED_MODELS:
            n = _build(spec).nrows
            rng = random.Random(f"row_orders:{name}")
            pool = set()
            while len(pool) < copies * ROW_ORDER_ROUNDS:
                pool.add(tuple(rng.sample(range(n), n)))
            self.row_orders[name] = sorted(pool)
        # warm-up: the binary three-chain, whose basis is the printed pair
        A = graphs.build_graph_matrix(
            _graph(BINARY4[:3], (("X1", "X2"), ("X2", "X3"))))
        if len(toric.compute_toric_basis(A)) != 2:
            raise WrongAnswer("three-chain basis is not the printed pair")

    def rounds(self):
        rng = self.rng
        for r in itertools.count():
            ops = []
            slot = r % ROW_ORDER_ROUNDS
            for name, spec, order, seeded, size, copies in NAMED_MODELS:
                for perm in self.row_orders[name][slot * copies:(slot + 1) * copies]:
                    ops.append(Op("named", (name, spec, order, seeded, perm), size))
            k = 0
            for d in RANDOM_ROWS:
                for m in RANDOM_COLS:
                    for _ in range(RANDOM_PER_STRATUM):
                        order = "lex" if k % LEX_EVERY == LEX_EVERY - 1 else "grevlex"
                        ops.append(Op("random", (random_model(rng, d, m), order)))
                        k += 1
            rng.shuffle(ops)
            yield ops

    def run(self, op):
        if op.kind == "named":
            _, spec, order, seeded, perm = op.args
            A = _permute_rows(_build(spec), perm)
            seed = independence.pairwise_ideal(spec[1]) if seeded else None
        else:
            A, order = op.args
            seed = None
        term_order = TermOrder.lex(A.ncols) if order == "lex" else None
        return A, toric.compute_toric_basis(A, order=term_order, seed=seed)

    def check(self, op, result):
        A, basis = result
        if op.kind == "named" and len(basis) != op.expect:
            raise WrongAnswer(f"{op.args[0]}: basis has {len(basis)} elements, "
                              f"expected {op.expect}")
        _check_lattice_in_ideal(A, basis)


# --- classify_stream ---------------------------------------------------------

# Support of the uniform eight-atom (Moussouris) limit point of the binary
# four-cycle; its images under level flips are limit-only supports too.
MOUSSOURIS = ("0000", "0001", "1000", "0011", "1100", "0111", "1110", "1111")
EPSILON = Fraction(1, 1000)
FACE_TRIES = 30

# (name, model spec, seed the basis with the pairwise ideal, where limit-only
# supports come from: level flips of the Moussouris support or sampling,
# limit-only points per round).  Each model also gets two factoring and two
# outside points per round.  The slowest kind, limit-only points of the K4
# model, is 4 of 26 operations, so the 90th latency percentile falls inside
# it rather than on the boundary below it.
CLASSIFY_MODELS = (
    ("cycle4_binary", ("graph", CYCLE4), True, "moussouris", 2),
    ("no3way_2x2x2", ("loglinear", _space(BINARY4[:3]),
                      (("X1", "X2"), ("X1", "X3"), ("X2", "X3"))), False, "sampled", 2),
    ("no3way_2x3x3", NAMED_MODELS[1][1], False, "sampled", 2),
    ("pairwise_k4_binary", NAMED_MODELS[6][1], False, "sampled", 4),
)


def _moussouris_flips():
    supports = set()
    for mask in range(16):
        supports.add(tuple(sorted(int(s, 2) ^ mask for s in MOUSSOURIS)))
    return sorted(supports)


def _sample_limit_faces(A, rng):
    """Supports that are facial but not feasible, by rejection sampling."""
    faces = set()
    m = A.ncols
    tries = 0
    while tries < FACE_TRIES or not faces:
        tries += 1
        if tries > 10 * FACE_TRIES:
            raise RuntimeError("no limit-only support found")
        F = tuple(sorted(rng.sample(range(m), rng.randint(2, m - 1))))
        if factorization.is_A_feasible(A, F)[0]:
            continue
        if factorization.is_facial_lp(A, F)[0]:
            faces.add(F)
    return sorted(faces)


class ClassifyStream:
    """classify + kernel oracle (+ limit_sequence) on exact distributions,
    against bases computed once in set-up."""

    def __init__(self, seed):
        self.rng = random.Random(f"classify_stream:{seed}")
        self.models = []
        for name, spec, seeded, faces, limits in CLASSIFY_MODELS:
            A = _build(spec)
            basis = toric.compute_toric_basis(
                A, seed=independence.pairwise_ideal(spec[1]) if seeded else None)
            if faces == "moussouris":
                limit_faces = _moussouris_flips()
            else:
                # The pool of supports is a property of the model, not of
                # the seed: the seed only picks supports and points from it.
                limit_faces = _sample_limit_faces(A, random.Random(f"faces:{name}"))
            mix = ((factorization.FACTORS, 2), (factorization.OUTSIDE, 2),
                   (factorization.LIMIT_ONLY, limits))
            self.models.append((name, A, basis, limit_faces, mix))
        # warm-up (and the first use of numpy): the Moussouris point
        name, A, basis, faces, _ = self.models[0]
        P = models.Distribution([Fraction(1, 8) if j in faces[0] else 0
                                 for j in range(A.ncols)])
        op = Op(factorization.LIMIT_ONLY, (name, A, basis, P), factorization.LIMIT_ONLY)
        self.check(op, self.run(op))

    def _params(self, A):
        return [Fraction(self.rng.randint(1, 9), self.rng.randint(1, 9))
                for _ in range(A.nrows)]

    def _point(self, A, faces, verdict, k):
        rng = self.rng
        image = models.monomial_map(A, self._params(A))
        values = list(image.values)
        if verdict == factorization.FACTORS and k % 2:
            # an image point with one parameter zero: a feasible support
            t = self._params(A)
            t[rng.randrange(A.nrows)] = Fraction(0)
            values = list(models.monomial_map(A, t).values)
        elif verdict == factorization.OUTSIDE:
            values[rng.randrange(A.ncols)] += Fraction(1, 1000)
        elif verdict == factorization.LIMIT_ONLY:
            F = set(rng.choice(faces))
            values = [x if j in F else Fraction(0) for j, x in enumerate(values)]
        return models.Distribution(values)

    def rounds(self):
        while True:
            ops = []
            for name, A, basis, faces, mix in self.models:
                for verdict, count in mix:
                    for k in range(count):
                        P = self._point(A, faces, verdict, k)
                        ops.append(Op(verdict, (name, A, basis, P), verdict))
            self.rng.shuffle(ops)
            yield ops

    def run(self, op):
        _, A, basis, P = op.args
        verdict = factorization.classify(A, basis, P)
        member = factorization.in_variety_kernel_oracle(A, P)
        limit = None
        if verdict.kind == factorization.LIMIT_ONLY:
            limit = factorization.limit_sequence(A, P, EPSILON)
        return verdict, member, limit

    def check(self, op, result):
        name, A, basis, P = op.args
        verdict, member, limit = result
        if verdict.kind != op.expect:
            raise WrongAnswer(f"{name}: verdict {verdict.kind}, expected {op.expect}")
        if member != (verdict.kind != factorization.OUTSIDE):
            raise WrongAnswer(f"{name}: kernel oracle says member={member}, "
                              f"basis verdict is {verdict.kind}")
        if limit is not None:
            closer = factorization.limit_sequence(A, P, EPSILON ** 2)
            _check_limit_point(P, limit[1], closer[1], verdict.infeasible_column)


def _check_limit_point(P, P_eps, P_closer, witness):
    """P(eps) and P(eps^2) equal P on its support; off it, each value of
    P(eps^2) is below that of P(eps) (or both are 0), so the sequence moves
    towards P; P(eps) is positive at the column that makes the support
    infeasible.  Off the support a value is eps^k times a constant for some
    k > 0, and the constant can be large (a ratio of several parameters
    drawn from 1/9..9), so a fixed bound on P(eps) would reject valid
    points."""
    scale = max(float(x) for x in P.values)
    for x, y, z in zip(P.values, P_eps.values, P_closer.values):
        if x != 0 and max(abs(y - float(x)), abs(z - float(x))) > 1e-9 * scale:
            raise WrongAnswer("limit-sequence point leaves the support values")
        if x == 0 and not (0 <= z < y or y == z == 0):
            raise WrongAnswer("limit-sequence point does not move towards the limit")
    if not P_eps.values[witness] > 0:
        raise WrongAnswer("limit-sequence point is zero at the infeasible column")


# --- mle_fits ----------------------------------------------------------------

# The paper's worked four-cycle table and the printed univariate (psi, in
# ascending degree) its exact MLE reduces to.
PAPER_COUNTS = (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 0, 0, 0, 0)
PAPER_PSI = (Fraction(480, 13), Fraction(-2368, 39), Fraction(110, 9),
             Fraction(6713, 351), Fraction(-362, 39), Fraction(1))
# Per round: (zeroed clique margin entries, active cells left, tables).
# Twelve active cells give a univariate of degree 4-5, ten of degree 3,
# eight of degree 1.  With this mix the median falls in the middle of the
# ten-cell tables and the 90th percentile inside the bulk of the twelve-cell
# ones, below the heavy tail of rational_root_check (about one such table
# in ten takes 0.2-1.3 s there), so neither sits on a boundary that moves
# with the seed.  Nine active cells (two margins of opposite cliques) are
# left out: some of those tables make solve_mle_exact raise NotTriangular
# (see WORKLOADS.md).
MLE_MIX = ((1, 12, 1), (2, 10, 2), (2, 8, 1))
# Tables in the style of the paper's: every cell 1 except a few cells at 2
# (before the margins are zeroed).  Larger counts give univariates whose
# rational-root check runs for seconds to minutes (see WORKLOADS.md).
CELLS_AT_TWO = 3
ROOT_TOLERANCE = 1e-6


class MleFits:
    """Exact MLE (with rational-root analysis) and IPS on four-cycle tables
    with zeroed clique margins."""

    def __init__(self, seed):
        self.rng = random.Random(f"mle_fits:{seed}")
        self.A = graphs.build_graph_matrix(CYCLE4)
        # warm-up: the paper's table must give the printed quintic
        result = self.run(Op("paper", (PAPER_COUNTS,)))
        if result[1].psi != PAPER_PSI:
            raise WrongAnswer("paper table: psi differs from the printed quintic")
        self.check(None, result)

    def rounds(self):
        while True:
            ops = []
            for zeroed, active, count in MLE_MIX:
                for _ in range(count):
                    counts = self._table(zeroed, active)
                    # the zero cells fix the active cells, hence the reduced matrix
                    zero_cells = tuple(j for j, c in enumerate(counts) if c == 0)
                    ops.append(Op(f"{active}_cells", (tuple(counts),),
                                  reuse_key=zero_cells))
            self.rng.shuffle(ops)
            yield ops

    def _table(self, zeroed, active):
        """Every cell 1 but CELLS_AT_TWO cells at 2, then `zeroed` clique
        margin entries set to zero; drawn again until `active` cells are
        left."""
        A, rng = self.A, self.rng
        while True:
            counts = [1] * A.ncols
            for j in rng.sample(range(A.ncols), CELLS_AT_TWO):
                counts[j] = 2
            for r in rng.sample(range(A.nrows), zeroed):
                for j in range(A.ncols):
                    if A.rows[r][j]:
                        counts[j] = 0
            if sum(c > 0 for c in counts) == active:
                return counts

    def run(self, op):
        n = mle.CountTable(op.args[0])
        system = mle.assemble_mle_system(self.A, n)
        exact = mle.solve_mle_exact(system)
        rational = mle.rational_root_check(exact.psi)
        fit = mle.ips_fit(self.A, n, tol=1e-10)
        return system, exact, rational, fit

    def check(self, op, result):
        system, exact, rational, fit = result
        cell = system.active[exact.psi_variable]
        if abs(float(exact.root) - fit.values[cell]) > ROOT_TOLERANCE:
            raise WrongAnswer(f"exact root {float(exact.root)!r} and IPS cell "
                              f"{fit.values[cell]!r} differ")
        if exact.rational and exact.root not in rational:
            raise WrongAnswer("rational MLE root missing from the rational roots")


WORKLOADS = {
    "markov_bases": MarkovBases,
    "classify_stream": ClassifyStream,
    "mle_fits": MleFits,
}
