"""Exact factorization trichotomy for distributions against a model.

A distribution either factors through the monomial map, is only a limit of
factoring distributions, or lies outside the model closure.  Membership in
the closure is the vanishing of the toric-ideal basis; factorization
additionally needs a feasible support.  Two independent membership routes
are provided (basis evaluation versus an LP-certificate plus kernel
products on the support) and must agree; the limit-sequence construction
realizes closure points as explicit images.

Every exact check runs on integers.  An exact P is written once over the
least common denominator den of its values, P_j = N_j / den with integer
numerators N_j.  A binomial x^u - x^v vanishes at P iff

    N^u * den^|v| = N^v * den^|u|,

which is P^u = P^v multiplied by den^(|u| + |v|) > 0, so it holds for
|u| != |v| too; a kernel generator w balances iff the same identity holds
for u = w+ and v = w-.  A certificate c is checked as the integer vector
L c, with L the least common denominator of c: c . a_j = 0 iff
(L c) . a_j = 0, and c . a_j >= 1 iff (L c) . a_j >= L.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .linalg import integer_kernel_lattice, reduced_echelon
from .models import monomial_map
from .simplex import find_facial_certificate

FACTORS = "factors"
LIMIT_ONLY = "limit_only"
OUTSIDE = "outside"


@dataclass(frozen=True)
class FacialCertificate:
    """Rational vector orthogonal to the support columns, >= 1 elsewhere."""
    c: tuple

    @staticmethod
    def validated(A, F, c):
        F = set(F)
        c = tuple(map(Fraction, c))
        L, scaled = _common_denominator(c)
        for j, col in enumerate(zip(*A.rows)):
            dot = sum(map(mul, scaled, col))
            if j in F and dot != 0:
                raise ValueError("certificate not orthogonal on the support")
            if j not in F and dot < L:
                raise ValueError("certificate below 1 off the support")
        return FacialCertificate(c)


def _common_denominator(values):
    """(den, numerators): the least common denominator of exact rationals
    and the integers x * den, in order."""
    den = math.lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def _balanced(N, den, u, v):
    """N^u * den^|v| == N^v * den^|u| for integer numerators N over den."""
    lhs = math.prod(n ** e for n, e in zip(N, u) if e)
    rhs = math.prod(n ** e for n, e in zip(N, v) if e)
    shift = sum(u) - sum(v)
    if shift > 0:
        rhs *= den ** shift
    elif shift < 0:
        lhs *= den ** -shift
    return lhs == rhs


@dataclass(frozen=True)
class Verdict:
    """Trichotomy outcome plus the first piece of failing evidence."""
    kind: str
    failed_binomial: object = None
    infeasible_column: int = None
    covered_rows: frozenset = None

    def __post_init__(self):
        if self.kind not in (FACTORS, LIMIT_ONLY, OUTSIDE):
            raise ValueError(f"unknown verdict {self.kind!r}")
        if self.kind == OUTSIDE and self.failed_binomial is None:
            raise ValueError("outside verdict needs a failing binomial")
        if self.kind == LIMIT_ONLY and self.infeasible_column is None:
            raise ValueError("limit verdict needs an infeasibility witness")


def _columns(A, F):
    """The support F as a set of column indices of A; raises ValueError
    naming an index outside range(A.ncols)."""
    F = set(F)
    bad = [j for j in F if not 0 <= j < A.ncols]
    if bad:
        raise ValueError(f"support index {min(bad)} is not a column of the "
                         f"{A.nrows}x{A.ncols} model matrix")
    return F


def is_A_feasible(A, F):
    """(verdict, witness column): F supports no hidden column of A.

    F is feasible iff every column outside F has support not covered by
    the union of the supports of F's columns.
    """
    F = _columns(A, F)
    witness = _hidden_column(A, F, covered_rows(A, F))
    return witness is None, witness


def _hidden_column(A, F, covered):
    """First column outside F whose support lies inside the covered rows,
    i.e. whose entries vanish on every uncovered row; None if there is none."""
    uncovered = [row for i, row in enumerate(A.rows) if i not in covered]
    return next((j for j in range(A.ncols)
                 if j not in F and not any(row[j] for row in uncovered)), None)


def covered_rows(A, F):
    """Rows on which some column of F is nonzero."""
    F = _columns(A, F)
    return frozenset(i for i, row in enumerate(A.rows) if any(row[j] for j in F))


def is_facial_lp(A, F):
    """Exact LP feasibility for the facial-certificate system."""
    F = _columns(A, F)
    c = find_facial_certificate(A, F)
    if c is None:
        return False, None
    return True, FacialCertificate.validated(A, F, c)


def is_facial_via_basis(binomials, F):
    """Facial test through the characteristic vector of F.

    Every basis binomial must vanish at the 0/1 vector of F, i.e. have
    both or neither monomial supported inside F.
    """
    F = set(F)
    for b in binomials:
        u_in = all(j in F for j, e in enumerate(b.u) if e)
        v_in = all(j in F for j, e in enumerate(b.v) if e)
        if u_in != v_in:
            return False
    return True


def _binomials(basis):
    return list(basis.binomials) if hasattr(basis, "binomials") else list(basis)


def in_variety_via_basis(P, basis, tol=None):
    """(membership, first failing binomial) at P.

    Exact zero test for rational distributions, on integer numerators over
    one common denominator; for numeric ones a failure means
    |P^u - P^v| > tol * max(P^u, P^v), or P^u != P^v when tol is None.
    """
    if getattr(P, "is_exact", True):
        den, N = _common_denominator(P.values)
        for b in _binomials(basis):
            if not _balanced(N, den, b.u, b.v):
                return False, b
        return True, None
    for b in _binomials(basis):
        pu = _monomial_value(P, b.u)
        pv = _monomial_value(P, b.v)
        if tol is None:
            if pu != pv:
                return False, b
        else:
            scale = max(abs(pu), abs(pv))
            if abs(pu - pv) > tol * scale:
                return False, b
    return True, None


def _monomial_value(P, mono):
    val = 1
    for x, e in zip(P.values, mono):
        if e:
            val = val * x ** e
    return val


def in_variety_kernel_oracle(A, P):
    """Independent membership oracle: facial support plus kernel products.

    Needs no Markov basis: the support must be facial (exact LP) and every
    lattice generator of the kernel of the support-restricted matrix must
    balance exactly on the support.  Only for exact rational distributions.
    """
    if not P.is_exact:
        raise ValueError("kernel oracle needs an exact rational distribution")
    _, balanced = _facial_and_balanced(A, P, sorted(P.support))
    return balanced


def _facial_and_balanced(A, P, F):
    """(certificate, balanced) for the sorted support F of an exact P.

    The certificate is None when F is not facial, and then balanced is
    False; otherwise balanced says whether the kernel products hold on F
    (vacuously on an empty F).
    """
    facial, cert = is_facial_lp(A, F)
    if not facial:
        return None, False
    return cert, not F or _kernel_balances(A, P, F)


def _kernel_balances(A, P, F):
    """Every generator w of ker_Z(A_F) balances at P on the sorted support F:
    the product of P_j ** w_j over w_j > 0 equals that of P_j ** -w_j over
    w_j < 0, compared on integer numerators."""
    den, N = _common_denominator([P.values[j] for j in F])
    for w in integer_kernel_lattice([[row[j] for j in F] for row in A.rows]):
        if not _balanced(N, den, [max(e, 0) for e in w], [max(-e, 0) for e in w]):
            return False
    return True


def classify(A, basis, P):
    """Factors / limit-only / outside, with evidence."""
    member, failed = in_variety_via_basis(P, basis)
    if not member:
        return Verdict(OUTSIDE, failed_binomial=failed)
    F = P.support
    covered = covered_rows(A, F)
    witness = _hidden_column(A, F, covered)
    if witness is None:
        return Verdict(FACTORS)
    return Verdict(LIMIT_ONLY, infeasible_column=witness, covered_rows=covered)


def _least_norm(design, rhs):
    """The least-norm solution tau of design . tau = rhs, for an integer
    matrix and a float right-hand side in its column space.

    tau = D^T w for any solution w of (D D^T) w = rhs: since D^T w = 0
    exactly when D D^T w = 0, every such w gives the same D^T w, the
    solution orthogonal to ker D (Penrose 1955).  The integer Gram matrix
    D D^T, augmented with the identity, is brought to reduced echelon form
    exactly.  Pivot row k is u_k [D D^T | I] for a rational u_k, so it reads
    g w_c + (terms in the free w) = u_k . rhs: w_c = u_k . rhs / g with every
    free w at 0.  Floats enter only in this last step.
    """
    n = len(design)
    gram = [[sum(map(mul, a, b)) for b in design] + [int(i == k) for i in range(n)]
            for k, a in enumerate(design)]
    rows, pivots = reduced_echelon(gram, n)
    w = [0.0] * n
    for row, c in zip(rows, pivots):
        w[c] = math.fsum(map(mul, row[n:], rhs)) / row[c]
    return [math.fsum(map(mul, w, col)) for col in zip(*design)]


def limit_sequence(A, P, epsilon):
    """Parameters t(eps) and the image point P(eps) approaching P.

    Takes the least-norm solution of the log-linear system on the support,
    by exact elimination with floats only in the last step (membership is
    decided exactly upstream), scales each parameter by epsilon to the
    power of the facial certificate, and zeroes the parameters of rows
    untouched by the support.  The image is a genuine model point for every
    positive epsilon, exactly zero off the support whenever the support is
    feasible, and converges to P as eps -> 0.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not P.is_exact:
        raise ValueError("limit sequences start from exact distributions")
    F = sorted(P.support)
    if not F:
        raise ValueError("cannot build a limit sequence for the zero vector")
    cert, balanced = _facial_and_balanced(A, P, F)
    if cert is None:
        raise ValueError("not in variety: support is not facial")
    if not balanced:
        raise ValueError("not in variety: kernel relation fails on support")
    rows_touched = sorted(covered_rows(A, F))
    design = [[A.rows[i][j] for i in rows_touched] for j in F]
    logs = [math.log(float(P.values[j])) for j in F]
    tau = _least_norm(design, logs)
    residual = max(abs(sum(map(mul, row, tau)) - x) for row, x in zip(design, logs))
    scale = max(1.0, max(abs(x) for x in logs))
    if residual > 1e-8 * scale:
        raise ValueError("log system did not solve; point not in variety")
    eps = float(epsilon)
    t_eps = []
    pos = {i: k for k, i in enumerate(rows_touched)}
    for i in range(A.nrows):
        if i in pos:
            t_eps.append(eps ** float(cert.c[i]) * math.exp(tau[pos[i]]))
        else:
            t_eps.append(0.0)
    return tuple(t_eps), monomial_map(A, t_eps)
