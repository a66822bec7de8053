"""Exact factorization trichotomy for distributions against a model.

A distribution either factors through the monomial map, is only a limit of
factoring distributions, or lies outside the model closure.  Membership in
the closure is the vanishing of the toric-ideal basis; factorization
additionally needs a feasible support.  Two independent membership routes
are provided (basis evaluation versus an LP-certificate plus kernel
products on the support) and must agree; the limit-sequence construction
realizes closure points as explicit images.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import integer_kernel_lattice
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
        for j in range(A.ncols):
            dot = sum(ci * ai for ci, ai in zip(c, A.column(j)))
            if j in F and dot != 0:
                raise ValueError("certificate not orthogonal on the support")
            if j not in F and dot < 1:
                raise ValueError("certificate below 1 off the support")
        return FacialCertificate(tuple(Fraction(x) for x in c))


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


def is_A_feasible(A, F):
    """(verdict, witness column): F supports no hidden column of A.

    F is feasible iff every column outside F has support not covered by
    the union of the supports of F's columns.
    """
    F = set(F)
    covered = set()
    for j in F:
        covered |= A.column_support(j)
    for j in range(A.ncols):
        if j in F:
            continue
        if A.column_support(j) <= covered:
            return False, j
    return True, None


def covered_rows(A, F):
    out = set()
    for j in F:
        out |= A.column_support(j)
    return frozenset(out)


def is_facial_lp(A, F):
    """Exact LP feasibility for the facial-certificate system."""
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

    Exact zero test for rational distributions; for numeric ones a failure
    means |P^u - P^v| > tol * max(P^u, P^v).
    """
    exact = getattr(P, "is_exact", True)
    for b in _binomials(basis):
        pu = _monomial_value(P, b.u)
        pv = _monomial_value(P, b.v)
        if exact or tol is None:
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
    F = sorted(P.support)
    facial, _ = is_facial_lp(A, F)
    if not facial:
        return False
    if not F:
        return True
    return _kernel_balances(A, P, F)


def _kernel_balances(A, P, F):
    """Every generator w of ker_Z(A_F) balances at P on the sorted support F:
    the product of P_j ** w_j over w_j > 0 equals that of P_j ** -w_j over
    w_j < 0."""
    for w in integer_kernel_lattice(A.restrict(F).rows):
        lhs = Fraction(1)
        rhs = Fraction(1)
        for j, e in zip(F, w):
            if e > 0:
                lhs *= P.values[j] ** e
            elif e < 0:
                rhs *= P.values[j] ** (-e)
        if lhs != rhs:
            return False
    return True


def classify(A, basis, P):
    """Factors / limit-only / outside, with evidence."""
    member, failed = in_variety_via_basis(P, basis)
    if not member:
        return Verdict(OUTSIDE, failed_binomial=failed)
    feasible, witness = is_A_feasible(A, P.support)
    if feasible:
        return Verdict(FACTORS)
    return Verdict(LIMIT_ONLY, infeasible_column=witness,
                   covered_rows=covered_rows(A, P.support))


def limit_sequence(A, P, epsilon):
    """Parameters t(eps) and the image point P(eps) approaching P.

    Solves the log-linear system on the support by least squares (numeric;
    membership is decided exactly upstream), scales each parameter by
    epsilon to the power of the facial certificate, and zeroes the
    parameters of rows untouched by the support.  The image is a genuine
    model point for every positive epsilon, exactly zero off the support
    whenever the support is feasible, and converges to P as eps -> 0.
    """
    import numpy

    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not P.is_exact:
        raise ValueError("limit sequences start from exact distributions")
    F = sorted(P.support)
    if not F:
        raise ValueError("cannot build a limit sequence for the zero vector")
    facial, cert = is_facial_lp(A, F)
    if not facial:
        raise ValueError("not in variety: support is not facial")
    if not _kernel_balances(A, P, F):
        raise ValueError("not in variety: kernel relation fails on support")
    rows_touched = sorted(covered_rows(A, F))
    design = [[A.rows[i][j] for i in rows_touched] for j in F]
    logs = [math.log(float(P.values[j])) for j in F]
    mat = numpy.array(design, dtype=float)
    tau, *_ = numpy.linalg.lstsq(mat, numpy.array(logs), rcond=None)
    residual = mat @ tau - numpy.array(logs)
    scale = max(1.0, max(abs(x) for x in logs))
    if max(abs(residual)) > 1e-8 * scale:
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
