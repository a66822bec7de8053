"""Command line front end.

Subcommands build model matrices from graphs/generator files, compute
toric bases, run the factorization trichotomy on a distribution, fit by
iterative scaling, eliminate the exact MLE, and report graph analysis.
Artifacts go to --out files (byte-deterministic); a run report with
timing, input digests and the result summary goes to standard output.

Exit codes: 0 success, 2 parse/validation error, 3 resource budget
exceeded, 4 nonconvergence, no exact MLE, or a kernel oracle that
disagrees with the basis verdict.  The environment variable
TORICGM_BUDGET overrides the S-pair budget.
"""

import argparse
import errno
import hashlib
import json
import os
import sys
import time

from . import __version__
from .factorization import OUTSIDE, classify, in_variety_kernel_oracle
from .graphs import (build_graph_matrix, cliques, is_chordal,
                     nondecomposable_partition, saturated_separations)
from .independence import pairwise_ideal
from .jsonio import (FormatError, read_basis, read_counts,
                     read_distribution, read_generators, read_graph,
                     read_matrix, write_basis, write_matrix)
from .mle import assemble_mle_system, ips_fit, rational_root_check, \
    solve_mle_exact
from .models import build_loglinear_matrix
from .orders import KINDS, TermOrder
from .polynomials import (BinomialRewriter, BudgetExceeded,
                          buchberger_binomials)
from .toric import binomial_in_kernel, compute_toric_basis

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_BUDGET = 3
EXIT_NONCONVERGENCE = 4


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _report(command, inputs, results, started):
    payload = {
        "command": command,
        "inputs": {p: _digest(p) for p in inputs},
        "results": results,
        "elapsed_s": round(time.perf_counter() - started, 6),
        "version": __version__,
    }
    json.dump(payload, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


def _budget(args):
    """The S-pair budget: --budget, else TORICGM_BUDGET, else None (the
    engine's default).  A negative or non-integer value is a format error
    that names its source."""
    source, raw = "--budget", getattr(args, "budget", None)
    if raw is None:
        source, raw = "TORICGM_BUDGET", os.environ.get("TORICGM_BUDGET")
        if not raw:
            return None
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise FormatError(f"{source} must be a nonnegative integer, not {raw!r}")
    return budget


def cmd_model(args):
    started = time.perf_counter()
    sources = [s for s in (args.graph, args.generators, args.matrix) if s]
    if len(sources) != 1:
        raise FormatError("exactly one of --graph/--generators/--matrix")
    if args.graph:
        A = build_graph_matrix(read_graph(args.graph))
    elif args.generators:
        space, gens = read_generators(args.generators)
        A = build_loglinear_matrix(space, gens)
    else:
        A = read_matrix(args.matrix)
    write_matrix(A, args.out)
    _report("model", sources, {
        "rows": A.nrows, "columns": A.ncols,
        "column_degree": A.column_degree, "out": args.out}, started)
    return EXIT_OK


def cmd_basis(args):
    started = time.perf_counter()
    if bool(args.model) == bool(args.graph):
        raise FormatError("exactly one of --model/--graph")
    # an --out in a missing directory fails now, not after a long basis
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise FormatError(f"{args.out}: {os.strerror(errno.ENOENT)}")
    seed = None
    if args.graph:
        g = read_graph(args.graph)
        A = build_graph_matrix(g)
        if args.seed_pairwise:
            seed = pairwise_ideal(g)
    else:
        if args.seed_pairwise:
            raise FormatError("--seed-pairwise needs --graph (the pairwise "
                              "statements come from the graph)")
        A = read_matrix(args.model)
    order = TermOrder(args.order, A.ncols)
    basis = compute_toric_basis(A, order=order, seed=seed, budget=_budget(args))
    write_basis(basis, A.indeterminate_names(), args.out)
    _report("basis", [args.model or args.graph], {
        "size": len(basis), "max_degree": basis.max_degree(),
        "order": args.order,
        "saturated": [A.col_labels[i] for i in basis.saturated],
        "out": args.out}, started)
    return EXIT_OK


def _missing_generator(binomials, basis, budget):
    """None when the binomials (all in the toric ideal) generate it, else
    an element of the reduced basis outside the ideal they generate."""
    given = buchberger_binomials(binomials, basis.order, budget)
    if given == list(basis.binomials):
        return None
    # reduced bases are unique, so the binomials generate a smaller ideal
    system = BinomialRewriter(given)
    return next(b for b in basis if system.normal_form(b.u)
                != system.normal_form(b.v))


def cmd_check(args):
    started = time.perf_counter()
    A = read_matrix(args.model)
    order_name, binomials = read_basis(args.basis, A.ncols)
    # a bad distribution fails now, not after the model's whole basis
    P = read_distribution(args.dist)
    if len(P) != A.ncols:
        raise FormatError("distribution length does not match the model")
    if args.normalize:
        P = P.normalized()
    names = A.indeterminate_names()
    for b in binomials:
        if not binomial_in_kernel(b, A):
            raise FormatError(f"{args.basis}: binomial {b.render(names)} is "
                              "not in the model's toric ideal (A u != A v)")
    budget = _budget(args)
    basis = compute_toric_basis(A, TermOrder(order_name, A.ncols), budget=budget)
    missing = _missing_generator(binomials, basis, budget)
    if missing is not None:
        raise FormatError(f"{args.basis}: the binomials do not generate the "
                          f"model's toric ideal ({missing.render(names)} is "
                          "not in their ideal)")
    verdict = classify(A, binomials, P)
    evidence = {}
    if verdict.failed_binomial is not None:
        evidence["failed_binomial"] = verdict.failed_binomial.render(names)
    if verdict.infeasible_column is not None:
        evidence["infeasible_column"] = A.col_labels[verdict.infeasible_column]
        evidence["covered_rows"] = sorted(A.row_labels[i]
                                          for i in verdict.covered_rows)
    # the independent route: facial LP plus kernel products (every value
    # read from a file is exact)
    oracle = in_variety_kernel_oracle(A, P)
    _report("check", [args.model, args.basis, args.dist], {
        "verdict": verdict.kind, "evidence": evidence,
        "kernel_oracle": oracle}, started)
    if oracle != (verdict.kind != OUTSIDE):
        print(f"error: the kernel oracle says member={oracle}, but the "
              f"basis verdict is {verdict.kind}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def cmd_ips(args):
    started = time.perf_counter()
    A = read_matrix(args.model)
    n = read_counts(args.counts)
    fit = ips_fit(A, n, tol=args.tol, max_cycles=args.max_cycles)
    _report("ips", [args.model, args.counts], {
        "fitted": [repr(x) for x in fit.values],
        "tol": args.tol}, started)
    return EXIT_OK


def cmd_mle_exact(args):
    started = time.perf_counter()
    A = read_matrix(args.model)
    n = read_counts(args.counts)
    system = assemble_mle_system(A, n, budget=_budget(args))
    result = solve_mle_exact(system, budget=_budget(args))
    active = list(system.active)
    names = system.matrix.col_labels
    psi_desc = [str(c) for c in reversed(result.psi)]
    profile = {names[i]: (str(v) if result.rational else repr(float(v)))
               for i, v in enumerate(result.profile)}
    _report("mle-exact", [args.model, args.counts], {
        "active_cells": [A.col_labels[j] for j in active],
        "psi": psi_desc,
        "psi_variable": names[result.psi_variable],
        "positive_roots": [repr(r) for r in result.positive_roots],
        "root": str(result.root) if result.rational else repr(float(result.root)),
        "rational_mle": result.rational,
        "rational_roots_of_psi": [str(r) for r in
                                  rational_root_check(result.psi)],
        "profile": profile,
    }, started)
    return EXIT_OK


def cmd_graph(args):
    started = time.perf_counter()
    g = read_graph(args.graph)
    chordal, peo = is_chordal(g)
    results = {
        "chordal": chordal,
        "cliques": [list(c) for c in cliques(g)],
    }
    if chordal:
        results["elimination_order"] = list(peo)
    else:
        part = nondecomposable_partition(g)
        results["chordless_cycle"] = list(part.A + part.B + part.C + part.D)
        results["partition"] = {k: list(v) for k, v in
                                zip("ABCDE", part.blocks())}
    try:
        seps = saturated_separations(g, cap=args.separation_cap)
        results["saturated_separations"] = [
            {"X": list(s.X), "Y": list(s.Y), "Z": list(s.Z)} for s in seps]
    except ValueError:
        results["saturated_separations"] = None
        results["separation_cap_exceeded"] = True
    _report("graph", [args.graph], results, started)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toricgm",
        description="Exact toric algebra for discrete exponential and "
                    "graphical models")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="build a model matrix")
    p.add_argument("--graph")
    p.add_argument("--generators")
    p.add_argument("--matrix")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("basis", help="compute the toric ideal basis")
    p.add_argument("--model")
    p.add_argument("--graph")
    p.add_argument("--order", choices=KINDS, default="grevlex")
    p.add_argument("--seed-pairwise", action="store_true")
    p.add_argument("--budget", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("check", help="factorization trichotomy of a distribution")
    p.add_argument("--model", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("ips", help="iterative proportional scaling fit")
    p.add_argument("--model", required=True)
    p.add_argument("--counts", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-cycles", type=int, default=10 ** 5)
    p.set_defaults(func=cmd_ips)

    p = sub.add_parser("mle-exact", help="exact MLE by lex elimination")
    p.add_argument("--model", required=True)
    p.add_argument("--counts", required=True)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_mle_exact)

    p = sub.add_parser("graph", help="chordality, cliques, separations")
    p.add_argument("--graph", required=True)
    p.add_argument("--separation-cap", type=int, default=12)
    p.set_defaults(func=cmd_graph)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
