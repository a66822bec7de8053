"""Both routes to an exact-MLE core's reduced lex basis, on a wide pool.

`mle.solve_mle_exact` reaches the reduced lex basis of its core either by
lex Buchberger directly or by a grevlex basis and FGLM, and the rule of
`mle.LEX_DIRECT_BOUND` picks the route from k, the number of free cells,
and B, the product of the k largest total degrees among the core's
polynomials.  This script draws cores from the three families that bound
was swept on: four-cycle tables drawn like the `mle_fits` benchmark,
four-cycle tables with counts 1-9 (one zeroed clique margin or none) and
random general models with counts 1-5.  It runs both routes on each core,
each under a time cap, checks that the two bases are equal wherever both
finish, and prints the median time of each route per B, with the route
the rule picks and how often each route was the faster, so that the bound
can be checked again on another host.  Exits 1 if the routes disagree on
any core.  Run from the repository root:

    PYTHONPATH=src python tests/mle_routes.py
"""

import signal
import statistics
import sys
import time
from collections import defaultdict

from toricgm.mle import LEX_DIRECT_BOUND, _bezout_bound
from toricgm.polynomials import BudgetExceeded

from fixtures import (four_cycle_matrix, four_cycle_tables, grevlex_fglm,
                      lex_direct, mle_core, random_model_tables, zeroed_tables)

# seconds each route, and the toric basis behind each core, may take
CAP = 3.0
BUDGET = 20000


class Capped(Exception):
    """A run went past CAP seconds."""


def _alarm(signum, frame):
    raise Capped


def capped(fn, *args):
    """(fn(*args), seconds), or (None, None) past CAP seconds or the
    S-pair budget."""
    signal.setitimer(signal.ITIMER_REAL, CAP)
    started = time.perf_counter()
    try:
        return fn(*args), time.perf_counter() - started
    except (Capped, BudgetExceeded):
        return None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def pool():
    """(family, model, counts) of every table of the sweep."""
    A = four_cycle_matrix()
    mle_fits = (zeroed_tables(1, 8, 8) + zeroed_tables(1, 10, 16)
                + zeroed_tables(1, 12, 8, zeroed=1))
    yield from (("mle_fits", A, counts) for counts in mle_fits)
    yield from (("four-cycle 1-9", A, counts)
                for counts in four_cycle_tables(1, 24, zeroed=1))
    yield from (("four-cycle 1-9, no zeroed margin", A, counts)
                for counts in four_cycle_tables(2, 4, zeroed=0))
    yield from (("random general model", model, counts)
                for model, counts in random_model_tables(1, 60))


def main():
    signal.signal(signal.SIGALRM, _alarm)
    started = time.perf_counter()
    rows = defaultdict(list)  # (k, B) -> [(family, fglm s, lex s)]
    skipped = disagreed = 0
    for family, A, counts in pool():
        built, _ = capped(mle_core, A, counts, BUDGET)
        if built is None:
            skipped += 1
            continue
        core, k = built
        fglm, fglm_s = capped(grevlex_fglm, core, k, BUDGET)
        lex, lex_s = capped(lex_direct, core, k, BUDGET)
        if fglm is not None and lex is not None and fglm != lex:
            disagreed += 1
            print(f"MISMATCH: {family} table {counts}")
        rows[k, _bezout_bound(core, k)].append((family, fglm_s, lex_s))
    print(f"{'k':>2} {'B':>7} {'cores':>5} {'rule':>5} {'FGLM ms':>8} "
          f"{'lex ms':>8} {'FGLM faster':>11} {'lex faster':>10} families")

    def median_ms(times):
        done = [t for t in times if t is not None]
        return f"{1e3 * statistics.median(done):.2f}" if done else "capped"

    for (k, bound), cores in sorted(rows.items()):
        lex_rule = k <= 1 or bound <= LEX_DIRECT_BOUND
        fglm_faster = sum(f is not None and (l is None or f < l)
                          for _, f, l in cores)
        lex_faster = sum(l is not None and (f is None or l < f)
                         for _, f, l in cores)
        families = ", ".join(sorted({family for family, _, _ in cores}))
        print(f"{k:>2} {bound:>7} {len(cores):>5} "
              f"{'lex' if lex_rule else 'FGLM':>5} "
              f"{median_ms([f for _, f, _ in cores]):>8} "
              f"{median_ms([l for _, _, l in cores]):>8} "
              f"{fglm_faster:>11} {lex_faster:>10} {families}")
    total = sum(map(len, rows.values()))
    print(f"{total} cores, {skipped} tables past the cap or budget before a "
          f"core, {disagreed} disagreements, "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if disagreed else 0


if __name__ == "__main__":
    sys.exit(main())
