"""Heavy-tail toric bases, checked outside the tier-1 tests.

Computes the grevlex toric basis of two models whose bases take seconds,
the no-three-way 3x3x4 model and the binary K_{2,3} graph model, and the
minimal generators chosen from each.  Checks the sizes, the degree
profiles of the minimal generators (Takemura-Aoki counts) and a SHA-256
digest of each output, prints the time of each step, and exits 1 on the
first mismatch.  Run from the repository root:

    PYTHONPATH=src python tests/heavy_tail_bases.py
"""

import hashlib
import sys
import time
from collections import Counter

from toricgm.graphs import binary_graph, build_graph_matrix
from toricgm.models import StateSpace, VariableSpec, build_loglinear_matrix
from toricgm.toric import compute_toric_basis, minimal_generators


def no_three_way(levels):
    space = StateSpace([VariableSpec(n, k) for n, k in zip("ABC", levels)])
    return build_loglinear_matrix(space, [("A", "B"), ("A", "C"), ("B", "C")])


def k23():
    names = ("A1", "A2", "B1", "B2", "B3")
    return build_graph_matrix(binary_graph(
        names, [(a, b) for a in names[:2] for b in names[2:]]))


# (name, model, basis size, basis digest, minimal generators by degree,
# minimal generators digest); digests of repr() of the binomial tuples
CASES = [
    ("no3way_3x3x4", lambda: no_three_way((3, 3, 4)), 622,
     "41e42386fdd3a6cd85f4d1c550eb9715a124c0fcb97727c06e1043326a6bb6dc",
     {4: 54, 6: 180, 8: 216},
     "c88af1c6b3b88b5f8583da21edc90576da6f33d59cdcccd8bc88af92a29b3551"),
    ("binary_k23", k23, 632,
     "dc36e270faee7a52d350d744f86bed5cfaed8c79de50feda2965bb3f7eb4935d",
     {2: 44, 4: 420},
     "01eb26c7b67357a06daf8e6f82e920a8f13060a5154b6a9149d1d84db7141a3b"),
]


def digest(binomials):
    return hashlib.sha256(repr(tuple(binomials)).encode()).hexdigest()


def main():
    failed = []
    for name, make, size, basis_digest, profile, gens_digest in CASES:
        started = time.perf_counter()
        basis = compute_toric_basis(make())
        middle = time.perf_counter()
        gens = minimal_generators(basis)
        ended = time.perf_counter()
        degrees = dict(sorted(Counter(sum(b.u) for b in gens).items()))
        found = (len(basis), digest(basis.binomials), degrees, digest(gens))
        expected = (size, basis_digest, profile, gens_digest)
        ok = found == expected
        print(f"{name}: basis {len(basis)} in {middle - started:.2f} s, "
              f"{len(gens)} minimal generators {degrees} in "
              f"{ended - middle:.2f} s: {'ok' if ok else 'MISMATCH'}")
        if not ok:
            print(f"  expected {expected}\n  found    {found}")
            failed.append(name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
