"""The S-pair routine against a reference pass, and its exact work counts.

`_s_pair_loop` decides which S-pairs to open, close and treat from the
leading monomials alone.  The reference below is the same Gebauer-Moeller
update written on full-width lcm tuples: candidates sorted by (degree,
lcm, index), the M and F criteria as divisibility of one lcm by another,
the chain criterion by comparing lcm tuples.  Open pairs are ranked by
the lcm's key under the order (the normal strategy, which the generic
engine uses) or, with no key, by the lcm's degree (the binomial engine),
ties by index pair in both.  The chain criterion closes pairs in the
normal strategy only: the binomial engine treats every pair it opens, up
to an optional lcm degree.  Both must treat the same pairs in the same
order and retire the same elements, and so must `buchberger_binomials`
itself, which builds its S-binomials from sparse leads and carried
support masks.  The rewriter's divisor test, which reads only the
exponents above one once the support masks agree, is checked against
full-width divisibility, and the exact S-pair counts of both engines are
pinned.
"""

import hashlib
import heapq
import random
from collections import Counter
from operator import add as _add, le

import pytest

from toricgm import polynomials, toric
from toricgm.graphs import UndirectedGraph, build_graph_matrix
from toricgm.mle import CountTable, assemble_mle_system, solve_mle_exact
from toricgm.models import StateSpace, VariableSpec, build_loglinear_matrix
from toricgm.orders import TermOrder
from toricgm.polynomials import (BinomialRewriter, BudgetExceeded,
                                 _s_pair_loop, support_mask,
                                 buchberger_binomials, monomial_div,
                                 monomial_lcm)

from fixtures import four_cycle_matrix, random_model


def reference_s_pair_loop(inputs, add, s_pair, leads, masks, alive, key,
                          budget, saturated=0, tail_masks=None,
                          max_degree=None):
    pairs = {}  # open (i, j), i < j -> (lcm, mask) of the leading monomials
    heap = []
    shared = []

    def update(new):
        mh = leads[new]
        mask_h = masks[new]
        tail_h = tail_masks[new] & saturated if saturated else 0
        shared.append(tail_h)
        cands = []
        for g in range(new):
            if alive[g]:
                lcm_hg = tuple(map(max, mh, leads[g]))
                skip = not (mask_h & masks[g]) or tail_h & shared[g]
                cands.append((sum(lcm_hg), lcm_hg, g, skip))
        cands.sort()
        kept = []
        for _, lcm_hg, g, skip in cands:
            mask_hg = mask_h | masks[g]
            if any(not mask_hp & ~mask_hg and all(map(le, lcm_hp, lcm_hg))
                   for lcm_hp, mask_hp in kept):
                continue
            kept.append((lcm_hg, mask_hg))
            if skip:
                continue
            pairs[(g, new)] = (lcm_hg, mask_hg)
            rank = sum(lcm_hg) if key is None else key(lcm_hg)
            heapq.heappush(heap, (rank, g, new))
        stale = []
        # the chain criterion, in the normal strategy only
        for (i, j), (lcm_ij, mask_ij) in pairs.items() if key else ():
            if j == new or mask_h & ~mask_ij or not all(map(le, mh, lcm_ij)):
                continue
            if (tuple(map(max, leads[i], mh)) != lcm_ij
                    and tuple(map(max, leads[j], mh)) != lcm_ij):
                stale.append((i, j))
        for pair in stale:
            del pairs[pair]
        for g in range(new):
            if alive[g] and not (mask_h & ~masks[g]) \
                    and all(map(le, mh, leads[g])):
                alive[g] = False

    for item in inputs:
        new = add(item)
        if new >= 0:
            update(new)
    treated = 0
    while pairs:
        rank, i, j = heapq.heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue
        if key is None and max_degree is not None and rank > max_degree:
            break
        treated += 1
        if treated > budget:
            raise BudgetExceeded(f"S-pair budget of {budget} exceeded")
        new = add(s_pair(i, j))
        if new >= 0:
            update(new)


def scripted_run(loop, seed, saturated, normal, max_degree=None):
    """Run loop on leads drawn at random: each input or treated pair adds
    a random lead and the support mask of a random tail, or nothing.  With
    normal, pairs are ranked by the order's key of their lcm, else by its
    degree, up to max_degree.  Returns the treated pairs in order and the
    final alive flags."""
    rng = random.Random(seed)
    nvars = rng.randint(2, 7)
    order = TermOrder.lex(nvars) if seed % 3 == 2 else TermOrder.grevlex(nvars)
    leads, masks, alive, tail_masks = [], [], [], []
    treated = []

    def monomial():
        return tuple(rng.choice((0, 0, 0, 1, 1, 2, 3)) for _ in range(nvars))

    def add(item):
        lead = monomial()
        if len(leads) >= 40 or not any(lead) or rng.random() < 0.25:
            return -1
        leads.append(lead)
        masks.append(support_mask(lead))
        alive.append(True)
        tail_masks.append(support_mask(monomial()))
        return len(leads) - 1

    def s_pair(i, j):
        treated.append((i, j))
        return i, j

    loop(range(rng.randint(2, 12)), add, s_pair, leads, masks, alive,
         order.key if normal else None, 10 ** 6,
         saturated & ((1 << nvars) - 1), tail_masks, max_degree)
    return treated, alive


def engine_run(loop, gens, order, saturated):
    """Run loop as the binomial engine does, on a fresh rewriter, but with
    each S-binomial formed from full-width lcm tuples: the reference for
    the engine's sparse S-binomials."""
    system = BinomialRewriter()
    leads, tails = system.leads, system.tails
    tail_masks = []  # taken from the tails, not from the rewriter's cache
    treated = []
    start = sorted({(u, v) if order.key(u) > order.key(v) else (v, u)
                    for u, v in ((b.u, b.v) for b in gens)},
                   key=lambda uv: (order.key(uv[0]), uv[1]))

    def add(uv):
        a = system.normal_form(uv[0])
        b = system.normal_form(uv[1])
        if a == b:
            return -1
        if order.key(a) < order.key(b):
            a, b = b, a
        tail_masks.append(support_mask(b))
        return system.add(a, b)

    def s_pair(i, j):
        treated.append((i, j))
        lcm = monomial_lcm(leads[i], leads[j])
        return (tuple(map(_add, monomial_div(lcm, leads[i]), tails[i])),
                tuple(map(_add, monomial_div(lcm, leads[j]), tails[j])))

    loop(start, add, s_pair, leads, system.masks, system.alive, None,
         10 ** 6, saturated, tail_masks)
    assert system.tail_masks == tail_masks
    return treated, system.alive


@pytest.mark.parametrize("saturated", [0, 0b1011010])
def test_same_pairs_as_the_reference_on_random_leads(saturated):
    # pairs ranked by lcm degree, as the binomial engine does, and by the
    # normal strategy, as the generic engine does
    for normal in (False, True):
        total = 0
        for seed in range(300):
            ref = scripted_run(reference_s_pair_loop, seed, saturated, normal)
            assert scripted_run(_s_pair_loop, seed, saturated, normal) \
                == ref, (seed, normal)
            total += len(ref[0])
        assert total > 1000  # the draws open and treat pairs


def test_max_degree_stops_like_the_reference_on_random_leads():
    # the binomial engine's ranking, stopped once the next pair's lcm
    # degree exceeds max_degree
    total = stopped = 0
    for seed in range(300):
        full = scripted_run(reference_s_pair_loop, seed, 0, False)
        for max_degree in (2, 4, 6):
            ref = scripted_run(reference_s_pair_loop, seed, 0, False,
                               max_degree)
            assert scripted_run(_s_pair_loop, seed, 0, False, max_degree) \
                == ref, (seed, max_degree)
            total += len(ref[0])
            stopped += ref != full
    assert total > 1000 and stopped > 100


def test_find_reducer_against_full_width_divisibility():
    # the rewriter tests the support masks, then the lead's exponents
    # above one only; the reference compares every entry.  Buckets are
    # visited by the smallest variable of the lead, each in the order its
    # leads were added
    rng = random.Random("find-reducer")
    hits = misses = 0
    for _ in range(300):
        nvars = rng.randint(1, 9)

        def monomial(top):
            return tuple(rng.choice((0, 0, 0, 1, 1, 2, 3, top))
                         for _ in range(nvars))

        system = BinomialRewriter()
        for _ in range(rng.randint(1, 30)):
            lead = monomial(3)
            if any(lead):
                system.add(lead, monomial(3))
        for idx in range(len(system.leads)):
            system.alive[idx] = rng.random() > 0.2
        for _ in range(40):
            m = monomial(5)
            divisors = [i for i, lead in enumerate(system.leads)
                        if system.alive[i] and all(map(le, lead, m))]
            expect = min(divisors, default=-1, key=lambda i: (
                support_mask(system.leads[i]) & -support_mask(system.leads[i]),
                i))
            assert system.find_reducer(list(m), support_mask(m)) == expect
            hits += expect >= 0
            misses += expect < 0
    assert hits > 1000 and misses > 1000


def recording_loop(runs):
    """An _s_pair_loop that appends to runs, per run, the pairs it treats
    (in order) and the final alive flags."""
    def loop(inputs, add, s_pair, leads, masks, alive, *args):
        treated = []

        def recorded(i, j):
            treated.append((i, j))
            return s_pair(i, j)

        _s_pair_loop(inputs, add, recorded, leads, masks, alive, *args)
        runs.append((treated, alive))
    return loop


@pytest.mark.parametrize("saturate", [False, True])
def test_same_pairs_as_the_reference_on_random_models(saturate, monkeypatch):
    # the lattice binomials plus quadratic moves of random models, run
    # under grevlex; with saturate, every column but the last is marked.
    # The engine's own run, with its sparse S-binomials, and engine_run
    # with the loop under test must both treat the reference's pairs
    runs = []
    monkeypatch.setattr(polynomials, "_s_pair_loop", recording_loop(runs))
    rng = random.Random("s-pair-loop")
    total = 0
    for _ in range(40):
        A = random_model(rng, rng.randint(2, 4), rng.randint(4, 7))
        m = A.ncols
        gens = toric._kernel_binomials(A)
        gens = [b.strip_common() for b in gens + toric._quadratic_moves(A)]
        order = TermOrder.grevlex(m)
        saturated = (1 << (m - 1)) - 1 if saturate else 0
        ref = engine_run(reference_s_pair_loop, gens, order, saturated)
        assert engine_run(_s_pair_loop, gens, order, saturated) == ref, A.rows
        if gens:  # with no inputs the engine runs no loop
            buchberger_binomials(gens, order, None, saturated)
            assert runs.pop() == ref, A.rows
        total += len(ref[0])
    assert total > 100


def _cycle4_one_3level():
    # the four-cycle X1-X2-X3-X4 with X1 on three levels
    variables = [VariableSpec("X1", 3)] + [VariableSpec(f"X{i}", 2)
                                           for i in (2, 3, 4)]
    return build_graph_matrix(UndirectedGraph(variables, [
        ("X1", "X2"), ("X2", "X3"), ("X3", "X4"), ("X1", "X4")]))


def _no3way_2x3x3():
    space = StateSpace([VariableSpec("A", 2), VariableSpec("B", 3),
                        VariableSpec("C", 3)])
    return build_loglinear_matrix(space, [("A", "B"), ("A", "C"), ("B", "C")])


def _no3way_3x3x3():
    space = StateSpace([VariableSpec(n, 3) for n in "ABC"])
    return build_loglinear_matrix(space, [("A", "B"), ("A", "C"), ("B", "C")])


def _runs(A):
    """(inputs, order, keyword arguments) of each Buchberger run that
    compute_toric_basis makes on A, then of the final grevlex run (made
    even where compute_toric_basis folds it).  Each saturation run takes
    the first planned column left, last in a grevlex order that puts the
    other columns left just before it, and strips common factors; the
    columns left that divide none of its leads are dropped."""
    m = A.ncols
    gens = toric._kernel_binomials(A)
    if len(gens) > 1:
        gens += toric._quadratic_moves(A)
    left = list(toric._saturation_plan(gens))
    gens = [b.strip_common() for b in gens]
    while left:
        i = left.pop(0)
        order = TermOrder.grevlex(
            m, [j for j in range(m) if j not in left and j != i] + left + [i])
        yield gens, order, {"strip_common": True}
        run = buchberger_binomials(gens, order, strip_common=True)
        left = [j for j in left if any(b.u[j] for b in run)]
        gens = [b.strip_common() for b in run]
    yield gens, TermOrder.grevlex(m), {"saturated": (1 << m) - 1}


@pytest.mark.parametrize("name, make, pairs", [
    # the first saturation run of the no-three-way model (no quadratic
    # moves)
    ("no3way_2x3x3", _no3way_2x3x3, [42]),
    # every run on the binary four-cycle: two saturation runs (the other
    # two planned columns divide none of their leads), then the final run
    ("cycle4_binary", four_cycle_matrix, [96, 88, 24]),
    # the first saturation run of the four-cycle with one three-level
    # variable, the heaviest named model of the markov_bases benchmark
    ("cycle4_one_3level", _cycle4_one_3level, [802]),
    # every run on the 3x3x3 no-three-way model, the former heavy tail:
    # when the saturation runs kept common factors its first run alone
    # treated 36,368 S-pairs
    ("no3way_3x3x3", _no3way_3x3x3, [1090, 1145, 1144, 1107, 1110, 1095,
                                     1084, 1092, 1135, 1089, 1098, 88]),
])
def test_s_pairs_treated_per_run(name, make, pairs):
    # the budget is the probe: a run treating exactly n S-pairs succeeds
    # with budget n and raises with budget n - 1.  A criterion made weaker
    # or stronger moves these counts
    runs = list(_runs(make()))[:len(pairs)]
    assert len(runs) == len(pairs)
    for (gens, order, options), n in zip(runs, pairs):
        basis = buchberger_binomials(gens, order, n, **options)
        assert basis == buchberger_binomials(gens, order, None, **options)
        with pytest.raises(BudgetExceeded):
            buchberger_binomials(gens, order, n - 1, **options)


def test_s_pairs_treated_by_the_generic_engine_on_criterion_11():
    # the generic engine keeps the chain criterion: the grevlex basis of
    # criterion 11's core, which solve_mle_exact computes with its budget,
    # treats exactly 104 S-pairs.  Without the chain pass the solve took
    # 2.5x as long
    system = assemble_mle_system(four_cycle_matrix(), CountTable(
        [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3]))
    assert len(solve_mle_exact(system, budget=104).psi) == 14
    with pytest.raises(BudgetExceeded):
        solve_mle_exact(system, budget=103)


def test_replayed_runs_give_the_toric_basis():
    # _runs replays compute_toric_basis: its final run is the toric basis
    for make in (_no3way_2x3x3, four_cycle_matrix, _no3way_3x3x3):
        A = make()
        *_, (gens, order, options) = _runs(A)
        assert tuple(buchberger_binomials(gens, order, None, **options)) \
            == toric.compute_toric_basis(A).binomials


def test_no_three_way_3x3x3_basis():
    # 110 binomials: 27 of degree 4, 54 of degree 6, 28 of degree 7 and one
    # of degree 9.  The digest pins them as they were computed before the
    # saturation runs stripped common factors, in 36 s
    basis = toric.compute_toric_basis(_no3way_3x3x3())
    assert sorted(Counter(sum(b.u) for b in basis).items()) \
        == [(4, 27), (6, 54), (7, 28), (9, 1)]
    assert hashlib.sha256(repr(basis.binomials).encode()).hexdigest() \
        == "e35b6610f410d054f515ce824c420c73d0b0f026bb67719f0a6681c05ec0bce3"
    assert basis.saturated == (0, 5, 7, 10, 11, 12, 15, 18, 22, 25, 26)
