"""The S-pair routine against a reference pass, and its exact work counts.

`_s_pair_loop` decides which S-pairs to open, close and treat from the
leading monomials alone.  The reference below is the same Gebauer-Moeller
update written on full-width lcm tuples: candidates sorted by (degree,
lcm, index), the M and F criteria as divisibility of one lcm by another,
the chain criterion by comparing lcm tuples.  Open pairs are ranked by
the lcm's key under the order (the normal strategy, which the generic
engine uses) or, with no key, by the lcm's degree (the binomial engine),
ties by index pair in both.  Both must treat the same pairs in the same
order and retire the same elements, and so must `buchberger_binomials`
itself, which builds its S-binomials from sparse leads and carried
support masks.
"""

import hashlib
import heapq
import random
from collections import Counter
from operator import add as _add, le

import pytest

from toricgm import polynomials, toric
from toricgm.graphs import UndirectedGraph, build_graph_matrix
from toricgm.models import StateSpace, VariableSpec, build_loglinear_matrix
from toricgm.orders import TermOrder
from toricgm.polynomials import (BinomialRewriter, BudgetExceeded,
                                 _s_pair_loop, _support_mask,
                                 buchberger_binomials, monomial_div,
                                 monomial_lcm)

from fixtures import four_cycle_matrix, random_model


def reference_s_pair_loop(inputs, add, s_pair, leads, masks, alive, key,
                          budget, saturated=0, tail_masks=None):
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
        for (i, j), (lcm_ij, mask_ij) in pairs.items():
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
        _, i, j = heapq.heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue
        treated += 1
        if treated > budget:
            raise BudgetExceeded(f"S-pair budget of {budget} exceeded")
        new = add(s_pair(i, j))
        if new >= 0:
            update(new)


def scripted_run(loop, seed, saturated, normal):
    """Run loop on leads drawn at random: each input or treated pair adds
    a random lead and the support mask of a random tail, or nothing.  With
    normal, pairs are ranked by the order's key of their lcm, else by its
    degree.  Returns the treated pairs in order and the final alive
    flags."""
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
        masks.append(_support_mask(lead))
        alive.append(True)
        tail_masks.append(_support_mask(monomial()))
        return len(leads) - 1

    def s_pair(i, j):
        treated.append((i, j))
        return i, j

    loop(range(rng.randint(2, 12)), add, s_pair, leads, masks, alive,
         order.key if normal else None, 10 ** 6,
         saturated & ((1 << nvars) - 1), tail_masks)
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
        tail_masks.append(_support_mask(b))
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
    ("cycle4_one_3level", _cycle4_one_3level, [762]),
    # every run on the 3x3x3 no-three-way model, the former heavy tail:
    # when the saturation runs kept common factors its first run alone
    # treated 36,368 S-pairs
    ("no3way_3x3x3", _no3way_3x3x3, [972, 1034, 1050, 1021, 1015, 1014,
                                     1006, 1020, 1058, 1012, 1023, 29]),
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
