from itertools import product

import pytest

from toricgm.graphs import (NondecomposablePartition, binary_graph,
                            chordless_cycle, cliques, is_chordal,
                            nondecomposable_partition, saturated_separations,
                            separates, validate_partition)

from fixtures import five_cycle, four_cycle, octahedron, three_chain


def test_cliques_three_chain():
    assert cliques(three_chain()) == (("X1", "X2"), ("X2", "X3"))


def test_cliques_four_cycle_edges():
    assert cliques(four_cycle()) == (("X1", "X2"), ("X1", "X4"),
                                     ("X2", "X3"), ("X3", "X4"))


def test_cliques_complete_graph():
    g = binary_graph(["X1", "X2", "X3"],
                     [("X1", "X2"), ("X2", "X3"), ("X1", "X3")])
    assert cliques(g) == (("X1", "X2", "X3"),)


def test_cliques_octahedron_triangles():
    assert cliques(octahedron()) == (
        ("X1", "X2", "X3"), ("X1", "X2", "X6"), ("X1", "X3", "X5"),
        ("X1", "X5", "X6"), ("X2", "X3", "X4"), ("X2", "X4", "X6"),
        ("X3", "X4", "X5"), ("X4", "X5", "X6"))


def test_separates_three_chain():
    assert separates(three_chain(), ["X1"], ["X3"], ["X2"])


def test_separates_four_cycle():
    g = four_cycle()
    assert separates(g, ["X1"], ["X3"], ["X2", "X4"])
    assert not separates(g, ["X1"], ["X3"], ["X2"])


def test_separates_symmetric():
    g = five_cycle()
    assert separates(g, ["X1"], ["X3"], ["X2", "X4"]) == \
        separates(g, ["X3"], ["X1"], ["X2", "X4"])


def test_saturated_separations_complete():
    g = binary_graph(["X1", "X2", "X3"],
                     [("X1", "X2"), ("X2", "X3"), ("X1", "X3")])
    assert saturated_separations(g) == []


def test_saturated_separations_three_chain():
    seps = saturated_separations(three_chain())
    assert len(seps) == 1
    s = seps[0]
    assert (s.X, s.Y, s.Z) == (("X1",), ("X3",), ("X2",))


def test_saturated_separations_four_cycle():
    seps = saturated_separations(four_cycle())
    triples = {(s.X, s.Y, s.Z) for s in seps}
    assert triples == {(("X1",), ("X3",), ("X2", "X4")),
                       (("X2",), ("X4",), ("X1", "X3"))}


def test_saturated_separations_five_cycle():
    # on a cycle, x and y stay joined off Z iff one of the two arcs
    # between them avoids Z
    g = five_cycle()
    names = g.names

    def arcs_blocked(x, y, Z):
        i, j = sorted((names.index(x), names.index(y)))
        inner = names[i + 1:j]
        outer = names[j + 1:] + names[:i]
        return any(v in Z for v in inner) and any(v in Z for v in outer)

    expected = set()
    for assign in product((0, 1, 2), repeat=len(names)):
        X, Y, Z = (tuple(v for v, a in zip(names, assign) if a == k)
                   for k in range(3))
        if X and Y and names.index(X[0]) < names.index(Y[0]) and all(
                arcs_blocked(x, y, Z) for x in X for y in Y):
            expected.add((X, Y, Z))
    found = {(s.X, s.Y, s.Z) for s in saturated_separations(g)}
    assert found == expected and len(found) == 10
    assert (("X1",), ("X3", "X4"), ("X2", "X5")) in found


def test_separation_cap():
    g = binary_graph([f"X{i}" for i in range(1, 14)], [])
    with pytest.raises(ValueError):
        saturated_separations(g, cap=12)


def test_chordal_three_chain():
    verdict, peo = is_chordal(three_chain())
    assert verdict and set(peo) == {"X1", "X2", "X3"}


def test_chordal_four_cycle_false():
    assert is_chordal(four_cycle()) == (False, None)


def test_octahedron_not_chordal():
    assert is_chordal(octahedron())[0] is False
    # the deterministic choice crosses the two nonedges {X1,X4}, {X2,X5}
    assert chordless_cycle(octahedron()) == ("X1", "X2", "X4", "X5")


def test_chordless_cycle_four_cycle():
    assert chordless_cycle(four_cycle()) == ("X1", "X2", "X3", "X4")


def test_chordless_cycle_none_for_chordal():
    assert chordless_cycle(three_chain()) is None
    g = binary_graph(["X1", "X2", "X3", "X4"],
                     [("X1", "X2"), ("X2", "X3"), ("X3", "X4"), ("X1", "X4"),
                      ("X1", "X3")])
    assert chordless_cycle(g) is None


def test_partition_four_cycle():
    part = nondecomposable_partition(four_cycle())
    assert part == NondecomposablePartition(("X1",), ("X2",), ("X3",),
                                            ("X4",), ())


def test_partition_five_cycle():
    part = nondecomposable_partition(five_cycle())
    assert part.A == ("X1",) and part.B == ("X2",) and part.C == ("X3",)
    assert set(part.D) == {"X4", "X5"} and part.E == ()
    validate_partition(five_cycle(), part)


def test_partition_with_pendant():
    g = binary_graph(["X1", "X2", "X3", "X4", "X5"],
                     [("X1", "X2"), ("X2", "X3"), ("X3", "X4"), ("X1", "X4"),
                      ("X1", "X5")])
    part = nondecomposable_partition(g)
    assert part.E == ("X5",)
    validate_partition(g, part)


def test_partition_rejects_chordal():
    with pytest.raises(ValueError):
        nondecomposable_partition(three_chain())


def test_partition_validator_rejects_bad_blocks():
    g = four_cycle()
    bad = NondecomposablePartition(("X1",), ("X3",), ("X2",), ("X4",), ())
    with pytest.raises(ValueError):
        validate_partition(g, bad)


def _two_triangles():
    return binary_graph([f"X{i}" for i in range(1, 7)],
                        [("X1", "X2"), ("X2", "X3"), ("X1", "X3"),
                         ("X4", "X5"), ("X5", "X6"), ("X4", "X6")])


@pytest.mark.parametrize("g, blocks, message", [
    (four_cycle(), [["X1"], ["X2"], ["X3"], ["X4"], ["X1"]], "not disjoint"),
    (five_cycle(), [["X1"], ["X2"], ["X3"], ["X4"], []], "do not cover"),
    (four_cycle(), [[], ["X1"], ["X2"], ["X3", "X4"], []], "must be nonempty"),
    # X1 and X3 are not adjacent
    (five_cycle(), [["X1", "X3"], ["X2"], ["X4"], ["X5"], []],
     "block not connected"),
    # the chord X1-X3 gives X1 and X3 three neighbours among the blocks
    (binary_graph(["X1", "X2", "X3", "X4"],
                  [("X1", "X2"), ("X2", "X3"), ("X3", "X4"), ("X1", "X4"),
                   ("X1", "X3")]),
     [["X1"], ["X2"], ["X3"], ["X4"], []], "not a cycle"),
    # every vertex has two neighbours among the blocks, but they make two
    # triangles
    (_two_triangles(), [["X1"], ["X2", "X3"], ["X4"], ["X5", "X6"], []],
     "not a cycle"),
])
def test_partition_validator_refusals(g, blocks, message):
    part = NondecomposablePartition(*map(tuple, blocks))
    with pytest.raises(ValueError, match=message):
        validate_partition(g, part)


def test_minimal_separators_are_cliques_for_chordal():
    # brute force on small chordal graphs: every minimal (X,Y)-separator is complete
    from itertools import combinations
    graphs = [three_chain(),
              binary_graph(["X1", "X2", "X3", "X4"],
                           [("X1", "X2"), ("X2", "X3"), ("X3", "X4")]),
              binary_graph(["X1", "X2", "X3", "X4", "X5"],
                           [("X1", "X2"), ("X2", "X3"), ("X3", "X4"),
                            ("X1", "X3"), ("X3", "X5")])]
    for g in graphs:
        verdict, _ = is_chordal(g)
        assert verdict
        names = g.names
        for x, y in combinations(names, 2):
            if g.has_edge(x, y):
                continue
            rest = [v for v in names if v not in (x, y)]
            for r in range(len(rest) + 1):
                for Z in combinations(rest, r):
                    if not separates(g, [x], [y], Z):
                        continue
                    minimal = all(not separates(g, [x], [y],
                                                [z for z in Z if z != w])
                                  for w in Z)
                    if minimal:
                        assert all(g.has_edge(a, b)
                                   for a, b in combinations(Z, 2))
