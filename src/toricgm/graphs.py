"""Undirected graphs over model variables.

Cliques, graph separation, chordality, chordless cycles and the five-block
partitions that contract a non-chordal graph onto a chordless four-cycle.
Graphs are small (desk scale), so the algorithms favor exactness and
determinism over asymptotic cleverness.  One breadth-first search, in
variable order, serves separation, block connectivity and chordless cycles.
"""

from dataclasses import dataclass
from itertools import combinations, product

from .models import StateSpace, VariableSpec, build_loglinear_matrix


class UndirectedGraph:
    """Simple undirected graph whose vertices are model variables."""

    __slots__ = ("variables", "edges", "_index", "_adj")

    def __init__(self, variables, edges):
        variables = tuple(variables)
        index = {v.name: i for i, v in enumerate(variables)}
        if len(index) != len(variables):
            raise ValueError("duplicate variable names")
        canon = set()
        for a, b in edges:
            if a not in index or b not in index:
                raise ValueError(f"edge endpoint {a!r}/{b!r} not a vertex")
            if a == b:
                raise ValueError(f"loop at {a!r}")
            if index[a] > index[b]:
                a, b = b, a
            canon.add((a, b))
        self.variables = variables
        self.edges = tuple(sorted(canon, key=lambda e: (index[e[0]], index[e[1]])))
        self._index = index
        # the edges are sorted, so each vertex's neighbours come in order
        self._adj = {v.name: {} for v in variables}
        for a, b in self.edges:
            self._adj[a][b] = self._adj[b][a] = None

    @property
    def names(self):
        return tuple(v.name for v in self.variables)

    def var_index(self, name):
        return self._index[name]

    def neighbors(self, name):
        """The neighbours of a vertex, a set-like view in variable order."""
        return self._adj[name].keys()

    def has_edge(self, a, b):
        return b in self._adj[a]

    def space(self):
        return StateSpace(self.variables)

    def __eq__(self, other):
        return (isinstance(other, UndirectedGraph)
                and self.variables == other.variables and self.edges == other.edges)

    def __hash__(self):
        return hash((self.variables, self.edges))

    def __repr__(self):
        return f"UndirectedGraph({self.names}, edges={self.edges})"


def binary_graph(names, edges):
    """Convenience constructor: all variables binary."""
    return UndirectedGraph([VariableSpec(n, 2) for n in names], edges)


def cliques(g):
    """All maximal cliques, each sorted by variable order, list sorted."""
    names = list(g.names)
    result = []

    def extend(r, p, x):
        if not p and not x:
            result.append(tuple(sorted(r, key=g.var_index)))
            return
        for v in sorted(p, key=g.var_index):
            extend(r | {v}, p & g.neighbors(v), x & g.neighbors(v))
            p = p - {v}
            x = x | {v}

    extend(set(), set(names), set())
    result.sort(key=lambda c: tuple(g.var_index(n) for n in c))
    return tuple(result)


def build_graph_matrix(g):
    """Model matrix of the undirected graphical model (clique generators)."""
    return build_loglinear_matrix(g.space(), cliques(g))


def _reachable(g, start, allowed):
    """Breadth-first search from the start vertices through vertices of the
    set allowed alone, visiting neighbours in variable order: {vertex
    reached: the vertex it was reached from}, each start vertex mapped to
    None."""
    parent = dict.fromkeys(start)
    queue = list(parent)
    for v in queue:
        for w in g.neighbors(v):
            if w in allowed and w not in parent:
                parent[w] = v
                queue.append(w)
    return parent


def separates(g, X, Y, Z):
    """True iff every path from X to Y passes through Z."""
    X, Y, Z = set(X), set(Y), set(Z)
    if (X & Y) or (X & Z) or (Y & Z):
        raise ValueError("X, Y, Z must be disjoint")
    return _reachable(g, X, g._adj.keys() - Z).keys().isdisjoint(Y)


@dataclass(frozen=True)
class Separation:
    """A saturated separation statement: Z separates X from Y."""
    X: tuple
    Y: tuple
    Z: tuple


def saturated_separations(g, cap=12):
    """All saturated (X, Y, Z) with Z separating, deduplicated under X<->Y.

    Brute force over the 3^n assignments of vertices to the three blocks;
    refuses graphs above the vertex cap.
    """
    names = g.names
    n = len(names)
    if n > cap:
        raise ValueError(f"vertex count {n} exceeds cap {cap}")
    out = []
    for assign in product((0, 1, 2), repeat=n):
        X = tuple(names[i] for i in range(n) if assign[i] == 0)
        Y = tuple(names[i] for i in range(n) if assign[i] == 1)
        Z = tuple(names[i] for i in range(n) if assign[i] == 2)
        if not X or not Y:
            continue
        if g.var_index(X[0]) > g.var_index(Y[0]):
            continue  # canonical orientation, X first
        if separates(g, X, Y, Z):
            out.append(Separation(X, Y, Z))
    return out


def is_chordal(g):
    """(verdict, perfect elimination order or None) by maximum cardinality search."""
    names = list(g.names)
    weights = {v: 0 for v in names}
    visited = []
    seen = set()
    for _ in names:
        v = max((v for v in names if v not in seen),
                key=lambda v: (weights[v], -g.var_index(v)))
        visited.append(v)
        seen.add(v)
        for w in g.neighbors(v):
            if w not in seen:
                weights[w] += 1
    peo = list(reversed(visited))
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = [w for w in g.neighbors(v) if pos[w] > pos[v]]
        if not later:
            continue
        first = min(later, key=lambda w: pos[w])
        for w in later:
            if w != first and not g.has_edge(first, w):
                return False, None
    return True, tuple(peo)


def _canonical_cycle(g, cycle):
    """Lexicographically smallest rotation/reflection (by vertex index)."""
    k = len(cycle)
    best = None
    for start in range(k):
        for step in (1, -1):
            seq = tuple(cycle[(start + step * i) % k] for i in range(k))
            key = tuple(g.var_index(v) for v in seq)
            if best is None or key < best[0]:
                best = (key, seq)
    return best[1]


def chordless_cycle(g):
    """Some chordless cycle of length >= 4, or None when the graph is chordal.

    For each nonedge {x, y} and common neighbor v, take a shortest x-y path
    avoiding the closed neighborhood of v; together with v this is a
    chordless cycle.  The shortest (then lexicographically smallest
    canonical sequence) over all candidates is returned.
    """
    names = g.names
    best = None
    for x, y in combinations(names, 2):
        if g.has_edge(x, y):
            continue
        common = sorted(g.neighbors(x) & g.neighbors(y), key=g.var_index)
        for v in common:
            banned = (g.neighbors(v) | {v}) - {x, y}
            # BFS from x: its path to y is a shortest one
            prev = _reachable(g, [x], g._adj.keys() - banned)
            if y not in prev:
                continue
            path = []
            cur = y
            while cur is not None:
                path.append(cur)
                cur = prev[cur]
            cycle = _canonical_cycle(g, tuple(path) + (v,))
            key = (len(cycle), tuple(g.var_index(u) for u in cycle))
            if best is None or key < best[0]:
                best = (key, cycle)
    if best is None:
        return None
    cycle = best[1]
    _assert_chordless(g, cycle)
    return cycle


def _assert_chordless(g, cycle):
    k = len(cycle)
    for i in range(k):
        if not g.has_edge(cycle[i], cycle[(i + 1) % k]):
            raise AssertionError("cycle edge missing")
    for i, j in combinations(range(k), 2):
        if (j - i) % k in (1, k - 1):
            continue
        if g.has_edge(cycle[i], cycle[j]):
            raise AssertionError("cycle has a chord")


@dataclass(frozen=True)
class NondecomposablePartition:
    """Five disjoint blocks contracting the graph onto a chordless 4-cycle.

    Blocks A, B, C, D are nonempty, connected, appear in cyclic order
    (A-B, B-C, C-D, D-A edges present; A-C, B-D absent) and their union
    induces a chordless cycle; E is the rest of the vertices.
    """
    A: tuple
    B: tuple
    C: tuple
    D: tuple
    E: tuple

    def blocks(self):
        return (self.A, self.B, self.C, self.D, self.E)


def _connected(g, vertices):
    vertices = set(vertices)
    return _reachable(g, [next(iter(vertices))], vertices).keys() == vertices


def _blocks_adjacent(g, P, Q):
    return any(g.has_edge(a, b) for a in P for b in Q)


def validate_partition(g, part):
    """Check the five defining properties; raises ValueError on failure.

    Opposite blocks need no check: once the blocks' union induces a cycle,
    each connected block is an arc of it, and an arc meets only the two
    arcs beside it.
    """
    blocks = part.blocks()
    flat = [v for blk in blocks for v in blk]
    if len(set(flat)) != len(flat):
        raise ValueError("blocks are not disjoint")
    if set(flat) != set(g.names):
        raise ValueError("blocks do not cover the vertex set")
    core = (part.A, part.B, part.C, part.D)
    if any(not blk for blk in core):
        raise ValueError("blocks A, B, C, D must be nonempty")
    for blk in core:
        if not _connected(g, blk):
            raise ValueError("cycle block not connected")
    union = [v for blk in core for v in blk]
    union_set = set(union)
    for v in union:
        deg = len(g.neighbors(v) & union_set)
        if deg != 2:
            raise ValueError("induced subgraph on the cycle blocks is not a cycle")
    if not _connected(g, union):
        raise ValueError("induced subgraph on the cycle blocks is not a cycle")
    pairs = [(part.A, part.B), (part.B, part.C), (part.C, part.D), (part.D, part.A)]
    for P, Q in pairs:
        if not _blocks_adjacent(g, P, Q):
            raise ValueError("consecutive blocks must be adjacent")


def nondecomposable_partition(g):
    """Standard partition from a chordless cycle: singleton A, B, C blocks.

    A = first cycle vertex, B = second, C = third, D = the remaining cycle
    vertices, E = everything off the cycle.  Raises ValueError on chordal
    input; the result always passes validate_partition.
    """
    cycle = chordless_cycle(g)
    if cycle is None:
        raise ValueError("graph is chordal: no nondecomposable partition")
    part = NondecomposablePartition(
        A=(cycle[0],), B=(cycle[1],), C=(cycle[2],), D=tuple(cycle[3:]),
        E=tuple(v for v in g.names if v not in cycle))
    validate_partition(g, part)
    return part
