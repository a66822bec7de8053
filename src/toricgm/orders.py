"""Term orders on exponent-vector monomials.

Two kinds: lexicographic and graded reverse lexicographic.  Each step of
the lattice-ideal saturation in `toric`, one per planned variable x_i,
runs under grevlex with x_i last in the priority list.  Model matrices
have equal column sums, so every ideal there is homogeneous, and for a
homogeneous polynomial in that order x_i divides the leading term iff it
divides every term.  So dividing each element of the reduced basis by its
largest x_i power gives a basis of I : x_i^inf (Sturmfels, Groebner Bases
and Convex Polytopes, Lemma 12.1, after Bayer-Stillman).

Orders are exposed through sort keys: key(u) < key(v) iff x^u < x^v.
Both are total, multiplicative and well-orders on nonnegative exponent
vectors.  Every key is linear in the exponent vector: key(u + v) is the
elementwise sum of key(u) and key(v).  The generic Buchberger engine in
`polynomials` relies on this to key a shifted term by one addition
instead of a recomputation; its heap holds neg_key, the key negated, so
that the largest term comes first.
"""

# the kind names, which --order and a basis file's order are checked against
KINDS = ("lex", "grevlex")


class TermOrder:
    """A term order of fixed arity with an indeterminate priority list."""

    __slots__ = ("kind", "nvars", "priority", "_rev")

    def __init__(self, kind, nvars, priority=None):
        if kind not in KINDS:
            raise ValueError(f"unknown term order kind {kind!r}")
        if priority is None:
            priority = tuple(range(nvars))
        else:
            priority = tuple(priority)
            if sorted(priority) != list(range(nvars)):
                raise ValueError("priority must be a permutation of the variables")
        self.kind = kind
        self.nvars = nvars
        self.priority = priority
        self._rev = tuple(reversed(priority))

    @classmethod
    def lex(cls, nvars, priority=None):
        return cls("lex", nvars, priority)

    @classmethod
    def grevlex(cls, nvars, priority=None):
        return cls("grevlex", nvars, priority)

    def key(self, m):
        """Sort key; larger key means larger monomial."""
        if self.kind == "lex":
            return tuple(m[p] for p in self.priority)
        return (sum(m), *(-m[p] for p in self._rev))

    def neg_key(self, m):
        """key(m) negated elementwise: the heap key of the generic
        Buchberger engine, which pops the largest term first."""
        return tuple(-k for k in self.key(m))

    def name(self):
        return self.kind

    def __eq__(self, other):
        return (isinstance(other, TermOrder)
                and (self.kind, self.nvars, self.priority)
                == (other.kind, other.nvars, other.priority))

    def __hash__(self):
        return hash((self.kind, self.nvars, self.priority))

    def __repr__(self):
        return f"TermOrder({self.name()}, nvars={self.nvars})"
