"""Term orders on exponent-vector monomials.

Three kinds: lexicographic, graded reverse lexicographic, and "cheapest"
orders that give one variable weight zero (grevlex tiebreak).  Each step of
the lattice-ideal saturation in `toric`, one per planned variable, runs
under the cheapest order of its variable.  Model matrices have equal column
sums, so every binomial there is homogeneous, and then if the cheap
variable divides the leading monomial it divides the trailing one too.
That is what dividing out the variable needs: the stripped reduced basis
generates I : x_i^inf (Sturmfels, Groebner Bases and Convex Polytopes,
Lemma 12.1).

Orders are exposed through sort keys: key(u) < key(v) iff x^u < x^v.
All three are total, multiplicative and well-orders on nonnegative
exponent vectors.  Every key is linear in the exponent vector: key(u + v)
is the elementwise sum of key(u) and key(v).  The generic Buchberger
engine in `polynomials` relies on this to key a shifted term by one
addition instead of a recomputation.
"""


class TermOrder:
    """A term order of fixed arity with an indeterminate priority list."""

    __slots__ = ("kind", "nvars", "priority", "cheap_index", "_rev")

    def __init__(self, kind, nvars, priority=None, cheap_index=None):
        if kind not in ("lex", "grevlex", "cheapest"):
            raise ValueError(f"unknown term order kind {kind!r}")
        if priority is None:
            priority = tuple(range(nvars))
        else:
            priority = tuple(priority)
            if sorted(priority) != list(range(nvars)):
                raise ValueError("priority must be a permutation of the variables")
        if kind == "cheapest":
            if cheap_index is None or not 0 <= cheap_index < nvars:
                raise ValueError("cheapest order needs a valid variable index")
        self.kind = kind
        self.nvars = nvars
        self.priority = priority
        self.cheap_index = cheap_index
        self._rev = tuple(reversed(priority))

    @classmethod
    def lex(cls, nvars, priority=None):
        return cls("lex", nvars, priority)

    @classmethod
    def grevlex(cls, nvars, priority=None):
        return cls("grevlex", nvars, priority)

    @classmethod
    def cheapest(cls, cheap_index, nvars, priority=None):
        return cls("cheapest", nvars, priority, cheap_index)

    def key(self, m):
        """Sort key; larger key means larger monomial."""
        if self.kind == "lex":
            return tuple(m[p] for p in self.priority)
        if self.kind == "grevlex":
            return (sum(m), *(-m[p] for p in self._rev))
        deg = sum(m)
        return (deg - m[self.cheap_index], deg, *(-m[p] for p in self._rev))

    def name(self):
        if self.kind == "cheapest":
            return f"cheapest({self.cheap_index})"
        return self.kind

    def __eq__(self, other):
        return (isinstance(other, TermOrder)
                and (self.kind, self.nvars, self.priority, self.cheap_index)
                == (other.kind, other.nvars, other.priority, other.cheap_index))

    def __hash__(self):
        return hash((self.kind, self.nvars, self.priority, self.cheap_index))

    def __repr__(self):
        return f"TermOrder({self.name()}, nvars={self.nvars})"
