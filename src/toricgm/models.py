"""State spaces and their marginal cells, log-linear generator sets, model
matrices, count tables and the monomial parametrization map.

States are enumerated in mixed-radix order with the last variable varying
fastest, so binary states read 000, 001, 010, ... and match the usual
probability-subscript convention.  Model matrices are validated on
construction: nonnegative integer entries (an entry with no integral value
is rejected, not truncated) and equal, positive column sums.  Count tables
hold nonnegative integer counts, read by the same integrality test.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import itemgetter, mul

from .linalg import echelon_transform, integer_row_echelon
from .polynomials import monomial_value


@dataclass(frozen=True)
class VariableSpec:
    name: str
    levels: int

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError(f"variable {self.name!r} needs at least 2 levels")


class StateSpace:
    """Ordered discrete variables and their joint state enumeration."""

    __slots__ = ("variables", "_index", "_states")

    def __init__(self, variables):
        variables = tuple(variables)
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.variables = variables
        self._index = {v.name: i for i, v in enumerate(variables)}
        self._states = tuple(product(*[range(v.levels) for v in variables]))

    @property
    def size(self):
        return len(self._states)

    @property
    def names(self):
        return tuple(v.name for v in self.variables)

    def states(self):
        return self._states

    def var_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def state_index(self, state):
        if len(state) != len(self.variables):
            raise ValueError(f"state of length {len(state)} in a space of "
                             f"{len(self.variables)} variables")
        idx = 0
        for value, var in zip(state, self.variables):
            if not 0 <= value < var.levels:
                raise ValueError(f"level {value} out of range for {var.name}")
            idx = idx * var.levels + value
        return idx

    def marginal_cells(self, names):
        """{level tuple: indices of the states that agree with it} for the
        ordered variable names, level tuples in product order with the last
        name fastest, indices increasing; one pass over the states."""
        positions = [self.var_index(n) for n in names]
        cells = {level: [] for level in product(
            *[range(self.variables[p].levels) for p in positions])}
        for idx, state in enumerate(self._states):
            cells[tuple(state[p] for p in positions)].append(idx)
        return {level: tuple(cell) for level, cell in cells.items()}

    def state_label(self, state):
        if all(v.levels <= 10 for v in self.variables):
            return "".join(str(x) for x in state)
        return ".".join(str(x) for x in state)

    def column_labels(self):
        return tuple(self.state_label(s) for s in self._states)

    def __eq__(self, other):
        return isinstance(other, StateSpace) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        spec = ", ".join(f"{v.name}:{v.levels}" for v in self.variables)
        return f"StateSpace({spec})"


def validate_generators(space, generators):
    """Normalized generator list: tuples of names in variable order."""
    norm = []
    for gen in generators:
        gen = tuple(gen)
        if not gen:
            raise ValueError("empty generator")
        for name in gen:
            space.var_index(name)
        ordered = tuple(sorted(set(gen), key=space.var_index))
        if len(ordered) != len(gen):
            raise ValueError(f"repeated variable in generator {gen}")
        norm.append(ordered)
    if len(set(norm)) != len(norm):
        raise ValueError("duplicate generators")
    return tuple(norm)


def integer_value(x, what):
    """The integer value of x; ValueError saying that `what` (x as the
    caller names it) is not an integer when x has none (nan and inf too)."""
    try:
        k = int(x)
    except (ValueError, OverflowError):
        k = None
    if k is None or k != x:
        raise ValueError(f"{what} is not an integer")
    return k


class CountTable:
    """Nonnegative integer cell counts with a positive total.

    A count may be any number with an integral value (2, 2.0, Fraction(4,
    2)); any other value raises ValueError naming its index, rather than
    being truncated to a different table.
    """

    __slots__ = ("values", "total")

    def __init__(self, values):
        vals = tuple(x if type(x) is int
                     else integer_value(x, f"count {x} at index {i}")
                     for i, x in enumerate(values))
        if any(x < 0 for x in vals):
            raise ValueError("negative cell count")
        total = sum(vals)
        if total <= 0:
            raise ValueError("count table must have a positive total")
        self.values = vals
        self.total = total

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


class ModelMatrix:
    """Nonnegative integer matrix with labeled rows/columns and equal,
    positive column sums (the column degree), so its toric ideal is
    homogeneous.  Its row basis (`independent_rows`), the echelon
    transform of its rows (`echelon_transform`) and its row supports
    (`row_supports`) are each computed on first use and kept."""

    __slots__ = ("rows", "row_labels", "col_labels", "column_degree",
                 "_independent_rows", "_echelon_transform", "_row_supports")

    def __init__(self, rows, row_labels=None, col_labels=None):
        rows = tuple(tuple(
            x if type(x) is int
            else integer_value(x, f"entry {x!r} at row {i}, column {j}")
            for j, x in enumerate(row)) for i, row in enumerate(rows))
        if not rows:
            raise ValueError("model matrix needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged matrix")
        if any(x < 0 for r in rows for x in r):
            raise ValueError("negative entry in model matrix")
        sums = [sum(rows[i][j] for i in range(len(rows))) for j in range(ncols)]
        if len(set(sums)) > 1:
            raise ValueError("column sums differ")
        if sums and sums[0] == 0:
            raise ValueError("column degree 0: every column sums to 0")
        if row_labels is None:
            row_labels = tuple(f"r{i}" for i in range(len(rows)))
        if col_labels is None:
            col_labels = tuple(f"c{j}" for j in range(ncols))
        if len(row_labels) != len(rows) or len(col_labels) != ncols:
            raise ValueError("label count mismatch")
        self.rows = rows
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)
        self.column_degree = sums[0] if sums else 0
        self._independent_rows = None
        self._echelon_transform = None
        self._row_supports = None

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    def independent_rows(self):
        """Indices of the first rank(A) linearly independent rows, increasing.

        They are the pivot columns of one integer row echelon of the columns
        of A (a column of A^T gets a pivot iff it is not in the span of the
        columns before it).  Computed on the first call and cached.
        """
        if self._independent_rows is None:
            _, pivots = integer_row_echelon(list(zip(*self.rows)))
            self._independent_rows = tuple(c for _, c in pivots)
        return self._independent_rows

    def echelon_transform(self):
        """(pivots, pivot rows, transforms, null transforms) of the
        fraction-free reduced echelon form of [A | I]
        (`linalg.echelon_transform`): with it, A x = b is brought to reduced
        echelon form, or found inconsistent, by one integer product per
        row.  Computed on the first call and kept."""
        if self._echelon_transform is None:
            self._echelon_transform = echelon_transform(self.rows)
        return self._echelon_transform

    def row_supports(self):
        """Per row, (columns, pick, entries): the columns of its nonzero
        entries, in increasing order; an itemgetter that picks them from a
        vector (as a one-element list when there is one column), so that
        sum(pick(x)) is the row times x for a 0/1 row; and the entries
        there, or None when every one is 1.  Computed on the first call and
        kept."""
        if self._row_supports is None:
            supports = []
            for row in self.rows:
                cols = tuple(j for j, e in enumerate(row) if e)
                if len(cols) > 1:
                    pick = itemgetter(*cols)
                elif cols:
                    pick = itemgetter(slice(cols[0], cols[0] + 1))
                else:
                    pick = itemgetter(slice(0))
                entries = tuple(row[j] for j in cols)
                supports.append((cols, pick, None if set(entries) == {1}
                                 else entries))
            self._row_supports = tuple(supports)
        return self._row_supports

    def column(self, j):
        return tuple(row[j] for row in self.rows)

    def apply(self, x):
        """A times a length-ncols vector, exact."""
        if len(x) != self.ncols:
            raise ValueError("dimension mismatch")
        return tuple(sum(map(mul, row, x)) for row in self.rows)

    def restrict(self, col_indices, row_indices=None):
        """Submatrix on the given columns (and optionally rows), labels kept."""
        col_indices = list(col_indices)
        if row_indices is None:
            row_indices = range(self.nrows)
        row_indices = list(row_indices)
        rows = tuple(tuple(self.rows[i][j] for j in col_indices)
                     for i in row_indices)
        return ModelMatrix(rows,
                           row_labels=tuple(self.row_labels[i] for i in row_indices),
                           col_labels=tuple(self.col_labels[j] for j in col_indices))

    def indeterminate_names(self):
        return tuple("p" + lbl for lbl in self.col_labels)

    def __eq__(self, other):
        return (isinstance(other, ModelMatrix) and self.rows == other.rows
                and self.row_labels == other.row_labels
                and self.col_labels == other.col_labels)

    def __hash__(self):
        return hash((self.rows, self.row_labels, self.col_labels))

    def __repr__(self):
        return f"ModelMatrix({self.nrows}x{self.ncols})"


def build_loglinear_matrix(space, generators):
    """0/1 model matrix of a log-linear model.

    Rows are indexed by (generator, level tuple) in generator order, level
    tuples with the last coordinate fastest.  Entry (i, j) is 1 iff state j
    projects onto row i's level tuple.
    """
    rows = []
    labels = []
    for gen in validate_generators(space, generators):
        for level, cell in space.marginal_cells(gen).items():
            row = [0] * space.size
            for j in cell:
                row[j] = 1
            rows.append(row)
            labels.append("{%s}(%s)" % (",".join(gen),
                                        "".join(str(x) for x in level)))
    return ModelMatrix(rows, row_labels=labels,
                       col_labels=space.column_labels())


class Distribution:
    """Nonnegative finite vector over the state space; exact (Fractions) or
    numeric.  A value that is not finite raises ValueError naming its index.
    The face of its support on a model matrix, once computed, is kept on the
    point (`faces`)."""

    __slots__ = ("values", "is_exact", "_faces")

    def __init__(self, values):
        vals = []
        exact = True
        for i, x in enumerate(values):
            if isinstance(x, float):
                if not math.isfinite(x):
                    raise ValueError(
                        f"probability {x} at index {i} is not finite")
                exact = False
                vals.append(x)
            else:
                vals.append(Fraction(x))
        if any(x < 0 for x in vals):
            raise ValueError("negative probability")
        self.values = tuple(vals)
        self.is_exact = exact
        self._faces = None

    def faces(self):
        """{model matrix: face of the support on it}, created on the first
        call.  `factorization` fills it, so that the facial LP and the kernel
        lattice of a point's support run once per matrix; the dict ends with
        the point, and an equal but distinct point starts with an empty one."""
        if self._faces is None:
            self._faces = {}
        return self._faces

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    @property
    def support(self):
        return frozenset(i for i, x in enumerate(self.values) if x != 0)

    def total(self):
        return sum(self.values)

    def normalized(self):
        t = self.total()
        if t == 0:
            raise ValueError("cannot normalize the zero vector")
        return Distribution(tuple(x / t for x in self.values))

    def scaled(self, factor):
        return Distribution(tuple(x * factor for x in self.values))

    def __eq__(self, other):
        return isinstance(other, Distribution) and self.values == other.values

    def __repr__(self):
        return f"Distribution({self.values!r})"


def monomial_map(A, t):
    """Image of the parameter vector t under the monomial map of A.

    Output j is the product over i of t_i^(a_ij), with 0^0 = 1; exact when
    the parameters are exact.
    """
    if len(t) != A.nrows:
        raise ValueError("parameter vector length must match row count")
    params = [x if isinstance(x, float) else Fraction(x) for x in t]
    if any(x < 0 for x in params):
        raise ValueError("parameters must be nonnegative")
    one = 1.0 if any(isinstance(x, float) for x in params) else Fraction(1)
    return Distribution([monomial_value(params, col, one)
                         for col in zip(*A.rows)])
