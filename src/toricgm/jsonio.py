"""Bit-exact JSON file formats for the command line.

Rationals travel as strings ("1/8" or "0.125") so nothing is rounded; a
number literal in any file is read as the exact decimal it spells, and an
error quotes it as written.  State order is declared explicitly in
distribution files; a basis file's term order must be one of those that
`orders` names.  Parse errors carry line/column positions from the
JSON decoder.
"""

import json
import re
from fractions import Fraction

from .graphs import UndirectedGraph
from .models import (CountTable, Distribution, ModelMatrix, StateSpace,
                     VariableSpec, _integral, validate_generators)
from .orders import KINDS
from .polynomials import Binomial

STATE_ORDER = "lex-last-fastest"
# A number, a literal in any file or a string in a distribution or count
# file, is read exactly, which builds 10 ** |exponent|; a larger exponent
# is refused, so that a short number such as 1e999999999 fails at once
# rather than after minutes.
MAX_LITERAL_EXPONENT = 1000
# An error message quotes at most this many characters of a refused input.
EXCERPT = 80


class FormatError(ValueError):
    """Malformed input file (bad JSON or a violated schema/invariant)."""


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_exact_literal)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno} column {exc.colno}: "
                          f"{exc.msg}") from None
    except ValueError as exc:  # e.g. a number literal parse_float refuses
        raise FormatError(f"{path}: {exc}") from None
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from None


def _excerpt(text):
    """text for an error message: whole, or when longer than EXCERPT its
    first EXCERPT characters and its length."""
    if len(text) <= EXCERPT:
        return text
    return f"{text[:EXCERPT]}... ({len(text)} characters)"


def _require(data, key, path):
    if not isinstance(data, dict) or key not in data:
        raise FormatError(f"{path}: missing key {key!r}")
    return data[key]


def _each(data, key, parse, path):
    """parse(entry) for each entry of the list under key; a malformed list
    or entry is a FormatError naming the file."""
    items = _require(data, key, path)
    if not isinstance(items, list):
        raise FormatError(f"{path}: {key!r} must be a list")
    out = []
    for entry in items:
        try:
            out.append(parse(entry))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: bad {key!r} entry "
                              f"{_excerpt(repr(entry))}: {exc}") from None
    return out


def _integer(x, what):
    """The integer value of a number read from a file.  A JSON true or
    false is not a number there, though Python takes it as 1 or 0."""
    if isinstance(x, bool):
        raise ValueError(f"{what} is not an integer")
    return _integral(x, what)


def _names(entry):
    if not isinstance(entry, list):
        raise TypeError("expected a list of names")
    return tuple(map(str, entry))


def _variables(data, path):
    return _each(data, "variables",
                 lambda e: VariableSpec(str(e["name"]), _integer(
                     e["levels"], f"levels {e['levels']!r}")), path)


def read_graph(path):
    data = _load(path)
    variables = _variables(data, path)
    edges = _each(data, "edges", _names, path)
    try:
        return UndirectedGraph(variables, edges)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_generators(path):
    data = _load(path)
    variables = _variables(data, path)
    gens = _each(data, "generators", _names, path)
    try:
        space = StateSpace(variables)
        validate_generators(space, gens)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return space, gens


def read_matrix(path):
    data = _load(path)
    rows = _require(data, "rows", path)
    columns = _require(data, "columns", path)
    try:
        return ModelMatrix(
            [[_integer(x, f"entry {x!r} at row {i}, column {j}")
              for j, x in enumerate(row["entries"])]
             for i, row in enumerate(rows)],
            row_labels=[str(row["label"]) for row in rows],
            col_labels=[str(c) for c in columns])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: bad matrix entry: {exc}") from None
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_matrix(A, path):
    payload = {
        "rows": [{"label": lbl, "entries": list(row)}
                 for lbl, row in zip(A.row_labels, A.rows)],
        "columns": list(A.col_labels),
    }
    _dump(payload, path)


def parse_value(text):
    """Exact Fraction for rational/decimal strings, float for the strings
    that spell a value that is not finite ("inf", "nan"); a JSON boolean
    is not a number, and any other number read from a file comes back as
    it is.  A string whose exact value would cost more than its length
    suggests is refused: one with a decimal exponent beyond
    MAX_LITERAL_EXPONENT, and one with more digits than int() converts
    (4,300 by default), which Fraction refuses and float would round."""
    if isinstance(text, bool):
        raise FormatError(f"boolean {text!r} is not a number")
    if isinstance(text, (int, float, Fraction)):
        return text
    if isinstance(text, str):
        _bound_exponent(text)
    try:
        return Fraction(text)
    except (TypeError, ValueError):
        pass
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise FormatError("unreadable numeric value "
                          f"{_excerpt(repr(text))}") from None
    digits = sum(map(str.isdigit, text))
    if digits:
        raise FormatError(f"numeric value of {digits} digits cannot be read "
                          "exactly")
    return value


# The decimal exponent at the end of a number such as 3e-2, " 1E+5 " or
# 1e1_000 (Fraction reads digits grouped by underscores).
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _bound_exponent(text):
    """Refuse a number with a decimal exponent beyond MAX_LITERAL_EXPONENT:
    its exact value would build 10 ** |exponent|."""
    match = _EXPONENT.search(text)
    exponent = match[1].replace("_", "").lstrip("0") if match else ""
    if len(exponent) > len(str(MAX_LITERAL_EXPONENT)) \
            or int(exponent or 0) > MAX_LITERAL_EXPONENT:
        raise FormatError(f"number {_excerpt(text)} has a decimal exponent "
                          f"beyond {MAX_LITERAL_EXPONENT}")


class _Literal(Fraction):
    """A Fraction that prints as the text it was built from, such as the
    JSON number literal 2.50, so that an error quotes it as written."""

    __slots__ = ("text",)

    def __new__(cls, numerator=0, denominator=None):
        # Fraction's own methods, such as from_float, may pass two integers
        literal = super().__new__(cls, numerator, denominator)
        literal.text = (str(numerator) if denominator is None
                        else f"{numerator}/{denominator}")
        return literal

    def __repr__(self):
        return self.text

    def __format__(self, spec):
        return format(self.text, spec)

    __str__ = __repr__


def _exact_literal(text):
    """The exact value of a JSON number literal such as 0.03 or 3e-2."""
    _bound_exponent(text)
    return _Literal(text)


def _read_values(path, build):
    """build(values) for the values of a distribution or count file; a
    ValueError of build is a FormatError naming the file."""
    data = _load(path)
    order = _require(data, "order", path)
    if order != STATE_ORDER:
        raise FormatError(f"{path}: unsupported state order "
                          f"{_excerpt(repr(order))}")
    values = _each(data, "values", parse_value, path)
    try:
        return build(values)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_distribution(path):
    """The Distribution in a file.  A number literal such as 0.03 reads as
    the exact decimal 3/100, as the string "0.03" does: values are compared
    exactly, and the float nearest 0.03 is not 3/100."""
    return _read_values(path, Distribution)


def read_counts(path):
    return _read_values(path, CountTable)


def write_basis(basis, names, path):
    _dump({
        "order": basis.order.name(),
        "binomials": [{"u": list(b.u), "v": list(b.v), "text": b.render(names)}
                      for b in basis.binomials],
    }, path)


def _exponents(entry):
    out = [_integer(x, f"exponent {x!r}") for x in entry]
    if any(x < 0 for x in out):
        raise ValueError(f"negative exponent in {entry!r}")
    return out


def read_basis(path, ncols=None):
    """(order name, binomials) of a basis file; the order defaults to grevlex."""
    data = _load(path)
    out = _each(data, "binomials",
                lambda e: Binomial(_exponents(e["u"]), _exponents(e["v"])),
                path)
    for b in out:
        if ncols is not None and b.nvars != ncols:
            raise FormatError(f"{path}: binomial arity {b.nvars} does not "
                              f"match the model ({ncols} cells)")
    order = data.get("order", "grevlex")
    if order not in KINDS:
        raise FormatError(f"{path}: unknown term order {_excerpt(repr(order))}")
    return order, out


def _dump(payload, path):
    text = json.dumps(payload, indent=1, sort_keys=True)
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from None
