"""Bit-exact JSON file formats for the command line.

Rationals travel as strings ("1/8" or "0.125") so nothing is rounded;
state order is declared explicitly in distribution files.  Parse errors
carry line/column positions from the JSON decoder.
"""

import json
from fractions import Fraction

from .graphs import UndirectedGraph
from .models import Distribution, ModelMatrix, StateSpace, VariableSpec
from .polynomials import Binomial

STATE_ORDER = "lex-last-fastest"


class FormatError(ValueError):
    """Malformed input file (bad JSON or a violated schema/invariant)."""


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno} column {exc.colno}: "
                          f"{exc.msg}") from None
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from None


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
            raise FormatError(f"{path}: bad {key!r} entry {entry!r}: {exc}") \
                from None
    return out


def _names(entry):
    if not isinstance(entry, list):
        raise TypeError("expected a list of names")
    return tuple(map(str, entry))


def _variables(data, path):
    return _each(data, "variables",
                 lambda e: VariableSpec(str(e["name"]), int(e["levels"])), path)


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
    return StateSpace(variables), gens


def read_matrix(path):
    data = _load(path)
    rows = _require(data, "rows", path)
    columns = _require(data, "columns", path)
    try:
        return ModelMatrix(
            [row["entries"] for row in rows],
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
    """Exact Fraction for rational/decimal strings, float for the rest."""
    if isinstance(text, (int, float)):
        return Fraction(text) if isinstance(text, int) else float(text)
    try:
        return Fraction(text)
    except (TypeError, ValueError):
        pass
    try:
        return float(text)
    except (TypeError, ValueError):
        raise FormatError(f"unreadable numeric value {text!r}") from None


def _count(text):
    x = parse_value(text)
    if x != int(x):
        raise ValueError("counts must be integers")
    return int(x)


def read_distribution(path):
    data = _load(path)
    order = _require(data, "order", path)
    if order != STATE_ORDER:
        raise FormatError(f"{path}: unsupported state order {order!r}")
    values = _each(data, "values", parse_value, path)
    try:
        return Distribution(values)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_counts(path):
    from .mle import CountTable

    data = _load(path)
    order = _require(data, "order", path)
    if order != STATE_ORDER:
        raise FormatError(f"{path}: unsupported state order {order!r}")
    counts = _each(data, "values", _count, path)
    try:
        return CountTable(counts)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def basis_payload(basis, names):
    return {
        "order": basis.order.name(),
        "binomials": [{"u": list(b.u), "v": list(b.v), "text": b.render(names)}
                      for b in basis.binomials],
    }


def write_basis(basis, names, path):
    _dump(basis_payload(basis, names), path)


def read_basis(path, ncols=None):
    data = _load(path)
    out = _each(data, "binomials",
                lambda e: Binomial([int(x) for x in e["u"]],
                                   [int(x) for x in e["v"]]), path)
    for b in out:
        if ncols is not None and b.nvars != ncols:
            raise FormatError(f"{path}: binomial arity {b.nvars} does not "
                              f"match the model ({ncols} cells)")
    return data.get("order", "grevlex"), out


def _dump(payload, path):
    text = json.dumps(payload, indent=1, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
