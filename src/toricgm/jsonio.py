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


def _variables(data, path):
    out = []
    for entry in _require(data, "variables", path):
        try:
            out.append(VariableSpec(str(entry["name"]), int(entry["levels"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: bad variable entry {entry!r}: {exc}") \
                from None
    return out


def read_graph(path):
    data = _load(path)
    variables = _variables(data, path)
    edges = _require(data, "edges", path)
    try:
        return UndirectedGraph(variables, [tuple(map(str, e)) for e in edges])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_generators(path):
    data = _load(path)
    variables = _variables(data, path)
    gens = _require(data, "generators", path)
    return StateSpace(variables), [tuple(map(str, g)) for g in gens]


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
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise FormatError(f"unreadable numeric value {text!r}") from None


def read_distribution(path):
    data = _load(path)
    order = _require(data, "order", path)
    if order != STATE_ORDER:
        raise FormatError(f"{path}: unsupported state order {order!r}")
    values = [parse_value(v) for v in _require(data, "values", path)]
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
    raw = [parse_value(v) for v in _require(data, "values", path)]
    if any(x != int(x) for x in raw):
        raise FormatError(f"{path}: counts must be integers")
    try:
        return CountTable([int(x) for x in raw])
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
    out = []
    for entry in _require(data, "binomials", path):
        u = tuple(int(x) for x in entry["u"])
        v = tuple(int(x) for x in entry["v"])
        if ncols is not None and len(u) != ncols:
            raise FormatError(f"{path}: binomial arity {len(u)} does not "
                              f"match the model ({ncols} cells)")
        out.append(Binomial(u, v))
    return data.get("order", "grevlex"), out


def _dump(payload, path):
    text = json.dumps(payload, indent=1, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
