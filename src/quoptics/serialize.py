"""Artifact and state serialization: JSON (round-trip bit-exact through
shortest-repr floats, with a column that repeats or tiles an axis stored as
that axis), and CSV and gnuplot text rendered from an artifact's own
columns (complex columns split into _re/_im pairs, floats in shortest-repr
form).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    BasisSpec,
    DensityMatrix,
    Fock,
    KetState,
    Operator,
    TwoLevel,
    ValidationError,
    _check_size,
)


@dataclass
class SeriesArtifact:
    """Named output columns plus reproducibility metadata."""

    scenario: str
    params: dict
    columns: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = {len(np.atleast_1d(v)) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValidationError(f"unequal column lengths: {lengths}")


def _axis_form(arr: np.ndarray):
    """``(axis, key, k)`` when the 1-D float64 ``arr`` is, bit for bit,
    ``np.repeat(axis, k)`` (key "repeat") or ``np.tile(axis, k)`` (key
    "tile") with at least 2 axis values and k >= 2, else None.  The repeat
    count is the run length of the first value, the tile period its first
    recurrence; bits are compared, so -0.0, NaN and inf stay exact."""
    n = arr.size
    if arr.ndim != 1 or arr.dtype != np.float64 or n < 4:
        return None
    bits = np.ascontiguousarray(arr).view(np.uint64)
    same = bits == bits[0]
    if same[1]:
        run = int(np.argmin(same))  # the first other value; 0 if none
        if run and n % run == 0 and (
                bits.reshape(-1, run) == bits[::run, None]).all():
            return arr[::run].copy(), "repeat", run
        return None
    period = int(np.argmax(same[1:])) + 1  # 1 if the value never recurs
    if period > 1 and n % period == 0 and (
            bits.reshape(-1, period) == bits[:period]).all():
        return arr[:period].copy(), "tile", n // period
    return None


def _column_payload(values, leaf=np.ndarray.tolist) -> dict:
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        return {"re": leaf(arr.real), "im": leaf(arr.imag)}
    form = _axis_form(arr)
    if form is not None:
        axis, key, k = form
        return {"axis": leaf(axis), key: k}
    return {"values": leaf(arr)}


def _axis_restore(payload: dict) -> np.ndarray:
    keys = [key for key in ("repeat", "tile") if key in payload]
    if len(keys) != 1:
        raise ValidationError(
            "an axis column needs exactly one of 'repeat' and 'tile'")
    key = keys[0]
    k = payload[key]
    if type(k) is not int or k < 1:
        raise ValidationError(f"{key!r} must be an integer >= 1, got {k!r}")
    axis = payload["axis"]
    if not (isinstance(axis, list)
            and all(type(v) in (int, float) for v in axis)):
        raise ValidationError("'axis' must be a flat list of numbers")
    # min: a count beyond float range would overflow the size message
    _check_size(len(axis) * min(k, 1e300),
                f"an axis column of {len(axis)} values, {key} {k}")
    try:
        axis = np.array(axis, dtype=np.float64)
    except OverflowError as err:
        raise ValidationError(f"'axis' holds a number beyond float64: {err}")
    return np.repeat(axis, k) if key == "repeat" else np.tile(axis, k)


def _json_object(value, what: str, *keys: str) -> dict:
    """``value`` when it is a JSON object that holds every one of ``keys``;
    ValidationError otherwise."""
    if not isinstance(value, dict):
        raise ValidationError(
            f"{what} must be a JSON object, not {type(value).__name__}")
    missing = [k for k in keys if k not in value]
    if missing:
        raise ValidationError(f"{what} lacks {', '.join(map(repr, missing))}")
    return value


def _column_restore(payload: dict) -> np.ndarray:
    _json_object(payload, "a column")
    forms = payload.keys() & {"values", "re", "im", "axis"}
    if forms not in ({"values"}, {"re", "im"}, {"axis"}):
        raise ValidationError(
            "a column needs exactly one of 'values', 're' with 'im', and "
            f"'axis'; it has the keys {sorted(payload)}")
    if "axis" in forms:
        return _axis_restore(payload)
    if "re" in forms:
        re, im = _numbers(payload, "re"), _numbers(payload, "im")
        if re.shape != im.shape:
            raise ValidationError(
                f"'re' has the shape {re.shape} and 'im' {im.shape}")
        # set the parts: re + 1j * im turns 0.0 + 1j * inf into nan and
        # -0.0 + 1j * 1.0 into 0.0 + 1j
        out = np.empty(re.shape, dtype=complex)
        out.real, out.imag = re, im
        return out
    return _numbers(payload, "values")


def _numbers(payload: dict, key: str) -> np.ndarray:
    """``payload[key]`` as one array of JSON numbers, nested as a state's
    entries are; ValidationError for strings, nulls, objects or ragged
    nesting.  The dtype numpy infers is the check, so no element is
    visited in Python."""
    try:
        arr = np.asarray(payload[key])
    except ValueError as err:
        raise ValidationError(
            f"{key!r} is not a rectangular array: {err}") from err
    if arr.dtype.kind not in "biuf":
        raise ValidationError(
            f"{key!r} must hold numbers; it reads as {arr.dtype}")
    return arr


# json's spelling of the floats whose repr is nan, inf and -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_reprs(values, spelling: dict | None = None) -> list:
    """``float.__repr__`` of each value as a float64, in the shape of
    ``values`` as nested lists, with ``spelling`` mapping the reprs of
    non-finite values to others. repr runs once per distinct bit pattern, so
    -0.0 and 0.0 stay apart, and a Wigner grid's 66049 x values cost 257
    reprs."""
    arr = np.asarray(values, dtype=np.float64)
    bits = np.ascontiguousarray(arr).reshape(-1).view(np.uint64)
    distinct, index = np.unique(bits, return_inverse=True)
    floats = distinct.view(np.float64)
    reprs = [float.__repr__(v) for v in floats.tolist()]
    if spelling:
        for i in np.flatnonzero(~np.isfinite(floats)).tolist():
            reprs[i] = spelling.get(reprs[i], reprs[i])
    return np.array(reprs, dtype=object)[index.reshape(arr.shape)].tolist()


def artifact_to_json(art: SeriesArtifact) -> str:
    """``json.dumps(doc, indent=1, sort_keys=True)`` of the artifact, byte for
    byte. With ``indent`` set json runs its pure-Python encoder, whose cost
    is float repr, so the document is dumped with a placeholder string in
    place of each 1-D float64 list, and each list is spliced in with the
    reprs of its distinct values."""
    lists = []

    def slot(arr: np.ndarray):
        if arr.ndim != 1 or arr.dtype != np.float64:
            return arr.tolist()
        lists.append(arr)
        # a NUL and the list's index, which json writes as "\u0000<index>"
        return f"\0{len(lists) - 1}"

    def dump(leaf) -> str:
        return json.dumps({
            "scenario": art.scenario,
            "params": art.params,
            "columns": {k: _column_payload(v, leaf)
                        for k, v in art.columns.items()},
            "metadata": art.metadata,
        }, indent=1, sort_keys=True)

    text = dump(slot)
    if text.count("\\u0000") != len(lists):
        # a name or string of the artifact holds a NUL as well, so the
        # placeholders are not the only ones: dump the lists in place
        return dump(np.ndarray.tolist)

    def splice(match) -> str:
        reprs = _float_reprs(lists[int(match.group(1))], _JSON_NONFINITE)
        if not reprs:
            return "[]"
        # the lists sit at doc["columns"][name][part]: items at depth 4
        return "[\n    " + ",\n    ".join(reprs) + "\n   ]"

    return re.sub(r'"\\u0000(\d+)"', splice, text)


def artifact_from_json(text: str) -> SeriesArtifact:
    doc = _json_object(json.loads(text), "an artifact document",
                       "scenario", "params", "columns", "metadata")
    for key in ("params", "columns", "metadata"):
        _json_object(doc[key], repr(key))
    return SeriesArtifact(
        scenario=doc["scenario"],
        params=doc["params"],
        columns={k: _column_restore(v) for k, v in doc["columns"].items()},
        metadata=doc["metadata"],
    )


def _text_rows(art: SeriesArtifact) -> tuple[list, list]:
    """Column headers and rows of shortest-repr floats."""
    headers = []
    cols = []
    for name, values in art.columns.items():
        arr = np.atleast_1d(np.asarray(values))
        if np.iscomplexobj(arr):
            headers += [f"{name}_re", f"{name}_im"]
            cols += [arr.real, arr.imag]
        else:
            headers.append(name)
            cols.append(arr)
    rows = list(zip(*(_float_reprs(c) for c in cols)))
    return headers, rows


def artifact_to_csv(art: SeriesArtifact) -> str:
    headers, rows = _text_rows(art)
    lines = [",".join(headers)] + [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def artifact_to_gnuplot(art: SeriesArtifact) -> str:
    """Space-separated rows, with a blank line wherever the first column
    changes: for a phase-space grid, splot-ready "x p W" blocks."""
    _, rows = _text_rows(art)
    lines = []
    for i, row in enumerate(rows):
        if i and row[0] != rows[i - 1][0]:
            lines.append("")
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Operator / state fixtures
# ---------------------------------------------------------------------------

def _basis_payload(basis: BasisSpec) -> list:
    out = []
    for f in basis.factors:
        if isinstance(f, Fock):
            out.append({"type": "fock", "n_max": f.n_max})
        elif isinstance(f, TwoLevel):
            out.append({"type": "two_level"})
        else:
            raise ValidationError(f"unknown factor {f!r}")
    return out


def _basis_restore(payload: list) -> BasisSpec:
    if not isinstance(payload, list):
        raise ValidationError(
            f"'basis' must be a JSON list, not {type(payload).__name__}")
    factors = []
    for item in payload:
        _json_object(item, "a basis factor", "type")
        if item["type"] == "fock":
            _json_object(item, "a Fock factor", "n_max")
            factors.append(Fock(item["n_max"]))
        elif item["type"] == "two_level":
            factors.append(TwoLevel())
        else:
            raise ValidationError(f"unknown factor type {item['type']!r}")
    return BasisSpec(tuple(factors))


def state_to_json(obj) -> str:
    if isinstance(obj, Operator):
        doc = {"kind": "operator", "basis": _basis_payload(obj.basis),
               "entries": _column_payload(obj.entries)}
    elif isinstance(obj, KetState):
        doc = {"kind": "ket", "basis": _basis_payload(obj.basis),
               "amplitudes": _column_payload(obj.amplitudes),
               "leakage": obj.leakage}
    elif isinstance(obj, DensityMatrix):
        doc = {"kind": "density_matrix", "basis": _basis_payload(obj.basis),
               "entries": _column_payload(obj.entries),
               "leakage": obj.leakage}
    else:
        raise ValidationError(f"cannot serialize {type(obj)!r}")
    return json.dumps(doc, sort_keys=True)


def state_from_json(text: str):
    doc = _json_object(json.loads(text), "a state document", "kind", "basis")
    basis = _basis_restore(doc["basis"])
    kind = doc["kind"]
    if kind == "operator":
        _json_object(doc, "an operator document", "entries")
        return Operator(basis, _column_restore(doc["entries"]))
    if kind == "ket":
        _json_object(doc, "a ket document", "amplitudes")
        return KetState(basis, _column_restore(doc["amplitudes"]),
                        leakage=doc.get("leakage", 0.0))
    if kind == "density_matrix":
        _json_object(doc, "a density_matrix document", "entries")
        return DensityMatrix(basis, _column_restore(doc["entries"]),
                             leakage=doc.get("leakage", 0.0))
    raise ValidationError(f"unknown kind {kind!r}")
