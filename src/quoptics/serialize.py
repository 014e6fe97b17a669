"""Artifact and state serialization: JSON (round-trip bit-exact through
shortest-repr floats), and CSV and gnuplot text rendered from an artifact's
own columns (complex columns split into _re/_im pairs, floats in
shortest-repr form).
"""

from __future__ import annotations

import json
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


def _column_payload(values) -> dict:
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        return {"re": arr.real.tolist(), "im": arr.imag.tolist()}
    return {"values": arr.tolist()}


def _column_restore(payload: dict) -> np.ndarray:
    if "re" in payload:
        return np.asarray(payload["re"]) + 1j * np.asarray(payload["im"])
    return np.asarray(payload["values"])


def artifact_to_json(art: SeriesArtifact) -> str:
    doc = {
        "scenario": art.scenario,
        "params": art.params,
        "columns": {k: _column_payload(v) for k, v in art.columns.items()},
        "metadata": art.metadata,
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def artifact_from_json(text: str) -> SeriesArtifact:
    doc = json.loads(text)
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
    rows = [[repr(float(v)) for v in row] for row in zip(*cols)]
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
    factors = []
    for item in payload:
        if item["type"] == "fock":
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
    doc = json.loads(text)
    basis = _basis_restore(doc["basis"])
    kind = doc["kind"]
    if kind == "operator":
        return Operator(basis, _column_restore(doc["entries"]))
    if kind == "ket":
        return KetState(basis, _column_restore(doc["amplitudes"]),
                        leakage=doc.get("leakage", 0.0))
    if kind == "density_matrix":
        return DensityMatrix(basis, _column_restore(doc["entries"]),
                             leakage=doc.get("leakage", 0.0))
    raise ValidationError(f"unknown kind {kind!r}")
