"""The artifact writers against reference encoders kept here: JSON against
``json.dumps(payload, indent=1, sort_keys=True)`` of the plain payload, and
CSV and gnuplot against rows of ``repr(float(v))``."""

import json

import numpy as np
import pytest

from quoptics.operators import ValidationError
from quoptics.scenarios import REGISTRY, run_scenario
from quoptics.serialize import (
    SeriesArtifact,
    artifact_from_json,
    artifact_to_csv,
    artifact_to_gnuplot,
    artifact_to_json,
)

SEEDS = (1, 3)


def _reference_axis(arr: np.ndarray) -> dict | None:
    """The axis payload of a 1-D float64 column, found on Python ints of its
    bits: the repeat count is the run of the first value, the tile period
    its first recurrence, and either must rebuild the column bit for bit."""
    if arr.ndim != 1 or arr.dtype != np.float64 or arr.size < 2:
        return None
    bits = arr.view(np.uint64)
    words = bits.tolist()
    n = len(words)
    run = next((i for i, w in enumerate(words) if w != words[0]), n)
    if 2 <= run < n and n % run == 0:
        axis = arr[::run]
        if np.array_equal(np.repeat(axis.view(np.uint64), run), bits):
            return {"axis": axis.tolist(), "repeat": run}
    period = words.index(words[0], 1) if words.count(words[0]) > 1 else n
    if 2 <= period < n and n % period == 0:
        axis = arr[:period]
        if np.array_equal(np.tile(axis.view(np.uint64), n // period), bits):
            return {"axis": axis.tolist(), "tile": n // period}
    return None


def _reference_json(art: SeriesArtifact) -> str:
    def payload(values):
        arr = np.asarray(values)
        if np.iscomplexobj(arr):
            return {"re": arr.real.tolist(), "im": arr.imag.tolist()}
        return _reference_axis(arr) or {"values": arr.tolist()}

    doc = {
        "scenario": art.scenario,
        "params": art.params,
        "columns": {k: payload(v) for k, v in art.columns.items()},
        "metadata": art.metadata,
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def _values_json(art: SeriesArtifact) -> str:
    """The document in the form written before axis columns: every real
    column as ``{"values": ...}``."""
    doc = json.loads(_reference_json(art))
    for k, v in art.columns.items():
        if not np.iscomplexobj(v):
            doc["columns"][k] = {"values": np.asarray(v).tolist()}
    return json.dumps(doc, indent=1, sort_keys=True)


def _reference_text(art: SeriesArtifact) -> tuple[str, str]:
    """CSV and gnuplot text from one repr(float(v)) per field."""
    headers, cols = [], []
    for name, values in art.columns.items():
        arr = np.atleast_1d(np.asarray(values))
        if np.iscomplexobj(arr):
            headers += [f"{name}_re", f"{name}_im"]
            cols += [arr.real, arr.imag]
        else:
            headers.append(name)
            cols.append(arr)
    rows = [[repr(float(v)) for v in row] for row in zip(*cols)]
    csv = "\n".join([",".join(headers)] + [",".join(r) for r in rows]) + "\n"
    lines = []
    for i, row in enumerate(rows):
        if i and row[0] != rows[i - 1][0]:
            lines.append("")
        lines.append(" ".join(row))
    return csv, "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def registry_artifacts() -> dict:
    return {(name, seed): run_scenario(name, None, seed)
            for name in sorted(REGISTRY) for seed in SEEDS}


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_json_equals_the_reference_encoder(name, registry_artifacts):
    for seed in SEEDS:
        art = registry_artifacts[name, seed]
        assert artifact_to_json(art) == _reference_json(art)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_csv_and_gnuplot_equal_repr_rows(name, registry_artifacts):
    art = registry_artifacts[name, SEEDS[0]]
    csv, gnuplot = _reference_text(art)
    assert artifact_to_csv(art) == csv
    assert artifact_to_gnuplot(art) == gnuplot


def _special_artifact(metadata=None) -> SeriesArtifact:
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 0.0, -0.0,
                         5e-324, 0.1])
    z = np.empty(specials.size, dtype=complex)
    z.real, z.imag = specials, specials[::-1]
    return SeriesArtifact(
        "synthetic", {"kind": "specials"},
        columns={"x": specials, "z": z, "n": np.arange(specials.size)},
        metadata=metadata if metadata is not None else {"note": "edge values"})


def test_non_finite_and_signed_zero_floats_are_written_as_json_writes_them():
    art = _special_artifact()
    text = artifact_to_json(art)
    assert text == _reference_json(art)
    # json's spelling, and -0.0 kept apart from 0.0 (keyed on bits, not value)
    assert ("    NaN,\n    Infinity,\n    -Infinity,\n"
            "    -0.0,\n    0.0,\n    0.0,\n    -0.0,\n") in text
    back = artifact_from_json(text)
    for k, v in art.columns.items():
        assert np.asarray(back.columns[k]).tobytes() == v.tobytes()
    csv, gnuplot = _reference_text(art)
    assert csv.splitlines()[1].startswith("nan,nan,")
    assert artifact_to_csv(art) == csv
    assert artifact_to_gnuplot(art) == gnuplot


def test_empty_columns_are_written_as_json_writes_them():
    art = SeriesArtifact("synthetic", {}, columns={
        "t": np.array([]), "z": np.array([], dtype=complex)})
    text = artifact_to_json(art)
    assert text == _reference_json(art)
    assert '"values": []' in text and '"re": []' in text
    assert artifact_to_csv(art) == _reference_text(art)[0] == "t,z_re,z_im\n"


def test_a_nul_in_a_string_does_not_confuse_the_column_placeholders():
    art = _special_artifact({"label": "\x000", "escaped": "\\u00001"})
    assert artifact_to_json(art) == _reference_json(art)


def _bits(values) -> bytes:
    return np.asarray(values).tobytes()


AXIS_SPECIALS = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1])


@pytest.mark.parametrize("key, build", [("repeat", np.repeat),
                                         ("tile", np.tile)])
def test_axis_columns_round_trip_bit_for_bit(key, build):
    column = build(AXIS_SPECIALS, 3)
    art = SeriesArtifact("synthetic", {}, columns={"c": column})
    text = artifact_to_json(art)
    assert text == _reference_json(art)
    doc = json.loads(text)["columns"]["c"]
    assert doc.keys() == {"axis", key} and doc[key] == 3
    assert _bits(doc["axis"]) == _bits(AXIS_SPECIALS)
    back = artifact_from_json(text)
    assert _bits(back.columns["c"]) == _bits(column)
    assert artifact_to_json(back) == text


def _flip_last_bit(values) -> np.ndarray:
    out = np.array(values)
    out.view(np.uint64)[-1] ^= 1
    return out


@pytest.mark.parametrize("column", [
    _flip_last_bit(np.repeat(AXIS_SPECIALS, 3)),
    _flip_last_bit(np.tile(AXIS_SPECIALS, 3)),
    np.repeat(AXIS_SPECIALS, 3)[:-1],
    np.tile(AXIS_SPECIALS, 3)[:-1],
    np.full(12, 0.25),
], ids=["repeat-bit", "tile-bit", "repeat-length", "tile-length",
        "constant"])
def test_near_miss_columns_stay_values(column):
    art = SeriesArtifact("synthetic", {}, columns={"c": column})
    text = artifact_to_json(art)
    assert text == _reference_json(art)
    assert json.loads(text)["columns"]["c"].keys() == {"values"}
    assert _bits(artifact_from_json(text).columns["c"]) == _bits(column)


def test_a_values_form_wigner_document_still_reads_bit_for_bit():
    art = run_scenario("wigner-gallery", {"n": 0, "grid_points": 33}, 1)
    old = _values_json(art)
    assert '"axis"' not in old
    back = artifact_from_json(old)
    assert back.columns.keys() == art.columns.keys()
    for k, v in art.columns.items():
        assert _bits(back.columns[k]) == _bits(v)
    new = artifact_to_json(back)
    assert new == artifact_to_json(art) and len(new) < len(old)
    assert json.loads(new)["columns"]["x"]["repeat"] == 33
    assert json.loads(new)["columns"]["p"]["tile"] == 33


def _document(column: dict) -> str:
    return json.dumps({"scenario": "synthetic", "params": {},
                       "columns": {"c": column}, "metadata": {}})


@pytest.mark.parametrize("column, match", [
    ({"axis": [0.0, 1.0]}, "exactly one of 'repeat' and 'tile'"),
    ({"axis": [0.0, 1.0], "repeat": 2, "tile": 2},
     "exactly one of 'repeat' and 'tile'"),
    ({"axis": [0.0, 1.0], "repeat": True}, "integer >= 1"),
    ({"axis": [0.0, 1.0], "tile": 2.5}, "integer >= 1"),
    ({"axis": [0.0, 1.0], "repeat": 0}, "integer >= 1"),
    ({"axis": [0.0, 1.0], "tile": "2"}, "integer >= 1"),
    ({"axis": [[0.0], [1.0]], "repeat": 2}, "flat list of numbers"),
    ({"axis": [0.0, "1"], "tile": 2}, "flat list of numbers"),
    ({"axis": [0.0, None], "tile": 2}, "flat list of numbers"),
    ({"axis": [0.0, True], "tile": 2}, "flat list of numbers"),
    ({"axis": 1.0, "repeat": 2}, "flat list of numbers"),
    ({"axis": [0.0, 10 ** 400], "repeat": 2}, "beyond float64"),
    ({"axis": [0.0, 1.0], "repeat": 10 ** 12}, "size limit"),
    ({"axis": [0.0, 1.0], "repeat": 10 ** 400}, "size limit"),
    ({}, "exactly one of 'values'"),
    ({"re": [0.0]}, "exactly one of 'values'"),
    ({"values": [0.0], "axis": [0.0, 1.0], "repeat": 2},
     "exactly one of 'values'"),
    ([0.0, 1.0], "must be a JSON object"),
], ids=["no-count", "both-counts", "count-true", "count-2.5", "count-0",
        "count-string", "axis-nested", "axis-string", "axis-null",
        "axis-true", "axis-scalar", "axis-overflow", "count-huge",
        "count-beyond-float", "no-form", "re-without-im", "two-forms",
        "not-an-object"])
def test_malformed_columns_raise_validation_error(column, match):
    with pytest.raises(ValidationError, match=match):
        artifact_from_json(_document(column))


def test_an_axis_count_of_one_reads_back():
    back = artifact_from_json(_document({"axis": [0.5, -0.0], "tile": 1}))
    assert _bits(back.columns["c"]) == _bits([0.5, -0.0])
