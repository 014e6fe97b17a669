"""The artifact writers against reference encoders kept here: JSON against
``json.dumps(payload, indent=1, sort_keys=True)`` of the plain payload, and
CSV and gnuplot against rows of ``repr(float(v))``."""

import json

import numpy as np
import pytest

from quoptics.scenarios import REGISTRY, run_scenario
from quoptics.serialize import (
    SeriesArtifact,
    artifact_from_json,
    artifact_to_csv,
    artifact_to_gnuplot,
    artifact_to_json,
)

SEEDS = (1, 3)


def _reference_json(art: SeriesArtifact) -> str:
    def payload(values):
        arr = np.asarray(values)
        if np.iscomplexobj(arr):
            return {"re": arr.real.tolist(), "im": arr.imag.tolist()}
        return {"values": arr.tolist()}

    doc = {
        "scenario": art.scenario,
        "params": art.params,
        "columns": {k: payload(v) for k, v in art.columns.items()},
        "metadata": art.metadata,
    }
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
