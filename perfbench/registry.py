"""registry: every registry scenario at its default parameters, as
``quoptics run`` does it: ``run_scenario``, ``artifact_to_json``, then an
``artifact_from_json`` round trip that must give back every column bit for
bit and the scenario, parameters and metadata exactly.

This is the user-facing mix, and the only workload that measures
``dynamics``, ``effective`` and ``serialize``.  The defaults are fixed, so
the seed reaches the scenarios only as their ``seed`` argument (which the
default, trajectory-free parameters do not use).

Scenario oracles, with the acceptance-test tolerances: thermal g2 against
1 + e^{-2 gamma tau}, the OPO pair g2 within 2 %, the OPO squeezing spectra
within 1e-4, the driven-cavity steady <n> against |E|^2/(gamma^2+Delta^2)
+ nbar, the closed two-level decays, the Wigner normalization within
``eps_wig`` and the Kerr-cat fidelity.  Every other scenario must document
what it reproduces and return finite columns.
"""

from __future__ import annotations

import json

import numpy as np

from quoptics import DEFAULT
from quoptics.scenarios import REGISTRY, run_scenario
from quoptics.serialize import artifact_from_json, artifact_to_json

NAMES = tuple(sorted(REGISTRY))


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _oracle_errors(art) -> dict:
    c, m, p = art.columns, art.metadata, art.params
    name = art.scenario
    if name == "thermal-g2":
        return {"g2": (_max_abs(c["g2_regression"], c["g2_analytic"]), 1e-8)}
    if name == "opo-g2":
        rel = np.abs(c["g2_regression"] - c["g2_closed"]) / c["g2_closed"]
        return {"g2_rel": (float(rel.max()), 0.02)}
    if name == "opo-squeezing":
        return {"v0": (_max_abs(c["v0_numeric"], c["v0_analytic"]), 1e-4),
                "vpi2": (_max_abs(c["vpi2_numeric"], c["vpi2_analytic"]), 1e-4)}
    if name == "driven-cavity":
        exact = p["drive"] ** 2 / (p["gamma"] ** 2 + p["delta"] ** 2) + p["nbar"]
        return {"steady_n": (abs(m["steady_n"] - exact), 1e-8),
                "mean_a": (_max_abs(c["mean_a_master"], c["mean_a_analytic"]),
                           1e-8)}
    if name == "spontaneous-emission":
        return {"pe": (_max_abs(c["pe_master"], c["pe_exact"]), 1e-12)}
    if name == "dephasing":
        return {"coherence": (_max_abs(c["coherence"], c["coherence_exact"]),
                              1e-12)}
    if name in ("wigner-gallery", "kerr-cat"):
        out = {"integral": (abs(m["integral"] - 1.0), DEFAULT.eps_wig)}
        if name == "kerr-cat":
            out["fidelity"] = (abs(m["cat_fidelity"] - 1.0), 1e-10)
        return out
    finite = all(np.all(np.isfinite(np.asarray(v))) for v in c.values())
    documented = bool(m.get("reproduces"))
    return {"finite_and_documented": (0.0 if finite and documented else 1.0,
                                      0.0)}


def make_inputs(rng) -> dict:
    return {"seed": int(rng.integers(2**31))}


def warm_up(rec) -> None:
    art = rec.call("warm", run_scenario, "dephasing", {"points": 5})
    rec.call("warm", artifact_from_json, artifact_to_json(art))


def run_pass(inp: dict, rec) -> None:
    n_bytes = 0
    for name in NAMES:
        key = f"scenarios.run_scenario.{name}"
        art = rec.call(key, run_scenario, name, None, inp["seed"])
        if art is None:
            continue
        rec.check(key, **_oracle_errors(art))
        text = rec.call("serialize.artifact_to_json", artifact_to_json, art)
        if text is None:
            continue
        n_bytes += len(text.encode())
        back = rec.call("serialize.artifact_from_json", artifact_from_json, text)
        if back is None:
            continue
        same_columns = back.columns.keys() == art.columns.keys() and all(
            np.asarray(back.columns[k]).tobytes()
            == np.asarray(art.columns[k]).tobytes() for k in art.columns)
        rec.check("serialize.artifact_to_json",
                  columns_bit_exact=(0.0 if same_columns else 1.0, 0.0))
        same_rest = [back.scenario, back.params, back.metadata] == json.loads(
            json.dumps([art.scenario, art.params, art.metadata]))
        rec.check("serialize.artifact_from_json",
                  fields_exact=(0.0 if same_rest else 1.0, 0.0))
    rec.count("serialize.artifact_to_json.bytes_computed", n_bytes)
