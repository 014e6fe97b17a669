import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import quoptics as q
from quoptics import scenarios
from quoptics.cli import main
from quoptics.scenarios import (
    REGISTRY,
    ConfigError,
    physical_params,
    run_scenario,
    sweep,
)
from quoptics.serialize import (
    artifact_from_json,
    artifact_to_csv,
    artifact_to_json,
    state_from_json,
    state_to_json,
)


def _listed_blocks(capsys) -> dict:
    """Output of `quoptics list` as {scenario: its indented lines}."""
    assert main(["list"]) == 0
    blocks = {}
    for line in capsys.readouterr().out.splitlines():
        if line.startswith(" "):
            blocks[name].append(line.strip())
        else:
            name = line
            blocks[name] = []
    return blocks


def _listed_anchors(lines: list) -> list:
    return [x[len("reproduces: "):] for x in lines
            if x.startswith("reproduces: ")]


def test_list_prints_registry_with_anchors(capsys):
    # every scenario block carries a non-empty `reproduces:` line
    blocks = _listed_blocks(capsys)
    assert set(blocks) == set(REGISTRY)
    for name, lines in blocks.items():
        anchors = _listed_anchors(lines)
        assert anchors and all(anchors), name


def test_every_scenario_documents_what_it_reproduces(capsys):
    light = {
        "collapse-revival": {"points": 200},
        "wigner-gallery": {"grid_points": 129},
        "thermal-g2": {"n_max": 18, "points": 9},
        "driven-cavity": {"n_max": 14, "points": 9},
        "opo-g2": {"n_max": 12, "points": 7},
        "kerr-cat": {"alpha": 1.2, "grid_points": 129},
        "rabi-bloch": {"points": 50},
    }
    blocks = _listed_blocks(capsys)
    for name in REGISTRY:
        art = run_scenario(name, light.get(name, {}), seed=1)
        assert art.metadata.get("reproduces"), name
        # `quoptics list` prints exactly the lines the artifact carries
        assert _listed_anchors(blocks[name]) == art.metadata["reproduces"]
        assert art.metadata["toolkit_version"] == q.__version__


def test_run_json_roundtrip(tmp_path, capsys):
    out = tmp_path / "art.json"
    code = main(["run", "spontaneous-emission", "--out", str(out),
                 "--seed", "5"])
    assert code == 0
    text = out.read_text()
    art = artifact_from_json(text)
    assert art.scenario == "spontaneous-emission"
    # bit-exact round trip through shortest-repr JSON
    assert artifact_to_json(art) == text.rstrip("\n") or \
        artifact_to_json(art) == text


def test_run_csv(tmp_path):
    out = tmp_path / "art.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 5, "t_max": 1.0}))
    assert main(["run", "spontaneous-emission", "--config", str(cfg),
                 "--out", str(out)]) == 0  # json default
    assert main(["run", "spontaneous-emission", "--config", str(cfg),
                 "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "t"
    assert len(lines) == 6
    # every row is the artifact's columns, one float per field
    art = run_scenario("spontaneous-emission", {"points": 5, "t_max": 1.0})
    expected = []
    for name, values in art.columns.items():
        arr = np.asarray(values)
        expected += [arr.real, arr.imag] if np.iscomplexobj(arr) else [arr]
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    assert rows.shape == (5, len(expected))
    for k, column in enumerate(expected):
        assert np.array_equal(rows[:, k], column)
    # a phase-space grid goes through the same renderer
    cfg.write_text(json.dumps({"state": "fock", "n": 2, "grid_points": 65}))
    assert main(["run", "wigner-gallery", "--config", str(cfg),
                 "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,p,w"
    art = run_scenario("wigner-gallery",
                       {"state": "fock", "n": 2, "grid_points": 65})
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    for k, name in enumerate(("x", "p", "w")):
        assert np.array_equal(rows[:, k], art.columns[name])


def test_run_without_out_writes_to_stdout(capsys):
    assert main(["run", "dephasing", "--format", "csv"]) == 0
    text = capsys.readouterr().out
    art = run_scenario("dephasing", {})
    assert text == artifact_to_csv(art)
    # the complex coherence column becomes its real and imaginary parts
    lines = text.strip().splitlines()
    headers = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    coherence = art.columns["coherence"]
    assert np.iscomplexobj(coherence) and "coherence" not in headers
    assert np.array_equal(rows[:, headers.index("coherence_re")],
                          coherence.real)
    assert np.array_equal(rows[:, headers.index("coherence_im")],
                          coherence.imag)


def test_sweep_csv_writes_one_file_per_value(tmp_path, capsys):
    argv = ["sweep", "dephasing", "--param", "gamma_phi",
            "--values", "0.5,1,2", "--format", "csv"]
    assert main(argv) == 2
    assert "--out" in capsys.readouterr().err
    assert main(argv + ["--out", str(tmp_path / "s.csv")]) == 0
    names = sorted(path.name for path in tmp_path.iterdir())
    assert names == ["s_000.csv", "s_001.csv", "s_002.csv"]
    for name, art in zip(names, sweep("dephasing", "gamma_phi",
                                      [0.5, 1.0, 2.0])):
        assert (tmp_path / name).read_text() == artifact_to_csv(art)


def test_sweep_csv_without_out_runs_no_scenario(monkeypatch, capsys):
    runs = []

    def counted(*args, **kwargs):
        runs.append(args[0])
        return run_scenario(*args, **kwargs)

    monkeypatch.setattr(scenarios, "run_scenario", counted)
    argv = ["sweep", "dephasing", "--param", "gamma_phi",
            "--values", "0.5,1,2"]
    assert main(argv + ["--format", "csv"]) == 2
    assert "--out" in capsys.readouterr().err
    assert runs == []
    assert main(argv + ["--format", "json"]) == 0
    assert runs == ["dephasing"] * 3


def test_run_numerical_failure_exits_3(tmp_path, capsys):
    # a thermal state with nbar 5 needs a finer grid than 257 points
    bad = {"state": "thermal", "nbar_state": 5.0}
    with pytest.raises(q.GridTooCoarseError):
        run_scenario("wigner-gallery", bad)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    assert main(["run", "wigner-gallery", "--config", str(cfg)]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("config, named", [
    ({"state": "squeezed", "r": 10}, "r = |z| = 10"),
    ({"grid_points": 100000}, "phase grid of nx 100000 by np 100000"),
])
def test_run_runaway_size_exits_3(tmp_path, capsys, config, named):
    # each would allocate tens of GB; the size limit stops it first
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "wigner-gallery", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert named in err and "size limit" in err


def test_run_rejects_missing_and_non_object_configs(tmp_path, capsys):
    assert main(["run", "dephasing", "--config",
                 str(tmp_path / "absent.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["run", "dephasing", "--config", str(cfg)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_run_rejects_unknown_scenario_and_keys(tmp_path, capsys):
    assert main(["run", "not-a-scenario"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    assert main(["run", "spontaneous-emission", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"gamma": -1.0}))
    assert main(["run", "spontaneous-emission", "--config", str(cfg)]) == 2
    cfg.write_text("not json")
    assert main(["run", "spontaneous-emission", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("scenario, bad", [
    ("driven-cavity", {"points": 5.9}),
    ("driven-cavity", {"n_max": 6.5}),
    ("spontaneous-emission", {"trajectories": True}),
    ("spontaneous-emission", {"gamma": True}),
    ("driven-cavity", {"points": float("inf")}),
])
def test_run_rejects_non_integral_and_boolean_numbers(tmp_path, scenario,
                                                      bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    assert main(["run", scenario, "--config", str(cfg)]) == 2


def test_sweep_int_parameter_takes_integral_values_only(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 3, "t_max": 0.5}))
    argv = ["sweep", "driven-cavity", "--param", "n_max", "--config",
            str(cfg), "--out", str(tmp_path / "s.json")]
    assert main(argv + ["--values", "6.5,7"]) == 2
    # "7" parses as 7.0, which names the integer 7
    assert main(argv + ["--values", "7"]) == 0
    doc, = json.loads((tmp_path / "s.json").read_text())
    assert doc["params"]["n_max"] == 7


def test_gnuplot_only_for_grids(tmp_path):
    assert main(["run", "spontaneous-emission", "--format", "gnuplot"]) == 2
    out = tmp_path / "w.dat"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"state": "fock", "n": 1, "grid_points": 65}))
    assert main(["run", "wigner-gallery", "--config", str(cfg),
                 "--format", "gnuplot", "--out", str(out)]) == 0
    blocks = out.read_text().strip().split("\n\n")
    assert len(blocks) == 65
    for block in blocks:
        rows = [[float(v) for v in line.split(" ")]
                for line in block.splitlines()]
        assert len(rows) == 65
        assert all(len(row) == 3 for row in rows)
        # one x value per block, as splot expects
        assert len({row[0] for row in rows}) == 1


def test_wigner_gallery_normalization(tmp_path):
    art = run_scenario("wigner-gallery",
                       {"state": "fock", "n": 1, "grid_points": 129})
    assert art.metadata["integral"] == pytest.approx(1.0, abs=1e-6)


def _gallery_gaussian(state: str, p: dict) -> q.GaussianState:
    """Closed-form Gaussian of a wigner-gallery state with parameters p."""
    if state == "coherent":
        return q.gaussian_from_complex_moments(complex(p["alpha"]), 0.0, 0.0)
    if state == "squeezed":
        r = p["r"]
        return q.gaussian_from_complex_moments(
            0.0, -math.cosh(r) * math.sinh(r), math.sinh(r) ** 2)
    return q.gaussian_from_complex_moments(0.0, 0.0, p["nbar_state"])


@pytest.mark.parametrize("state", ["coherent", "squeezed", "thermal", "cat"])
def test_wigner_gallery_states_match_their_closed_forms(state):
    art = run_scenario("wigner-gallery", {"state": state})
    assert abs(art.metadata["integral"] - 1.0) <= q.DEFAULT.eps_wig
    x, p, w = (art.columns[k] for k in ("x", "p", "w"))
    if state == "cat":
        # the even cat has parity +1, so W(0, 0) = 1/(2 pi)
        centre = np.argmin(np.abs(x) + np.abs(p))
        assert x[centre] == 0.0 and p[centre] == 0.0
        assert abs(w[centre] - 1.0 / (2 * math.pi)) <= 1e-9
    else:
        # criterion 01's bound for a numeric transform against its oracle
        exact = q.wigner_gaussian(_gallery_gaussian(state, art.params), x, p)
        assert np.abs(w - exact).max() <= 1e-6


def test_sweep_json_and_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["sweep", "opo-squeezing", "--param", "sigma",
            "--values", "0.1,0.3,0.5,0.7,0.9", "--seed", "11"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 5, "omega_max": 2.0}))
    assert main(argv + ["--config", str(cfg), "--out", str(out1)]) == 0
    assert main(argv + ["--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    docs = json.loads(out1.read_text())
    assert len(docs) == 5
    vpi2_zero = [doc["columns"]["vpi2_numeric"]["values"][0] for doc in docs]
    assert all(b < a for a, b in zip(vpi2_zero, vpi2_zero[1:]))
    # per-run seeds derive from base seed + index
    assert [doc["metadata"]["seed"] for doc in docs] == [11, 12, 13, 14, 15]


def test_sweep_empty_values():
    assert sweep("opo-squeezing", "sigma", []) == []
    with pytest.raises(ConfigError):
        sweep("opo-squeezing", "bogus", [0.1])


# Runs whose artifacts must not depend on the BLAS thread count: every
# scenario at its defaults except the two Wigner scenarios, whose Wigner sum
# runs on BLAS dgemm, plus an MCWF ensemble of spontaneous-emission.
_THREAD_RUNS = {name: (name, {}) for name in sorted(REGISTRY)
                if name not in ("wigner-gallery", "kerr-cat")}
_THREAD_RUNS["spontaneous-emission-mcwf"] = (
    "spontaneous-emission", {"trajectories": 200, "points": 5, "t_max": 1.0})

# calls the CLI entry point once per run, in one interpreter
_RUN_ALL = """
import json, sys
from quoptics.cli import main
out_dir, runs = sys.argv[1], json.loads(sys.argv[2])
for label, (name, config) in runs.items():
    code = main(["run", name, "--config", config, "--seed", "7",
                 "--out", f"{out_dir}/{label}.json"])
    if code != 0:
        sys.exit(f"{label}: exit code {code}")
"""


@pytest.fixture(scope="module")
def artifacts_at_thread_counts(tmp_path_factory):
    """JSON bytes of `quoptics run` for every run in _THREAD_RUNS, from one
    subprocess with 1 and one with 4 BLAS threads."""
    tmp_path = tmp_path_factory.mktemp("threads")
    runs = {}
    for label, (name, config) in _THREAD_RUNS.items():
        cfg = tmp_path / f"{label}.cfg.json"
        cfg.write_text(json.dumps(config))
        runs[label] = (name, str(cfg))
    # The subprocess runs in tmp_path, where a relative PYTHONPATH such as
    # "src" does not resolve; put the directory of the imported package first
    # so the subprocess runs the same quoptics as this test process.
    package_root = os.path.dirname(os.path.dirname(q.__file__))
    pythonpath = [package_root]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    outputs = []
    for threads in ("1", "4"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(pythonpath)
        env["OPENBLAS_NUM_THREADS"] = threads
        env["OMP_NUM_THREADS"] = threads
        out_dir = tmp_path / f"threads_{threads}"
        out_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_ALL, str(out_dir), json.dumps(runs)],
            env=env, capture_output=True, text=True, cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        outputs.append({label: (out_dir / f"{label}.json").read_bytes()
                        for label in runs})
    return outputs


@pytest.mark.parametrize("label", sorted(_THREAD_RUNS))
def test_scenario_bit_stable_across_thread_counts(artifacts_at_thread_counts,
                                                   label):
    first, second = artifacts_at_thread_counts
    assert first[label] == second[label]


# imports the scipy modules that quoptics needs at import time, then
# quoptics, and prints the modules that quoptics added on top of them
_IMPORT_COST = """
import json, sys
import numpy, scipy.linalg, scipy.sparse, scipy.sparse.linalg, scipy.special
before = set(sys.modules)
import quoptics
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_integrator_optimizer_or_csgraph():
    # src does not use scipy.integrate (which loads scipy.optimize), and
    # csgraph is imported by the function that uses it, on first call
    package_root = os.path.dirname(os.path.dirname(q.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_COST], env=env,
                          capture_output=True, text=True, check=True)
    lazy = ("scipy.integrate.", "scipy.optimize.", "scipy.sparse.csgraph.")
    added = json.loads(proc.stdout)
    assert [m for m in added if (m + ".").startswith(lazy)] == []


def test_import_defers_scipy_special():
    # gammaln and sici are imported by the functions that use them, so a CLI
    # call that builds no coherent or squeezed state does not pay for
    # scipy.special
    package_root = os.path.dirname(os.path.dirname(q.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    code = "import sys, quoptics; print('scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_out_dir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("QUOPTICS_OUT_DIR", str(tmp_path))
    assert main(["run", "dephasing", "--out", "sub/art.json"]) == 0
    assert (tmp_path / "sub" / "art.json").exists()


def test_physical_params():
    out = physical_params(0.01, 1.0)
    c = 299792458.0
    assert out["gamma"] == pytest.approx(c * 0.01 / 4.0)
    doubled = physical_params(0.02, 1.0)
    assert doubled["gamma"] == pytest.approx(2 * out["gamma"])
    p1 = physical_params(0.01, 1.0, p_inj=1e-3)
    p4 = physical_params(0.01, 1.0, p_inj=4e-3)
    assert abs(p4["drive"]) == pytest.approx(2 * abs(p1["drive"]))
    ph = physical_params(0.01, 1.0, p_inj=1e-3, phase=0.7)
    assert np.angle(ph["drive"]) == pytest.approx(0.7)
    with pytest.raises(q.ValidationError):
        physical_params(0.6, 1.0)


def test_state_fixture_roundtrip():
    ket = q.coherent_state(0.8 + 0.2j, 12)
    back = state_from_json(state_to_json(ket))
    assert np.array_equal(back.amplitudes, ket.amplitudes)
    assert back.basis == ket.basis

    rho = q.thermal_state(0.7, 9)
    back_rho = state_from_json(state_to_json(rho))
    assert np.array_equal(back_rho.entries, rho.entries)

    op = q.tensor_embed(q.pauli_ops().sm, 1,
                        q.BasisSpec((q.Fock(2), q.TwoLevel())))
    back_op = state_from_json(state_to_json(op))
    assert np.array_equal(back_op.entries, op.entries)


def test_kerr_cat_scenario_hits_the_cat():
    art = run_scenario("kerr-cat", {"alpha": 2.0, "grid_points": 193})
    assert art.metadata["cat_fidelity"] == pytest.approx(1.0, abs=1e-10)
    assert art.metadata["integral"] == pytest.approx(1.0, abs=1e-6)
