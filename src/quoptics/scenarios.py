"""Scenario registry: canned computations reproducing the toolkit's analytic
reference results, with typed parameter schemas and deterministic seeding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from . import (
    CavityParams,
    LindbladModel,
    OPOParams,
    PDCParams,
    RFParams,
    coherent_state,
    collapse_revival,
    driven_cavity_analytic,
    driven_cavity_model,
    evolve_master,
    fock_basis,
    fock_ops,
    g2_normalized,
    integrate_bloch,
    mcwf_evolve,
    opo_g2,
    opo_lindblad_model,
    opo_spectra,
    optomech_rates,
    partial_trace,
    pauli_ops,
    pdc_analysis,
    pdc_photon_number,
    purcell_rates,
    rabi_rwa,
    regression_correlator,
    rf_analytics,
    solve_linear,
    spectrum_numeric,
    squeezed_vacuum,
    steady_state,
    thermal_state,
    wigner_numeric,
)
from .effective import purcell_effective_model
from .operators import (
    BasisSpec,
    DensityMatrix,
    Fock,
    KetState,
    TwoLevel,
    ValidationError,
    _check_scalars,
    tensor_embed,
    two_level_basis,
)
from .phasespace import default_grid
from .serialize import SeriesArtifact
from . import __version__

SPEED_OF_LIGHT = 299792458.0
HBAR_SI = 1.054571817e-34


class ConfigError(Exception):
    """Raised for schema violations with a field-level message."""


@dataclass(frozen=True)
class Param:
    kind: type
    default: object
    low: float | None = None
    high: float | None = None
    choices: tuple | None = None


def _validate(schema: dict, raw: dict, scenario: str) -> dict:
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"{scenario}: unknown parameter(s) {sorted(unknown)}")
    out = {}
    for name, par in schema.items():
        value = raw.get(name, par.default)
        if par.kind in (float, int):
            expected = f"{scenario}.{name}: expected {par.kind.__name__}"
            if isinstance(value, bool):
                raise ConfigError(f"{expected}, got {value!r}")
            try:
                number = float(value)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(expected)
            if not math.isfinite(number):
                raise ConfigError(f"{scenario}.{name}: must be finite")
            if par.kind is int and not number.is_integer():
                raise ConfigError(f"{expected}, got {value!r}")
            value = par.kind(value if isinstance(value, int) else number)
            if par.low is not None and value < par.low:
                raise ConfigError(f"{scenario}.{name}: {value} < {par.low}")
            if par.high is not None and value > par.high:
                raise ConfigError(f"{scenario}.{name}: {value} > {par.high}")
        elif par.choices is not None and value not in par.choices:
            raise ConfigError(
                f"{scenario}.{name}: {value!r} not in {par.choices}")
        out[name] = value
    return out


def physical_params(transmissivity: float, length: float,
                    p_inj: float = 0.0, phase: float = 0.0,
                    omega_c: float = 2 * math.pi * 2.8e14) -> dict:
    """Damping rate and injection amplitude from mirror and laser data.

    gamma = c T / (4 L); |E| = sqrt(2 gamma P_inj / (hbar omega_c)) with the
    supplied phase.  SI inputs, natural-unit (angular frequency) outputs.
    """
    _check_scalars("real", transmissivity=transmissivity, phase=phase)
    if not 0.0 < transmissivity < 0.5:
        raise ValidationError(
            "transmissivity must sit in (0, 0.5): beyond that the mirror "
            "no longer separates an intracavity mode")
    _check_scalars("> 0", length=length, omega_c=omega_c)
    _check_scalars(">= 0", p_inj=p_inj)
    gamma = SPEED_OF_LIGHT * transmissivity / (4.0 * length)
    amp = math.sqrt(2.0 * gamma * p_inj / (HBAR_SI * omega_c))
    return {"gamma": gamma,
            "drive": amp * complex(math.cos(phase), math.sin(phase))}


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def _run_rabi_bloch(p: dict, seed: int) -> SeriesArtifact:
    omega_rabi = p["omega_rabi"]
    eps = p["epsilon_over_omega"] * omega_rabi
    t = np.linspace(0.0, p["t_max"] / omega_rabi, int(p["points"]))
    full = integrate_bloch(
        [0.0, 0.0, -1.0],
        lambda tt: np.stack(np.broadcast_arrays(
            2 * omega_rabi * np.cos(eps * tt), 0.0, eps), axis=-1),
        t)
    rwa = rabi_rwa([0.0, 0.0, -1.0], 0.0, omega_rabi, t, omega=eps)
    return SeriesArtifact(
        "rabi-bloch", p,
        columns={"t": t, "pe_full": 0.5 * (1 + full[:, 2]), "pe_rwa": rwa.p_e},
        metadata={
            "frames": "pe is frame independent; rwa column is the "
                      "rotating-wave solution re-attached to the lab frame",
        })


def _run_collapse_revival(p: dict, seed: int) -> SeriesArtifact:
    g = p["g"]
    t = np.linspace(0.0, p["gt_max"] / g, int(p["points"]))
    cr = collapse_revival(p["nbar"], g, t)
    return SeriesArtifact(
        "collapse-revival", p,
        columns={"t": t, "pe_exact": cr.series, "pe_envelope": cr.envelope},
        metadata={
            "collapse_rate": cr.gamma_c,
            "revival_times": cr.t_revivals.tolist(),
        })


def _run_pdc_instability(p: dict, seed: int) -> SeriesArtifact:
    params = PDCParams(delta=p["delta"], g=p["g"])
    t = np.linspace(0.0, p["gt_max"] / max(p["g"], 1e-12), int(p["points"]))
    analytic = pdc_photon_number(params, t)
    n_max = int(p["n_max"])
    ops = fock_ops(n_max)
    a2 = ops.a.entries @ ops.a.entries
    h = p["delta"] * ops.n.entries - 0.5 * p["g"] * (a2 + a2.conj().T)
    psi0 = np.zeros(n_max + 1, dtype=complex)
    psi0[0] = 1.0
    psi = solve_linear(-1j * h, psi0, t)
    numeric = np.real(np.einsum("ki,ij,kj->k", psi.conj(), ops.n.entries, psi))
    info = pdc_analysis(params)
    return SeriesArtifact(
        "pdc-instability", p,
        columns={"t": t, "n_analytic": analytic, "n_numeric": numeric},
        metadata={
            "phase": info.phase, "rate": info.rate,
        })


def _cavity_from_params(p: dict) -> CavityParams:
    drive = p["drive"] * complex(math.cos(p["drive_phase"]),
                                 math.sin(p["drive_phase"]))
    return CavityParams(omega_c=1.0, gamma=p["gamma"], delta=p["delta"],
                        drive=drive, nbar=p["nbar"])


def _run_driven_cavity(p: dict, seed: int) -> SeriesArtifact:
    cp = _cavity_from_params(p)
    t = np.linspace(0.0, p["t_max"] / cp.gamma, int(p["points"]))
    analytic = driven_cavity_analytic(cp, t)
    n_max = int(p["n_max"])
    model = driven_cavity_model(cp, n_max)
    vac = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    vac[0, 0] = 1.0
    states = evolve_master(DensityMatrix(fock_basis(n_max), vac), model, t)
    ops = fock_ops(n_max)
    mean_num = np.array([
        float(np.real(np.trace(ops.n.entries @ s.entries))) for s in states])
    mean_amp = np.array([np.trace(ops.a.entries @ s.entries) for s in states])
    steady = steady_state(model)
    return SeriesArtifact(
        "driven-cavity", p,
        columns={"t": t, "mean_a_analytic": analytic.mean_a,
                 "mean_a_master": mean_amp, "n_master": mean_num,
                 "n_fluct_analytic": analytic.n_fluct},
        metadata={
            "steady_mean_a": [analytic.steady_mean.real,
                              analytic.steady_mean.imag],
            "steady_n": float(np.real(np.trace(ops.n.entries @ steady.entries))),
            "steady_amplitude_convention": (
                "steady <a> = E/(gamma - i Delta), the root of the moment "
                "equation d<a>/dt = E - (gamma - i Delta)<a>; the opposite "
                "sign E/(gamma + i Delta) seen in some derivations is "
                "inconsistent with that equation and is not used"),
        })


def _run_spontaneous_emission(p: dict, seed: int) -> SeriesArtifact:
    gamma = p["gamma"]
    pl = pauli_ops()
    basis = two_level_basis()
    model = LindbladModel(basis, 0.0 * pl.sz, ((gamma, pl.sm),))
    t = np.linspace(0.0, p["t_max"] / gamma, int(p["points"]))
    excited = DensityMatrix(basis, np.diag([1.0, 0.0]).astype(complex))
    states = evolve_master(excited, model, t)
    pe = np.array([s.entries[0, 0].real for s in states])
    columns = {"t": t, "pe_master": pe, "pe_exact": np.exp(-2 * gamma * t)}
    if int(p["trajectories"]) > 0:
        psi0 = KetState(basis, np.array([1.0, 0.0], dtype=complex))
        res = mcwf_evolve(psi0, model, t, int(p["trajectories"]), seed)
        columns["pe_mcwf"] = res.populations[:, 0]
    return SeriesArtifact(
        "spontaneous-emission", p, columns=columns,
        metadata={
            "crossing_time_maximally_mixed": math.log(2.0) / (2 * gamma),
            "seed": seed,
        })


def _run_dephasing(p: dict, seed: int) -> SeriesArtifact:
    gamma_phi = p["gamma_phi"]
    pl = pauli_ops()
    basis = two_level_basis()
    # coherence decays at gamma_phi/2: kappa = gamma_phi/8 in our convention
    model = LindbladModel(basis, 0.0 * pl.sz, ((gamma_phi / 8.0, pl.sz),))
    amp = np.array([math.sqrt(0.5), math.sqrt(0.5)], dtype=complex)
    rho0 = KetState(basis, amp).to_density_matrix()
    t = np.linspace(0.0, p["t_max"] / gamma_phi, int(p["points"]))
    states = evolve_master(rho0, model, t)
    return SeriesArtifact(
        "dephasing", p,
        columns={
            "t": t,
            "pe": np.array([s.entries[0, 0].real for s in states]),
            "coherence": np.array([s.entries[0, 1] for s in states]),
            "coherence_exact": 0.5 * np.exp(-gamma_phi * t / 2.0),
        })


def _run_thermal_g2(p: dict, seed: int) -> SeriesArtifact:
    gamma, nbar = p["gamma"], p["nbar"]
    n_max = int(p["n_max"])
    cp = CavityParams(1.0, gamma, 0.0, 0.0, nbar)
    model = driven_cavity_model(cp, n_max)
    ops = fock_ops(n_max)
    tau = np.linspace(0.0, p["tau_max"] / gamma, int(p["points"]))
    reg = regression_correlator(ops.a_dag, ops.n, ops.a, model, tau)
    g2 = g2_normalized(reg, nbar)
    return SeriesArtifact(
        "thermal-g2", p,
        columns={"tau": tau, "g2_regression": g2.values.real,
                 "g2_analytic": 1.0 + np.exp(-2 * gamma * tau)})


def _run_resonance_fluorescence(p: dict, seed: int) -> SeriesArtifact:
    rf = rf_analytics(RFParams(p["p_sat"], p["gamma"]),
                      np.linspace(0.0, p["tau_max"] / p["gamma"],
                                  int(p["points"])))
    return SeriesArtifact(
        "resonance-fluorescence", p,
        columns={"tau": rf.g2.tau, "g2": rf.g2.values.real},
        metadata={
            "pe_bar": rf.pe_bar,
            "dissipator_note": (
                "closed forms follow the printed driven-atom Bloch system; "
                "the plain jump-sigma dissipator at rate gamma carries half "
                "that damping and gives steady p_e = P/(1+2P); the numerical "
                "solver is the authority for Lindblad models"),
        })


def _run_opo_squeezing(p: dict, seed: int) -> SeriesArtifact:
    gamma, sigma = p["gamma"], p["sigma"]
    om = np.linspace(0.0, p["omega_max"] * gamma, int(p["points"]))
    v0, vpi2 = opo_spectra(OPOParams(gamma, sigma * gamma), om)
    from .lindblad import opo_langevin_model

    model = opo_langevin_model(gamma, sigma * gamma)
    v0_num = spectrum_numeric(model, 0.0, om)
    vpi2_num = spectrum_numeric(model, math.pi / 2.0, om)
    return SeriesArtifact(
        "opo-squeezing", p,
        columns={"omega": om, "v0_analytic": v0.values,
                 "vpi2_analytic": vpi2.values, "v0_numeric": v0_num.values,
                 "vpi2_numeric": vpi2_num.values})


def _run_opo_g2(p: dict, seed: int) -> SeriesArtifact:
    gamma, sigma = p["gamma"], p["sigma"]
    tau = np.linspace(0.0, p["tau_max"] / gamma, int(p["points"]))
    closed = opo_g2(OPOParams(gamma, sigma * gamma), tau)
    n_max = int(p["n_max"])
    model = opo_lindblad_model(gamma, sigma * gamma, n_max)
    ops = fock_ops(n_max)
    reg = regression_correlator(ops.a_dag, ops.n, ops.a, model, tau)
    return SeriesArtifact(
        "opo-g2", p,
        columns={"tau": tau, "g2_closed": closed.values.real,
                 "g2_regression": reg.values.real})


def _run_purcell_cooling(p: dict, seed: int) -> SeriesArtifact:
    g, kappa, gamma = p["g"], p["kappa"], p["gamma"]
    delta, nbar = p["delta"], p["nbar"]
    n_max = int(p["n_max"])
    basis = BasisSpec((Fock(n_max), TwoLevel()))
    ops = fock_ops(n_max)
    pl = pauli_ops()
    a_full = tensor_embed(ops.a, 0, basis)
    sm_full = tensor_embed(pl.sm, 1, basis)
    h = delta * tensor_embed(ops.n, 0, basis) \
        + g * (a_full @ sm_full.dag() + a_full.dag() @ sm_full)
    full = LindbladModel(basis, h, (
        (kappa, a_full),
        (gamma * (nbar + 1.0), sm_full),
        (gamma * nbar, sm_full.dag()),
    ))
    atom_hot = np.diag([1.0, 0.0]).astype(complex)
    cav_vac = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    cav_vac[0, 0] = 1.0
    rho0 = DensityMatrix(basis, np.kron(cav_vac, atom_hot))
    t = np.linspace(0.0, p["t_max"] / gamma, int(p["points"]))
    states = evolve_master(rho0, full, t)
    pe_full = np.array([
        partial_trace(s, keep=[1]).entries[0, 0].real for s in states])

    eff = purcell_effective_model(g, kappa, gamma, delta, nbar)
    rho_a0 = DensityMatrix(two_level_basis(), atom_hot)
    eff_states = evolve_master(rho_a0, eff.model, t)
    pe_eff = np.array([s.entries[0, 0].real for s in eff_states])
    dist = np.array([
        0.5 * np.abs(np.linalg.eigvalsh(
            partial_trace(s, keep=[1]).entries - e.entries)).sum()
        for s, e in zip(states, eff_states)])
    rates = purcell_rates(g, kappa, gamma, delta, nbar)
    return SeriesArtifact(
        "purcell-cooling", p,
        columns={"t": t, "pe_full": pe_full, "pe_effective": pe_eff,
                 "trace_distance": dist},
        metadata={
            "gamma_eff": rates.gamma_eff, "nbar_eff": rates.nbar_eff,
            "delta_eps": rates.delta_eps,
            "cooperativity": rates.cooperativity,
            "self_consistency": {k: v for k, v in eff.report.items()
                                 if isinstance(v, (int, float, str))},
        })


def _gallery_state(p: dict):
    kind = p["state"]
    if kind == "fock":
        n = int(p["n"])
        n_max = max(n + 4, 6)
        mat = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        mat[n, n] = 1.0
        return DensityMatrix(fock_basis(n_max), mat)
    if kind == "coherent":
        return coherent_state(p["alpha"]).to_density_matrix()
    if kind == "squeezed":
        return squeezed_vacuum(p["r"]).to_density_matrix()
    if kind == "thermal":
        return thermal_state(p["nbar_state"])
    if kind == "cat":
        alpha = p["alpha"]
        plus = coherent_state(alpha)
        minus = coherent_state(-alpha, plus.basis.factors[0].n_max)
        amps = plus.amplitudes + minus.amplitudes
        return KetState(plus.basis, amps / np.linalg.norm(amps)
                        ).to_density_matrix()
    raise ConfigError(f"unknown gallery state {kind!r}")


def _wigner_artifact(name: str, p: dict, rho: DensityMatrix,
                     extra_meta: dict | None = None) -> SeriesArtifact:
    n_max = rho.basis.factors[0].n_max
    points = int(p["grid_points"])
    grid = default_grid(n_max, points)
    w = wigner_numeric(rho, grid)
    xx, pp = np.meshgrid(grid.x, grid.p, indexing="ij")
    meta = {
        "grid": {"x_min": grid.x_min, "x_max": grid.x_max,
                 "p_min": grid.p_min, "p_max": grid.p_max,
                 "nx": grid.nx, "np": grid.np},
        "integral": w.integral(),
    }
    meta.update(extra_meta or {})
    return SeriesArtifact(
        name, p,
        columns={"x": xx.ravel(), "p": pp.ravel(), "w": w.values.ravel()},
        metadata=meta)


def _run_wigner_gallery(p: dict, seed: int) -> SeriesArtifact:
    return _wigner_artifact("wigner-gallery", p, _gallery_state(p))


def _run_kerr_cat(p: dict, seed: int) -> SeriesArtifact:
    alpha = p["alpha"]
    start = coherent_state(alpha)
    n_max = start.basis.factors[0].n_max
    n = np.arange(n_max + 1)
    # rotating-frame evolution under g N^2 to the first cat time pi/(2 g)
    evolved = start.amplitudes * np.exp(-1j * math.pi * (n**2) / 2.0)
    minus = coherent_state(-alpha, n_max)
    target = (start.amplitudes + 1j * minus.amplitudes) \
        * np.exp(-1j * math.pi / 4.0) / math.sqrt(2.0)
    fidelity = abs(np.vdot(target, evolved)) ** 2 / float(
        np.vdot(target, target).real)
    rho = KetState(fock_basis(n_max), evolved).to_density_matrix()
    return _wigner_artifact("kerr-cat", p, rho, {"cat_fidelity": fidelity})


def _run_optomech_cooling(p: dict, seed: int) -> SeriesArtifact:
    deltas = np.linspace(p["delta_min"] * p["kappa"],
                         p["delta_max"] * p["kappa"], int(p["points"]))
    nbar_eff = []
    gamma_eff = []
    for d in deltas:
        r = optomech_rates(p["g"], p["kappa"], p["gamma"], d, p["omega_m"],
                           p["nbar"])
        nbar_eff.append(r.nbar_eff)
        gamma_eff.append(r.gamma_eff)
    best = optomech_rates(p["g"], p["kappa"], p["gamma"], -p["omega_m"],
                          p["omega_m"], p["nbar"])
    return SeriesArtifact(
        "optomech-cooling", p,
        columns={"delta": deltas, "nbar_eff": np.array(nbar_eff),
                 "gamma_eff": np.array(gamma_eff)},
        metadata={
            "red_sideband_nbar_eff": best.nbar_eff,
            "quantum_backaction_floor": p["kappa"]**2 / (4 * p["omega_m"]**2),
        })


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# name -> (parameter schema, runner, the analytic results it reproduces)
REGISTRY = {
    "rabi-bloch": ({
        "omega_rabi": Param(float, 1.0, low=1e-12),
        "epsilon_over_omega": Param(float, 25.0, low=1.0),
        "t_max": Param(float, 2 * math.pi),
        "points": Param(int, 401, low=2),
    }, _run_rabi_bloch, [
        "p_e(t) = (1 - cos(Omega_R t)) / (2 (1 + Delta^2/Omega^2))",
        "full-vs-RWA deviation shrinks with Omega/epsilon",
    ]),
    "collapse-revival": ({
        "nbar": Param(float, 100.0, low=1e-6),
        "g": Param(float, 1.0, low=1e-12),
        "gt_max": Param(float, 250.0, low=0.0),
        "points": Param(int, 2001, low=2),
    }, _run_collapse_revival, [
        "p_e(t) = 1/2 - (1/2) sum_n w_n cos(2 sqrt(n) g t)",
        "envelope 1/2 - (1/2) exp(-g^2 t^2/2) cos(2 g sqrt(nbar) t)",
        "collapse rate g/sqrt(2); revivals at pi m sqrt(nbar)/g",
    ]),
    "pdc-instability": ({
        "g": Param(float, 1.0, low=0.0),
        "delta": Param(float, 2.0),
        "gt_max": Param(float, 1.0, low=0.0),
        "points": Param(int, 101, low=2),
        "n_max": Param(int, 60, low=4),
    }, _run_pdc_instability, [
        "stable: n(t) = g^2/(Delta^2-g^2) sin^2(sqrt(Delta^2-g^2) t)",
        "unstable: n(t) = g^2/(g^2-Delta^2) sinh^2(sqrt(g^2-Delta^2) t)",
    ]),
    "driven-cavity": ({
        "gamma": Param(float, 1.0, low=1e-12),
        "delta": Param(float, 0.3),
        "drive": Param(float, 0.8, low=0.0),
        "drive_phase": Param(float, 0.0),
        "nbar": Param(float, 0.2, low=0.0),
        "t_max": Param(float, 4.0, low=0.0),
        "points": Param(int, 41, low=2),
        "n_max": Param(int, 24, low=2),
    }, _run_driven_cavity, [
        "steady <a^dag a> = |E|^2/(gamma^2 + Delta^2) + nbar",
        "<delta a^dag delta a>(t) -> nbar at rate 2 gamma",
    ]),
    "spontaneous-emission": ({
        "gamma": Param(float, 1.0, low=1e-12),
        "t_max": Param(float, 3.0, low=0.0),
        "points": Param(int, 31, low=2),
        "trajectories": Param(int, 0, low=0),
    }, _run_spontaneous_emission, [
        "rho(t) = e^{-2 gamma t} |e><e| + (1 - e^{-2 gamma t}) |g><g|",
    ]),
    "dephasing": ({
        "gamma_phi": Param(float, 1.0, low=1e-12),
        "t_max": Param(float, 6.0, low=0.0),
        "points": Param(int, 31, low=2),
    }, _run_dephasing, [
        "populations frozen; coherence decays at gamma_phi/2",
    ]),
    "thermal-g2": ({
        "gamma": Param(float, 1.0, low=1e-12),
        "nbar": Param(float, 0.5, low=1e-9),
        "tau_max": Param(float, 5.0, low=0.0),
        "points": Param(int, 41, low=2),
        "n_max": Param(int, 30, low=2),
    }, _run_thermal_g2, [
        "thermal g2(tau) = 1 + e^{-2 gamma tau}, g2(0)=2",
    ]),
    "resonance-fluorescence": ({
        "p_sat": Param(float, 2.0, low=0.0),
        "gamma": Param(float, 1.0, low=1e-12),
        "tau_max": Param(float, 8.0, low=0.0),
        "points": Param(int, 161, low=2),
    }, _run_resonance_fluorescence, [
        "g2(0) = 0, g2(inf) = 1, oscillation at 2|E| for strong drive",
        "steady p_e = P / (2 (1 + P)) for the printed Bloch system",
    ]),
    "opo-squeezing": ({
        "gamma": Param(float, 1.0, low=1e-12),
        "sigma": Param(float, 0.5, low=0.0, high=0.999999),
        "omega_max": Param(float, 10.0, low=0.0),
        "points": Param(int, 81, low=2),
    }, _run_opo_squeezing, [
        "V0 = 1 + 4 sigma/((1-sigma)^2 + (w/gamma)^2)",
        "Vpi2 = 1 - 4 sigma/((1+sigma)^2 + (w/gamma)^2)",
        "V0 * Vpi2 = 1",
    ]),
    "opo-g2": ({
        "gamma": Param(float, 1.0, low=1e-12),
        "sigma": Param(float, 0.3, low=0.0, high=0.9),
        "tau_max": Param(float, 6.0, low=0.0),
        "points": Param(int, 25, low=2),
        "n_max": Param(int, 25, low=4),
    }, _run_opo_g2, [
        "G2(tau) = |<adag adag>|^2 + |<adag a>|^2 + n^2 "
        "(Gaussian factorization), monotone decreasing",
    ]),
    "purcell-cooling": ({
        "g": Param(float, 10.0, low=0.0),
        "kappa": Param(float, 1000.0, low=1e-12),
        "gamma": Param(float, 1.0, low=1e-12),
        "delta": Param(float, 0.0),
        "nbar": Param(float, 1.0, low=0.0),
        "t_max": Param(float, 3.0, low=0.0),
        "points": Param(int, 31, low=2),
        "n_max": Param(int, 4, low=1),
    }, _run_purcell_cooling, [
        "Gamma_eff = gamma (1 + C/(1+(Delta/kappa)^2))",
        "nbar_eff = nbar / (1 + C/(1+(Delta/kappa)^2))",
    ]),
    "wigner-gallery": ({
        "state": Param(str, "fock",
                       choices=("fock", "coherent", "squeezed", "thermal",
                                "cat")),
        "n": Param(int, 1, low=0),
        "alpha": Param(float, 2.0),
        "r": Param(float, 0.5),
        "nbar_state": Param(float, 1.0, low=0.0),
        "grid_points": Param(int, 257, low=33),
    }, _run_wigner_gallery, [
        "Int W dx dp = 1; vacuum peak 1/(2 pi)",
    ]),
    "kerr-cat": ({
        "alpha": Param(float, 2.0),
        "grid_points": Param(int, 257, low=33),
    }, _run_kerr_cat, [
        "exp(-i pi N^2/2)|alpha> = e^{-i pi/4}(|alpha> + i|-alpha>)/sqrt2",
        "Int W dx dp = 1",
    ]),
    "optomech-cooling": ({
        "g": Param(float, 3.0, low=0.0),
        "kappa": Param(float, 1.0, low=1e-12),
        "gamma": Param(float, 1e-4, low=1e-15),
        "omega_m": Param(float, 40.0, low=1e-12),
        "nbar": Param(float, 100.0, low=0.0),
        "delta_min": Param(float, -80.0),
        "delta_max": Param(float, 0.0),
        "points": Param(int, 81, low=2),
    }, _run_optomech_cooling, [
        "Gamma_minus_opt = (g^2/kappa)/(1 + ((Delta+Omega)/kappa)^2)",
        "nbar_eff floor kappa^2/(4 Omega^2) on the red sideband",
    ]),
}


def run_scenario(name: str, params: dict | None = None,
                 seed: int = 0) -> SeriesArtifact:
    """Validate parameters against the scenario schema and run it."""
    if name not in REGISTRY:
        raise ConfigError(f"unknown scenario {name!r}; see `list`")
    schema, runner, reproduces = REGISTRY[name]
    p = _validate(schema, dict(params or {}), name)
    art = runner(p, seed)
    art.metadata["reproduces"] = list(reproduces)
    art.metadata.setdefault("seed", seed)
    art.metadata["toolkit_version"] = __version__
    return art


def sweep(name: str, param: str, values, params: dict | None = None,
          seed: int = 0) -> list:
    """Independent runs over values of one parameter; per-run seeds are
    derived deterministically from the base seed and the index."""
    if name not in REGISTRY:
        raise ConfigError(f"unknown scenario {name!r}; see `list`")
    schema = REGISTRY[name][0]
    if param not in schema:
        raise ConfigError(f"{name}: no parameter {param!r} to sweep")
    out = []
    base = dict(params or {})
    for idx, value in enumerate(values):
        p = dict(base)
        p[param] = value
        out.append(run_scenario(name, p, seed=seed + idx))
    return out
