"""open-system: dense superoperator layers on a Fock-cutoff ladder.

Each rung n_max in (10, 20, 30) builds the Liouvillian of a driven, thermally
damped cavity, solves its steady state and propagates it from vacuum over 41
points; a thermal cavity on the same rung gives the regression correlator
over 41 tau.  The pass adds noise spectra of the below-threshold OPO (a
Lindblad model at n_max 12 and the Langevin model) and one propagation at
n_max 80, above ``Settings.max_dense_expm_dim``, where the master equation
goes through the DOP853 integrator.

The seed draws the rates, detunings, drive and occupations inside narrow
ranges; the sizes and time grids are fixed.  The grids do not scale with
1/gamma: the series propagator caches one matrix exponential per distinct
step rounded to 1e-15, so a grid rescaled by a random rate would change the
number of exponentials from seed to seed.

The n_max 80 rung uses fixed parameters (gamma 1, Delta 0, E 4, t in
[0, 2.5]).  Whether the integrator's round-off crosses the state checks looks
random in the parameters (3 of 10 seeded draws near E = 4.5 stayed above
-eps_psd), while at this point ``evolve_master`` raises ValidationError on
every seed: hermiticity residual 1.2e-8 against 1e-9 at t = 1.25, with a
minimum eigenvalue near -3e-7 against eps_psd 1e-8.  That known defect is
counted as a failed operation, not skipped.
"""

from __future__ import annotations

import math

import numpy as np

import quoptics as q
from quoptics import (
    DEFAULT,
    build_liouvillian,
    evolve_master,
    regression_correlator,
    spectrum_numeric,
    steady_state,
)

RUNGS = (10, 20, 30)
N_BIG = 80
N_SPEC = 12
POINTS = 41
T_MAX = 6.0
# oracle tolerances: criterion 06 (steady <n>), 08 (thermal g2), 09 (spectra)
TOL_STEADY_N = 1e-8
TOL_G2 = 1e-8
TOL_SPECTRUM = 1e-4
TOL_EVOLVE = 1e-8


def _vacuum(n_max: int) -> q.DensityMatrix:
    m = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    m[0, 0] = 1.0
    return q.DensityMatrix(q.fock_basis(n_max), m)


def _random_hermitian(rng, d: int) -> np.ndarray:
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return x + x.conj().T


def _evolve_oracle(p: q.CavityParams, t: np.ndarray):
    an = q.driven_cavity_analytic(p, t)
    return an.mean_a, np.abs(an.mean_a) ** 2 + an.n_fluct


def make_inputs(rng) -> dict:
    gamma = rng.uniform(0.8, 1.2)
    delta = rng.uniform(-0.5, 0.5)
    drive = rng.uniform(0.2, 0.4) * np.exp(2j * math.pi * rng.uniform())
    nbar = rng.uniform(0.03, 0.06)
    driven = q.CavityParams(1.0, gamma, delta, drive, nbar)
    thermal = q.CavityParams(1.0, gamma, delta, 0.0, nbar)
    t = np.linspace(0.0, T_MAX, POINTS)
    rungs = []
    for n in RUNGS:
        ops = q.fock_ops(n)
        rungs.append({
            "n": n,
            "driven": q.driven_cavity_model(driven, n),
            "thermal": q.driven_cavity_model(thermal, n),
            "ops": ops,
            "rho0": _vacuum(n),
            "probe": _random_hermitian(rng, n + 1),
        })
    gamma_s = rng.uniform(0.8, 1.2)
    # sigma sets the spectrum's tau window (20 slowest decay times), so it
    # is fixed to keep the work the same on every seed
    sigma = 0.3
    omega = np.linspace(0.0, 10.0 * gamma_s, 51)
    v0, vpi2 = q.opo_spectra(q.OPOParams(gamma_s, sigma * gamma_s), omega)
    big = q.CavityParams(1.0, 1.0, 0.0, 4.0, 0.0)
    t_big = np.linspace(0.0, 2.5, POINTS)
    return {
        "t": t, "rungs": rungs,
        "steady_n": abs(drive) ** 2 / (gamma**2 + delta**2) + nbar,
        "evolve_oracle": _evolve_oracle(driven, t),
        "nbar": nbar, "g2": 1.0 + np.exp(-2.0 * gamma * t),
        "spec_lindblad": q.opo_lindblad_model(gamma_s, sigma * gamma_s, N_SPEC),
        "spec_mode": q.fock_ops(N_SPEC).a, "kappa_out": 2.0 * gamma_s,
        "spec_langevin": q.opo_langevin_model(gamma_s, sigma * gamma_s),
        "omega": omega, "v0": v0.values, "vpi2": vpi2.values,
        "big_model": q.driven_cavity_model(big, N_BIG),
        "big_rho0": _vacuum(N_BIG), "big_ops": q.fock_ops(N_BIG),
        "big_t": t_big, "big_oracle": _evolve_oracle(big, t_big),
    }


def warm_up(rec) -> None:
    """Touch every code path once at a small size."""
    p = q.CavityParams(1.0, 1.0, 0.2, 0.3, 0.05)
    m = q.driven_cavity_model(p, 3)
    ops = q.fock_ops(3)
    t = np.linspace(0.0, 1.0, 5)
    rec.call("warm", build_liouvillian, m)
    rec.call("warm", evolve_master, _vacuum(3), m, t)
    rec.call("warm", regression_correlator, ops.a_dag, ops.n, ops.a, m, t)
    rec.call("warm", spectrum_numeric, q.opo_langevin_model(1.0, 0.3), 0.0,
             np.linspace(0.0, 1.0, 3))


def _check_states(rec, key, states, ops, oracle) -> None:
    mean_a, mean_n = oracle
    a_num = np.array([np.trace(ops.a.entries @ s.entries) for s in states])
    n_num = np.array([np.trace(ops.n.entries @ s.entries).real for s in states])
    rec.check(key, mean_a=(np.abs(a_num - mean_a).max(), TOL_EVOLVE),
              mean_n=(np.abs(n_num - mean_n).max(), TOL_EVOLVE))


def _check_liouvillian(rec, key, sup, rung) -> None:
    """Compare L vec(X) with the dissipator written out, on a random X."""
    x = rung["probe"]
    m = rung["driven"]
    h = m.h.entries
    direct = -1j * (h @ x - x @ h)
    for rate, op in m.jumps:
        j = op.entries
        jdj = j.conj().T @ j
        direct += rate * (2.0 * j @ x @ j.conj().T - jdj @ x - x @ jdj)
    applied = (sup.matrix @ x.reshape(-1, order="F")).reshape(x.shape, order="F")
    scale = max(1.0, float(np.abs(sup.matrix).max())) * float(np.abs(x).max())
    rec.check(key, action=(np.abs(applied - direct).max() / scale,
                           DEFAULT.eps_sup))


def run_pass(inp: dict, rec) -> None:
    t = inp["t"]
    for rung in inp["rungs"]:
        n = rung["n"]
        ops = rung["ops"]
        key = f"lindblad.build_liouvillian.n{n}"
        sup = rec.call(key, build_liouvillian, rung["driven"])
        if sup is not None:
            _check_liouvillian(rec, key, sup, rung)
            rec.count(key + ".dim_computed", sup.matrix.shape[0])
            rec.count(key + ".nnz_computed", int(np.count_nonzero(sup.matrix)))

        key = f"lindblad.steady_state.n{n}"
        rho = rec.call(key, steady_state, rung["driven"])
        if rho is not None:
            n_ss = np.trace(ops.n.entries @ rho.entries).real
            rec.check(key, steady_n=(abs(n_ss - inp["steady_n"]), TOL_STEADY_N))

        key = f"lindblad.evolve_master.n{n}"
        states = rec.call(key, evolve_master, rung["rho0"], rung["driven"], t)
        if states is not None:
            _check_states(rec, key, states, ops, inp["evolve_oracle"])

        key = f"correlations.regression_correlator.n{n}"
        series = rec.call(key, regression_correlator, ops.a_dag, ops.n, ops.a,
                          rung["thermal"], t)
        if series is not None:
            g2 = series.values.real / inp["nbar"] ** 2
            rec.check(key, g2=(np.abs(g2 - inp["g2"]).max(), TOL_G2))

    for kind, model, kwargs, phase, oracle in (
        ("lindblad", inp["spec_lindblad"],
         {"mode_op": inp["spec_mode"], "kappa_out": inp["kappa_out"]},
         math.pi / 2.0, inp["vpi2"]),
        ("langevin", inp["spec_langevin"], {}, 0.0, inp["v0"]),
    ):
        key = f"correlations.spectrum_numeric.{kind}"
        spec = rec.call(key, spectrum_numeric, model, phase, inp["omega"],
                        **kwargs)
        if spec is not None:
            rec.check(key, spectrum=(np.abs(spec.values - oracle).max(),
                                     TOL_SPECTRUM))
            rec.count(key + ".tau_points_computed",
                      round(spec.meta["tau_max"] / spec.meta["dtau"]) + 1)

    key = f"lindblad.evolve_master.n{N_BIG}"
    states = rec.call(key, evolve_master, inp["big_rho0"], inp["big_model"],
                      inp["big_t"])
    if states is not None:
        _check_states(rec, key, states, inp["big_ops"], inp["big_oracle"])
