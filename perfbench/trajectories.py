"""trajectories: Monte Carlo wave-function ensemble of a driven cavity.

``mcwf_evolve`` runs 2000 trajectories at n_max 10 over 41 output points;
the output grid spans 5.65 / gamma, so every seed gives 57 substeps per
output interval (2280 in all).  This drives the Lindblad layer on state
vectors rather than on superoperators, and the per-step uniforms it
preallocates (n_traj x steps x 16 B, about 73 MB) set the peak memory.

``evolve_master`` on the same model is the oracle: every level population
must lie within Z_MAX binomial standard deviations of it.  The ensemble
starts in Fock state 2, not vacuum: a driven, damped cavity keeps a coherent
state coherent, so its jumps would change nothing and the comparison could
not see a wrong jump rate.  With 2000 trajectories it sees a jump rate off
by 25 % (z near 9), not one off by 5 %.
"""

from __future__ import annotations

import math

import numpy as np

import quoptics as q
from quoptics import DEFAULT, evolve_master, mcwf_evolve

N_MAX = 10
N_START = 2
N_TRAJ = 2000
POINTS = 41
SPAN = 5.65
# five standard deviations per population: with 41 x 11 populations compared
# in a pass, a correct ensemble misses with probability below 3e-4
Z_MAX = 5.0
TOL_EVOLVE = 1e-8


def make_inputs(rng) -> dict:
    gamma = rng.uniform(0.8, 1.2)
    delta = rng.uniform(-0.5, 0.5)
    drive = rng.uniform(0.3, 0.5) * np.exp(2j * math.pi * rng.uniform())
    p = q.CavityParams(1.0, gamma, delta, drive, 0.0)
    t = np.linspace(0.0, SPAN / gamma, POINTS)
    ket = np.zeros(N_MAX + 1, dtype=complex)
    ket[N_START] = 1.0
    psi0 = q.KetState(q.fock_basis(N_MAX), ket)
    an = q.driven_cavity_analytic(p, t, nfluct0=N_START)
    return {
        "model": q.driven_cavity_model(p, N_MAX), "t": t, "psi0": psi0,
        "rho0": psi0.to_density_matrix(), "ops": q.fock_ops(N_MAX),
        "mcwf_seed": int(rng.integers(2**31)),
        "mean_a": an.mean_a, "mean_n": np.abs(an.mean_a) ** 2 + an.n_fluct,
    }


def warm_up(rec) -> None:
    p = q.CavityParams(1.0, 1.0, 0.0, 0.3, 0.0)
    m = q.driven_cavity_model(p, 3)
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0
    psi0 = q.KetState(q.fock_basis(3), ket)
    t = np.linspace(0.0, 0.5, 3)
    rec.call("warm", mcwf_evolve, psi0, m, t, 10, 0)
    rec.call("warm", evolve_master, psi0.to_density_matrix(), m, t)


def run_pass(inp: dict, rec) -> None:
    t = inp["t"]
    res = rec.call("lindblad.mcwf_evolve", mcwf_evolve, inp["psi0"],
                   inp["model"], t, N_TRAJ, inp["mcwf_seed"])
    key = f"lindblad.evolve_master.n{N_MAX}"
    states = rec.call(key, evolve_master, inp["rho0"], inp["model"], t)
    if states is None:
        return
    ops = inp["ops"]
    a_num = np.array([np.trace(ops.a.entries @ s.entries) for s in states])
    n_num = np.array([np.trace(ops.n.entries @ s.entries).real for s in states])
    rec.check(key, mean_a=(np.abs(a_num - inp["mean_a"]).max(), TOL_EVOLVE),
              mean_n=(np.abs(n_num - inp["mean_n"]).max(), TOL_EVOLVE))
    if res is None:
        return
    pops = np.array([np.diag(s.entries).real for s in states])
    sigma = np.sqrt(np.clip(pops * (1.0 - pops), 0.0, None) / N_TRAJ)
    # eps_tr absorbs round-off where a population is (nearly) exactly 0 or 1
    excess = np.abs(res.populations - pops) - DEFAULT.eps_tr
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(excess > 0.0, excess / sigma, 0.0)
    rec.check("lindblad.mcwf_evolve", z_score=(z.max(), Z_MAX))
    rec.count("lindblad.mcwf_evolve.traj_steps_computed",
              N_TRAJ * round((t[-1] - t[0]) / res.dt))
    rec.count("lindblad.mcwf_evolve.jumps_computed", int(res.n_jumps.sum()))
