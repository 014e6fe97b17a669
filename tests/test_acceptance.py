"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they pass.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.special import chdtri

import quoptics as q
from quoptics.dynamics import jc_hamiltonian
from quoptics.effective import purcell_effective_model
from quoptics.lindblad import vec, unvec
from quoptics.scenarios import REGISTRY, run_scenario
from quoptics.serialize import artifact_to_json


def _check(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {tag}: {desc}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num:02d}: {desc} {detail}"


def test_criterion_01_wigner_canaries():
    t0 = time.perf_counter()
    n_basis = 6
    grid = q.default_grid(n_basis)
    xx, pp = np.meshgrid(grid.x, grid.p, indexing="ij")
    worst = 0.0
    worst_norm = 0.0
    for n in range(5):
        mat = np.zeros((n_basis + 1, n_basis + 1), dtype=complex)
        mat[n, n] = 1.0
        w = q.wigner_numeric(q.DensityMatrix(q.fock_basis(n_basis), mat), grid)
        worst = max(worst, float(np.abs(w.values - q.wigner_fock(n, xx, pp)).max()))
        worst_norm = max(worst_norm, abs(w.integral() - 1.0))
    vac = np.zeros((n_basis + 1, n_basis + 1), dtype=complex)
    vac[0, 0] = 1.0
    w0 = q.wigner_numeric(q.DensityMatrix(q.fock_basis(n_basis), vac), grid)
    i0 = grid.nx // 2
    peak_err = abs(w0.values[i0, i0] - 1.0 / (2 * math.pi))
    elapsed = time.perf_counter() - t0
    _check(1, "Fock Wigner functions, normalization, vacuum peak",
           worst <= 1e-6 and worst_norm <= 1e-6 and peak_err <= 1e-9
           and elapsed < 5.0,
           f"max_err={worst:.2e} norm_err={worst_norm:.2e} "
           f"peak_err={peak_err:.2e} t={elapsed:.2f}s")


def test_criterion_02_gaussian_engine():
    r = 0.6
    sq = q.symplectic_apply(q.squeeze_map(r, 0.9), q.vacuum_gaussian())
    evals = np.sort(np.linalg.eigvalsh(sq.v))
    eig_err = max(abs(evals[0] - math.exp(-2 * r)),
                  abs(evals[1] - math.exp(2 * r)))
    v = np.array([[1.9, 0.4], [0.4, 1.1]])
    moment_ok = (q.gaussian_moment(v, (0, 1, 0, 1))
                 == v[0, 0] * v[1, 1] + 2 * v[0, 1] ** 2)
    rng = np.random.default_rng(42)
    g = q.vacuum_gaussian()
    for _ in range(100):
        m = q.SymplecticMap(
            q.rotation_map(rng.uniform(0, 2 * math.pi)).s
            @ q.squeeze_map(rng.uniform(-0.15, 0.15)).s
            @ q.rotation_map(rng.uniform(0, 2 * math.pi)).s,
            rng.normal(size=2))
        g = q.symplectic_apply(m, g)
    det_err = abs(np.linalg.det(g.v) - 1.0)
    _check(2, "symplectic squeeze eigenvalues, Gaussian moment, det V",
           eig_err <= 1e-12 and moment_ok and det_err <= 1e-9,
           f"eig_err={eig_err:.2e} det_err={det_err:.2e}")


def test_criterion_03_rabi_rwa():
    t0 = time.perf_counter()
    omega_rabi = 1.0
    t = np.linspace(0.0, 2 * math.pi, 400)
    form_err = 0.0
    for delta in (0.0, 0.7, -1.3):
        sol = q.rabi_rwa([0, 0, -1.0], delta, omega_rabi, t)
        omega_r = math.hypot(omega_rabi, delta)
        closed = (1 - np.cos(omega_r * t)) / (2 * (1 + (delta / omega_rabi) ** 2))
        form_err = max(form_err, float(np.abs(sol.p_e - closed).max()))
    devs = []
    for ratio in (25.0, 50.0, 100.0):
        eps = ratio * omega_rabi
        full = q.integrate_bloch(
            [0, 0, -1.0],
            lambda tt: np.stack(np.broadcast_arrays(
                2 * omega_rabi * np.cos(eps * tt), 0, eps), axis=-1),
            t)
        rwa = q.rabi_rwa([0, 0, -1.0], 0.0, omega_rabi, t)
        devs.append(float(np.abs(0.5 * (1 + full[:, 2]) - rwa.p_e).max()))
    ratios = [devs[0] / devs[1], devs[1] / devs[2]]
    elapsed = time.perf_counter() - t0
    _check(3, "detuned Rabi populations and RWA error scaling",
           form_err <= 1e-10 and min(ratios) >= 1.8 and elapsed < 10.0,
           f"form_err={form_err:.1e} ratios={ratios[0]:.2f},{ratios[1]:.2f} "
           f"t={elapsed:.1f}s")


def test_criterion_04_collapse_revival():
    t0 = time.perf_counter()
    nbar, g = 100.0, 1.0

    # envelope decay rate from the collapse-window maxima of |p_e - 1/2|
    t_coll = np.linspace(0.02, 2.2, 3500)
    series = q.collapse_revival(nbar, g, t_coll).series
    dev = np.abs(series - 0.5)
    peaks = [k for k in range(1, dev.size - 1)
             if dev[k] >= dev[k - 1] and dev[k] >= dev[k + 1]
             and dev[k] > 1e-3]
    tp = t_coll[peaks]
    lp = np.log(2.0 * dev[peaks])
    slope = np.polyfit(tp**2, lp, 1)[0]
    gamma_fit = math.sqrt(-slope)
    gamma_err = abs(gamma_fit - g / math.sqrt(2.0)) / (g / math.sqrt(2.0))

    # first two revival centers; adjacent-term rephasing puts them at
    # 2 pi m sqrt(nbar)/g (the half-spacing point shows no revival at all,
    # which is asserted as well)
    rev_err = 0.0
    for m in (1, 2):
        t_r = 2.0 * math.pi * m * math.sqrt(nbar) / g
        window = np.linspace(0.85 * t_r, 1.15 * t_r, 6000)
        burst = q.collapse_revival(nbar, g, window).series
        t_peak = window[int(np.argmax(burst))]
        rev_err = max(rev_err, abs(t_peak - t_r) / t_r)
    anti = q.collapse_revival(
        nbar, g, np.linspace(0.9 * math.pi * 10, 1.1 * math.pi * 10, 900))
    no_half_revival = float(np.abs(anti.series - 0.5).max()) < 0.01

    # dense propagation oracle at n_max = 200
    n_max = 200
    h = jc_hamiltonian(n_max, q.JCParams(omega=1.0, epsilon=1.0, g=g))
    w, v = np.linalg.eigh(h.entries)
    field = q.coherent_state(-1j * math.sqrt(nbar), n_max).amplitudes
    psi0 = np.zeros(2 * (n_max + 1), dtype=complex)
    psi0[1::2] = field          # atom in |g> (index 1 of each pair)
    coeff = v.conj().T @ psi0
    t_cmp = np.linspace(0.0, 3.0, 61)
    series_cmp = q.collapse_revival(nbar, g, t_cmp).series
    orc_err = 0.0
    for k, tv in enumerate(t_cmp):
        psi = v @ (np.exp(-1j * w * tv) * coeff)
        pe = float(np.sum(np.abs(psi[0::2]) ** 2))
        orc_err = max(orc_err, abs(pe - series_cmp[k]))
    elapsed = time.perf_counter() - t0
    _check(4, "collapse rate, revival times, dense propagation oracle",
           gamma_err <= 0.05 and rev_err <= 0.03 and no_half_revival
           and orc_err <= 1e-3 and elapsed < 60.0,
           f"gamma_err={gamma_err:.3f} rev_err={rev_err:.3f} "
           f"oracle_err={orc_err:.1e} t={elapsed:.1f}s")


def test_criterion_05_pdc_truncated_fock():
    g = 1.0
    n_max = 60
    ops = q.fock_ops(n_max)
    a2 = ops.a.entries @ ops.a.entries
    t = np.linspace(0.0, 1.0, 41)
    worst = 0.0
    for delta in (2.0 * g, 0.5 * g):
        h = delta * ops.n.entries - 0.5 * g * (a2 + a2.conj().T)
        w, v = np.linalg.eigh(h)
        psi0 = np.zeros(n_max + 1, dtype=complex)
        psi0[0] = 1.0
        coeff = v.conj().T @ psi0
        analytic = q.pdc_photon_number(q.PDCParams(delta, g), t)
        for k, tv in enumerate(t):
            psi = v @ (np.exp(-1j * w * tv) * coeff)
            n_num = float(np.real(psi.conj() @ ops.n.entries @ psi))
            worst = max(worst, abs(n_num - analytic[k]))
    _check(5, "down-conversion photon growth, stable and unstable branches",
           worst <= 1e-3, f"max_err={worst:.1e}")


def test_criterion_06_driven_cavity_steady_state():
    gamma, e_amp, nbar = 0.6, 0.8, 0.3
    n_max = 32
    ops = q.fock_ops(n_max)
    n_err = 0.0
    sign_ok = True
    for delta in (-0.9, -0.3, 0.0, 0.4, 1.1):
        p = q.CavityParams(1.0, gamma, delta, e_amp, nbar)
        rho = q.steady_state(q.driven_cavity_model(p, n_max))
        n_exp = float(np.real(np.trace(ops.n.entries @ rho.entries)))
        n_err = max(n_err, abs(n_exp - (e_amp**2 / (gamma**2 + delta**2)
                                        + nbar)))
        mean = complex(np.trace(ops.a.entries @ rho.entries))

        # independent moment-equation oracle pins the sign convention
        def moment_rhs_real(_, y):
            dy = e_amp - (gamma - 1j * delta) * (y[0] + 1j * y[1])
            return [dy.real, dy.imag]

        ode = solve_ivp(moment_rhs_real, (0.0, 40.0 / gamma), [0.0, 0.0],
                        rtol=1e-12, atol=1e-12)
        oracle = ode.y[0, -1] + 1j * ode.y[1, -1]
        sign_ok = sign_ok and abs(mean - oracle) < 1e-6 \
            and abs(mean - e_amp / (gamma - 1j * delta)) < 1e-8
    art = run_scenario("driven-cavity", {"n_max": 14, "points": 5})
    documented = "steady_amplitude_convention" in art.metadata
    _check(6, "steady photon number sweep and amplitude sign convention",
           n_err <= 1e-8 and sign_ok and documented,
           f"n_err={n_err:.1e} sign_documented={documented}")


def test_criterion_07_spontaneous_emission_and_dephasing():
    gamma = 0.8
    pl = q.pauli_ops()
    basis = q.two_level_basis()
    model = q.LindbladModel(basis, 0.0 * pl.sz, ((gamma, pl.sm),))
    liouv = model.liouvillian.toarray()
    rho0 = vec(np.diag([1.0, 0.0]).astype(complex))

    def pe_at(t):
        return float(np.real(unvec(expm(liouv * t) @ rho0)[0, 0]) - 0.5)

    t_cross = brentq(pe_at, 0.1 / gamma, 1.0 / gamma, xtol=1e-12)
    cross_err = abs(t_cross - math.log(2.0) / (2 * gamma))

    gamma_phi = 0.9
    deph = q.LindbladModel(basis, 0.0 * pl.sz, ((gamma_phi / 8.0, pl.sz),))
    amp = np.array([math.sqrt(0.4), math.sqrt(0.6)], dtype=complex)
    t = np.linspace(0.0, 5.0, 21)
    states = q.evolve_master(q.KetState(basis, amp).to_density_matrix(),
                             deph, t)
    pops = np.array([np.diag(s.entries).real for s in states])
    pop_err = float(np.abs(pops - pops[0]).max())
    coh = np.array([s.entries[0, 1] for s in states])
    coh_err = float(np.abs(coh - coh[0] * np.exp(-gamma_phi * t / 2.0)).max())
    _check(7, "maximally mixed crossing time and pure dephasing rates",
           cross_err <= 1e-6 and pop_err <= 1e-10 and coh_err <= 1e-9,
           f"cross_err={cross_err:.1e} pop_err={pop_err:.1e} "
           f"coh_err={coh_err:.1e}")


def test_criterion_08_correlations():
    gamma, nbar = 1.0, 0.5
    n_max = 32
    cav = q.driven_cavity_model(q.CavityParams(1.0, gamma, 0.0, 0.0, nbar),
                                n_max)
    ops = q.fock_ops(n_max)
    tau = np.linspace(0.0, 5.0, 26)
    g2_th = q.g2_normalized(
        q.regression_correlator(ops.a_dag, ops.n, ops.a, cav, tau), nbar)
    th_err = float(np.abs(g2_th.values.real
                          - (1 + np.exp(-2 * gamma * tau))).max())

    n_coh = 20
    coh = q.driven_cavity_model(q.CavityParams(1.0, gamma, 0.0, 0.5, 0.0),
                                n_coh)
    ops_c = q.fock_ops(n_coh)
    g2_coh = q.g2_normalized(
        q.regression_correlator(ops_c.a_dag, ops_c.n, ops_c.a, coh, tau),
        0.25)
    coh_err = float(np.abs(g2_coh.values.real - 1.0).max())

    # analytic driven-atom correlation: ODE residual and limits
    p_sat = 2.0
    h = 0.005
    tau_rf = np.arange(0.0, 14.0 + 4 * h, h)
    rf = q.rf_analytics(q.RFParams(p_sat, gamma), tau_rf)
    pe = rf.g2.values.real * rf.pe_bar
    d1 = (-pe[4:] + 8 * pe[3:-1] - 8 * pe[1:-3] + pe[:-4]) / (12 * h)
    d2 = (-pe[4:] + 16 * pe[3:-1] - 30 * pe[2:-2] + 16 * pe[1:-3]
          - pe[:-4]) / (12 * h * h)
    resid = float(np.abs(d2 + 5 * gamma * d1
                         + 4 * gamma**2 * (1 + p_sat) * pe[2:-2]
                         - 2 * gamma**2 * p_sat).max())
    starts_zero = abs(rf.g2.values[0]) <= 1e-12
    tends_one = abs(rf.g2.values[-1].real - 1.0) <= 1e-5

    e_strong = 10.0
    rf_strong = q.rf_analytics(q.RFParams(e_strong**2 / gamma**2, gamma),
                               np.linspace(0.0, 2.0, 8001))
    body = (1.0 - rf_strong.g2.values.real) * np.exp(
        2.5 * gamma * rf_strong.g2.tau)
    crossings = rf_strong.g2.tau[:-1][np.diff(np.sign(body)) != 0]
    osc_err = abs(np.median(np.diff(crossings)) - math.pi / (2 * e_strong)) \
        / (math.pi / (2 * e_strong))
    _check(8, "thermal bunching, coherent flatness, driven-atom correlation",
           th_err <= 1e-8 and coh_err <= 1e-8 and resid <= 1e-8
           and starts_zero and tends_one and osc_err < 0.02,
           f"thermal={th_err:.1e} coherent={coh_err:.1e} ode={resid:.1e} "
           f"osc_err={osc_err:.3f}")


def test_criterion_09_opo():
    gamma = 1.0
    lyap_err = 0.0
    for sigma in (0.3, 0.7):
        g = sigma * gamma
        a = np.array([[-(gamma - g), 0.0], [0.0, -(gamma + g)]], dtype=complex)
        d = 2 * gamma * np.array([[1.0, 1j], [-1j, 1.0]])
        m2 = q.langevin_steady(q.LangevinLinearModel(a, d)).second
        lyap_err = max(lyap_err,
                       abs(m2[0, 0].real - gamma / (gamma - g)),
                       abs(m2[1, 1].real - gamma / (gamma + g)))

    om = np.linspace(0.0, 10.0 * gamma, 51)
    spec_err = 0.0
    prod_err = 0.0
    for sigma in (0.3, 0.7):
        model = q.opo_langevin_model(gamma, sigma * gamma)
        v0_a, vpi2_a = q.opo_spectra(q.OPOParams(gamma, sigma * gamma), om)
        vpi2_n = q.spectrum_numeric(model, math.pi / 2.0, om)
        spec_err = max(spec_err,
                       float(np.abs(vpi2_n.values - vpi2_a.values).max()))
        prod_err = max(prod_err,
                       float(np.abs(v0_a.values * vpi2_a.values - 1.0).max()))

    sigma = 0.3
    n_max = 40
    model_l = q.opo_lindblad_model(gamma, sigma * gamma, n_max)
    ops = q.fock_ops(n_max)
    tau = np.linspace(0.0, 6.0, 25)
    reg = q.regression_correlator(ops.a_dag, ops.n, ops.a, model_l, tau)
    closed = q.opo_g2(q.OPOParams(gamma, sigma * gamma), tau)
    g2_err = float((np.abs(reg.values.real - closed.values.real)
                    / closed.values.real).max())
    _check(9, "below-threshold variances, squeezing spectra, pair g2",
           lyap_err <= 1e-10 and spec_err <= 1e-4 and prod_err <= 1e-12
           and g2_err <= 0.02,
           f"lyapunov={lyap_err:.1e} spectrum={spec_err:.1e} "
           f"product={prod_err:.1e} g2={g2_err:.3f}")


def test_criterion_10_effective_models():
    g, gamma = 10.0, 1.0
    kappa, nbar = 100.0 * g, 1.0
    art = run_scenario("purcell-cooling",
                       {"g": g, "kappa": kappa, "gamma": gamma,
                        "nbar": nbar, "n_max": 4, "t_max": 3.0, "points": 25})
    dist = float(np.max(art.columns["trace_distance"]))
    pe_full = np.asarray(art.columns["pe_full"])
    # these parameters give cooperativity 0.1: mild cooling toward
    # nbar_eff/(2 nbar_eff + 1), probing the elimination, not the limit
    steady_expected = art.metadata["nbar_eff"] / (
        2 * art.metadata["nbar_eff"] + 1)
    cooled = pe_full[0] > 0.99 and abs(pe_full[-1] - steady_expected) < 0.01

    res = purcell_effective_model(g, kappa, gamma, 0.0, nbar)
    rates = q.purcell_rates(g, kappa, gamma, 0.0, nbar)
    pl = q.pauli_ops()
    down = up = 0.0
    for rate, op in res.model.jumps:
        down += rate * abs(np.vdot(pl.sm.entries, op.entries)) ** 2
        up += rate * abs(np.vdot(pl.sp.entries, op.entries)) ** 2
    nbar_eff_err = abs(up / (down - up) - rates.nbar_eff)

    lamb = abs(q.lamb_shift_estimate(gamma, 13.0, 1e6)) / gamma
    lamb_ok = abs(lamb - 3.58) <= 0.01

    kappa_m, omega_m = 1.0, 100.0
    om_rates = q.optomech_rates(3.0, kappa_m, 1e-9, -omega_m, omega_m, 0.0)
    floor = kappa_m**2 / (4 * omega_m**2)
    floor_err = abs(om_rates.nbar_eff - floor) / floor
    _check(10, "Purcell validation, exact rate match, shift and cooling floor",
           dist < 0.05 and cooled and nbar_eff_err <= 1e-12 and lamb_ok
           and floor_err < 1e-3,
           f"trace_dist={dist:.3f} cooled={cooled} "
           f"nbar_eff_err={nbar_eff_err:.1e} lamb={lamb:.3f} "
           f"floor_err={floor_err:.1e}")


def test_criterion_11_mcwf():
    gamma = 1.0
    pl = q.pauli_ops()
    basis = q.two_level_basis()
    model = q.LindbladModel(basis, 0.0 * pl.sz, ((gamma, pl.sm),))
    psi0 = q.KetState(basis, np.array([1.0, 0.0], dtype=complex))
    t = np.linspace(0.0, 1.0, 5)
    n_traj = 10_000
    res = q.mcwf_evolve(psi0, model, t, n_traj=n_traj, seed=314159)
    exact = np.exp(-2 * gamma * t)
    sigma = np.sqrt(exact * (1 - exact) / n_traj)
    within = np.abs(res.populations[1:, 0] - exact[1:]) <= 3 * sigma[1:]

    # The error must halve at 4x the trajectories: over 16 blocks of N, the
    # squared errors at t = 0.5 summed in units of the binomial variance
    # sigma_N^2 = p (1 - p) / N, S_N, must lie in the two-sided 1e-3 band of
    # chi^2 with 16 degrees of freedom, at N = 2500 and at N = 10^4.  For an
    # unbiased ensemble each band holds with probability 0.998 (the normal
    # limit; 0.998 also in 10^6 simulated binomial runs), and the four 3-sigma
    # points above all hold with probability 0.9906 (10^6 simulated
    # multinomial runs), so the criterion passes with probability 0.987.  A
    # first-order step scheme with jump probability 0.05 per step is biased
    # by 0.95^20 - e^-1 = -0.0094 here, about 2 sigma at N = 10^4: S_N is
    # then noncentral with mean about 77, and it passes that band with
    # probability 0.005.
    t_probe = np.array([0.0, 0.5])
    p_exact = math.exp(-2 * gamma * 0.5)
    band = (chdtri(16, 1.0 - 1e-3), chdtri(16, 1e-3))
    stats = {}
    for n_run, seed0 in ((2500, 1000), (10_000, 2000)):
        sq_err = []
        for block in range(16):
            r = q.mcwf_evolve(psi0, model, t_probe, n_traj=n_run,
                              seed=seed0 + block)
            sq_err.append((r.populations[1, 0] - p_exact) ** 2)
        stats[n_run] = sum(sq_err) * n_run / (p_exact * (1.0 - p_exact))
    in_band = all(band[0] <= s <= band[1] for s in stats.values())
    _check(11, "trajectory ensemble matches decay; error halves at 4x",
           bool(np.all(within)) and in_band,
           f"S_2500={stats[2500]:.1f} S_10000={stats[10_000]:.1f} "
           f"band=[{band[0]:.2f}, {band[1]:.2f}]")


def test_criterion_12_determinism():
    light = {
        "collapse-revival": {"points": 150},
        "wigner-gallery": {"grid_points": 65, "state": "fock", "n": 1},
        "kerr-cat": {"alpha": 1.2, "grid_points": 129},
        "thermal-g2": {"n_max": 16, "points": 7},
        "driven-cavity": {"n_max": 12, "points": 7},
        "opo-g2": {"n_max": 10, "points": 5},
        "opo-squeezing": {"points": 7, "omega_max": 3.0},
        "rabi-bloch": {"points": 40},
        "pdc-instability": {"n_max": 30, "points": 9},
        "purcell-cooling": {"points": 7},
        "spontaneous-emission": {"trajectories": 300, "points": 5},
    }
    stable = True
    for name in sorted(REGISTRY):
        params = light.get(name, {})
        a = artifact_to_json(run_scenario(name, params, seed=9))
        b = artifact_to_json(run_scenario(name, params, seed=9))
        if a != b:
            stable = False
            print(f"  unstable scenario: {name}")
    _check(12, "every scenario is bit-stable for a fixed seed", stable)
