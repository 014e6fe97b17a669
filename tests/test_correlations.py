import math
import tracemalloc

import numpy as np
import pytest

import quoptics as q
from quoptics.operators import QuopticsError, ValidationError


def _thermal_cavity(gamma: float, nbar: float, n_max: int) -> q.LindbladModel:
    p = q.CavityParams(1.0, gamma, 0.0, 0.0, nbar)
    return q.driven_cavity_model(p, n_max)


def test_regression_constant_for_trivial_operators():
    m = _thermal_cavity(0.5, 0.4, 22)
    ops = q.fock_ops(22)
    ident = q.identity(m.basis)
    tau = np.linspace(0, 4.0, 9)
    series = q.regression_correlator(ident, ops.n, ident, m, tau)
    nbar = 0.4
    assert np.abs(series.values - nbar).max() < 1e-9


def test_regression_thermal_bunching():
    gamma, nbar = 1.0, 0.5
    n_max = 30
    m = _thermal_cavity(gamma, nbar, n_max)
    ops = q.fock_ops(n_max)
    tau = np.linspace(0, 5.0, 26)
    g2 = q.regression_correlator(ops.a_dag, ops.n, ops.a, m, tau)
    expected = 2 * nbar**2 * np.exp(-2 * gamma * tau) + nbar**2 * (
        1 - np.exp(-2 * gamma * tau))
    assert np.abs(g2.values.real - expected).max() < 1e-9
    assert g2.values[0].real == pytest.approx(2 * nbar**2, abs=1e-9)
    norm = q.g2_normalized(g2, nbar)
    assert np.abs(norm.values.real - (1 + np.exp(-2 * gamma * tau))).max() < 1e-8


def test_regression_memory_grows_with_the_grid_not_with_the_series():
    # D 441 on 4001 tau points: a (nt, D) series of states would take
    # 28 MB; the read-out holds O(nt + D) numbers (about 0.3 MB measured)
    n_max = 20
    m = _thermal_cavity(1.0, 0.4, n_max)
    ops = q.fock_ops(n_max)
    rho = q.steady_state(m)
    tau = np.linspace(0.0, 10.0, 4001)
    # a first call imports and caches what any later call reuses
    q.regression_correlator(ops.a_dag, ops.n, ops.a, m, tau[:3], initial=rho)
    tracemalloc.start()
    try:
        g2 = q.regression_correlator(ops.a_dag, ops.n, ops.a, m, tau,
                                     initial=rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # thermal bunching, to the 1.6e-9 that the cutoff leaves out
    expected = 2 * 0.4**2 * np.exp(-2 * tau) + 0.4**2 * (1 - np.exp(-2 * tau))
    assert np.abs(g2.values.real - expected).max() < 1e-8
    assert peak < 16 * 16 * (tau.size + (n_max + 1) ** 2)


def test_regression_tau_zero_is_direct_expectation():
    m = _thermal_cavity(0.7, 0.3, 16)
    ops = q.fock_ops(16)
    rho = q.steady_state(m)
    tau = np.linspace(0, 1.0, 3)
    series = q.regression_correlator(ops.a_dag, ops.n, ops.a, m, tau)
    direct = np.trace(ops.n.entries @ ops.a.entries
                      @ rho.entries @ ops.a_dag.entries)
    assert series.values[0] == pytest.approx(direct, abs=1e-10)


def test_regression_coherent_driven_flat():
    gamma, e_amp = 1.0, 0.5
    p = q.CavityParams(1.0, gamma, 0.0, e_amp, 0.0)
    m = q.driven_cavity_model(p, 18)
    ops = q.fock_ops(18)
    tau = np.linspace(0, 5.0, 21)
    g2 = q.regression_correlator(ops.a_dag, ops.n, ops.a, m, tau)
    alpha2 = (e_amp / gamma) ** 2
    assert np.abs(g2.values.real - alpha2**2).max() < 1e-8
    norm = q.g2_normalized(g2, alpha2)
    assert np.abs(norm.values.real - 1.0).max() < 1e-8
    with pytest.raises(ValidationError):
        q.g2_normalized(g2, 0.0)


def test_regression_formula_thermal_set():
    gamma, nbar = 0.8, 0.6
    n_max = 32
    m = _thermal_cavity(gamma, nbar, n_max)
    ops = q.fock_ops(n_max)
    ident = q.identity(m.basis)
    tau = np.linspace(0, 4.0, 17)
    coeff = np.array([[-2 * gamma, 2 * gamma], [0.0, 0.0]])
    series = q.regression_formula([ops.n, nbar * ident], coeff,
                                  ops.a_dag, ops.a, m, tau)
    oracle = q.regression_correlator(ops.a_dag, ops.n, ops.a, m, tau)
    assert np.abs(series[0].values - oracle.values).max() < 1e-9


def test_regression_formula_free_atom_decay():
    gamma, eps = 0.4, 3.0
    pauli = q.pauli_ops()
    basis = q.two_level_basis()
    m = q.LindbladModel(basis, 0.5 * eps * pauli.sz, ((gamma, pauli.sm),))
    rho0 = q.DensityMatrix(basis, np.diag([0.6, 0.4]).astype(complex))
    tau = np.linspace(0, 3.0, 13)
    coeff = np.array([[-(gamma + 1j * eps)]])
    series = q.regression_formula([pauli.sm], coeff, pauli.sp, q.identity(basis),
                                  m, tau, initial=rho0)
    expected = 0.6 * np.exp(-(gamma + 1j * eps) * tau)
    assert np.abs(series[0].values - expected).max() < 1e-10


@pytest.mark.parametrize("kappa", [0.1, 0.7, 1.0])
def test_regression_formula_at_the_bloch_exceptional_point(kappa):
    # Omega = kappa / 2 makes the damped Bloch matrix defective
    pauli = q.pauli_ops()
    basis = q.two_level_basis()
    m = q.LindbladModel(basis, 0.25 * kappa * pauli.sx, ((kappa, pauli.sm),))
    ident = q.identity(basis)
    ops = [pauli.sx, pauli.sy, pauli.sz, ident]
    # rho = sum_k <B_k> B_k / 2, so column k of the moment matrix is the
    # moment derivative on B_k / 2
    halves = [q.DensityMatrix(basis, 0.5 * bk.entries) for bk in ops]
    coeff = np.array([[q.moment_rhs(bj, m, h) for h in halves] for bj in ops])
    tau = np.linspace(0, 20.0 / kappa, 41)
    series = q.regression_formula(ops, coeff, pauli.sp, ident, m, tau)
    oracle = q.regression_correlator(pauli.sp, pauli.sz, ident, m, tau)
    assert np.abs(series[2].values - oracle.values).max() < 1e-12


def test_regression_formula_rejects_operators_of_another_basis():
    m = _thermal_cavity(0.8, 0.6, 4)
    other = q.fock_ops(5)
    with pytest.raises(q.BasisMismatchError):
        q.regression_formula([other.n], np.array([[0.0]]), other.a_dag,
                             other.a, m, np.linspace(0, 1, 3))


def test_regression_formula_rejects_open_set():
    m = _rf = q.LindbladModel(
        q.two_level_basis(), 0.7 * q.pauli_ops().sx,
        ((0.3, q.pauli_ops().sm),))
    coeff = np.array([[-0.3]])
    with pytest.raises(QuopticsError):
        q.regression_formula([q.pauli_ops().sm], coeff, q.pauli_ops().sp,
                             q.identity(q.two_level_basis()), m,
                             np.linspace(0, 1, 3))


def test_rf_analytics_limits():
    tau = np.linspace(0, 14.0, 400)
    rf = q.rf_analytics(q.RFParams(p_sat=0.3, gamma=1.0), tau)
    assert rf.pe_bar == pytest.approx(0.3 / 2.6)
    assert rf.g2.values[0].real == pytest.approx(0.0, abs=1e-12)
    assert rf.g2.values[-1].real == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(rf.g2.values.imag)) == 0.0
    big = q.rf_analytics(q.RFParams(p_sat=1e6, gamma=1.0), tau)
    assert big.pe_bar == pytest.approx(0.5, abs=1e-6)


# P = 9/16 is the critical point, where the closed form is 1 + 5 x
@pytest.mark.parametrize("p_sat", [2.0, 9 / 16, 0.3])
def test_rf_analytics_satisfies_its_ode(p_sat):
    gamma = 1.0
    h = 0.005
    tau = np.arange(0, 6.0 + 4 * h, h)
    rf = q.rf_analytics(q.RFParams(p_sat, gamma), tau)
    pe = rf.g2.values.real * rf.pe_bar
    # five-point stencils for the first and second derivatives
    d1 = (-pe[4:] + 8 * pe[3:-1] - 8 * pe[1:-3] + pe[:-4]) / (12 * h)
    d2 = (-pe[4:] + 16 * pe[3:-1] - 30 * pe[2:-2] + 16 * pe[1:-3]
          - pe[:-4]) / (12 * h * h)
    interior = pe[2:-2]
    resid = d2 + 5 * gamma * d1 + 4 * gamma**2 * (1 + p_sat) * interior \
        - 2 * gamma**2 * p_sat
    assert np.abs(resid).max() < 1e-8
    # the initial conditions p(0) = p'(0) = 0 pick the solution of the ODE;
    # five-point forward stencil for p'(0), on a finer step
    h0 = 1e-3
    start = q.rf_analytics(q.RFParams(p_sat, gamma), h0 * np.arange(5))
    p0 = start.g2.values.real * start.pe_bar
    d1_0 = (-25 * p0[0] + 48 * p0[1] - 36 * p0[2] + 16 * p0[3]
            - 3 * p0[4]) / (12 * h0)
    assert abs(p0[0]) < 1e-8 and abs(d1_0) < 1e-8


def test_rf_analytics_strong_drive_oscillates_at_twice_the_drive():
    gamma = 1.0
    e_amp = 6.0
    p_sat = e_amp**2 / gamma**2
    tau = np.linspace(0, 3.0, 4001)
    rf = q.rf_analytics(q.RFParams(p_sat, gamma), tau)
    # crossings of g2 = 1 occur every pi / (2 |E|) at strong drive
    body = (1.0 - rf.g2.values.real) * np.exp(2.5 * gamma * tau)
    crossings = tau[:-1][np.diff(np.sign(body)) != 0]
    spac = np.diff(crossings)
    assert abs(np.median(spac) - math.pi / (2 * e_amp)) < 0.01


def test_opo_spectra_closed_forms():
    om = np.linspace(0, 8.0, 33)
    v0, vpi2 = q.opo_spectra(q.OPOParams(gamma=1.0, g=0.5), om)
    assert vpi2.values[0] == pytest.approx(1.0 - 2.0 / 2.25)
    assert np.abs(v0.values * vpi2.values - 1.0).max() < 1e-12
    v0_flat, vpi2_flat = q.opo_spectra(q.OPOParams(1.0, 0.0), om)
    assert np.all(v0_flat.values == 1.0) and np.all(vpi2_flat.values == 1.0)
    v0n, vpi2n = q.opo_spectra(q.OPOParams(1.0, 0.999), np.array([0.0]))
    assert vpi2n.values[0] < 1e-3
    with pytest.raises(ValidationError):
        q.OPOParams(1.0, 1.0)


def test_opo_g2_shape_and_limits():
    p = q.OPOParams(gamma=1.0, g=0.3)
    tau = np.linspace(0, 12.0, 200)
    g2 = q.opo_g2(p, tau)
    vals = g2.values.real
    assert np.all(np.diff(vals) <= 1e-14)
    n_ss = 0.09 / (2 * (1 - 0.09))
    assert vals[-1] == pytest.approx(n_ss**2, rel=1e-4)


def test_opo_g2_matches_master_equation_regression():
    gamma, sigma = 1.0, 0.3
    n_max = 25
    m = q.opo_lindblad_model(gamma, sigma * gamma, n_max)
    ops = q.fock_ops(n_max)
    tau = np.linspace(0, 6.0, 25)
    reg = q.regression_correlator(ops.a_dag, ops.n, ops.a, m, tau)
    closed = q.opo_g2(q.OPOParams(gamma, sigma * gamma), tau)
    rel = np.abs(reg.values.real - closed.values.real) / closed.values.real
    assert rel.max() < 0.02


def test_spectrum_numeric_opo_matches_analytic():
    gamma = 1.0
    om = np.linspace(0, 10.0, 41)
    for sigma in (0.3, 0.7):
        model = q.opo_langevin_model(gamma, sigma * gamma)
        for phase, analytic in zip(
            (0.0, math.pi / 2), q.opo_spectra(q.OPOParams(gamma, sigma * gamma), om)
        ):
            numeric = q.spectrum_numeric(model, phase, om)
            assert np.abs(numeric.values - analytic.values).max() < 1e-4


def test_spectrum_numeric_vacuum_cavity_flat():
    model = q.cavity_langevin_model(1.0, delta=0.0, drive=0.4, nbar=0.0)
    om = np.linspace(0, 6.0, 13)
    spec = q.spectrum_numeric(model, 0.3, om)
    assert np.abs(spec.values - 1.0).max() < 1e-10


def test_spectrum_numeric_thermal_cavity_both_routes():
    # analytic one-sided transform of the exponential covariance:
    # V = 1 + kappa_out * FT[2 nbar e^{-gamma tau}] = 1 + 8 nbar gamma^2 /
    # (gamma^2 + omega^2) with the cavity convention kappa_out = 2 gamma
    gamma, nbar = 1.0, 0.4
    om = np.linspace(0, 5.0, 11)
    expected = 1.0 + 8.0 * nbar * gamma**2 / (gamma**2 + om**2)
    lang = q.spectrum_numeric(
        q.cavity_langevin_model(gamma, 0.0, 0.0, nbar), 0.7, om)
    assert np.abs(lang.values - expected).max() < 1e-5
    n_max = 24
    m = _thermal_cavity(gamma, nbar, n_max)
    lind = q.spectrum_numeric(m, 0.7, om, mode_op=q.fock_ops(n_max).a,
                              kappa_out=2 * gamma)
    assert np.abs(lind.values - expected).max() < 1e-5
    # passive model: no squeezing below shot noise anywhere
    assert np.all(lang.values >= 1.0 - 1e-6)


def test_spectrum_numeric_rejects_non_decaying_model():
    model = q.LangevinLinearModel(np.array([[0.0, 0.0], [0.0, -1.0]]),
                                  np.diag([1.0, 0.0]).astype(complex),
                                  kappa_out=2.0)
    with pytest.raises(QuopticsError):
        q.spectrum_numeric(model, 0.0, np.linspace(0, 1, 3))


def test_spectrum_numeric_rejects_an_undamped_lindblad_model():
    # H = a^dag a with no jumps: every eigenvalue of L has a real part of
    # exactly 0, so no rate decays, and the steady state is not unique
    ops = q.fock_ops(4)
    model = q.LindbladModel(ops.n.basis, ops.n, ())
    with pytest.raises(QuopticsError):
        q.spectrum_numeric(model, 0.0, np.linspace(0, 1, 3), mode_op=ops.a,
                           kappa_out=1.0)


def test_input_output_scaling():
    tau = np.linspace(0, 2.0, 5)
    series = q.CorrelationSeries(tau, np.full(5, 3.0 + 0j), kind="generic")
    cavity = q.input_output_scale(series, kappa=2 * 0.7, counts=(1, 1))
    assert np.allclose(cavity.values, 3.0 * 2 * 0.7)
    atom = q.input_output_scale(series, kappa=0.7, counts=(1, 1))
    assert np.allclose(atom.values, 3.0 * 0.7)
    g2_scaled = q.input_output_scale(series, kappa=1.4, counts=(2, 2))
    assert np.allclose(g2_scaled.values, 3.0 * 1.4**2)
    # normalization is untouched by the output scaling
    norm_before = q.g2_normalized(series, 3.0).values
    norm_after = q.g2_normalized(
        q.input_output_scale(series, 1.4, (2, 2)), 3.0 * 1.4).values
    assert np.allclose(norm_before, norm_after)


def test_regression_formula_zero_matrix_is_constant():
    m = _thermal_cavity(0.5, 0.3, 16)
    ident = q.identity(m.basis)
    tau = np.linspace(0, 2.0, 7)
    series = q.regression_formula([ident], np.zeros((1, 1)), ident, ident,
                                  m, tau)
    assert np.abs(series[0].values - series[0].values[0]).max() < 1e-12


def test_series_container_validation():
    with pytest.raises(ValidationError):
        q.CorrelationSeries(np.array([0.5, 1.0]), np.zeros(2))  # tau[0] != 0
    with pytest.raises(ValidationError):
        q.CorrelationSeries(np.array([0.0, 1.0]),
                            np.array([1.0, 1.0 + 0.1j]), kind="G2")


def test_spectrum_numeric_detuned_thermal_cavity():
    # amplitude correlator e^{(i delta - gamma) tau} splits the line into
    # two Lorentzians at +-delta
    gamma, nbar, delta = 1.0, 0.3, 2.5
    om = np.linspace(0.0, 6.0, 25)
    lor = (gamma / (gamma**2 + (om - delta) ** 2)
           + gamma / (gamma**2 + (om + delta) ** 2))
    expected = 1.0 + 2 * gamma * 2 * nbar * lor
    lang = q.spectrum_numeric(
        q.cavity_langevin_model(gamma, delta, 0.0, nbar), 0.2, om)
    assert np.abs(lang.values - expected).max() < 1e-5
    n_max = 22
    model = q.driven_cavity_model(q.CavityParams(1.0, gamma, delta, 0.0, nbar),
                                  n_max)
    lind = q.spectrum_numeric(model, 0.2, om, mode_op=q.fock_ops(n_max).a,
                              kappa_out=2 * gamma)
    assert np.abs(lind.values - expected).max() < 1e-5


def _count_liouvillian_builds(monkeypatch) -> list:
    """Wrap the builder behind the cached LindbladModel.liouvillian and
    return the list of models it is called on."""
    prop = vars(q.LindbladModel)["liouvillian"]
    original = prop.func
    calls = []

    def counting(model):
        calls.append(model)
        return original(model)

    monkeypatch.setattr(prop, "func", counting)
    return calls


def _engine_runs(m: q.LindbladModel, n_max: int) -> dict:
    """The five engines that read the Liouvillian, each as a call on m."""
    ops = q.fock_ops(n_max)
    tau = np.linspace(0.0, 1.0, 5)
    vacuum = np.diag(np.eye(n_max + 1)[0])
    rho0 = q.DensityMatrix(m.basis, vacuum)
    return {
        "build_liouvillian": lambda: q.build_liouvillian(m),
        "steady_state": lambda: q.steady_state(m),
        "evolve_master": lambda: q.evolve_master(rho0, m, tau),
        "regression_correlator": lambda: q.regression_correlator(
            ops.a_dag, ops.n, ops.a, m, tau),
        "spectrum_numeric": lambda: q.spectrum_numeric(
            m, 0.3, np.linspace(0.0, 2.0, 3), mode_op=ops.a, kappa_out=2.0),
    }


@pytest.mark.parametrize("engine", ["steady_state", "evolve_master",
                                    "regression_correlator",
                                    "spectrum_numeric"])
def test_each_call_builds_the_liouvillian_once(monkeypatch, engine):
    n_max = 6
    m = _thermal_cavity(1.0, 0.3, n_max)
    run = _engine_runs(m, n_max)[engine]
    calls = _count_liouvillian_builds(monkeypatch)
    run()
    assert len(calls) == 1 and calls[0] is m


def test_one_model_builds_its_liouvillian_once(monkeypatch):
    # the five engines in turn on one model share one cached matrix
    n_max = 6
    m = _thermal_cavity(1.0, 0.3, n_max)
    calls = _count_liouvillian_builds(monkeypatch)
    for run in _engine_runs(m, n_max).values():
        run()
    assert len(calls) == 1 and calls[0] is m
