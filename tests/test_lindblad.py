import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import quoptics as q
from quoptics.lindblad import lindblad_rhs, vec
from quoptics.operators import QuopticsError


def _decay_model(gamma: float, n_max: int) -> q.LindbladModel:
    ops = q.fock_ops(n_max)
    basis = q.fock_basis(n_max)
    h = q.Operator(basis, np.zeros((n_max + 1, n_max + 1), dtype=complex))
    return q.LindbladModel(basis, h, ((gamma, ops.a),))


def _rf_model(gamma: float, drive: complex, delta: float = 0.0) -> q.LindbladModel:
    p = q.pauli_ops()
    basis = q.two_level_basis()
    h = (-0.5 * delta) * p.sz + 1j * drive * p.sp - 1j * np.conj(drive) * p.sm
    return q.LindbladModel(basis, h, ((gamma, p.sm),))


def _assert_same_random_state(before, after):
    assert before[0] == after[0]
    assert np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]


def test_dissipator_on_one_photon_state():
    gamma = 0.7
    m = _decay_model(gamma, 3)
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0
    out = lindblad_rhs(m, rho)
    expected = np.zeros_like(rho)
    expected[0, 0] = 2 * gamma
    expected[1, 1] = -2 * gamma
    assert np.abs(out - expected).max() < 1e-14


def test_liouvillian_matches_direct_application_and_preserves_trace():
    rng = np.random.default_rng(3)
    p = q.CavityParams(omega_c=1.0, gamma=0.4, delta=0.3, drive=0.5 + 0.2j,
                       nbar=0.2)
    m = q.driven_cavity_model(p, 6)
    sup = q.build_liouvillian(m)
    r = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    rho = r @ r.conj().T
    rho /= rho.trace()
    direct = lindblad_rhs(m, rho)
    via_matrix = sup.matrix @ vec(rho)
    assert np.abs(via_matrix - vec(direct)).max() < 1e-12
    assert abs(np.trace(direct)) < 1e-13
    assert sup.trace_residual() < 1e-12


def test_liouvillian_zero_mode_is_steady_state():
    p = q.CavityParams(omega_c=1.0, gamma=0.5, delta=0.2, drive=0.4, nbar=0.0)
    m = q.driven_cavity_model(p, 14)
    sup = q.build_liouvillian(m)
    rho = q.steady_state(m)
    assert np.abs(sup.matrix @ vec(np.array(rho.entries))).max() < 1e-10
    evals = np.linalg.eigvals(sup.matrix)
    assert np.min(np.abs(evals)) < 1e-10


def test_evolve_master_photon_decay():
    gamma = 0.3
    m = _decay_model(gamma, 4)
    rho0 = q.DensityMatrix(q.fock_basis(4),
                           np.diag([0, 1.0, 0, 0, 0]).astype(complex))
    t = np.linspace(0, 4.0, 17)
    states = q.evolve_master(rho0, m, t)
    ops = q.fock_ops(4)
    numbers = [q.expectation(ops.n, s).real for s in states]
    assert np.abs(np.array(numbers) - np.exp(-2 * gamma * t)).max() < 1e-10


def test_spontaneous_emission_closed_form():
    gamma = 0.9
    m = _rf_model(gamma, 0.0)
    excited = q.DensityMatrix(q.two_level_basis(),
                              np.diag([1.0, 0.0]).astype(complex))
    t = np.linspace(0, 2.0, 9)
    states = q.evolve_master(excited, m, t)
    for tv, s in zip(t, states):
        pe = math.exp(-2 * gamma * tv)
        assert np.abs(
            s.entries - np.diag([pe, 1 - pe]).astype(complex)
        ).max() < 1e-12


def test_dephasing_keeps_populations():
    gamma_phi = 0.8
    p = q.pauli_ops()
    basis = q.two_level_basis()
    h = q.Operator(basis, np.zeros((2, 2), dtype=complex))
    # coherence decay rate gamma_phi / 2 needs kappa = gamma_phi / 8 in the
    # 2 J rho J^dag convention
    m = q.LindbladModel(basis, h, ((gamma_phi / 8.0, p.sz),))
    amp = np.array([math.sqrt(0.3), math.sqrt(0.7)], dtype=complex)
    rho0 = q.KetState(basis, amp).to_density_matrix()
    t = np.linspace(0, 3.0, 13)
    states = q.evolve_master(rho0, m, t)
    pops = np.array([np.diag(s.entries).real for s in states])
    assert np.abs(pops - pops[0]).max() < 1e-10
    coh = np.array([s.entries[0, 1] for s in states])
    assert np.abs(coh / coh[0] - np.exp(-gamma_phi * t / 2.0)).max() < 1e-10
    # Bloch length never grows under pure dephasing
    lengths = np.array([np.linalg.norm([2 * s.entries[0, 1].real,
                                        -2 * s.entries[0, 1].imag,
                                        (s.entries[0, 0] - s.entries[1, 1]).real])
                        for s in states])
    assert np.all(np.diff(lengths) <= 1e-12)


def test_steady_state_driven_cavity_sweep():
    gamma, e_amp, nbar = 0.6, 0.8, 0.3
    ops = q.fock_ops(32)
    for delta in (-0.9, -0.3, 0.0, 0.4, 1.1):
        p = q.CavityParams(1.0, gamma, delta, e_amp, nbar)
        rho = q.steady_state(q.driven_cavity_model(p, 32))
        n_exp = q.expectation(ops.n, rho).real
        expected = abs(e_amp) ** 2 / (gamma**2 + delta**2) + nbar
        assert n_exp == pytest.approx(expected, abs=1e-8)
        mean = q.expectation(ops.a, rho)
        assert mean == pytest.approx(e_amp / (gamma - 1j * delta), abs=1e-8)


def test_steady_state_undriven_is_thermal():
    nbar = 0.7
    p = q.CavityParams(1.0, 0.5, 0.0, 0.0, nbar)
    rho = q.steady_state(q.driven_cavity_model(p, 30))
    expected = q.thermal_state(nbar, 30)
    assert np.abs(rho.entries - expected.entries).max() < 1e-9


def test_steady_state_at_n80_matches_analytic():
    # D = 81^2 = 6561: the dense Liouvillian alone would take 0.7 GB
    p = q.CavityParams(1.0, 1.0, 0.5, 4.0)
    before = np.random.get_state()
    rho = q.steady_state(q.driven_cavity_model(p, 80))
    _assert_same_random_state(before, np.random.get_state())
    ops = q.fock_ops(80)
    analytic = q.driven_cavity_analytic(p, [0.0])
    assert abs(q.expectation(ops.a, rho) - analytic.steady_mean) < 1e-8
    assert abs(q.expectation(ops.n, rho).real
               - abs(analytic.steady_mean) ** 2) < 1e-8


def test_resonance_fluorescence_steady_state_dissipator_answer():
    # The Lindblad dissipator with jump sigma at rate gamma gives
    # p_e = P / (1 + 2 P); the textbook Bloch system for this problem carries
    # twice that dissipation and lands at P / (2 (1 + P)).  The solver is the
    # authority here; rf_analytics keeps the printed forms.
    gamma, drive = 1.0, 0.9
    p_sat = abs(drive) ** 2 / gamma**2
    rho = q.steady_state(_rf_model(gamma, drive))
    pe = rho.entries[0, 0].real
    assert pe == pytest.approx(p_sat / (1 + 2 * p_sat), abs=1e-12)
    rf = q.rf_analytics(q.RFParams(p_sat, gamma), np.linspace(0, 1, 5))
    assert rf.pe_bar == pytest.approx(p_sat / (2 * (1 + p_sat)))


def test_moment_rhs_examples():
    p = q.CavityParams(1.0, 0.5, 0.3, 0.4 + 0.1j, nbar=0.6)
    m = q.driven_cavity_model(p, 30)
    ops = q.fock_ops(30)
    rho = q.thermal_state(0.4, 30)
    lhs = q.moment_rhs(ops.a, m, rho)
    mean = q.expectation(ops.a, rho)
    assert lhs == pytest.approx(p.drive - (p.gamma - 1j * p.delta) * mean,
                                abs=1e-12)
    m0 = q.driven_cavity_model(replace(p, drive=0.0), 30)
    lhs_n = q.moment_rhs(ops.n, m0, rho)
    n_mean = q.expectation(ops.n, rho).real
    assert lhs_n == pytest.approx(-2 * p.gamma * n_mean + 2 * p.nbar * p.gamma,
                                  abs=1e-12)
    ident = q.identity(q.fock_basis(30))
    assert abs(q.moment_rhs(ident, m, rho)) < 1e-13


def test_driven_cavity_analytic_matches_master_equation():
    p = q.CavityParams(1.0, 0.7, 0.5, 0.6 - 0.2j, nbar=0.4)
    n_max = 26
    m = q.driven_cavity_model(p, n_max)
    rho0 = q.thermal_state(0.4, n_max)
    t = np.linspace(0, 3.0, 13)
    states = q.evolve_master(rho0, m, t)
    ops = q.fock_ops(n_max)
    analytic = q.driven_cavity_analytic(p, t, mean0=0.0, var0=0.0, nfluct0=0.4)
    for k, s in enumerate(states):
        mean = q.expectation(ops.a, s)
        a2 = q.expectation(q.Operator(s.basis, ops.a.entries @ ops.a.entries), s)
        n_mean = q.expectation(ops.n, s)
        assert mean == pytest.approx(analytic.mean_a[k], abs=1e-8)
        assert a2 - mean**2 == pytest.approx(analytic.var_a[k], abs=1e-7)
        assert n_mean - abs(mean) ** 2 == pytest.approx(
            analytic.n_fluct[k], abs=1e-7)
    assert analytic.steady_mean == pytest.approx(
        p.drive / (p.gamma - 1j * p.delta))
    assert analytic.steady_n_fluct == pytest.approx(p.nbar)
    # on resonance the steady mean is sign-unambiguous
    res = q.driven_cavity_analytic(replace(p, delta=0.0), t)
    assert res.steady_mean == pytest.approx(p.drive / p.gamma)


def test_frame_transform_identity_generator_preserves_liouvillian():
    p = q.CavityParams(1.0, 0.5, 0.2, 0.3, nbar=0.1)
    m = q.driven_cavity_model(p, 8)
    ident = q.identity(m.basis)
    shifted = q.frame_transform(m, ident, 2.5)
    l_orig = q.build_liouvillian(m).matrix
    l_new = q.build_liouvillian(shifted).matrix
    assert np.abs(l_orig - l_new).max() < 1e-12


def test_frame_transform_makes_drive_static():
    n_max = 10
    ops = q.fock_ops(n_max)
    basis = q.fock_basis(n_max)
    omega_c, omega_l, gamma = 5.0, 4.7, 0.3
    e_amp = 0.25
    h_lab = omega_c * ops.n
    lab = q.LindbladModel(basis, h_lab, ((gamma, ops.a),))
    drive = q.DriveTerm(ops.a, 1j * e_amp, omega_l)
    rot = q.frame_transform(lab, ops.n, omega_l, drive)
    expected = q.driven_cavity_model(
        q.CavityParams(omega_c, gamma, omega_l - omega_c, e_amp), n_max)
    assert np.abs(rot.h.entries - expected.h.entries).max() < 1e-12
    # jump operator only picked up a phase: dissipators identical
    assert np.abs(q.build_liouvillian(rot).matrix
                  - q.build_liouvillian(expected).matrix).max() < 1e-12
    # a drive that the frame does not make static is refused
    with pytest.raises(QuopticsError):
        q.frame_transform(lab, ops.n, omega_l + 0.1, drive)
    with pytest.raises(QuopticsError):
        q.frame_transform(lab, ops.n, omega_l,
                          q.DriveTerm(ops.a_dag, 1j * e_amp, omega_l))
    with pytest.raises(q.BasisMismatchError):
        q.frame_transform(lab, ops.n, omega_l,
                          q.DriveTerm(q.fock_ops(4).a, 1j * e_amp, omega_l))


_SHORT_GRID = np.linspace(0.0, 6.0, 41)   # 41 points over 6 / gamma
_DRIVEN = q.CavityParams(1.0, 1.0, 0.3, 0.3, nbar=0.05)
_THERMAL = q.CavityParams(1.0, 1.0, 0.3, 0.0, nbar=0.05)


def _check_against_analytic(p, n_max, nbar0, t) -> None:
    m = q.driven_cavity_model(p, n_max)
    states = q.evolve_master(q.thermal_state(nbar0, n_max), m, t)
    ops = q.fock_ops(n_max)
    analytic = q.driven_cavity_analytic(p, t, nfluct0=nbar0)
    mean = np.array([q.expectation(ops.a, s) for s in states])
    n_mean = np.array([q.expectation(ops.n, s).real for s in states])
    assert np.abs(mean - analytic.mean_a).max() < 1e-8
    assert np.abs(n_mean - np.abs(analytic.mean_a) ** 2
                  - analytic.n_fluct).max() < 1e-8


@pytest.mark.parametrize("p, n_max, nbar0, t", [
    # thermally damped: two jump operators at D = 33^2
    (q.CavityParams(1.0, 0.5, 0.4, 0.3, nbar=0.2), 32, 0.1,
     np.linspace(0.0, 2.0, 7)),
    # strongly driven: <n> reaches 16 on an n_max 80 cutoff
    (q.CavityParams(1.0, 1.0, 0.0, 4.0), 80, 0.0, np.linspace(0.0, 2.5, 41)),
    # a short grid: one sparse substep per step beats a dense D^3 exponential
    (_DRIVEN, 20, 0.0, _SHORT_GRID),
    (_DRIVEN, 30, 0.0, _SHORT_GRID),
], ids=["thermal-n32", "driven-n80", "driven-n20", "driven-n30"])
def test_evolve_master_sparse_route_matches_analytic(plans, p, n_max, nbar0,
                                                     t):
    _check_against_analytic(p, n_max, nbar0, t)
    # the drive couples every coherence order: the whole L is propagated
    assert [(dim, plan.route) for dim, plan in plans] == [
        ((n_max + 1) ** 2, "sparse")]


@pytest.mark.parametrize("n_max", [20, 30], ids=["thermal-n20", "thermal-n30"])
def test_evolve_master_population_block_matches_analytic(plans, n_max):
    _check_against_analytic(_THERMAL, n_max, 0.0, _SHORT_GRID)
    # undriven from vacuum, only the n_max + 1 populations are touched, and
    # that small block is cheaper dense
    assert [(dim, plan.route) for dim, plan in plans] == [(n_max + 1, "dense")]


def test_evolve_master_memory_stays_below_one_dense_exponential():
    # at D = 961 a single dense exponential would take 16 D^2 bytes
    n_max = 30
    m = q.driven_cavity_model(_DRIVEN, n_max)
    rho0 = q.thermal_state(0.0, n_max)
    tracemalloc.start()
    try:
        q.evolve_master(rho0, m, _SHORT_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 961**2


def test_evolve_master_sparse_route_is_deterministic():
    n_max = 34
    m = q.driven_cavity_model(q.CavityParams(1.0, 1.0, 0.0, 1.5), n_max)
    rho0 = q.thermal_state(0.0, n_max)
    # one step with ||L dt||_1 far above the onenormest threshold of scipy
    runs = []
    for seed in (0, 1):
        np.random.seed(seed)
        before = np.random.get_state()
        runs.append(q.evolve_master(rho0, m, [0.0, 6.0])[-1].entries)
        _assert_same_random_state(before, np.random.get_state())
    assert runs[0].tobytes() == runs[1].tobytes()


def test_mcwf_no_jumps_is_schroedinger():
    basis = q.two_level_basis()
    h = 0.5 * 1.3 * q.pauli_ops().sx
    m = q.LindbladModel(basis, h, ())
    psi0 = q.KetState(basis, np.array([1.0, 0.0], dtype=complex))
    t = np.linspace(0, 2.0, 9)
    res = q.mcwf_evolve(psi0, m, t, n_traj=3, seed=1)
    expected = np.cos(0.5 * 1.3 * t) ** 2
    assert np.abs(res.populations[:, 0] - expected).max() < 1e-10
    assert res.n_jumps.sum() == 0


def test_mcwf_matches_spontaneous_emission():
    gamma = 1.0
    m = _rf_model(gamma, 0.0)
    psi0 = q.KetState(q.two_level_basis(), np.array([1.0, 0.0], dtype=complex))
    t = np.linspace(0, 1.0, 5)
    n_traj = 4000
    res = q.mcwf_evolve(psi0, m, t, n_traj=n_traj, seed=2024)
    exact = np.exp(-2 * gamma * t)
    sigma = np.sqrt(exact * (1 - exact) / n_traj)
    # allow the first-order-step bias on top of 3 sigma
    bias = 2 * gamma**2 * res.dt * t
    assert np.all(np.abs(res.populations[:, 0] - exact)
                  <= 3 * sigma + bias + 1e-12)


def test_mcwf_memory_is_bounded_on_a_coarse_output_grid():
    # one output interval of 2600 substeps (the rate bound 2 x 65 sets
    # dt = 0.05 / 130): drawing its uniforms at once would hold
    # n_traj x 2600 x 16 B = 8.3 MB
    n_traj, n_sub = 200, 2600
    psi0 = q.KetState(q.two_level_basis(), np.array([1.0, 0.0], dtype=complex))
    tracemalloc.start()
    try:
        res = q.mcwf_evolve(psi0, _rf_model(65.0, 0.0), [0.0, 1.0],
                            n_traj=n_traj, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert round(1 / res.dt) == n_sub
    assert peak < n_traj * n_sub * 16 / 4


def test_mcwf_rejects_a_decreasing_grid():
    psi0 = q.KetState(q.two_level_basis(), np.array([1.0, 0.0], dtype=complex))
    m = _rf_model(1.0, 0.0)
    with pytest.raises(q.ValidationError):
        q.mcwf_evolve(psi0, m, [1.0, 0.0], n_traj=4, seed=0)
    with pytest.raises(q.ValidationError):
        q.mcwf_evolve(psi0, m, [0.0, 0.5, 0.5, 0.4], n_traj=4, seed=0)
    # repeated points are allowed and hold the state
    res = q.mcwf_evolve(psi0, m, [0.0, 0.5, 0.5], n_traj=4, seed=0)
    assert np.array_equal(res.populations[1], res.populations[2])


def test_mcwf_on_a_one_point_grid_returns_the_initial_state():
    psi0 = q.KetState(q.two_level_basis(), np.array([1.0, 0.0], dtype=complex))
    res = q.mcwf_evolve(psi0, _rf_model(1.0, 0.5), [0.3], n_traj=4, seed=0)
    assert np.array_equal(res.populations, [[1.0, 0.0]])
    assert res.n_jumps.tolist() == [0, 0, 0, 0]
    assert np.isfinite(res.dt)


def test_mcwf_without_jumps_on_a_zero_span_grid_forms_no_nan():
    basis = q.two_level_basis()
    m = q.LindbladModel(basis, 0.5 * q.pauli_ops().sx, ())
    psi0 = q.KetState(basis, np.array([1.0, 0.0], dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = q.mcwf_evolve(psi0, m, [0.0, 0.0], n_traj=3, seed=1)
    assert np.array_equal(res.populations, [[1.0, 0.0], [1.0, 0.0]])
    assert res.n_jumps.tolist() == [0, 0, 0]
    assert res.dt == 0.0


def test_mcwf_reproducible():
    gamma = 0.8
    m = _rf_model(gamma, 0.3)
    psi0 = q.KetState(q.two_level_basis(), np.array([0.0, 1.0], dtype=complex))
    t = np.linspace(0, 1.5, 4)
    a = q.mcwf_evolve(psi0, m, t, n_traj=64, seed=99)
    b = q.mcwf_evolve(psi0, m, t, n_traj=64, seed=99)
    assert np.array_equal(a.populations, b.populations)


def test_langevin_steady_cavity_and_opo():
    gamma, nbar = 0.7, 0.9
    cav = q.cavity_langevin_model(gamma, delta=0.2, drive=0.1, nbar=nbar)
    steady = q.langevin_steady(cav)
    assert steady.second[1, 1] == pytest.approx(nbar, abs=1e-12)
    assert steady.second[0, 0] == pytest.approx(nbar + 1.0, abs=1e-12)
    assert steady.mean[0] == pytest.approx(0.1 / (gamma - 0.2j))

    g = 0.4
    a = np.array([[-(gamma - g), 0.0], [0.0, -(gamma + g)]], dtype=complex)
    d = 2 * gamma * np.array([[1.0, 1j], [-1j, 1.0]])
    quad = q.LangevinLinearModel(a, d)
    m2 = q.langevin_steady(quad).second
    assert m2[0, 0].real == pytest.approx(gamma / (gamma - g), abs=1e-12)
    assert m2[1, 1].real == pytest.approx(gamma / (gamma + g), abs=1e-12)

    vacuum = q.LangevinLinearModel(
        np.array([[-gamma, 0], [0, -gamma]], dtype=complex),
        2 * gamma * np.array([[1.0, 1j], [-1j, 1.0]]))
    v2 = q.langevin_steady(vacuum).second
    assert v2[0, 0].real == pytest.approx(1.0)
    assert v2[1, 1].real == pytest.approx(1.0)

    unstable = q.LangevinLinearModel(np.array([[0.1]]), np.array([[1.0]]))
    with pytest.raises(QuopticsError):
        q.langevin_steady(unstable)


def test_gaussian_closure_master_vs_lyapunov():
    p = q.CavityParams(1.0, 0.8, 0.35, 0.5 + 0.3j, nbar=0.25)
    m = q.driven_cavity_model(p, 18)
    rho = q.steady_state(m)
    ops = q.fock_ops(18)
    mean = q.expectation(ops.a, rho)
    n_fluct = q.expectation(ops.n, rho).real - abs(mean) ** 2
    lang = q.langevin_steady(
        q.cavity_langevin_model(p.gamma, p.delta, p.drive, p.nbar))
    assert mean == pytest.approx(lang.mean[0], abs=1e-7)
    assert n_fluct == pytest.approx(lang.second[1, 1].real, abs=1e-7)


@pytest.mark.parametrize("eps", [0.0, 1e-13, 1e-11, 1e-6])
def test_steady_state_degenerate_null_space_raises(eps):
    # the second qubit decays at rate eps: at eps = 0 it keeps any state, so
    # the steady state is not unique, and below 1e-10 of the unit first rate
    # it counts as degenerate; at 1e-6 both qubits relax to |gg>
    basis = q.BasisSpec((q.TwoLevel(), q.TwoLevel()))
    h = q.Operator(basis, np.zeros((4, 4), dtype=complex))
    sm1 = q.tensor_embed(q.pauli_ops().sm, 0, basis)
    sm2 = q.tensor_embed(q.pauli_ops().sm, 1, basis)
    m = q.LindbladModel(basis, h, ((1.0, sm1), (eps, sm2)))
    if eps < 1e-10:
        with pytest.raises(QuopticsError):
            q.steady_state(m)
    else:
        # two-level factors are ordered (|e>, |g>), so |gg> is the last state
        gg = np.diag([0.0, 0.0, 0.0, 1.0])
        assert np.abs(q.steady_state(m).entries - gg).max() < 1e-8


def test_evolve_master_initial_time_offset():
    p = q.CavityParams(1.0, 0.4, 0.0, 0.0, 0.3)
    m = q.driven_cavity_model(p, 10)
    rho0 = q.thermal_state(0.1, 10)
    shifted = q.evolve_master(rho0, m, [2.0, 3.0])
    plain = q.evolve_master(rho0, m, [0.0, 1.0])
    # t_grid[0] is the initial time: only elapsed time matters
    assert np.abs(shifted[0].entries - rho0.entries).max() < 1e-14
    assert np.abs(shifted[1].entries - plain[1].entries).max() < 1e-12


def test_mcwf_driven_atom_tracks_master_equation():
    gamma, drive = 1.0, 1.5
    m = _rf_model(gamma, drive)
    basis = q.two_level_basis()
    psi0 = q.KetState(basis, np.array([0.0, 1.0], dtype=complex))
    t = np.linspace(0.0, 2.0, 9)
    n_traj = 6000
    res = q.mcwf_evolve(psi0, m, t, n_traj=n_traj, seed=77)
    master = q.evolve_master(psi0.to_density_matrix(), m, t)
    exact = np.array([s.entries[0, 0].real for s in master])
    sigma = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / n_traj)
    bias = 2 * (gamma + abs(drive)) ** 2 * res.dt * t
    assert np.all(np.abs(res.populations[:, 0] - exact)
                  <= 4 * sigma + bias + 1e-12)


def test_mcwf_two_channels_track_master_equation():
    # a driven atom in a thermal field: sigma^- at gamma (nbar + 1) and
    # sigma^+ at gamma nbar.  Sending every jump down, or swapping the two
    # channels, moves p_e by 0.16 to 0.47 from t = 0.25 on, beyond the
    # allowance below
    gamma, nbar, omega = 1.0, 0.5, 0.4
    p = q.pauli_ops()
    basis = q.two_level_basis()
    rates = (gamma * (nbar + 1), gamma * nbar)
    m = q.LindbladModel(basis, omega * p.sx,
                        ((rates[0], p.sm), (rates[1], p.sp)))
    psi0 = q.KetState(basis, np.array([0.0, 1.0], dtype=complex))
    t = np.linspace(0.0, 1.5, 7)
    n_traj = 6000
    res = q.mcwf_evolve(psi0, m, t, n_traj=n_traj, seed=11)
    assert res.n_jumps.sum() > 0
    master = q.evolve_master(psi0.to_density_matrix(), m, t)
    exact = np.array([s.entries[0, 0].real for s in master])
    sigma = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / n_traj)
    bias = 2 * (sum(rates) + omega) ** 2 * res.dt * t
    assert np.all(np.abs(res.populations[:, 0] - exact)
                  <= 4 * sigma + bias + 1e-12)
