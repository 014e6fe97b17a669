import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import quoptics as q
from quoptics import dynamics, lindblad
from quoptics.lindblad import lindblad_rhs, vec
from quoptics.operators import QuopticsError
from quoptics.scenarios import run_scenario


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
    liouv = m.liouvillian.toarray()
    r = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    rho = r @ r.conj().T
    rho /= rho.trace()
    direct = lindblad_rhs(m, rho)
    via_matrix = liouv @ vec(rho)
    assert np.abs(via_matrix - vec(direct)).max() < 1e-12
    assert abs(np.trace(direct)) < 1e-13
    # the trace row vec(I)^dag L vanishes
    assert np.abs(vec(np.eye(7)) @ liouv).max() < 1e-12


def test_liouvillian_zero_mode_is_steady_state():
    p = q.CavityParams(omega_c=1.0, gamma=0.5, delta=0.2, drive=0.4, nbar=0.0)
    m = q.driven_cavity_model(p, 14)
    liouv = m.liouvillian.toarray()
    rho = q.steady_state(m)
    assert np.abs(liouv @ vec(np.array(rho.entries))).max() < 1e-10
    evals = np.linalg.eigvals(liouv)
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
    l_orig = m.liouvillian.toarray()
    l_new = shifted.liouvillian.toarray()
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
    assert np.abs((rot.liouvillian - expected.liouvillian).toarray()
                  ).max() < 1e-12
    # a drive that the frame does not make static is refused
    with pytest.raises(QuopticsError):
        q.frame_transform(lab, ops.n, omega_l + 0.1, drive)
    with pytest.raises(QuopticsError):
        q.frame_transform(lab, ops.n, omega_l,
                          q.DriveTerm(ops.a_dag, 1j * e_amp, omega_l))
    with pytest.raises(q.BasisMismatchError):
        q.frame_transform(lab, ops.n, omega_l,
                          q.DriveTerm(q.fock_ops(4).a, 1j * e_amp, omega_l))


def _is_j_symmetric(b) -> bool:
    """B[P][:, P] == conj(B) entry for entry, P the transpose permutation
    of vec(rho): the symmetry the sparse route folds on."""
    d = math.isqrt(b.shape[0])
    p = np.arange(d * d).reshape(d, d).T.ravel()
    return np.array_equal(b[p][:, p].toarray(), b.toarray().conj())


# the scenarios that build their own LindbladModel or call a builder
_MODEL_SCENARIOS = ("dephasing", "driven-cavity", "opo-g2", "purcell-cooling",
                    "spontaneous-emission", "thermal-g2")


def test_every_lindblad_builder_gives_a_j_symmetric_liouvillian(monkeypatch):
    models = []
    post_init = q.LindbladModel.__post_init__

    def record(self):
        post_init(self)
        models.append(self)

    monkeypatch.setattr(q.LindbladModel, "__post_init__", record)
    for name in _MODEL_SCENARIOS:
        run_scenario(name)
    ops = q.fock_ops(6)
    q.driven_cavity_model(
        q.CavityParams(1.0, 0.7, 0.2, 0.3 - 0.4j, nbar=0.1), 6)
    q.opo_lindblad_model(1.0, 0.3, 6)
    q.frame_transform(q.LindbladModel(ops.a.basis, 5.0 * ops.n,
                                      ((0.3, ops.a),)),
                      ops.n, 4.7, q.DriveTerm(ops.a, 0.25j, 4.7))
    # one model per scenario, but four from purcell-cooling (its full
    # model, and the system, refit and fitted models of
    # purcell_effective_model), and four from the calls above
    assert len(models) == len(_MODEL_SCENARIOS) + 3 + 4
    rng = np.random.default_rng(3)
    for m in models:
        b = m.liouvillian
        assert _is_j_symmetric(b)
        # and the sparse route folds it from any Hermitian seed
        d = m.basis.total_dim
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert dynamics._hermitian_fold(
            dynamics._plan_route(b, np.array([0.1])), vec(rho + rho.conj().T),
            dynamics._transpose_mirror(d * d, np.arange(d * d))) is not None


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
    assert np.all(np.abs(res.populations[:, 0] - exact) <= 3 * sigma + 1e-12)


def test_mcwf_has_no_time_step_bias():
    # 5e4 trajectories of a decaying and of a driven atom must track the
    # master equation within 4 sigma at every point, with no allowance for
    # bias.  A first-order scheme with jump probability 0.05 per step reads
    # about 4-6 sigma low at 5e4 trajectories (decay from t = 0.5 on, the
    # driven atom at t = 1/3), so one model or the other fails it
    n_traj = 50_000
    psi0 = q.KetState(q.two_level_basis(), np.array([1.0, 0.0], dtype=complex))
    for drive, t_max in ((0.0, 1.5), (1.5, 2.0)):
        m = _rf_model(1.0, drive)
        t = np.linspace(0.0, t_max, 7)
        res = q.mcwf_evolve(psi0, m, t, n_traj=n_traj, seed=1)
        master = q.evolve_master(psi0.to_density_matrix(), m, t)
        exact = np.array([s.entries[0, 0].real for s in master])
        sigma = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / n_traj)
        assert np.all(np.abs(res.populations[:, 0] - exact)
                      <= 4 * sigma + 1e-12), drive


def test_mcwf_memory_is_bounded_on_a_coarse_output_grid():
    # one output interval 130 decay times long: a first-order scheme with
    # jump probability 0.05 per substep takes 2600 substeps over it, and
    # drawing their uniforms at once would hold n_traj x 2600 x 16 B = 8.3 MB
    n_traj, n_sub = 200, 2600
    psi0 = q.KetState(q.two_level_basis(), np.array([1.0, 0.0], dtype=complex))
    tracemalloc.start()
    try:
        res = q.mcwf_evolve(psi0, _rf_model(65.0, 0.0), [0.0, 1.0],
                            n_traj=n_traj, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # dt is the output interval, the span advanced between jump checks
    assert res.dt == 1.0
    assert peak < n_traj * n_sub * 16 / 4


@pytest.mark.parametrize("t_grid", [
    [1.0, 0.0], [0.0, 0.5, 0.5, 0.4], [0.0, np.nan], [0.0, np.inf], [],
    [[0.0, 0.5], [1.0, 1.5]],
], ids=["decreasing", "decreasing-late", "nan", "inf", "empty", "2-d"])
def test_mcwf_rejects_a_decreasing_grid(t_grid):
    psi0 = q.KetState(q.two_level_basis(), np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(q.ValidationError):
        q.mcwf_evolve(psi0, _rf_model(1.0, 0.0), t_grid, n_traj=4, seed=0)


def test_mcwf_holds_the_state_over_a_repeated_point():
    psi0 = q.KetState(q.two_level_basis(), np.array([1.0, 0.0], dtype=complex))
    res = q.mcwf_evolve(psi0, _rf_model(1.0, 0.0), [0.0, 0.5, 0.5], n_traj=4,
                        seed=0)
    assert np.array_equal(res.populations[1], res.populations[2])


def test_mcwf_rejects_a_non_hermitian_hamiltonian():
    basis = q.two_level_basis()
    h = q.Operator(basis, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    m = q.LindbladModel(basis, h, ((1.0, q.pauli_ops().sm),))
    psi0 = q.KetState(basis, np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(q.ValidationError, match="Hamiltonian residual"):
        q.mcwf_evolve(psi0, m, [0.0, 0.5], n_traj=4, seed=0)


@pytest.mark.parametrize("n_traj, seed", [
    (0, 0), (-1, 0), (2.5, 0), (True, 0), (4, -1), (4, 1.0),
])
def test_mcwf_rejects_a_bad_trajectory_count_or_seed(n_traj, seed):
    psi0 = q.KetState(q.two_level_basis(), np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(q.ValidationError, match="must be an integer"):
        q.mcwf_evolve(psi0, _rf_model(1.0, 0.0), [0.0, 0.5], n_traj=n_traj,
                      seed=seed)


def test_mcwf_accepts_numpy_integers():
    psi0 = q.KetState(q.two_level_basis(), np.array([1.0, 0.0], dtype=complex))
    m = _rf_model(1.0, 0.3)
    t = np.linspace(0.0, 1.0, 3)
    a = q.mcwf_evolve(psi0, m, t, n_traj=np.int64(8), seed=np.uint32(5))
    b = q.mcwf_evolve(psi0, m, t, n_traj=8, seed=5)
    assert a.populations.tobytes() == b.populations.tobytes()


def test_build_liouvillian_holds_one_dense_copy():
    m = q.driven_cavity_model(q.CavityParams(1.0, 1.0, 0.2, 0.3, 0.05), 20)
    m.liouvillian
    tracemalloc.start()
    try:
        sup = q.build_liouvillian(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * sup.matrix.nbytes
    assert not sup.matrix.flags.writeable
    assert np.array_equal(sup.matrix, m.liouvillian.toarray())


def test_master_and_mcwf_share_one_h_eff(monkeypatch):
    prop = vars(q.LindbladModel)["h_eff"]
    original = prop.func
    calls = []

    def counting(model):
        calls.append(model)
        return original(model)

    monkeypatch.setattr(prop, "func", counting)
    m = _rf_model(1.0, 0.3)
    psi0 = q.KetState(q.two_level_basis(), np.array([1.0, 0.0], dtype=complex))
    t = np.linspace(0.0, 1.0, 3)
    q.evolve_master(psi0.to_density_matrix(), m, t)
    q.mcwf_evolve(psi0, m, t, n_traj=4, seed=0)
    assert len(calls) == 1 and calls[0] is m
    assert not m.h_eff.flags.writeable


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
    before = np.random.get_state()
    a = q.mcwf_evolve(psi0, m, t, n_traj=64, seed=99)
    _assert_same_random_state(before, np.random.get_state())
    b = q.mcwf_evolve(psi0, m, t, n_traj=64, seed=99)
    assert np.array_equal(a.populations, b.populations)


def test_mcwf_trajectory_reads_only_its_own_stream(monkeypatch):
    # the first 37 of 300 trajectories jump as an ensemble of 37 does, and
    # all 300 jump as they do in chunks of 32 trajectories, whose boundary
    # at 32 cuts the 37
    m = _rf_model(1.0, 1.5)
    psi0 = q.KetState(q.two_level_basis(), np.array([1.0, 0.0], dtype=complex))
    t = np.linspace(0.0, 4.0, 9)
    full = q.mcwf_evolve(psi0, m, t, n_traj=300, seed=8)
    part = q.mcwf_evolve(psi0, m, t, n_traj=37, seed=8)
    monkeypatch.setattr(lindblad, "_MCWF_CHUNK", 64)
    chunked = q.mcwf_evolve(psi0, m, t, n_traj=300, seed=8)
    assert np.array_equal(full.n_jumps[:37], part.n_jumps)
    assert np.array_equal(chunked.n_jumps, full.n_jumps)
    assert np.abs(chunked.populations - full.populations).max() < 1e-14
    assert full.n_jumps.max() > 3


@pytest.mark.parametrize("row", [0, 1, 12345, 2**32 + 5, 2**63])
@pytest.mark.parametrize("block", [1, 2, 2**32 + 1])
def test_mcwf_draws_are_numpy_philox(row, block):
    # numpy steps the counter before each block; rows and blocks at and
    # past 2^32 set bits in both 32-bit halves of the multiplied words
    key = np.random.SeedSequence(2024).generate_state(2, np.uint64)
    ours = lindblad._philox_uniforms(key, block,
                                     np.array([row, 7], dtype=np.uint64))
    ref = np.random.Generator(np.random.Philox(
        key=key, counter=[block - 1, 0, row, 0])).random(4)
    assert ours[0].tobytes() == ref.tobytes()


def test_mcwf_trajectory_stream_is_a_philox_generator():
    # trajectory i reads the uniforms of Philox at counter (0, 0, i, 0) in
    # order, across blocks, whatever the other rows read and after the
    # blocks every row has read past are dropped
    key = np.random.SeedSequence(5).generate_state(2, np.uint64)
    draws = lindblad._Draws(key, 40, 3)
    seen = [[], [], []]
    for rows, count in (([0, 1, 2], 1), ([1], 2), ([1, 2], 2), ([1], 2),
                        ([0, 1, 2], 2), ([0, 2], 2), ([0, 2], 2), ([1], 2),
                        ([1], 2), ([0, 1, 2], 2)):
        for i, u in zip(rows, draws.take(np.array(rows), count)):
            seen[i].extend(u)
    for i, got in enumerate(seen):
        ref = np.random.Generator(np.random.Philox(
            key=key, counter=[0, 0, 40 + i, 0])).random(len(got))
        assert np.array_equal(got, ref)
    assert draws._base > 0


def test_mcwf_memory_does_not_grow_with_the_trajectory_count(monkeypatch):
    # in chunks of 512 trajectories, 2 and 8 chunks peak within 16 B per
    # extra trajectory of each other: the jump counts are all that grows
    monkeypatch.setattr(lindblad, "_MCWF_CHUNK", 1024)
    m = _rf_model(1.0, 1.5)
    psi0 = q.KetState(q.two_level_basis(), np.array([1.0, 0.0], dtype=complex))
    peaks = []
    for n_traj in (1024, 4096):
        tracemalloc.start()
        try:
            q.mcwf_evolve(psi0, m, [0.0, 1.0], n_traj=n_traj, seed=4)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 16 * (4096 - 1024)


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
    assert np.all(np.abs(res.populations[:, 0] - exact) <= 4 * sigma + 1e-12)


def test_mcwf_two_channels_track_master_equation():
    # a driven atom in a thermal field: sigma^- at gamma (nbar + 1) and
    # sigma^+ at gamma nbar.  Sending every jump down, or swapping the two
    # channels, moves p_e by 0.16 to 0.47 from t = 0.25 on, and picking the
    # channel by |J psi|^2 without its rate reads up to 6 sigma high after
    # t = 1.5, beyond the 4-sigma band below
    gamma, nbar, omega = 1.0, 0.5, 0.4
    p = q.pauli_ops()
    basis = q.two_level_basis()
    rates = (gamma * (nbar + 1), gamma * nbar)
    m = q.LindbladModel(basis, omega * p.sx,
                        ((rates[0], p.sm), (rates[1], p.sp)))
    psi0 = q.KetState(basis, np.array([0.0, 1.0], dtype=complex))
    t = np.linspace(0.0, 4.0, 9)
    n_traj = 6000
    res = q.mcwf_evolve(psi0, m, t, n_traj=n_traj, seed=11)
    assert res.n_jumps.sum() > 0
    master = q.evolve_master(psi0.to_density_matrix(), m, t)
    exact = np.array([s.entries[0, 0].real for s in master])
    sigma = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / n_traj)
    assert np.all(np.abs(res.populations[:, 0] - exact) <= 4 * sigma + 1e-12)
