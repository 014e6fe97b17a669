import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

import quoptics as q
from quoptics import correlations, dynamics, lindblad
from quoptics.dynamics import (
    _distinct_steps,
    _plan_route,
    jc_hamiltonian,
    rwa_bloch_matrix,
)
from quoptics.lindblad import vec
from quoptics.operators import QuopticsError, ValidationError
from quoptics.scenarios import run_scenario


def test_free_precession():
    eps = 2.0
    t = np.linspace(0, 4.0, 41)
    b0 = np.array([1.0, 0.0, 0.3]) / math.sqrt(1.09)
    traj = q.integrate_bloch(b0, lambda _: np.array([0.0, 0.0, eps]), t)
    assert np.abs(traj[:, 2] - b0[2]).max() < 1e-9
    expected_x = b0[0] * np.cos(eps * t) - b0[1] * np.sin(eps * t)
    assert np.abs(traj[:, 0] - expected_x).max() < 1e-8
    norms = np.linalg.norm(traj, axis=1)
    assert np.abs(norms - norms[0]).max() < 1e-9


def test_zero_drive_is_constant():
    t = np.linspace(0, 3.0, 7)
    b0 = np.array([0.2, -0.4, 0.5])
    traj = q.integrate_bloch(b0, lambda _: np.zeros(3), t)
    assert np.abs(traj - b0).max() < 1e-12


def test_rwa_resonant_full_transfer():
    omega_rabi = 1.0
    t = np.linspace(0, 2 * math.pi, 201)
    sol = q.rabi_rwa([0, 0, -1.0], 0.0, omega_rabi, t)
    expected = 0.5 * (1 - np.cos(omega_rabi * t))
    assert np.abs(sol.p_e - expected).max() < 1e-12
    assert sol.p_e.max() == pytest.approx(1.0, abs=1e-10)


def test_rwa_detuned_transfer():
    omega_rabi, delta = 1.0, 1.7
    dn = delta / omega_rabi
    omega_r = math.hypot(omega_rabi, delta)
    t = np.linspace(0, 12.0, 301)
    sol = q.rabi_rwa([0, 0, -1.0], delta, omega_rabi, t)
    expected = (1 - np.cos(omega_r * t)) / (2 * (1 + dn * dn))
    assert np.abs(sol.p_e - expected).max() < 1e-12


def test_rwa_far_detuned_is_free_evolution():
    sol = q.rabi_rwa([0.6, 0.0, 0.8], delta=400.0, omega_rabi=1.0,
                     t_grid=np.linspace(0, 1.0, 50))
    # corrections enter at order Omega/|delta|
    assert np.abs(sol.slow[:, 2] - 0.8).max() < 5e-3
    assert np.abs(np.hypot(sol.slow[:, 0], sol.slow[:, 1]) - 0.6).max() < 5e-3


def test_rwa_grid_starting_late_keeps_b0_at_zero():
    b0 = [0.6, 0.0, 0.8]
    t = np.linspace(0.0, 3.0, 31)
    full = q.rabi_rwa(b0, 0.7, 1.3, t, omega=5.0)
    tail = q.rabi_rwa(b0, 0.7, 1.3, t[10:], omega=5.0)
    assert t[10] == 1.0
    assert np.abs(tail.slow - full.slow[10:]).max() < 1e-12
    assert np.abs(tail.lab - full.lab[10:]).max() < 1e-12


def test_full_bloch_vs_rwa_scaling():
    omega_rabi = 1.0
    t = np.linspace(0, 2 * math.pi / omega_rabi, 400)
    devs = []
    for ratio in (25.0, 50.0):
        eps = ratio * omega_rabi
        full = q.integrate_bloch(
            [0, 0, -1.0],
            lambda tt: np.stack(np.broadcast_arrays(
                2 * omega_rabi * np.cos(eps * tt), 0, eps), axis=-1),
            t)
        rwa = q.rabi_rwa([0, 0, -1.0], 0.0, omega_rabi, t)
        devs.append(np.abs(0.5 * (1 + full[:, 2]) - rwa.p_e).max())
    assert devs[1] < devs[0] / 1.8



def _drive(omega_rabi, eps):
    """The rabi-bloch drive alpha(t) = (2 Omega cos(eps t), 0, eps)."""
    return lambda tt: np.stack(np.broadcast_arrays(
        2 * omega_rabi * np.cos(eps * tt), 0.0, eps), axis=-1)


def _dop853_bloch(omega_rabi, eps, t):
    """db/dt = alpha x b from b = -z by DOP853 at rtol 1e-13: an oracle that
    shares no code with the Magnus propagator."""
    def rhs(tt, b):
        ax = 2 * omega_rabi * math.cos(eps * tt)
        return [-eps * b[1], eps * b[0] - ax * b[2], ax * b[1]]

    sol = solve_ivp(rhs, (t[0], t[-1]), [0.0, 0.0, -1.0], t_eval=t,
                    rtol=1e-13, atol=1e-14, method="DOP853")
    assert sol.success
    return sol.y.T


@pytest.mark.parametrize("ratio", [25.0, 100.0])
def test_integrate_bloch_matches_an_independent_dop853_run(ratio):
    # the rabi-bloch default grid; 25 is its default epsilon/Omega
    t = np.linspace(0.0, 2 * math.pi, 401)
    ref = _dop853_bloch(1.0, ratio, t)
    b = q.integrate_bloch([0, 0, -1.0], _drive(1.0, ratio), t)
    assert np.abs(b - ref).max() <= 1e-9
    assert np.abs(np.linalg.norm(b, axis=1) - 1.0).max() <= 1e-12
    art = run_scenario("rabi-bloch", {"epsilon_over_omega": ratio})
    assert np.abs(art.columns["pe_full"] - 0.5 * (1 + ref[:, 2])).max() <= 1e-9


def test_integrate_bloch_gap_does_not_grow_with_the_span():
    # the m-vs-2m gap that the eps_magnus guard reads, over one Rabi period
    # of the rabi-bloch defaults and over ten: a step rule that holds h
    # |alpha| fixed lets it grow tenfold, to 1.5e-10
    b0 = np.array([0.0, 0.0, -1.0])
    drive = _drive(1.0, 25.0)
    gaps = []
    for periods in (1, 10):
        t = np.linspace(0.0, 2 * math.pi * periods, 401)
        a_max = float(np.linalg.norm(drive(t), axis=1).max())
        m = dynamics._magnus_substeps(t, a_max)
        if periods == 1:
            assert m == 66
        gaps.append(np.abs(dynamics._magnus_run(b0, drive, t, 2 * m)
                           - dynamics._magnus_run(b0, drive, t, m)).max())
    assert gaps[1] <= 2.0 * gaps[0]


def test_integrate_bloch_runs_a_decreasing_grid_backwards():
    art = run_scenario("rabi-bloch", {"t_max": -1.0})
    t = art.columns["t"]
    assert t[-1] == -1.0
    ref = _dop853_bloch(1.0, 25.0, t)
    assert np.abs(art.columns["pe_full"] - 0.5 * (1 + ref[:, 2])).max() <= 1e-9


def test_integrate_bloch_guard_catches_a_pulse_between_grid_samples():
    # a 0.9 rad pulse centred between the first two of 11 samples: the grid
    # sees |alpha| ~ 1e-9, so the step rule takes one substep per interval,
    # and the runs at 1 and 2 substeps see different parts of the pulse
    def pulse(tt):
        return np.outer(50.0 * np.exp(-((tt - 0.05) / 0.01) ** 2), [1, 0, 0])

    with pytest.raises(QuopticsError, match="eps_magnus"):
        q.integrate_bloch([0, 0, -1.0], pulse, np.linspace(0.0, 1.0, 11))


def test_integrate_bloch_degenerate_grids_return_b0():
    b0 = np.array([0.6, 0.0, -0.8])
    drive = _drive(1.0, 25.0)
    assert np.array_equal(q.integrate_bloch(b0, drive, [0.3]), [b0])
    # zero-length steps: Rodrigues at theta = 0 is exactly I, with no 0/0
    rows = q.integrate_bloch(b0, drive, [0.3, 0.3, 0.3])
    assert np.array_equal(rows, np.tile(b0, (3, 1)))
    art = run_scenario("rabi-bloch", {"t_max": 0.0, "points": 3})
    assert np.array_equal(art.columns["pe_full"], np.zeros(3))


def test_integrate_bloch_repeated_time_is_an_identity_step():
    drive = _drive(1.0, 25.0)
    rows = q.integrate_bloch([0, 0, -1.0], drive, [0.0, 0.5, 0.5, 1.0])
    plain = q.integrate_bloch([0, 0, -1.0], drive, [0.0, 0.5, 1.0])
    assert np.array_equal(rows[1], rows[2])
    assert np.array_equal(rows[[0, 1, 3]], plain)


@pytest.mark.parametrize("t_grid, alpha", [
    ([0.0, 1.0, 0.5], lambda _: np.zeros(3)),
    ([], lambda _: np.zeros(3)),
    ([[0.0, 1.0]], lambda _: np.zeros(3)),
    ([0.0, math.nan], lambda _: np.zeros(3)),
    ([0.0, 1.0], lambda _: np.zeros(2)),
    ([0.0, 1.0], lambda tt: np.full((tt.size, 3), math.inf)),
], ids=["non-monotone", "empty", "2-d", "nan-time", "alpha-shape",
        "alpha-inf"])
def test_integrate_bloch_rejects_bad_grids_and_drives(t_grid, alpha):
    with pytest.raises(ValidationError):
        q.integrate_bloch([0, 0, -1.0], alpha, t_grid)


def test_integrate_bloch_memory_is_bounded_at_a_strong_drive():
    # epsilon/Omega = 1e4 on two default-length grid steps takes 31134 and
    # 62268 substeps per step; held at once they would peak at about 25 MB
    t = np.linspace(0.0, 4 * math.pi / 400, 3)
    tracemalloc.start()
    try:
        b = q.integrate_bloch([0, 0, -1.0], _drive(1.0, 1e4), t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(np.linalg.norm(b, axis=1) - 1.0).max() <= 1e-12
    assert peak < 8e6

def test_printed_rabi_eigensystem_diagonalizes_the_bloch_matrix():
    # The textbook eigensystem is written for the rescaled variables
    # (b, b*, b_z/2); undoing that scaling it must diagonalize our matrix.
    delta, omega_rabi = 0.8, 1.3
    dn = delta / omega_rabi
    omega_r = math.hypot(omega_rabi, delta)
    mat = rwa_bloch_matrix(delta, omega_rabi)
    root = math.sqrt(1 + dn * dn)
    s = 0.5 * np.array([
        [1.0, dn - root, dn + root],
        [1.0, dn + root, dn - root],
        [-dn, 1.0, 1.0],
    ], dtype=complex)
    s_ours = np.diag([1.0, 1.0, 2.0]) @ s
    d = np.linalg.solve(s_ours, mat @ s_ours)
    off = d - np.diag(np.diag(d))
    assert np.abs(off).max() < 1e-12
    assert np.allclose(sorted(np.diag(d).imag), [-omega_r, 0.0, omega_r])


def test_solve_linear_reproduces_rwa():
    delta, omega_rabi = 0.6, 0.9
    t = np.linspace(0, 8.0, 81)
    b0 = np.array([0.3, -0.2, 0.5])
    x0 = [0.5 * (b0[0] - 1j * b0[1]), 0.5 * (b0[0] + 1j * b0[1]), b0[2]]
    sol_lin = q.solve_linear(rwa_bloch_matrix(delta, omega_rabi), x0, t)
    sol_rwa = q.rabi_rwa(b0, delta, omega_rabi, t)
    assert np.abs(sol_lin[:, 2].real - sol_rwa.slow[:, 2]).max() < 1e-10


def test_solve_linear_scalar_decay():
    t = np.linspace(0, 5.0, 11)
    gamma = 0.7
    out = q.solve_linear(np.array([[-gamma]]), [2.0], t)
    assert np.abs(out[:, 0] - 2.0 * np.exp(-gamma * t)).max() < 1e-12


def test_jc_dressed_levels():
    p = q.JCParams(omega=1.0, epsilon=1.0, g=0.05)
    for n in (1, 2, 5):
        d = q.jc_dressed(n, p)
        assert d.e_plus - d.e_minus == pytest.approx(2 * math.sqrt(n) * p.g)
        assert d.theta == pytest.approx(math.pi / 4)
    pg0 = q.JCParams(omega=1.2, epsilon=0.9, g=0.0)
    d = q.jc_dressed(3, pg0)
    assert {round(d.e_plus, 12), round(d.e_minus, 12)} == {
        round(3 * 1.2 - 0.45, 12), round(2 * 1.2 + 0.45, 12)}


def test_jc_dressed_matches_dense_diagonalization():
    p = q.JCParams(omega=1.0, epsilon=0.85, g=0.07)
    n_max = 20
    h = jc_hamiltonian(n_max, p)
    evals = np.linalg.eigvalsh(h.entries)
    expected = [-0.5 * p.epsilon]
    for n in range(1, n_max + 1):
        d = q.jc_dressed(n, p)
        expected += [d.e_minus, d.e_plus]
    # the truncated top manifold is spurious; compare the rest
    expected = np.sort(np.array(expected))[: 2 * n_max - 1]
    got = np.sort(evals)[: 2 * n_max - 1]
    assert np.abs(got - expected).max() < 1e-10


def test_jc_dressed_vectors_diagonalize_the_block():
    p = q.JCParams(omega=1.1, epsilon=0.9, g=0.04)
    for n in (1, 4):
        d = q.jc_dressed(n, p)
        block = np.array([
            [n * p.omega - p.epsilon / 2, 1j * math.sqrt(n) * p.g],
            [-1j * math.sqrt(n) * p.g, (n - 1) * p.omega + p.epsilon / 2],
        ])
        for vec, energy in ((d.v_plus, d.e_plus), (d.v_minus, d.e_minus)):
            assert np.abs(block @ vec - energy * vec).max() < 1e-12
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(d.v_plus, d.v_minus)) < 1e-12
        # global phase fixed: first nonzero amplitude real positive
        assert d.v_plus[0].imag == 0.0 and d.v_plus[0].real > 0


def test_jc_population_limits():
    p = q.JCParams(omega=1.0, epsilon=0.8, g=0.06)
    t = np.linspace(0, 50.0, 101)
    ground = np.zeros(5)
    ground[0] = 1.0
    assert np.abs(q.jc_excited_population(ground, p, t)).max() == 0.0

    n_f = 4
    fock = np.zeros(8)
    fock[n_f] = 1.0
    pe = q.jc_excited_population(fock, p, t)
    delta = p.omega - p.epsilon
    p_max = 1.0 / (1.0 + delta**2 / (4 * n_f * p.g**2))
    assert pe.max() == pytest.approx(p_max, abs=1e-3)


def test_collapse_revival_matches_population_series():
    nbar, g = 9.0, 1.0
    t = np.linspace(0, 12.0, 100)
    cr = q.collapse_revival(nbar, g, t)
    n_top = int(nbar + 10 * math.sqrt(nbar)) + 1
    n = np.arange(n_top + 1)
    from scipy.special import gammaln
    amps = np.exp(0.5 * (n * math.log(nbar) - nbar - gammaln(n + 1)))
    amps /= np.linalg.norm(amps)
    pe = q.jc_excited_population(amps, q.JCParams(1.0, 1.0, g), t)
    assert np.abs(cr.series - pe).max() < 1e-12
    assert cr.series[0] == pytest.approx(0.0)
    assert cr.gamma_c == pytest.approx(g / math.sqrt(2.0))


def test_collapse_envelope_short_time_agreement():
    nbar, g = 100.0, 1.0
    t = np.linspace(0, 1.0, 400)
    cr = q.collapse_revival(nbar, g, t)
    assert np.abs(cr.series - cr.envelope).max() < 0.02
    longer = q.collapse_revival(nbar, g, np.linspace(0, 130.0, 50))
    assert np.allclose(longer.t_revivals, [math.pi * 20.0, math.pi * 40.0])
    # no revival at half the spacing: adjacent terms are in antiphase there
    half = q.collapse_revival(nbar, g, np.linspace(29.0, 34.0, 800))
    assert np.abs(half.series - 0.5).max() < 0.01


def test_pdc_analysis_branches():
    g = 0.5
    stable = q.pdc_analysis(q.PDCParams(delta=2 * g, g=g))
    assert stable.phase == "stable"
    assert math.cosh(2 * stable.r) == pytest.approx(2 / math.sqrt(3.0))
    assert stable.rate == pytest.approx(math.sqrt(3.0) * g)

    free = q.pdc_analysis(q.PDCParams(delta=1.3, g=0.0))
    assert free.phase == "stable" and free.r == 0.0
    assert free.rate == pytest.approx(1.3)

    unstable = q.pdc_analysis(q.PDCParams(delta=0.0, g=g))
    assert unstable.phase == "unstable"
    assert unstable.r == 0.0
    assert unstable.rate == pytest.approx(g)

    crit = q.pdc_analysis(q.PDCParams(delta=g, g=g))
    assert crit.phase == "critical"


def test_pdc_photon_number_formulas():
    g = 1.0
    t = np.linspace(0, 1.0, 11)
    stable = q.pdc_photon_number(q.PDCParams(2 * g, g), t)
    assert stable[0] == 0.0
    omega = math.sqrt(3.0)
    assert np.abs(stable - (1 / 3.0) * np.sin(omega * t) ** 2).max() < 1e-12
    assert stable.max() <= 1 / 3.0 + 1e-12

    unstable = q.pdc_photon_number(q.PDCParams(0.5 * g, g), t)
    kappa = math.sqrt(0.75)
    assert np.abs(unstable - (4 / 3.0) * np.sinh(kappa * t) ** 2).max() < 1e-12

    crit = q.pdc_photon_number(q.PDCParams(g, g), t)
    assert np.abs(crit - (g * t) ** 2).max() < 1e-12


def test_pdc_truncated_fock_oracle():
    g = 1.0
    n_max = 60
    ops = q.fock_ops(n_max)
    a2 = ops.a.entries @ ops.a.entries
    t = np.linspace(0, 1.0, 21)
    for delta in (2.0, 0.5):
        h = q.Operator(q.fock_basis(n_max),
                       delta * ops.n.entries - 0.5 * g * (a2 + a2.conj().T))
        w, v = np.linalg.eigh(h.entries)
        psi0 = np.zeros(n_max + 1, dtype=complex)
        psi0[0] = 1.0
        coeff = v.conj().T @ psi0
        numbers = []
        for tv in t:
            psi = v @ (np.exp(-1j * w * tv) * coeff)
            numbers.append(float(np.real(psi.conj() @ ops.n.entries @ psi)))
        analytic = q.pdc_photon_number(q.PDCParams(delta, g), t)
        assert np.abs(np.array(numbers) - analytic).max() < 1e-4


def test_bloch_vector_validation():
    with pytest.raises(ValidationError):
        q.integrate_bloch([1.2, 0, 0.4], lambda _: np.zeros(3),
                          np.linspace(0, 1, 3))


def test_collapse_revival_small_nbar_keeps_tail_bound():
    t = np.linspace(0, 5.0, 20)
    cr = q.collapse_revival(0.3, 1.0, t)
    assert np.all(np.isfinite(cr.series))
    pe = q.jc_excited_population(
        _poisson_amplitudes(0.3, 15), q.JCParams(1.0, 1.0, 1.0), t)
    assert np.abs(cr.series - pe).max() < 1e-12


def _poisson_amplitudes(nbar, n_top):
    from scipy.special import gammaln
    n = np.arange(n_top + 1)
    amps = np.exp(0.5 * (n * math.log(nbar) - nbar - gammaln(n + 1)))
    return amps / np.linalg.norm(amps)


def test_solve_linear_rejects_non_square_generator():
    with pytest.raises(ValidationError):
        q.solve_linear(np.ones((2, 3)), [1.0, 0.0, 0.0], [0.0, 1.0])


@pytest.mark.parametrize("b", [np.ones((2, 2, 2)), np.ones(2), 1.0])
def test_solve_linear_rejects_a_generator_that_is_not_2d(b):
    with pytest.raises(ValidationError):
        q.solve_linear(b, [1.0, 0.0], [0.0, 1.0])


@pytest.mark.parametrize("b, t", [
    (np.array([[np.nan]]), [0.0, 1.0]),
    (np.array([[-1.0]]), [0.0, np.inf]),
])
def test_solve_linear_rejects_non_finite_input(b, t):
    with pytest.raises(ValidationError):
        q.solve_linear(b, [1.0], t)


@pytest.mark.parametrize("x0, readout", [
    ([np.nan, 1.0], None),
    ([np.inf, 1.0], None),
    ([1.0, 0.0], [np.nan, 1.0]),
], ids=["nan-seed", "inf-seed", "nan-readout"])
def test_solve_linear_rejects_a_non_finite_seed_or_readout(x0, readout):
    # a NaN series, a RuntimeWarning in the dense product and a NaN
    # read-out without the check
    with pytest.raises(ValidationError):
        q.solve_linear(np.array([[-1.0, 0.5], [0.2, -0.3]]), x0,
                       [0.0, 1.0], readout=readout)


def test_solve_linear_exact_on_a_jordan_block():
    # a defective generator has no eigenbasis; the exponential still exists:
    # exp(B t) (a, b) = e^{lam t} (a + b t, b)
    lam, a, b = -0.3 + 0.8j, 0.7 - 0.2j, -0.4 + 0.5j
    t = np.linspace(0, 5.0, 11)
    out = q.solve_linear(np.array([[lam, 1.0], [0.0, lam]]), [a, b], t)
    expected = np.exp(lam * t)[:, None] * np.stack([a + b * t,
                                                     np.full(t.size, b)], 1)
    assert np.abs(out - expected).max() < 1e-12


@pytest.mark.parametrize("readout", [None, [1.0, -2.0, 0.5j]],
                         ids=["series", "readout"])
def test_solve_linear_returns_zeros_for_a_zero_seed(readout):
    b = np.array([[-1.0, 2.0, 0.0], [0.5, -0.3, 1j], [0.0, 1.0, -2.0]])
    t = np.linspace(0.0, 1.0, 5)
    shape = (t.size, 3) if readout is None else t.shape
    for gen in (b, sp.csr_matrix(b)):
        out = q.solve_linear(gen, np.zeros(3), t, readout=readout)
        assert out.shape == shape and not out.any()


def test_solve_linear_rejects_a_seed_of_the_wrong_length():
    # a seed or a read-out of the wrong length, a 2-D read-out, a 2-D seed
    # and a read-out of a 2-D seed
    for x0, readout in [([1.0, 0.0], None),
                        ([1.0, 0.0, 0.0], [1.0, 0.0]),
                        ([1.0, 0.0, 0.0], [[1.0, 0.0, 0.0]]),
                        ([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], None),
                        ([[1.0], [0.0], [0.0]], [1.0, 0.0, 0.0])]:
        with pytest.raises(ValidationError):
            q.solve_linear(np.eye(3), x0, [0.0, 1.0], readout=readout)


@pytest.mark.parametrize("t", [[[0.0, 1.0], [2.0, 3.0]], 1.0, []],
                         ids=["2-d", "scalar", "empty"])
def test_solve_linear_rejects_a_time_grid_that_is_not_1d(t):
    with pytest.raises(ValidationError):
        q.solve_linear(-np.eye(2), [1.0, 0.0], t)


# Route choice.  The cases are the propagations whose cost was timed on both
# routes (one BLAS thread, 2-vCPU x86_64).  Dense wins on small or stiff
# generators and long grids: 0.015 s against 1.07 s sparse for
# purcell-cooling, whose seeds touch blocks of 18 and 2 of its 100 rows,
# and 0.09 s against 1.28 s for the n_max 12 spectrum grid (0.25 s against
# 1.44 s at n_max 15).  Sparse wins on cavities from n_max 20 up on a short
# grid (0.028 s against 0.13 s dense at n_max 20, 0.046 s against 1.23 s at
# n_max 30; test_lindblad checks that route) and on the spectrum grid from
# n_max 30 up, where the 8532 products with the dense 961^2 exponential
# dominate: 1.96 s against 5.81 s dense.

def _force_route(monkeypatch, route: str) -> None:
    monkeypatch.setattr(dynamics, "_plan_route", lambda b, steps: replace(
        _plan_route(b, steps), route=route))


def _pin_unfolded(monkeypatch) -> None:
    """Propagate all of vec(rho) on the sparse route, as before the fold."""
    monkeypatch.setattr(dynamics, "_hermitian_fold", lambda *args: None)


# two blocks, rows 0-2 and rows 3-4, so that a seed in one of them takes the
# partial-block path and a seed in both the full one
_TWO_BLOCK_B = np.array([[-1.0, 2.0, 0.0, 0.0, 0.0],
                         [0.5, -0.3, 1j, 0.0, 0.0],
                         [0.0, 1.0, -2.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, -0.7, 0.4j],
                         [0.0, 0.0, 0.0, 0.2, -1.1]])


@pytest.mark.parametrize("route", ["dense", "sparse"])
@pytest.mark.parametrize("x0", [
    np.array([1.0, 0.5j, 0.0, 0.0, 0.0]),
    np.array([0.0, 0.0, 0.0, 0.3, -0.5j]),
], ids=["vector", "second-block"])
def test_solve_linear_output_does_not_depend_on_the_format_of_b(
        monkeypatch, route, x0):
    _force_route(monkeypatch, route)
    t = np.linspace(0.0, 2.0, 9)
    expected = q.solve_linear(_TWO_BLOCK_B, x0, t)
    for fmt in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
        assert q.solve_linear(fmt(_TWO_BLOCK_B), x0, t).tobytes() == \
            expected.tobytes()
    # a seed in one block, in the other, and in both: the read-out projects
    # the series on v, nonzero on every row, within 1e-15 of each step's
    # sum of |v_i x_i|
    v = np.array([0.3, -1.0j, 2.0, 0.5 + 0.5j, -0.7])
    for seed in (x0, x0[::-1], x0 + x0[::-1]):
        series = q.solve_linear(_TWO_BLOCK_B, seed, t)
        readout = q.solve_linear(_TWO_BLOCK_B, seed, t, readout=v)
        assert np.all(np.abs(readout - series @ v)
                      <= 1e-15 * (np.abs(series) @ np.abs(v)))


def _fragment_3_1(norm):
    """Taylor degree m* and scaling s of ||h A||_1 = norm by the theta-table
    branch of Al-Mohy & Higham's code fragment 3.1: the fewest m s products,
    the first m on ties."""
    if norm == 0:
        return 0, 1
    best = None
    for m, theta in dynamics._THETA.items():
        s = int(np.ceil(norm / theta))
        if best is None or m * s < best[0] * best[1]:
            best = (m, s)
    return best


def _norm_rule_plan(b, steps):
    """Route, representative steps and product bound by the planner's cost
    rule: one 1-norm per group of steps equal to 9 digits, taken as
    abs(A).sum(axis=0).max() of a sparse A = h B - mu I formed at the
    group's first step h, as scipy's expm_multiply forms it."""
    n = b.shape[0]
    trace = b.diagonal().sum()
    eye = sp.identity(n, dtype=complex, format="csr")
    first, which = _distinct_steps(steps)
    bounds = np.zeros(first.size, dtype=int)
    for g, h in enumerate(steps[first]):
        shifted = b * h - (trace * h / float(n)) * eye
        m_star, s = _fragment_3_1(abs(shifted).sum(axis=0).max())
        bounds[g] = m_star * s
    products = int(bounds[which].sum())
    # the sparse route stores B and every diagonal entry B lacks
    stored = sp.csr_matrix((np.ones(b.nnz), b.indices, b.indptr),
                           shape=b.shape)
    nnz = b.nnz + np.count_nonzero(stored.diagonal() == 0)
    dense_cost = (first.size * dynamics._C_DENSE * n**3
                  + steps.size * dynamics._C_DENSE_STEP * n**2)
    dense = dense_cost <= products * (dynamics._C_PRODUCT
                                      + dynamics._C_PRODUCT_NNZ * nnz)
    return "dense" if dense else "sparse", steps[first], products


def test_plan_reads_the_shifted_norm_from_the_csr_arrays():
    # seeded sparse B with structurally missing diagonal entries and
    # explicit stored zeros, on uniform and irregular grids
    rng = np.random.default_rng(20)
    routes = set()
    for _ in range(60):
        n = int(rng.choice([3, 12, 40, 150, 300]))
        values = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        stored = rng.random((n, n)) < min(0.6, 4.0 / n)
        j = rng.integers(n)
        stored[j, j] = False
        b = sp.csr_matrix(values * stored * 10.0 ** rng.uniform(-1.0, 2.0))
        b.data[rng.random(b.nnz) < 0.2] = 0.0
        b.data[rng.integers(b.nnz)] = 0.0
        k = int(rng.integers(2, 60))
        t = (np.linspace(0.0, rng.uniform(0.1, 5.0), k) if rng.random() < 0.5
             else np.sort(rng.uniform(0.0, 5.0, k)))
        steps = np.diff(t)
        assert b.has_canonical_format
        assert (b.diagonal() == 0).any() and (b.data == 0).any()
        plan = _plan_route(b, steps)
        route, firsts, products = _norm_rule_plan(b, steps)
        assert plan.route == route
        assert np.array_equal(plan.steps, firsts)
        assert plan.products == products
        routes.add(route)
    assert routes == {"dense", "sparse"}


def test_non_canonical_csr_b_propagates_as_its_canonical_form(monkeypatch,
                                                              plans):
    # every stored entry of a canonical B split into two equal halves, and
    # each row stored backwards: duplicates and unsorted indices
    rng = np.random.default_rng(4)
    dense = (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))) \
        * (rng.random((6, 6)) < 0.6)
    canonical = sp.csr_matrix(dense)
    order = np.concatenate([np.arange(hi - 1, lo - 1, -1) for lo, hi in
                            zip(canonical.indptr[:-1], canonical.indptr[1:])])
    raw = sp.csr_matrix((np.repeat(0.5 * canonical.data[order], 2),
                         np.repeat(canonical.indices[order], 2),
                         2 * canonical.indptr), shape=(6, 6))
    assert not raw.has_canonical_format
    arrays = [a.copy() for a in (raw.data, raw.indices, raw.indptr)]
    x0 = np.array([1.0, 0.0, 0.5j, 0.0, 0.0, 0.0])
    t = np.linspace(0.0, 2.0, 9)
    q.solve_linear(raw, x0, t)
    q.solve_linear(canonical, x0, t)
    (_, raw_plan), (_, canonical_plan) = plans
    assert raw_plan.route == canonical_plan.route
    assert raw_plan.products == canonical_plan.products
    assert np.array_equal(raw_plan.steps, canonical_plan.steps)
    assert np.array_equal(raw_plan.which, canonical_plan.which)
    for route in ("dense", "sparse"):
        _force_route(monkeypatch, route)
        assert q.solve_linear(raw, x0, t).tobytes() == \
            q.solve_linear(canonical, x0, t).tobytes()
    for before, after in zip(arrays, (raw.data, raw.indices, raw.indptr)):
        assert np.array_equal(before, after)


def _relative_deviation(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.abs(a - b).max() / np.abs(a).max())


_SHORT_GRID = np.linspace(0.0, 6.0, 41)   # 41 points over 6 / gamma
_CAVITIES = {
    "driven-n20": (q.CavityParams(1.0, 1.0, 0.3, 0.3, nbar=0.05), 20),
    "thermal-n20": (q.CavityParams(1.0, 1.0, 0.3, 0.0, nbar=0.05), 20),
    "driven-n30": (q.CavityParams(1.0, 1.0, 0.3, 0.3, nbar=0.05), 30),
    "thermal-n30": (q.CavityParams(1.0, 1.0, 0.3, 0.0, nbar=0.05), 30),
}
# D of the blocks each scenario propagates: the rows its seeds touch
_DENSE_SCENARIOS = {
    "purcell-cooling": {18, 2},
    "spontaneous-emission": {2},
    "dephasing": {4},
}


def _opo_liouvillian(n_max: int):
    return q.opo_lindblad_model(1.0, 0.3, n_max).liouvillian


@pytest.fixture(scope="module")
def spectrum_tau():
    """The tau grid the n_max 12 OPO spectrum propagates on."""
    m = q.opo_lindblad_model(1.0, 0.3, 12)
    meta = q.spectrum_numeric(m, math.pi / 2, np.linspace(0.0, 10.0, 51),
                              mode_op=q.fock_ops(12).a, kappa_out=2.0).meta
    n = round(meta["tau_max"] / meta["dtau"]) + 1
    return np.linspace(0.0, meta["tau_max"], n)


@pytest.mark.parametrize("name", sorted(_DENSE_SCENARIOS))
def test_plan_keeps_small_and_stiff_scenarios_dense(plans, name):
    run_scenario(name)
    assert {dim for dim, _ in plans} == _DENSE_SCENARIOS[name]
    assert all(p.route == "dense" for _, p in plans)
    if name == "purcell-cooling":
        # the stiff atom-cavity model: ||h (B - mu I)||_1 is about 1200 at
        # D = 18, planned unsplit as 122 scaled steps of degree 55
        (stiff,) = [p for dim, p in plans if dim == 18]
        b = sp.csr_matrix(stiff.pattern, shape=(18, 18))
        eye = sp.identity(18, dtype=complex, format="csr")
        (h,), (mu,) = stiff.steps, stiff.shifts
        norm = abs(b * h - mu * eye).sum(axis=0).max()
        assert norm > 60
        assert (stiff.degrees[0], stiff.scalings[0]) == _fragment_3_1(norm)
        assert stiff.scalings[0] > 100


def test_thermal_regression_propagates_only_the_seeded_block(plans):
    # a thermal cavity conserves the coherence order m - n, so its L splits
    # into 61 blocks; the G2 seed a rho a^dag is diagonal and touches only
    # the n_max + 1 populations of the 961 rows
    p, n_max = _CAVITIES["thermal-n30"]
    m = q.driven_cavity_model(p, n_max)
    ops = q.fock_ops(n_max)
    liouv = m.liouvillian
    cached = (liouv.data.copy(), liouv.indices.copy(), liouv.indptr.copy())
    q.regression_correlator(ops.a.dag(), ops.n, ops.a, m, _SHORT_GRID)
    assert [dim for dim, _ in plans] == [n_max + 1]
    assert liouv.shape == ((n_max + 1) ** 2,) * 2
    # the cached matrix is read, never written
    assert m.liouvillian is liouv
    for before, after in zip(cached, (liouv.data, liouv.indices,
                                      liouv.indptr)):
        assert np.array_equal(before, after)


@pytest.mark.parametrize("n_max, route", [
    (12, "dense"), (15, "dense"), (30, "sparse"), (40, "sparse"),
])
def test_plan_on_the_spectrum_tau_grid(spectrum_tau, n_max, route):
    plan = _plan_route(_opo_liouvillian(n_max), np.diff(spectrum_tau))
    assert plan.route == route
    # 8532 grid steps in one group: one exponential or one shifted B
    assert plan.which.size == 8532 and not plan.which.any()
    assert plan.steps.size == 1


def test_spectrum_tau_grid_steps_share_one_exponential(spectrum_tau):
    # tau_max comes from a dense eigvals, whose last bits move with the BLAS
    # thread count; either endpoint must give the same single step
    tau_max = spectrum_tau[-1]
    for end in (tau_max, np.nextafter(tau_max, np.inf)):
        grid = np.linspace(0.0, end, spectrum_tau.size)
        first, which = _distinct_steps(np.diff(grid))
        assert first.size == 1 and not which.any()


@pytest.mark.parametrize("route", ["dense", "sparse"])
def test_steps_equal_to_nine_digits_form_one_group(monkeypatch, route):
    # steps 0.125 (1 +- 8e-13): one group on either route, each step taken
    # as the first, within 1e-12 of exp(B t_k) at the grid's own t_k
    t = 0.125 * np.arange(9)
    t[1::2] += 1e-13
    steps = np.diff(t)
    assert np.unique(steps).size > 1
    assert np.abs(steps / steps[0] - 1.0).max() < 2e-12
    plan = _plan_route(sp.csr_matrix(_TWO_BLOCK_B, dtype=complex), steps)
    assert plan.steps.size == 1 and not plan.which.any()
    _force_route(monkeypatch, route)
    x0 = np.array([1.0, 0.5j, 0.0, 0.3, 0.0])
    out = q.solve_linear(_TWO_BLOCK_B, x0, t)
    exact = np.array([expm(_TWO_BLOCK_B * tk) @ x0 for tk in t])
    assert _relative_deviation(exact, out) <= 1e-12


@pytest.mark.parametrize("case", sorted(_CAVITIES))
def test_routes_agree_on_cavities(monkeypatch, case):
    p, n_max = _CAVITIES[case]
    m = q.driven_cavity_model(p, n_max)
    rho0 = q.thermal_state(0.0, n_max)
    runs = {}
    for route in ("dense", "sparse"):
        _force_route(monkeypatch, route)
        runs[route] = np.array(
            [s.entries for s in q.evolve_master(rho0, m, _SHORT_GRID)])
    assert _relative_deviation(runs["dense"], runs["sparse"]) <= 1e-12


@pytest.mark.parametrize("name", sorted(_DENSE_SCENARIOS))
def test_routes_agree_on_small_and_stiff_scenarios(monkeypatch, name):
    runs = {}
    for route in ("dense", "sparse"):
        _force_route(monkeypatch, route)
        series = []

        def record(*args):
            series.append(q.solve_linear(*args))
            return series[-1]

        monkeypatch.setattr(lindblad, "solve_linear", record)
        run_scenario(name)
        runs[route] = series
    assert len(runs["dense"]) == len(_DENSE_SCENARIOS[name])
    for dense, sparse in zip(runs["dense"], runs["sparse"]):
        assert _relative_deviation(dense, sparse) <= 1e-12


def test_routes_agree_on_the_spectrum_tau_grid(monkeypatch, spectrum_tau):
    # the sparse route takes about 1 s over all 8532 steps; the first 400
    # steps use the same generator and step
    tau = spectrum_tau[:401]
    liouv = _opo_liouvillian(12)
    x0 = vec(q.thermal_state(0.0, 12).entries)
    runs = {}
    for route in ("dense", "sparse"):
        _force_route(monkeypatch, route)
        runs[route] = q.solve_linear(liouv, x0, tau)
    assert _relative_deviation(runs["dense"], runs["sparse"]) <= 1e-12


def _pin_chain(monkeypatch) -> None:
    """Take the dense route one product per grid point, K = 1."""
    monkeypatch.setattr(dynamics, "_block_length", lambda *args: 1)


@pytest.fixture
def block_lengths(monkeypatch) -> list:
    """List that collects the K of every dense propagation on a grid of one
    group that the test makes."""
    recorded = []
    block_length = dynamics._block_length

    def record(*args):
        recorded.append(block_length(*args))
        return recorded[-1]

    monkeypatch.setattr(dynamics, "_block_length", record)
    return recorded


def _opo_regression_problem(n_max: int):
    """L, the seed vec(da rho) and the read-out vec(da^T) of the OPO
    spectrum's first regression series."""
    m = q.opo_lindblad_model(1.0, 0.3, n_max)
    rho = q.steady_state(m).entries
    a = q.fock_ops(n_max).a.entries
    da = a - np.trace(a @ rho) * np.eye(n_max + 1)
    return m.liouvillian, vec(da @ rho), vec(da.T)


def _langevin_problem():
    """Drift, seed and tau grid of the OPO Langevin spectrum, with a
    read-out of both entries."""
    model = q.opo_langevin_model(1.0, 0.3)
    tau, _, _ = correlations._spectrum_tau_grid(
        np.linalg.eigvals(model.a), np.linspace(0.0, 10.0, 51))
    return (model.a, q.langevin_steady(model).second[:, 1],
            np.array([0.5, -1.0j]), tau)


@pytest.mark.parametrize("mode", ["readout", "series"])
def test_blocks_agree_with_the_chain_on_the_spectrum_tau_grid(
        monkeypatch, block_lengths, spectrum_tau, mode):
    # the 84 rows that the seed touches, K = 105 with the read-out and 12
    # for the series
    liouv, x0, v = _opo_regression_problem(12)
    readout = v if mode == "readout" else None
    blocked = q.solve_linear(liouv, x0, spectrum_tau, readout=readout)
    assert len(block_lengths) == 1 and block_lengths[0] > 1
    _pin_chain(monkeypatch)
    chain = q.solve_linear(liouv, x0, spectrum_tau, readout=readout)
    assert _relative_deviation(chain, blocked) <= 1e-12


@pytest.mark.parametrize("mode", ["readout", "series"])
def test_blocks_agree_with_the_chain_on_the_langevin_series(
        monkeypatch, block_lengths, mode):
    drift, x0, v, tau = _langevin_problem()
    readout = v if mode == "readout" else None
    blocked = q.solve_linear(drift, x0, tau, readout=readout)
    assert len(block_lengths) == 1 and block_lengths[0] > 1
    _pin_chain(monkeypatch)
    chain = q.solve_linear(drift, x0, tau, readout=readout)
    assert _relative_deviation(chain, blocked) <= 1e-12


def test_opo_spectrum_reads_its_series_out_in_blocks(block_lengths):
    q.spectrum_numeric(q.opo_lindblad_model(1.0, 0.3, 12), math.pi / 2,
                       np.linspace(0.0, 10.0, 51),
                       mode_op=q.fock_ops(12).a, kappa_out=2.0)
    assert len(block_lengths) == 2 and min(block_lengths) > 1


def test_short_grids_keep_the_chain():
    # the read-out-against-series checks above and in test_properties run
    # on at most 11 points with D <= 16, where the extra exponential costs
    # more than blocking saves: they hold their 1e-15 bound on the chain
    for n in range(1, 17):
        for points in range(1, 12):
            for width in (1, n):
                assert dynamics._block_length(n, points, width) == 1


def _expm_multiply_series(b, x0, t):
    """exp(B (t_k - t_0)) x0 by scipy's expm_multiply, one call per grid
    step at the first step of its group."""
    steps = np.diff(t)
    trace = b.diagonal().sum()
    plan = _plan_route(b, steps)
    x, out = x0, [x0]
    for h in plan.steps[plan.which]:
        x = expm_multiply(b * h, x, traceA=trace * h)
        out.append(x)
    return np.array(out)


def _opo_g2_block():
    """The generator block, seed and grid of the opo-g2 scenario's one
    propagation: 338 of its 676 rows."""
    calls = []

    def record(*args, **kwargs):
        calls.append(args)
        return q.solve_linear(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(correlations, "solve_linear", record)
        run_scenario("opo-g2")
    (b, x0, t), = calls
    b = sp.csr_matrix(b, dtype=complex)
    x0 = np.asarray(x0, dtype=complex)
    keep = dynamics._touched_rows(b, x0)
    return b[keep][:, keep], x0[keep], np.asarray(t)


_MISSING_DIAGONAL_B = sp.csr_matrix(
    (np.array([-1.0, 0.5j, 2.0, 0.0, -0.3, 1.0, 0.7, 1j, -2.0, 0.4, 0.0]),
     np.array([0, 3, 0, 1, 4, 1, 3, 2, 3, 1, 5]),
     np.array([0, 2, 5, 7, 9, 10, 11])), shape=(6, 6))


def _vacuum_seed(n_max):
    x0 = np.zeros((n_max + 1) ** 2, dtype=complex)
    x0[0] = 1.0
    return x0


_TAYLOR_CASES = {
    "driven-n20": lambda: (q.driven_cavity_model(_CAVITIES["driven-n20"][0],
                                                 20).liouvillian,
                           _vacuum_seed(20), _SHORT_GRID),
    "driven-n30": lambda: (q.driven_cavity_model(_CAVITIES["driven-n30"][0],
                                                 30).liouvillian,
                           _vacuum_seed(30), _SHORT_GRID),
    # the benchmark's largest rung: <n> reaches 16 on an n_max 80 cutoff
    "driven-n80": lambda: (q.driven_cavity_model(
        q.CavityParams(1.0, 1.0, 0.0, 4.0), 80).liouvillian,
        _vacuum_seed(80), np.linspace(0.0, 2.5, 41)),
    "opo-g2": _opo_g2_block,
    "two-block": lambda: (_TWO_BLOCK_B, np.array([1.0, 0.5j, 0.0, 0.3, 0.0]),
                          np.linspace(0.0, 2.0, 9)),
    "trace-shift": lambda: (_TWO_BLOCK_B - (30.0 + 40.0j) * np.eye(5),
                            np.array([1.0, 0.5j, 0.0, 0.3, 0.0]),
                            np.linspace(0.0, 2.0, 9)),
    # rows that store entries on both sides of a missing diagonal entry, and
    # stored zeros: h B - mu I gains a diagonal in the middle of a row
    "missing-diagonal": lambda: (_MISSING_DIAGONAL_B, np.arange(1.0, 7.0),
                                 np.linspace(0.0, 3.0, 7)),
    # ||h A||_1 = 0: degree 0, the seed times exp(0)
    "zero": lambda: (np.zeros((4, 4)), np.array([1.0, -2.0, 0.5j, -1j]),
                     np.linspace(0.0, 2.0, 9)),
}


@pytest.mark.parametrize("case", sorted(_TAYLOR_CASES))
def test_sparse_route_gives_the_bits_of_expm_multiply(monkeypatch, case):
    # one column and ||h (B - mu I)||_1 <= 63.4, condition (3.13): scipy
    # reads m* and s from the same theta table, so equal bits also check the
    # transcribed table
    b, x0, t = _TAYLOR_CASES[case]()
    b = sp.csr_matrix(b, dtype=complex)
    assert dynamics._touched_rows(b, x0).size == b.shape[0]
    _force_route(monkeypatch, "sparse")
    _pin_unfolded(monkeypatch)
    assert q.solve_linear(b, x0, t).tobytes() == \
        _expm_multiply_series(b, x0, t).tobytes()


def _transpose(n: int) -> np.ndarray:
    """The transpose permutation P of vec(rho) in Fortran order."""
    d = math.isqrt(n)
    return np.arange(n).reshape(d, d).T.ravel()


@pytest.fixture
def folds(monkeypatch) -> list:
    """List that collects what ``_hermitian_fold`` decides for every
    sparse-route propagation the test makes."""
    recorded = []
    hermitian_fold = dynamics._hermitian_fold

    def record(*args):
        recorded.append(hermitian_fold(*args))
        return recorded[-1]

    monkeypatch.setattr(dynamics, "_hermitian_fold", record)
    return recorded


_FOLD_CASES = {
    "driven-n20": _TAYLOR_CASES["driven-n20"],
    "driven-n30": _TAYLOR_CASES["driven-n30"],
    "driven-n80": _TAYLOR_CASES["driven-n80"],
    "opo-n12": lambda: (_opo_liouvillian(12), _vacuum_seed(12), _SHORT_GRID),
}


@pytest.mark.parametrize("case", sorted(_FOLD_CASES))
def test_fold_agrees_with_the_unfolded_sparse_route(monkeypatch, folds,
                                                    case):
    # a Lindblad generator from a Hermitian seed: the fold propagates the
    # rows r <= P(r) alone and writes the others as their conjugates, so
    # each output is J-invariant to the bit, x[P] == conj(x)
    b, x0, t = _FOLD_CASES[case]()
    _force_route(monkeypatch, "sparse")
    folded = q.solve_linear(b, x0, t)
    assert len(folds) == 1 and folds[0] is not None
    # half the touched rows, and the entries of diag(rho) among them (the
    # OPO from vacuum touches only its even-parity block)
    p = _transpose(b.shape[0])
    touched = dynamics._touched_rows(sp.csr_matrix(b, dtype=complex), x0)
    diagonal = np.count_nonzero(p[touched] == touched)
    assert folds[0].rows.size == (touched.size + diagonal) // 2
    assert np.array_equal(folded[:, p], folded.conj())
    _pin_unfolded(monkeypatch)
    unfolded = q.solve_linear(b, x0, t)
    assert _relative_deviation(unfolded, folded) <= 1e-13


def _anti_hermitian_seed():
    b, x0, t = _TAYLOR_CASES["driven-n20"]()
    rho = np.zeros((21, 21), dtype=complex)
    rho[0, 1] = 1e-14
    return b, x0 + vec(rho - rho.conj().T), t


def _asymmetric_b():
    b, x0, t = _TAYLOR_CASES["driven-n20"]()
    b = b.copy()
    # one off-diagonal entry of L that its J-image no longer mirrors
    b.data[np.flatnonzero(b.indices != np.repeat(
        np.arange(b.shape[0]), np.diff(b.indptr)))[5]] += 1e-14
    return b, x0, t


_UNFOLDED_CASES = {
    "non-square": _TAYLOR_CASES["missing-diagonal"],
    "anti-hermitian-seed": _anti_hermitian_seed,
    "asymmetric-b": _asymmetric_b,
}


@pytest.mark.parametrize("case", sorted(_UNFOLDED_CASES))
def test_inputs_without_the_symmetry_keep_the_unfolded_bits(monkeypatch,
                                                            folds, case):
    b, x0, t = _UNFOLDED_CASES[case]()
    _force_route(monkeypatch, "sparse")
    out = q.solve_linear(b, x0, t)
    assert folds == [None]
    _pin_unfolded(monkeypatch)
    assert out.tobytes() == q.solve_linear(b, x0, t).tobytes()


def test_sparse_route_beyond_condition_3_13_leaves_the_global_random_stream(
        plans):
    # ||h (B - mu I)||_1 = 70 > 63.4: beyond condition (3.13) of Al-Mohy &
    # Higham, where scipy's expm_multiply estimates norms of powers of A
    # from draws of the global np.random
    rng = np.random.default_rng(11)
    n = 200
    values = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.03)
    b = sp.csr_matrix(-1j * (values + values.T) - 0.5 * np.eye(n))
    mu = b.diagonal().sum() / n
    norm = abs(b - mu * sp.identity(n, format="csr")).sum(axis=0).max()
    t = np.linspace(0.0, 140.0 / norm, 3)
    x0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert 63.4 < norm * t[1]
    before = np.random.get_state()
    out = q.solve_linear(b, x0, t)
    after = np.random.get_state()
    assert before[0] == after[0] and before[2:] == after[2:]
    assert np.array_equal(before[1], after[1])
    exact = np.array([expm(b.toarray() * tk) @ x0 for tk in t])
    assert _relative_deviation(exact, out) <= 1e-13
    assert [(dim, p.route) for dim, p in plans] == [(n, "sparse")]
