import math

import numpy as np
import pytest
from scipy.linalg import expm

import quoptics as q
from quoptics.effective import lindblad_decompose, purcell_effective_model
from quoptics.lindblad import build_liouvillian
from quoptics.operators import QuopticsError, ValidationError


# ---------------------------------------------------------------------------
# Optical potential scenario
# ---------------------------------------------------------------------------

def _optical_potential_setup(delta: float, omega0: float, n_z: int = 16):
    basis = q.BasisSpec((q.Fock(n_z - 1), q.TwoLevel()))
    z = np.linspace(-1.0, 1.0, n_z)
    profile = omega0 * np.exp(-(z**2) / 0.4)
    pl = q.pauli_ops()
    sz = q.tensor_embed(pl.sz, 1, basis)
    sp = q.tensor_embed(pl.sp, 1, basis)
    sm = q.tensor_embed(pl.sm, 1, basis)
    omega_diag = q.tensor_embed(
        q.Operator(q.fock_basis(n_z - 1), np.diag(profile).astype(complex)),
        0, basis)
    h0 = 0.5 * delta * sz
    h1 = 0.5 * (omega_diag @ sp + omega_diag @ sm)
    ground = q.tensor_embed(
        q.Operator(q.two_level_basis(), np.diag([0.0, 1.0]).astype(complex)),
        1, basis)
    return basis, z, profile, h0, h1, q.ProjectorPair(ground)


def test_optical_potential_secular_form():
    delta, omega0 = 1.0, 0.02
    basis, z, profile, h0, h1, proj = _optical_potential_setup(delta, omega0)
    eff = q.effective_hamiltonian_2nd(h0, h1, proj, t_horizon=20.0)
    n_z = len(z)
    # ground-block diagonal: -delta/2 - |Omega(z)|^2 / (4 delta)
    got = np.array([eff.secular.entries[2 * i + 1, 2 * i + 1] for i in range(n_z)])
    expected = -0.5 * delta - profile**2 / (4.0 * delta)
    assert np.abs(got - expected).max() < 1e-14
    # nothing appears on the eliminated block
    excited = np.array([eff.secular.entries[2 * i, 2 * i] for i in range(n_z)])
    assert np.abs(excited).max() < 1e-14


def test_optical_potential_residual_halves_with_detuning():
    omega0 = 0.02
    res = []
    for delta in (1.0, 2.0):
        _, _, _, h0, h1, proj = _optical_potential_setup(delta, omega0)
        eff = q.effective_hamiltonian_2nd(h0, h1, proj, t_horizon=40.0)
        res.append(eff.hermiticity_residual)
    assert res[1] <= 0.6 * res[0]
    assert res[0] > 0  # recorded, not silently zeroed


def test_optical_potential_dynamics_validation():
    delta, omega0 = 1.0, 0.02   # |Delta| / |Omega| = 50
    basis, z, profile, h0, h1, proj = _optical_potential_setup(delta, omega0)
    n_z = len(z)
    # stroboscopic final time (multiple of the micro-motion period) near
    # |Omega| t = 1
    t_final = round((1.0 / omega0) / (2 * math.pi / delta)) * 2 * math.pi / delta
    eff = q.effective_hamiltonian_2nd(h0, h1, proj, t_horizon=t_final)
    # wavepacket on the ground manifold
    amp = np.exp(-((z + 0.3) ** 2) / 0.1)
    amp /= np.linalg.norm(amp)
    psi0 = np.zeros(basis.total_dim, dtype=complex)
    psi0[1::2] = amp
    u_exact = expm(-1j * (h0.entries + h1.entries) * t_final)
    psi_exact = (u_exact @ psi0)[1::2]
    u_eff = expm(-1j * eff.secular.entries * t_final)
    psi_eff = (u_eff @ psi0)[1::2]
    phase_exact = np.angle(psi_exact / psi_exact[0])
    phase_eff = np.angle(psi_eff / psi_eff[0])
    spread = np.ptp(phase_eff)
    assert spread > 1e-3  # the potential does something
    assert np.abs(phase_exact - phase_eff).max() < 0.01 * spread


def test_effective_hamiltonian_requires_commuting_projector():
    pl = q.pauli_ops()
    basis = q.two_level_basis()
    proj = q.ProjectorPair(q.Operator(basis, np.diag([0.0, 1.0]).astype(complex)))
    with pytest.raises(QuopticsError):
        q.effective_hamiltonian_2nd(pl.sx, pl.sm + pl.sp, proj, 1.0)


def test_projector_validation():
    basis = q.two_level_basis()
    with pytest.raises(ValidationError):
        q.ProjectorPair(q.Operator(basis, np.diag([0.5, 0.0]).astype(complex)))


# ---------------------------------------------------------------------------
# Raman and Kerr eliminations
# ---------------------------------------------------------------------------

def test_raman_two_photon_coupling():
    # three levels ordered (auxiliary, g, e); energy origin on the auxiliary
    basis = q.fock_basis(2)
    delta_g, delta_e = 8.0, 10.0
    omega_g, omega_e = 0.20 + 0.05j, 0.15 - 0.1j
    h0 = q.Operator(basis, np.diag([0.0, delta_g, delta_e]).astype(complex))
    h1m = np.zeros((3, 3), dtype=complex)
    h1m[0, 1] = omega_g          # |a><g|
    h1m[0, 2] = omega_e          # |a><e|
    h1 = q.Operator(basis, h1m + h1m.conj().T)
    proj = q.ProjectorPair(
        q.Operator(basis, np.diag([0.0, 1.0, 1.0]).astype(complex)))
    eff = q.effective_hamiltonian_2nd(h0, h1, proj, t_horizon=50.0)
    # |e><g| coefficient Omega_g Omega_e^* / Delta_g
    assert eff.secular.entries[2, 1] == pytest.approx(
        omega_g * np.conj(omega_e) / delta_g, abs=1e-12)
    # Hermitian-conjugate coefficient carries the other detuning
    assert eff.secular.entries[1, 2] == pytest.approx(
        np.conj(omega_g) * omega_e / delta_e, abs=1e-12)
    # light-shift diagonals
    assert eff.secular.entries[1, 1] == pytest.approx(
        delta_g + abs(omega_g) ** 2 / delta_g, abs=1e-12)
    assert eff.hermiticity_residual > 0


def test_kerr_from_down_conversion():
    # pump mode truncated to one excitation: the only virtual state needed
    n_a = 6
    basis = q.BasisSpec((q.Fock(n_a), q.Fock(1)))
    omega0, g0 = 5.0, 0.1
    delta = 2.0
    omega2 = 2.0 * (omega0 - delta)
    a_ops = q.fock_ops(n_a)
    a_full = q.tensor_embed(a_ops.a, 0, basis)
    n_full = q.tensor_embed(a_ops.n, 0, basis)
    b_ops = q.fock_ops(1)
    b_full = q.tensor_embed(b_ops.a, 1, basis)
    nb_full = q.tensor_embed(b_ops.n, 1, basis)
    h0 = omega0 * n_full + omega2 * nb_full
    coupling = 0.5j * g0 * (b_full @ a_full.dag() @ a_full.dag())
    h1 = coupling + coupling.dag()
    p_vac = q.tensor_embed(
        q.Operator(q.fock_basis(1), np.diag([1.0, 0.0]).astype(complex)),
        1, basis)
    eff = q.effective_hamiltonian_2nd(h0, h1, q.ProjectorPair(p_vac), 100.0)
    n = np.arange(n_a + 1)
    # independent second-order perturbation oracle:
    # shift_n = |<n-2, 1_b| H1 |n, 0_b>|^2 / (E_n - E_intermediate)
    coupling_sq = (g0**2 / 4.0) * n * (n - 1)
    shift = coupling_sq / (2.0 * delta)
    got = np.array([eff.secular.entries[2 * k, 2 * k].real for k in n])
    expected = omega0 * n + shift
    assert np.abs(got - expected).max() < 1e-12
    # Kerr form (omega - g_k) n + g_k n^2 with |g_k| = g0^2 / (8 |delta|)
    g_kerr = shift[2] / 2.0
    assert g_kerr == pytest.approx(g0**2 / (8.0 * delta))
    assert np.abs(shift - g_kerr * (n**2 - n)).max() < 1e-12


# ---------------------------------------------------------------------------
# Lindblad refit and the Purcell elimination
# ---------------------------------------------------------------------------

def test_lindblad_decompose_roundtrip():
    pl = q.pauli_ops()
    basis = q.two_level_basis()
    h = 0.4 * pl.sz + 0.2 * pl.sx
    m = q.LindbladModel(basis, h, ((0.3, pl.sm), (0.1, pl.sz)))
    t_matrix = build_liouvillian(m).matrix
    h_fit, jumps, report = lindblad_decompose(t_matrix, basis)
    assert report["refit_residual"] < 1e-12
    # recovered Hamiltonian equals the traceless part of the original
    h_traceless = h.entries - np.trace(h.entries) / 2.0 * np.eye(2)
    assert np.abs(h_fit.entries - h_traceless).max() < 1e-12


def test_lindblad_decompose_rejects_a_wrongly_shaped_generator():
    basis = q.two_level_basis()
    for bad in (np.eye(9), np.eye(4)[:, :3], np.zeros(16)):
        with pytest.raises(ValidationError):
            lindblad_decompose(bad, basis)


def test_lindblad_decompose_drops_and_reports_negative_weight():
    pl = q.pauli_ops()
    basis = q.two_level_basis()
    zero = q.Operator(basis, np.zeros((2, 2), dtype=complex))
    kept = build_liouvillian(q.LindbladModel(basis, 0.3 * pl.sx,
                                             ((0.3, pl.sm),))).matrix
    # a dephasing dissipator at rate -0.2: not a Lindblad generator
    negative = build_liouvillian(q.LindbladModel(basis, zero,
                                                 ((0.2, pl.sz),))).matrix
    h_fit, jumps, report = lindblad_decompose(kept - negative, basis)
    # the sigma_z direction has Kossakowski weight -2 * 0.2 * ||sigma_z||^2
    assert report["dropped_negative_weight"] == pytest.approx(0.8, abs=1e-12)
    # the refit misses exactly the dropped dissipator
    assert report["refit_residual"] == pytest.approx(
        float(np.abs(negative).max()), abs=1e-12)
    assert report["choi_hermiticity_residual"] < 1e-15
    assert len(jumps) == 1
    rate, op = jumps[0]
    assert rate * abs(np.vdot(pl.sm.entries, op.entries)) ** 2 == (
        pytest.approx(0.3, abs=1e-12))
    assert np.abs(h_fit.entries - 0.3 * pl.sx.entries).max() < 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_lindblad_decompose_refits_random_generators(seed):
    rng = np.random.default_rng(seed)
    d = 2 + seed % 3
    basis = q.fock_basis(d - 1)

    def rand_op():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    a = rand_op()
    h = q.Operator(basis, 0.5 * (a + a.conj().T))
    jumps = tuple((float(rng.uniform(0.1, 2.0)), q.Operator(basis, rand_op()))
                  for _ in range(seed % 4))
    t_matrix = build_liouvillian(q.LindbladModel(basis, h, jumps)).matrix
    h_fit, fit_jumps, report = lindblad_decompose(t_matrix, basis)
    assert report["refit_residual"] <= 1e-12 * max(
        1.0, float(np.abs(t_matrix).max()))
    assert report["dropped_negative_weight"] == 0.0
    for _, op in fit_jumps:
        assert abs(np.trace(op.entries)) < 1e-12
    hm = h_fit.entries
    assert np.abs(hm - hm.conj().T).max() < 1e-12
    assert abs(np.trace(hm)) < 1e-12
    assert len(fit_jumps) <= d * d - 1


def test_purcell_effective_model_matches_rate_formulas():
    g, kappa, gamma, delta, nbar = 10.0, 1000.0, 1.0, 150.0, 1.0
    res = purcell_effective_model(g, kappa, gamma, delta, nbar)
    rates = q.purcell_rates(g, kappa, gamma, delta, nbar)
    pl = q.pauli_ops()
    # collect total sigma and sigma^dag dissipation rates from the model
    down = up = 0.0
    for rate, op in res.model.jumps:
        overlap_down = abs(np.vdot(pl.sm.entries, op.entries)) ** 2
        overlap_up = abs(np.vdot(pl.sp.entries, op.entries)) ** 2
        down += rate * overlap_down
        up += rate * overlap_up
    gamma_minus_expected = gamma * (nbar + 1) + g**2 * kappa / (
        kappa**2 + delta**2)
    assert down == pytest.approx(gamma_minus_expected, abs=1e-10)
    assert up == pytest.approx(gamma * nbar, abs=1e-10)
    # the two code paths agree exactly (floating precision)
    assert down - up == pytest.approx(rates.gamma_eff, abs=1e-10)
    assert up / (down - up) == pytest.approx(rates.nbar_eff, abs=1e-12)
    # level shift enters as (delta_eps / 2) sigma_z
    assert res.model.h.entries[0, 0].real == pytest.approx(
        rates.delta_eps / 2.0, abs=1e-12)
    assert res.report["rate_separation"] > 10.0


def test_purcell_zero_coupling_leaves_system_untouched():
    res = purcell_effective_model(0.0, 100.0, 1.0, 0.0, 0.5)
    assert np.abs(res.model.h.entries).max() < 1e-14
    rates = sorted(rate for rate, _ in res.model.jumps)
    assert rates == pytest.approx([0.5, 1.5])
    free = q.purcell_rates(0.0, 100.0, 1.0, 0.0, 0.5)
    assert free.gamma_eff == pytest.approx(1.0)
    assert free.nbar_eff == pytest.approx(0.5)


def test_purcell_rates_closed_forms():
    g, kappa, gamma = 2.0, 40.0, 1.0
    r0 = q.purcell_rates(g, kappa, gamma, 0.0, 5.0)
    coop = g * g / (kappa * gamma)
    assert r0.gamma_eff == pytest.approx(gamma * (1 + coop))
    assert r0.nbar_eff == pytest.approx(5.0 / (1 + coop))
    big = q.purcell_rates(50.0, 40.0, 1.0, 0.0, 5.0)
    assert big.nbar_eff == pytest.approx(5.0 / big.cooperativity, rel=0.05)
    assert big.nbar_eff < 0.1
    rd = q.purcell_rates(g, kappa, gamma, 13.0, 1.0)
    assert rd.delta_eps == pytest.approx(-g * g * 13.0 / (kappa**2 + 13.0**2))


# ---------------------------------------------------------------------------
# Optomechanical cooling formulas
# ---------------------------------------------------------------------------

def test_optomech_rates():
    g, kappa, gamma, omega_m, nbar = 3.0, 1.0, 1e-4, 40.0, 100.0
    r = q.optomech_rates(g, kappa, gamma, delta=-omega_m, omega_m=omega_m,
                         nbar=nbar)
    coop = abs(g) ** 2 / (kappa * gamma)
    assert r.gamma_minus_opt == pytest.approx(abs(g) ** 2 / kappa)
    assert r.gamma_eff == pytest.approx(gamma * coop, rel=1e-3)
    floor = kappa**2 / (4 * omega_m**2)
    assert r.nbar_eff == pytest.approx(nbar / coop + floor, rel=1e-2)
    bare = q.optomech_rates(0.0, kappa, gamma, -omega_m, omega_m, nbar)
    assert bare.gamma_eff == pytest.approx(gamma)
    assert bare.nbar_eff == pytest.approx(nbar)


# ---------------------------------------------------------------------------
# Single-excitation decay and the logarithmic shift estimate
# ---------------------------------------------------------------------------

def test_wigner_weisskopf_norm_and_lorentzian():
    gamma, eps = 1.0, 1000.0
    res = q.wigner_weisskopf(gamma, eps,
                             t_grid=np.linspace(0.0, 12.0 / gamma, 61))
    assert res.norm_residual < 1e-6
    assert res.alpha_t[0] == pytest.approx(1.0)
    assert np.abs(res.beta_k_t[0]).max() == 0.0
    # late-time line shape approaches the Lorentzian filter
    late = 2.0 * np.abs(res.beta_k_t[-1]) ** 2
    lorentz = (gamma / math.pi) / (gamma**2 + (np.abs(res.k) - eps) ** 2)
    window = np.abs(res.k - eps) < 20 * gamma
    assert np.abs(late[window] - lorentz[window]).max() < 2e-5
    # norm growth follows 1 - e^{-2 gamma t} (grid part only; the analytic
    # tail beyond the grid holds the remaining ~2/(100 pi) of the line)
    dens = 2.0 * np.abs(res.beta_k_t) ** 2
    norms = np.trapezoid(dens, res.k, axis=1)
    assert np.abs(norms - (1 - res.alpha_t**2)).max() < 1.5e-2
    assert np.all(np.diff(norms) > -1e-9)


def test_wigner_weisskopf_narrow_grid_rejected():
    with pytest.raises(QuopticsError):
        q.wigner_weisskopf(1.0, 1000.0,
                           k_grid=np.linspace(980.0, 1020.0, 801))


def test_lamb_shift_estimate():
    gamma = 1.0
    val = q.lamb_shift_estimate(gamma, 13.0, 1e6)
    assert abs(val) / gamma == pytest.approx(math.log(1e6 / 13.0) / math.pi)
    assert abs(val) / gamma == pytest.approx(3.58, abs=0.01)
    assert q.lamb_shift_estimate(gamma, 5.0, 5.0) == 0.0
    doubled = q.lamb_shift_estimate(gamma, 13.0, 2e6)
    assert doubled - val == pytest.approx(-math.log(2.0) / math.pi * gamma)
