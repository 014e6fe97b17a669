import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import quoptics as q
from quoptics import phasespace
from quoptics.operators import ValidationError
from quoptics.phasespace import GridTooCoarseError


TWO_PI = 2.0 * math.pi


def test_wigner_fock_origin_values():
    assert q.wigner_fock(0, 0.0, 0.0) == pytest.approx(1.0 / TWO_PI)
    assert q.wigner_fock(1, 0.0, 0.0) == pytest.approx(-1.0 / TWO_PI)
    assert q.wigner_fock(2, 0.0, 0.0) == pytest.approx(1.0 / TWO_PI)


def test_wigner_gaussian_matches_closed_forms():
    vac = q.vacuum_gaussian()
    assert q.wigner_gaussian(vac, 0.0, 0.0) == pytest.approx(1.0 / TWO_PI)
    nbar = 1.4
    th = q.GaussianState(np.zeros(2), (2 * nbar + 1) * np.eye(2))
    assert q.wigner_gaussian(th, 0.0, 0.0) == pytest.approx(
        1.0 / (TWO_PI * (2 * nbar + 1)))
    # squeezed state evaluated along its principal axes is a 1-D Gaussian pair
    r, theta = 0.6, 0.9
    g = q.symplectic_apply(q.squeeze_map(r, theta), vac)
    rot = q.rotation_map(theta / 2.0).s
    for s_coord in (0.3, 1.1):
        xp = rot.T @ np.array([s_coord, 0.0])
        expected = (math.exp(-0.5 * s_coord**2 / math.exp(-2 * r))
                    / TWO_PI)
        assert q.wigner_gaussian(g, xp[0], xp[1]) == pytest.approx(expected)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_wigner_numeric_fock_states(n):
    rho = q.DensityMatrix(q.fock_basis(max(n, 1) + 2),
                          np.diag(np.eye(max(n, 1) + 3)[n]).astype(complex))
    grid = q.default_grid(max(n, 1) + 2)
    w = q.wigner_numeric(rho, grid)
    xx, pp = np.meshgrid(grid.x, grid.p, indexing="ij")
    exact = q.wigner_fock(n, xx, pp)
    assert np.abs(w.values - exact).max() < 1e-8
    assert w.integral() == pytest.approx(1.0, abs=1e-9)


def test_wigner_numeric_vacuum_peak_canary():
    rho = q.DensityMatrix(q.fock_basis(2), np.diag([1., 0, 0]).astype(complex))
    grid = q.PhaseGrid(-6, 6, -6, 6, 97, 97)  # odd count puts 0 on the grid
    w = q.wigner_numeric(rho, grid)
    i0 = 48
    assert abs(w.values[i0, i0] - 1.0 / TWO_PI) < 1e-9


def _cat_state(alpha: float, n_max: int) -> q.KetState:
    plus = q.coherent_state(alpha, n_max)
    minus = q.coherent_state(-alpha, n_max)
    amps = plus.amplitudes + minus.amplitudes
    return q.KetState(q.fock_basis(n_max), amps / np.linalg.norm(amps))


def _cat_wavefunction(alpha: float):
    norm2 = 2.0 * (1.0 + math.exp(-2.0 * alpha * alpha))

    def psi(x):
        g = (TWO_PI) ** -0.25
        return (g * (np.exp(-((x - 2 * alpha) ** 2) / 4.0)
                     + np.exp(-((x + 2 * alpha) ** 2) / 4.0))
                / math.sqrt(norm2))

    return psi


def test_wigner_numeric_cat_against_midpoint_quadrature():
    alpha = 2.0
    n_max = 35
    cat = _cat_state(alpha, n_max)
    rho = cat.to_density_matrix()
    grid = q.default_grid(n_max)
    w = q.wigner_numeric(rho, grid)
    psi = _cat_wavefunction(alpha)

    def oracle(x, p):
        re = quad(lambda u: math.cos(p * u) * psi(x + u) * psi(x - u),
                  -25, 25, limit=400)[0]
        return re / TWO_PI

    for x, p in [(0.0, 0.0), (0.0, 0.7), (4.0, 0.0), (1.5, -0.9), (0.0, 1.2)]:
        ix = int(np.argmin(np.abs(grid.x - x)))
        ip = int(np.argmin(np.abs(grid.p - p)))
        assert w.values[ix, ip] == pytest.approx(
            oracle(grid.x[ix], grid.p[ip]), abs=1e-6)

    # interference fringes along p at x = 0 cross zero many times
    i0 = int(np.argmin(np.abs(grid.x)))
    cut = w.values[i0]
    signs = np.sign(cut[np.abs(cut) > 1e-4])
    assert np.sum(np.abs(np.diff(signs)) > 0) >= 4
    assert w.integral() == pytest.approx(1.0, abs=1e-6)


def test_marginals_vacuum_fock_and_cat():
    rho = q.DensityMatrix(q.fock_basis(3),
                          np.diag([1.0, 0, 0, 0]).astype(complex))
    grid = q.default_grid(3)
    w = q.wigner_numeric(rho, grid)
    x, px = q.marginal(w, "x")
    assert np.abs(px - np.exp(-x * x / 2.0) / math.sqrt(TWO_PI)).max() < 1e-8
    assert np.trapezoid(px, x) == pytest.approx(1.0, abs=1e-8)

    n = 2
    rho_n = q.DensityMatrix(q.fock_basis(4),
                            np.diag(np.eye(5)[n]).astype(complex))
    w2 = q.wigner_numeric(rho_n, q.default_grid(4))
    x2, px2 = q.marginal(w2, "x")
    psi2 = q.phasespace.position_wavefunctions(n, x2)[n]
    assert np.abs(px2 - psi2**2).max() < 1e-8

    cat = _cat_state(2.0, 35).to_density_matrix()
    wc = q.wigner_numeric(cat, q.default_grid(35))
    xc, pxc = q.marginal(wc, "x")
    psi = _cat_wavefunction(2.0)
    assert np.abs(pxc - psi(xc) ** 2).max() < 1e-7
    pc, ppc = q.marginal(wc, "p")
    # momentum marginal carries the interference fringes
    assert (np.diff(np.sign(np.diff(ppc))) != 0).sum() >= 6


def test_gaussian_moment_pairings():
    v = np.array([[1.7, 0.3], [0.3, 0.9]])
    assert q.gaussian_moment(v, (0, 1, 0, 1)) == pytest.approx(
        v[0, 0] * v[1, 1] + 2 * v[0, 1] ** 2)
    assert q.gaussian_moment(v, (0, 0, 0, 0)) == pytest.approx(3 * v[0, 0] ** 2)
    assert q.gaussian_moment(v, (0, 1, 1)) == 0.0
    assert q.gaussian_moment(v, (0, 1)) == pytest.approx(v[0, 1])


def test_symplectic_maps_and_det_preservation():
    vac = q.vacuum_gaussian()
    alpha = 0.8 + 0.5j
    disp = q.symplectic_apply(q.displacement_map(alpha), vac)
    assert np.allclose(disp.d, [2 * alpha.real, 2 * alpha.imag])
    assert np.allclose(disp.v, np.eye(2))

    r, theta = 0.7, 1.1
    sq = q.symplectic_apply(q.squeeze_map(r, theta), vac)
    rot = q.rotation_map(theta / 2.0).s
    expected = rot.T @ np.diag([math.exp(-2 * r), math.exp(2 * r)]) @ rot
    assert np.abs(sq.v - expected).max() < 1e-12

    th = q.GaussianState(np.zeros(2), 3.0 * np.eye(2))
    rotated = q.symplectic_apply(q.rotation_map(0.4), th)
    assert np.allclose(rotated.v, th.v)

    rng = np.random.default_rng(11)
    g = vac
    for _ in range(100):
        m = q.SymplecticMap(
            q.rotation_map(rng.uniform(0, TWO_PI)).s
            @ q.squeeze_map(rng.uniform(-0.3, 0.3)).s
            @ q.rotation_map(rng.uniform(0, TWO_PI)).s,
            rng.normal(size=2),
        )
        g = q.symplectic_apply(m, g)
    assert np.linalg.det(g.v) == pytest.approx(1.0, abs=1e-9)

    with pytest.raises(ValidationError):
        q.symplectic_apply(q.SymplecticMap(2.0 * np.eye(2), np.zeros(2)), vac)


def test_gaussian_from_complex_moments():
    alpha = 0.5 - 1.2j
    coh = q.gaussian_from_complex_moments(alpha, 0.0, 0.0)
    assert np.allclose(coh.d, [2 * alpha.real, 2 * alpha.imag])
    assert np.allclose(coh.v, np.eye(2))
    nbar = 0.8
    th = q.gaussian_from_complex_moments(0.0, 0.0, nbar)
    assert np.allclose(th.v, (2 * nbar + 1) * np.eye(2))
    r, theta = 0.5, 0.7
    var_a = -np.exp(1j * theta) * math.cosh(r) * math.sinh(r)
    sq = q.gaussian_from_complex_moments(0.0, var_a, math.sinh(r) ** 2)
    rot = q.rotation_map(theta / 2.0).s
    expected = rot.T @ np.diag([math.exp(-2 * r), math.exp(2 * r)]) @ rot
    assert np.abs(sq.v - expected).max() < 1e-12
    with pytest.raises(ValidationError):
        q.gaussian_from_complex_moments(0.0, 0.4, 0.0)  # det V < 1


def test_overlap_wigner():
    grid = q.default_grid(6)
    vac = q.DensityMatrix(q.fock_basis(6),
                          np.diag(np.eye(7)[0]).astype(complex))
    one = q.DensityMatrix(q.fock_basis(6),
                          np.diag(np.eye(7)[1]).astype(complex))
    w_vac = q.wigner_numeric(vac, grid)
    w_one = q.wigner_numeric(one, grid)
    assert q.overlap_wigner(w_vac, w_vac) == pytest.approx(1.0, abs=1e-7)
    assert q.overlap_wigner(w_vac, w_one) == pytest.approx(0.0, abs=1e-7)

    nbar = 0.9
    th = q.thermal_state(nbar, 30)
    w_th = q.wigner_numeric(th, q.default_grid(30))
    # closed-form purity of the geometric mixture, cross-checked numerically
    purity_series = sum((nbar**n / (1 + nbar) ** (1 + n)) ** 2
                        for n in range(200))
    assert purity_series == pytest.approx(1.0 / (2 * nbar + 1), abs=1e-12)
    assert q.overlap_wigner(w_th, w_th) == pytest.approx(
        1.0 / (2 * nbar + 1), abs=1e-6)
    # purity bound: Int W^2 <= 1/(4 pi)
    sq_int = q.overlap_wigner(w_th, w_th) / (4 * math.pi)
    assert sq_int <= 1.0 / (4 * math.pi) + 1e-6


def test_wigner_numeric_matches_gaussian_states():
    alpha = 1.1 - 0.6j
    coh = q.coherent_state(alpha).to_density_matrix()
    n_max = coh.basis.factors[0].n_max
    grid = q.default_grid(n_max)
    w = q.wigner_numeric(coh, grid)
    g = q.gaussian_from_complex_moments(alpha, 0.0, 0.0)
    xx, pp = np.meshgrid(grid.x, grid.p, indexing="ij")
    assert np.abs(w.values - q.wigner_gaussian(g, xx, pp)).max() < 1e-6

    nbar = 1.3
    th = q.thermal_state(nbar, 40)
    grid_t = q.default_grid(40)
    w_t = q.wigner_numeric(th, grid_t)
    g_t = q.gaussian_from_complex_moments(0.0, 0.0, nbar)
    xx, pp = np.meshgrid(grid_t.x, grid_t.p, indexing="ij")
    assert np.abs(w_t.values - q.wigner_gaussian(g_t, xx, pp)).max() < 1e-6

    r = 0.5
    sq = q.squeezed_vacuum(r).to_density_matrix()
    n_sq = sq.basis.factors[0].n_max
    grid_s = q.default_grid(n_sq)
    w_s = q.wigner_numeric(sq, grid_s)
    var_a = -math.cosh(r) * math.sinh(r)
    g_s = q.gaussian_from_complex_moments(0.0, var_a, math.sinh(r) ** 2)
    xx, pp = np.meshgrid(grid_s.x, grid_s.p, indexing="ij")
    assert np.abs(w_s.values - q.wigner_gaussian(g_s, xx, pp)).max() < 1e-6


def _symmetrized_expectation(state, m, n):
    """<(X^m P^n)^(s)> averaged over every ordering of the factor multiset."""
    n_max = state.basis.factors[0].n_max
    ops = q.fock_ops(n_max)
    factors = ["x"] * m + ["p"] * n
    mats = {"x": ops.x.entries, "p": ops.p.entries}
    orders = set(itertools.permutations(factors))
    dim = n_max + 1
    acc = np.zeros((dim, dim), dtype=complex)
    for order in orders:
        prod = np.eye(dim, dtype=complex)
        for f in order:
            prod = prod @ mats[f]
        acc += prod
    acc /= len(orders)
    return q.expectation(q.Operator(state.basis, acc), state).real


@pytest.mark.parametrize("state_maker", [
    lambda: q.coherent_state(0.9 + 0.4j, 30),
    lambda: q.squeezed_vacuum(0.45, 40),
])
def test_symmetric_moments_match_phase_space(state_maker):
    state = state_maker()
    rho = state.to_density_matrix()
    n_max = state.basis.factors[0].n_max
    grid = q.default_grid(n_max)
    w = q.wigner_numeric(rho, grid)
    xx, pp = np.meshgrid(grid.x, grid.p, indexing="ij")
    for m, n in [(1, 0), (0, 1), (2, 0), (1, 1), (2, 2), (3, 1), (4, 0)]:
        if m + n > 4:
            continue
        phase_space = np.trapezoid(
            np.trapezoid(w.values * xx**m * pp**n, grid.p, axis=1), grid.x)
        assert phase_space == pytest.approx(
            _symmetrized_expectation(state, m, n), abs=1e-6)


def test_nyquist_guard():
    rho = q.thermal_state(3.0, 60)
    coarse = q.PhaseGrid(-20, 20, -20, 20, 25, 25)
    with pytest.raises(GridTooCoarseError):
        q.wigner_numeric(rho, coarse)


def test_phase_grid_validation():
    with pytest.raises(ValidationError):
        q.PhaseGrid(1.0, -1.0, -1.0, 1.0, 8, 8)
    with pytest.raises(ValidationError):
        q.PhaseGrid(-1.0, 1.0, -1.0, 1.0, 1, 8)


def test_overlap_grid_mismatch():
    a = q.wigner_numeric(q.thermal_state(0.1, 6), q.default_grid(6))
    b = q.wigner_numeric(q.thermal_state(0.1, 6), q.default_grid(6, 129))
    with pytest.raises(ValidationError):
        q.overlap_wigner(a, b)


def test_wigner_gaussian_rejects_singular_covariance():
    bad = q.GaussianState(np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        q.wigner_gaussian(bad, 0.0, 0.0)


def test_wigner_numeric_displaced_squeezed_state():
    # full complex off-diagonal density matrix through the transform
    alpha, r, theta = 0.9 - 0.5j, 0.45, 1.3
    n_max = 40
    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("ignore")
        d_op = q.displacement_op(alpha, n_max)
        s_op = q.squeeze_op(r * np.exp(1j * theta), n_max)
    vac = np.zeros(n_max + 1, dtype=complex)
    vac[0] = 1.0
    amps = d_op.entries @ (s_op.entries @ vac)
    amps /= np.linalg.norm(amps)
    rho = q.KetState(q.fock_basis(n_max), amps).to_density_matrix()
    grid = q.default_grid(n_max)
    w = q.wigner_numeric(rho, grid)
    var_a = -np.exp(1j * theta) * math.cosh(r) * math.sinh(r)
    g = q.gaussian_from_complex_moments(alpha, var_a, math.sinh(r) ** 2)
    xx, pp = np.meshgrid(grid.x, grid.p, indexing="ij")
    assert np.abs(w.values - q.wigner_gaussian(g, xx, pp)).max() < 1e-6


def _u_step(dx: float, du_max: float):
    """(du, r): the u step b dx / r with b = floor(du_max r / dx), for the
    smallest r >= dx / du_max that gives du >= 3/4 du_max."""
    for r in itertools.count(math.ceil(dx / du_max)):
        delta = dx / r
        b = int(du_max / delta)
        while b * delta > du_max:
            b -= 1
        if b * delta >= 0.75 * du_max:
            return b * delta, r


def _wigner_by_rows(rho: np.ndarray, grid: q.PhaseGrid):
    """Reference transform: the same u grid and midpoint sum as
    ``wigner_numeric``, with one three-operand einsum per x row over the
    full symmetric u grid, Hermite functions taken at x + u and x - u
    themselves, and a complex Fourier kernel.  ``rho`` must occupy every
    level it has."""
    n_top = rho.shape[0] - 1
    x, p = grid.x, grid.p
    p_abs = float(np.max(np.abs(p)))
    x_abs = float(np.max(np.abs(x)))
    u_max = 2.0 * math.sqrt(n_top) + 8.0 + x_abs
    du_max = math.pi / (2.0 * (p_abs + 2.0 * math.sqrt(n_top) + 4.0))
    du, _ = _u_step(grid.dx, du_max)
    half = math.ceil(u_max / du)
    u = du * np.arange(-half, half + 1)
    values = np.empty((grid.nx, grid.np))
    kernel = np.exp(-1j * np.outer(u, p))
    for ix, xv in enumerate(x):
        psi_plus = phasespace.position_wavefunctions(n_top, xv + u)
        psi_minus = phasespace.position_wavefunctions(n_top, xv - u)
        g = np.einsum("mu,mn,nu->u", psi_plus, rho, psi_minus.conj())
        values[ix] = (du / TWO_PI) * np.real(g @ kernel)
    return values, {"n_eff": n_top, "du": du, "nu": u.size}


def _half_grid(meta: dict) -> int:
    """Points of the u >= 0 half grid, the row length of a block."""
    return (meta["nu"] + 1) // 2


@st.composite
def _mixed_states_on_skewed_grids(draw):
    """A full-rank random mixed state with n <= 12 on a grid that covers it,
    with nx != np, bounds off-centre on both axes, and a row count per block
    that does not divide nx."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    r = 2.0 * math.sqrt(n) + 4.0
    step = math.pi / r  # the coarsest spacing wigner_numeric accepts
    lo_x, hi_x, lo_p, hi_p = (r + draw(st.floats(0.0, 3.0)) for _ in range(4))
    assume(abs(lo_x - hi_x) > 0.1 and abs(lo_p - hi_p) > 0.1)
    nx = math.ceil((lo_x + hi_x) / step) + 1 + draw(st.integers(0, 15))
    n_p = math.ceil((lo_p + hi_p) / step) + 1 + draw(st.integers(0, 15))
    assume(nx != n_p)
    rows = draw(st.integers(2, 7))
    assume(nx % rows != 0)
    grid = q.PhaseGrid(-lo_x, hi_x, -lo_p, hi_p, nx, n_p)
    return q.DensityMatrix(q.fock_basis(n), rho), grid, rows


@settings(max_examples=25, deadline=None)
@given(_mixed_states_on_skewed_grids())
def test_wigner_numeric_matches_per_row_reference(case):
    rho, grid, rows = case
    ref, ref_meta = _wigner_by_rows(rho.entries, grid)
    # a block of exactly `rows` x rows, so the last block is a partial one
    budget = rows * _half_grid(ref_meta)
    with mock.patch.object(phasespace, "_BLOCK_ELEMENTS", budget):
        w = q.wigner_numeric(rho, grid)
    assert w.meta == ref_meta
    assert np.abs(w.values - ref).max() < 1e-13


def _real_cat(n_max: int) -> q.DensityMatrix:
    plus = q.coherent_state(1.2, n_max).amplitudes
    minus = q.coherent_state(-1.2, n_max).amplitudes
    # the phases of |-1.2> leave imaginary parts of order 1e-16
    amps = (plus + minus).real / np.linalg.norm(plus + minus)
    return q.KetState(q.fock_basis(n_max), amps).to_density_matrix()


def _fock_mixture(n_max: int) -> q.DensityMatrix:
    weights = np.arange(n_max + 1, 0, -1.0)
    weights /= weights.sum()
    return q.DensityMatrix(q.fock_basis(n_max),
                           np.diag(weights).astype(complex))


@pytest.mark.parametrize("make", [_real_cat,
                                  lambda n: q.thermal_state(0.45, n),
                                  _fock_mixture],
                         ids=["real-cat", "thermal", "fock-mixture"])
def test_wigner_numeric_of_real_states_matches_per_row_reference(make):
    # Im rho is exactly zero here, so the transform skips its sin kernel
    n_max = 10
    rho = make(n_max)
    assert not rho.entries.imag.any()
    grid = q.default_grid(n_max, 81)
    ref, ref_meta = _wigner_by_rows(rho.entries, grid)
    # 4 rows per block, so the last of the 81 rows is a partial block
    budget = 4 * _half_grid(ref_meta)
    with mock.patch.object(phasespace, "_BLOCK_ELEMENTS", budget):
        w = q.wigner_numeric(rho, grid)
    assert w.meta == ref_meta
    assert np.abs(w.values - ref).max() < 1e-13


def test_wigner_numeric_of_a_nearly_hermitian_rho_is_its_hermitian_part():
    n_max = 8
    rng = np.random.default_rng(7)
    re, im = rng.normal(size=(2, 2, n_max + 1, n_max + 1))
    a, b = re + 1j * im
    herm = a @ a.conj().T
    herm /= np.trace(herm).real
    skew = b - b.conj().T
    rho = herm + 1e-11 * skew / np.abs(skew).max()
    assert 5e-12 < np.abs(rho - rho.conj().T).max() < 5e-11
    grid = q.default_grid(n_max, 65)
    ref, ref_meta = _wigner_by_rows(rho, grid)
    w = q.wigner_numeric(q.DensityMatrix(q.fock_basis(n_max), rho), grid)
    assert w.meta == ref_meta
    assert np.abs(w.values - ref).max() < 1e-13
    # the transform reads only the Hermitian part, bit for bit
    part = q.DensityMatrix(q.fock_basis(n_max), 0.5 * (rho + rho.conj().T))
    assert np.array_equal(q.wigner_numeric(part, grid).values, w.values)


@pytest.mark.parametrize("ratio", [1.0 - 1e-9, 1.0 + 1e-9, 2.0 - 1e-9,
                                   2.0 + 1e-9, 3.0 - 1e-9, 3.0 + 1e-9])
def test_wigner_numeric_u_step_where_dx_nears_a_multiple_of_its_bound(ratio):
    # dx / du_max just below and just above an integer, where the first
    # lattice tried, r = ceil(dx / du_max), changes
    n = 2
    rng = np.random.default_rng(3)
    a = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    p_lim = 7.0
    du_max = math.pi / (2.0 * (p_lim + 2.0 * math.sqrt(n) + 4.0))
    nx = 2 * math.ceil(7.0 / (ratio * du_max)) + 1
    half = 0.5 * (nx - 1) * ratio * du_max
    grid = q.PhaseGrid(-half, half, -p_lim, p_lim, nx, 41)
    assert grid.dx / du_max == pytest.approx(ratio, rel=1e-12)
    assert (grid.dx / du_max > round(ratio)) == (ratio > round(ratio))
    ref, ref_meta = _wigner_by_rows(rho, grid)
    w = q.wigner_numeric(q.DensityMatrix(q.fock_basis(n), rho), grid)
    assert w.meta == ref_meta
    assert 0.75 * du_max <= w.meta["du"] <= du_max
    assert np.abs(w.values - ref).max() < 1e-13


def test_wigner_numeric_memory_is_bounded_on_the_kerr_cat_grid():
    # the kerr-cat scenario's state: |alpha = 2> after exp(-i pi N^2 / 2)
    start = q.coherent_state(2.0)
    n_max = start.basis.factors[0].n_max
    n = np.arange(n_max + 1)
    amps = start.amplitudes * np.exp(-1j * math.pi * n**2 / 2.0)
    rho = q.KetState(q.fock_basis(n_max), amps).to_density_matrix()
    grid = q.default_grid(n_max, 257)
    tracemalloc.start()
    try:
        w = q.wigner_numeric(rho, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the cos and sin kernels on u >= 0 take 2 x 8 nk np bytes (3.0 MB
    # here, nk = (nu + 1) / 2), the shared Hermite table and its Re and Im
    # rho products 3 x 8 (n+1) nf bytes (2.7 MB, nf 4205 lattice points),
    # and one block of integrands 8 x 2^16 bytes
    assert (w.meta["n_eff"], w.meta["nu"]) == (26, 1463)
    assert peak < 12e6
