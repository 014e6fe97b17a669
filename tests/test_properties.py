"""Property tests of the Liouvillian on random small Lindblad models and of
the linear propagator on random generators."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import quoptics as q
from quoptics import dynamics
from quoptics.lindblad import unvec, vec

from lindblad_reference import lindblad_rhs

SETTINGS = q.DEFAULT


def _random_matrix(rng, d: int) -> np.ndarray:
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


@st.composite
def small_models(draw, damped: bool = False):
    """d in 2..4, Hermitian H and 0..3 jump operators with random rates;
    ``damped`` makes the first rate at least 0.1, so that the steady state
    is unique."""
    d = draw(st.integers(2, 4))
    rates = draw(st.lists(st.floats(0.0, 2.0), min_size=0, max_size=3))
    if damped:
        rates = [draw(st.floats(0.1, 2.0))] + rates[:2]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = q.fock_basis(d - 1)
    x = _random_matrix(rng, d)
    h = q.Operator(basis, 0.5 * (x + x.conj().T))
    jumps = tuple((rate, q.Operator(basis, _random_matrix(rng, d) / d))
                  for rate in rates)
    return q.LindbladModel(basis, h, jumps), rng


@settings(max_examples=60, deadline=None)
@given(small_models())
def test_liouvillian_matrix_applies_lindblad_rhs(model_rng):
    m, rng = model_rng
    d = m.basis.total_dim
    x = _random_matrix(rng, d)
    liouv = m.liouvillian.toarray()
    scale = max(1.0, float(np.abs(liouv).max())) * float(np.abs(x).max())
    direct = vec(lindblad_rhs(m, x))
    assert np.abs(liouv @ vec(x) - direct).max() < 1e-13 * d * scale
    # the trace row vec(I)^dag L vanishes: evolution preserves the trace
    trace_residual = np.abs(vec(np.eye(d)) @ liouv).max()
    assert trace_residual < SETTINGS.eps_sup * max(
        1.0, float(np.abs(liouv).max()))


@settings(max_examples=40, deadline=None)
@given(small_models(), st.floats(0.1, 3.0))
def test_evolve_master_keeps_unit_trace_and_positivity(model_rng, t_max):
    m, rng = model_rng
    x = _random_matrix(rng, m.basis.total_dim)
    rho_m = x @ x.conj().T
    rho0 = q.DensityMatrix(m.basis, rho_m / rho_m.trace().real)
    for rho in q.evolve_master(rho0, m, np.linspace(0.0, t_max, 6)):
        assert abs(np.trace(rho.entries) - 1.0) < SETTINGS.eps_tr
        assert np.linalg.eigvalsh(rho.entries).min() > -SETTINGS.eps_psd


@settings(max_examples=40, deadline=None)
@given(small_models(damped=True))
def test_steady_state_is_a_unit_trace_psd_null_vector(model_rng):
    m, _ = model_rng
    rho = q.steady_state(m).entries
    liouv = m.liouvillian.toarray()
    assert abs(np.trace(rho) - 1.0) < SETTINGS.eps_tr
    assert np.linalg.eigvalsh(rho).min() > -SETTINGS.eps_psd
    scale = max(1.0, float(np.abs(liouv).max()))
    assert np.abs(liouv @ vec(rho)).max() < 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(small_models(damped=True))
def test_steady_state_is_the_smallest_singular_vector(model_rng):
    m, _ = model_rng
    liouv = m.liouvillian.toarray()
    # right singular vector of the smallest singular value, unit trace
    null = np.linalg.svd(liouv)[2][-1].conj()
    ref = unvec(null / np.trace(unvec(null)))
    assert np.abs(q.steady_state(m).entries - ref).max() < 1e-10


@st.composite
def diagonal_models(draw):
    """d in 2..4, random diagonal H and jumps drawn from a, a^dag and n, the
    first of them a or a^dag with rate at least 0.1."""
    d = draw(st.integers(2, 4))
    ops = q.fock_ops(d - 1)
    basis = q.fock_basis(d - 1)
    energies = draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d))
    h = q.Operator(basis, np.diag(energies).astype(complex))
    names = [draw(st.sampled_from(["a", "a_dag"]))] + draw(
        st.lists(st.sampled_from(["a", "a_dag", "n"]), max_size=2))
    rates = [draw(st.floats(0.1, 2.0))] + [
        draw(st.floats(0.0, 2.0)) for _ in names[1:]]
    jumps = tuple((rate, getattr(ops, name))
                  for rate, name in zip(rates, names))
    return q.LindbladModel(basis, h, jumps), ops


@settings(max_examples=40, deadline=None)
@given(diagonal_models(), st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
def test_frame_transform_leaves_populations_and_photon_number(
        model_ops, frequency, seed):
    m, ops = model_ops
    rotated = q.frame_transform(m, ops.n, frequency)
    pops = [np.diag(q.steady_state(model).entries) for model in (m, rotated)]
    assert np.abs(pops[0] - pops[1]).max() < 1e-10
    x = _random_matrix(np.random.default_rng(seed), m.basis.total_dim)
    rho_m = x @ x.conj().T
    rho0 = q.DensityMatrix(m.basis, rho_m / rho_m.trace().real)
    t = np.linspace(0.0, 2.0, 5)
    n_t = [[q.expectation(ops.n, rho).real
            for rho in q.evolve_master(rho0, model, t)]
           for model in (m, rotated)]
    assert np.abs(np.subtract(*n_t)).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(small_models(damped=True))
def test_regression_correlator_at_zero_delay_is_the_direct_expectation(
        model_rng):
    m, rng = model_rng
    a, b, c = (_random_matrix(rng, m.basis.total_dim) for _ in range(3))
    rho = q.steady_state(m).entries
    series = q.regression_correlator(
        q.Operator(m.basis, a), q.Operator(m.basis, b),
        q.Operator(m.basis, c), m, np.linspace(0.0, 1.0, 3))
    direct = np.trace(b @ c @ rho @ a)
    scale = np.prod([np.linalg.norm(x) for x in (a, b, c)])
    assert abs(series.values[0] - direct) < 1e-12 * scale


@st.composite
def linear_problems(draw):
    """n in 1..4, a random complex B, for n >= 2 optionally upper triangular
    with a leading Jordan block; a non-uniform grid whose steps repeat, and
    a vector x0."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = _random_matrix(rng, n)
    if n >= 2 and draw(st.booleans()):
        b = np.triu(b)
        b[1, 1] = b[0, 0]
        b[0, 1] = 1.0
    step_set = draw(st.lists(st.floats(0.01, 0.4), min_size=1, max_size=3))
    steps = draw(st.lists(st.sampled_from(step_set), min_size=0, max_size=10))
    t = draw(st.floats(-1.0, 1.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    x0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    return b, x0, t


@settings(max_examples=80, deadline=None)
@given(linear_problems())
def test_solve_linear_matches_the_matrix_exponential(problem):
    b, x0, t = problem
    out = q.solve_linear(b, x0, t)
    assert out.shape == (t.size,) + x0.shape
    for tk, xk in zip(t, out):
        prop = expm(b * (tk - t[0]))
        scale = np.linalg.norm(prop, 2) * np.linalg.norm(x0)
        assert np.abs(xk - prop @ x0).max() <= 1e-10 * scale


@st.composite
def long_grid_problems(draw):
    """d in 2..6, a random complex B shifted so that its eigenvalues have
    real parts in [-0.5, 0], on a linspace grid of 200..3000 points over a
    span of 1..30; a seed x0 and a read-out v."""
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = _random_matrix(rng, d) / np.sqrt(d)
    shift = np.linalg.eigvals(r).real.max() + draw(st.floats(0.0, 0.5))
    t = draw(st.floats(-1.0, 1.0)) + np.linspace(
        0.0, draw(st.floats(1.0, 30.0)), draw(st.integers(200, 3000)))
    x0 = rng.normal(size=d) + 1j * rng.normal(size=d)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return r - shift * np.eye(d), x0, v, t


@settings(max_examples=20, deadline=None)
@given(long_grid_problems())
def test_block_read_out_matches_the_matrix_exponential(problem):
    # grids this long take the dense route in blocks of K > 1 points, with
    # and without a read-out; each point within 1e-12 of exp(B t_k) x0 as
    # scaled in test_solve_linear_propagates_only_the_seeded_blocks, and
    # times |v| for the read-out (the worst of 60 derandomized draws read
    # 1.0e-13 on the series and on the read-out)
    b, x0, v, t = problem
    d = x0.size
    assert dynamics._dense_cost(d, t.size, 1, d)[0] > 1
    assert dynamics._dense_cost(d, t.size, 1, 1)[0] > 1
    out = q.solve_linear(b, x0, t)
    readout = q.solve_linear(b, x0, t, readout=v)
    for tk, xk, rk in zip(t, out, readout):
        prop = expm(b * (tk - t[0]))
        scale = np.linalg.norm(prop, 2) * np.linalg.norm(x0)
        assert np.abs(xk - prop @ x0).max() <= 1e-12 * scale
        assert abs(rk - v @ (prop @ x0)) <= 1e-12 * scale * np.linalg.norm(v)


@st.composite
def block_problems(draw):
    """B made of 1..4 random blocks of 1..4 rows with its rows shuffled,
    dense or CSR; the vector x0 is nonzero on the rows of one or more seeded
    blocks and exactly zero elsewhere."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    seeded = draw(st.sets(st.integers(0, len(sizes) - 1), min_size=1))
    n = sum(sizes)
    b = np.zeros((n, n), dtype=complex)
    ends = np.cumsum(sizes)
    for d, end in zip(sizes, ends):
        b[end - d:end, end - d:end] = _random_matrix(rng, d) / d
    perm = rng.permutation(n)
    b = b[np.ix_(perm, perm)]
    block = np.repeat(np.arange(len(sizes)), sizes)[perm]
    if draw(st.booleans()):
        b = sp.csr_matrix(b)
    x0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    x0[~np.isin(block, list(seeded))] = 0.0
    steps = draw(st.lists(st.sampled_from([0.1, 0.25, 0.4]), min_size=0,
                          max_size=8))
    t = draw(st.floats(-1.0, 1.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    return b, x0, t, np.isin(block, list(seeded))


@settings(max_examples=80, deadline=None)
@given(block_problems())
def test_solve_linear_propagates_only_the_seeded_blocks(problem):
    b, x0, t, seeded = problem
    out = q.solve_linear(b, x0, t)
    assert out.shape == (t.size,) + x0.shape
    assert not out[:, ~seeded].any()
    full = b.toarray() if sp.issparse(b) else b
    for tk, xk in zip(t, out):
        prop = expm(full * (tk - t[0]))
        scale = np.linalg.norm(prop, 2) * np.linalg.norm(x0)
        assert np.abs(xk - prop @ x0).max() <= 1e-12 * scale
    # a read-out that is nonzero on every row, the unseeded ones too,
    # within 1e-15 of each step's sum of |v_i x_i|
    v = np.arange(1.0, x0.size + 1) * (1.0 - 0.5j)
    readout = q.solve_linear(b, x0, t, readout=v)
    assert readout.shape == (t.size,)
    assert np.all(np.abs(readout - out @ v)
                  <= 1e-15 * (np.abs(out) @ np.abs(v)))
