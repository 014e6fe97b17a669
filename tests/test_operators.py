import math
import warnings

import numpy as np
import pytest

import quoptics as q
from quoptics.operators import ValidationError, herm_residual


def test_ladder_entries_and_vacuum():
    ops = q.fock_ops(4)
    # <0|a|1> = sqrt(1)
    assert ops.a.entries[0, 1] == pytest.approx(1.0)
    assert ops.a.entries[1, 2] == pytest.approx(math.sqrt(2.0))
    # a |0> = 0
    assert np.allclose(ops.a.entries[:, 0], 0.0)


def test_truncated_commutator_diagonal():
    ops = q.fock_ops(5)
    comm = ops.a.entries @ ops.a_dag.entries - ops.a_dag.entries @ ops.a.entries
    # exact up to one rounding of sqrt(n)*sqrt(n)
    assert np.allclose(np.real(np.diag(comm)),
                       np.array([1, 1, 1, 1, 1, -5.0]), atol=5e-15, rtol=0)
    off = comm - np.diag(np.diag(comm))
    assert np.abs(off).max() == 0.0


def test_rejects_zero_cutoff():
    with pytest.raises(ValidationError):
        q.fock_ops(0)


def test_pauli_algebra():
    p = q.pauli_ops()
    assert np.allclose((p.sx @ p.sy).entries, 1j * p.sz.entries)
    for op in (p.sx, p.sy, p.sz):
        assert op.entries.trace() == pytest.approx(0.0)
        # sigma_j^2 = identity
        assert np.allclose((op @ op).entries, np.eye(2))
    assert np.abs((p.sm @ p.sm).entries).max() == 0.0
    # anticommutators: {s_j, s_k} = 2 delta_jk
    mats = [p.sx.entries, p.sy.entries, p.sz.entries]
    for j in range(3):
        for k in range(3):
            anti = mats[j] @ mats[k] + mats[k] @ mats[j]
            expected = 2.0 * np.eye(2) if j == k else np.zeros((2, 2))
            assert np.array_equal(anti, expected)


def test_tensor_embed_block_structure():
    basis = q.BasisSpec((q.Fock(1), q.TwoLevel()))
    sz = q.tensor_embed(q.pauli_ops().sz, 1, basis)
    assert np.allclose(np.diag(sz.entries), [1, -1, 1, -1])
    ident = q.tensor_embed(q.identity(q.two_level_basis()), 1, basis)
    assert np.allclose(ident.entries, np.eye(4))


def test_tensor_embed_matrix_element():
    basis = q.BasisSpec((q.Fock(3), q.TwoLevel()))
    ops = q.fock_ops(3)
    a_full = q.tensor_embed(ops.a, 0, basis)
    sp_full = q.tensor_embed(q.pauli_ops().sp, 1, basis)
    prod = a_full @ sp_full
    # <1,e| a sigma^dag |2,g> = sqrt(2); e is index 0, g index 1
    row = 1 * 2 + 0
    col = 2 * 2 + 1
    assert prod.entries[row, col] == pytest.approx(math.sqrt(2.0))


def test_displacement_vacuum_column_and_composition():
    alpha = 0.7 + 0.3j
    n_max = 25
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # columns near the cutoff do leak
        d = q.displacement_op(alpha, n_max)
    n = np.arange(n_max + 1)
    from scipy.special import gammaln
    amps = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(abs(alpha))
                  - 0.5 * gammaln(n + 1.0)) * np.exp(1j * np.angle(alpha) * n)
    # column 0 of D(alpha) holds the exact coherent amplitudes
    assert np.allclose(d.entries[:, 0], amps, atol=1e-13)
    assert np.allclose(q.displacement_op(0.0, 5).entries, np.eye(6))
    beta = -0.2 + 0.5j
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lhs = (q.displacement_op(alpha, n_max)
               @ q.displacement_op(beta, n_max)).entries
        phase = np.exp(1j * np.imag(alpha * np.conj(beta)))
        rhs = phase * q.displacement_op(alpha + beta, n_max).entries
    keep = 10
    assert np.abs(lhs - rhs)[:keep, :keep].max() < 1e-8


def test_squeeze_transformation_and_parity():
    r = 0.4
    n_max = 60
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = q.squeeze_op(r, n_max)
    ops = q.fock_ops(n_max)
    lhs = s.dag() @ ops.a @ s
    rhs = math.cosh(r) * ops.a - math.sinh(r) * ops.a_dag
    keep = 12
    assert np.abs((lhs - rhs).entries)[:keep, :keep].max() < 1e-8
    assert np.allclose(q.squeeze_op(0.0, 5).entries, np.eye(6))
    sv = q.squeezed_vacuum(r, n_max)
    assert np.abs(sv.amplitudes[1::2]).max() == 0.0
    # complex squeezing parameter: S(z)|0> matches the even-Fock formula
    z = 0.5 * np.exp(0.8j)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sz = q.squeeze_op(z, 40)
    sv2 = q.squeezed_vacuum(z, 40)
    col = sz.entries[:, 0]
    assert np.abs(col / np.linalg.norm(col) - sv2.amplitudes).max() < 1e-10


def test_coherent_moments():
    alpha = 1.3 - 0.4j
    st = q.coherent_state(alpha)
    ops = q.fock_ops(st.basis.factors[0].n_max)
    assert q.expectation(ops.n, st).real == pytest.approx(abs(alpha) ** 2,
                                                          abs=1e-9)
    assert math.sqrt(q.variance(ops.n, st)) == pytest.approx(abs(alpha),
                                                             abs=1e-8)


@pytest.mark.parametrize("alpha", [-1.2, 1.2, -2.0 + 0j, 3])
def test_coherent_state_of_a_real_amplitude_is_real(alpha):
    # the phases are exactly 1 or (-1)^n; exp(i pi n) left 1e-16
    st = q.coherent_state(alpha, 10)
    assert not st.amplitudes.imag.any()
    signs = np.sign(st.amplitudes.real)
    assert np.array_equal(signs, np.sign(complex(alpha).real)
                          ** np.arange(11))


def test_wigner_gallery_cat_is_a_real_density_matrix():
    # so that wigner_numeric skips the sine half of its transform
    from quoptics.scenarios import _gallery_state

    rho = _gallery_state({"state": "cat", "alpha": 2.0})
    assert not rho.entries.imag.any()


def test_squeezed_vacuum_number_statistics():
    r = 0.8
    st = q.squeezed_vacuum(r)
    ops = q.fock_ops(st.basis.factors[0].n_max)
    sh2 = math.sinh(r) ** 2
    assert q.expectation(ops.n, st).real == pytest.approx(sh2, abs=1e-8)
    expected_var = math.sinh(r) ** 4 + sh2 + 0.25 * math.sinh(2 * r) ** 2
    assert q.variance(ops.n, st) == pytest.approx(expected_var, rel=1e-7)


def test_thermal_state_distribution():
    nbar = 1.7
    rho = q.thermal_state(nbar)
    p = np.real(np.diag(rho.entries))
    n = np.arange(p.size)
    expected = nbar**n / (1 + nbar) ** (1 + n)
    assert np.allclose(p, expected / expected.sum(), atol=1e-14)
    vac = q.thermal_state(0.0, 4)
    expected_vac = np.zeros((5, 5))
    expected_vac[0, 0] = 1.0
    assert np.array_equal(vac.entries.real, expected_vac)
    with pytest.raises(ValidationError):
        q.thermal_state(-0.1)


def test_partial_trace_product_and_bell():
    rho_a = q.thermal_state(0.5, 3)
    pauli_dm = q.DensityMatrix(q.two_level_basis(),
                               np.array([[0.25, 0], [0, 0.75]], dtype=complex))
    basis = q.BasisSpec((q.Fock(3), q.TwoLevel()))
    joint = q.DensityMatrix(basis, np.kron(rho_a.entries, pauli_dm.entries))
    red = q.partial_trace(joint, keep=[0])
    assert np.allclose(red.entries, rho_a.entries, atol=1e-14)
    assert np.trace(red.entries) == pytest.approx(1.0)

    # (|0,g> + |1,e>)/sqrt 2 reduces to the maximally mixed atom
    amps = np.zeros(basis.total_dim, dtype=complex)
    amps[0 * 2 + 1] = 1 / math.sqrt(2)
    amps[1 * 2 + 0] = 1 / math.sqrt(2)
    bell = q.KetState(basis, amps).to_density_matrix()
    atom = q.partial_trace(bell, keep=[1])
    assert np.allclose(atom.entries, 0.5 * np.eye(2), atol=1e-14)
    with pytest.raises(ValidationError):
        q.partial_trace(bell, keep=[])


def test_expectation_fock_state():
    st_amp = np.zeros(6)
    st_amp[3] = 1.0
    st = q.KetState(q.fock_basis(5), st_amp)
    assert q.expectation(q.fock_ops(5).n, st).real == pytest.approx(3.0)


def test_propagator_properties():
    eps = 1.3
    h = 0.5 * eps * q.pauli_ops().sz
    t1, t2 = 0.31, 1.17
    u1 = q.propagator(h, t1)
    u2 = q.propagator(h, t2)
    u12 = q.propagator(h, t1 + t2)
    assert np.abs((u1 @ u2).entries - u12.entries).max() < 1e-10
    assert np.abs((u1.dag() @ u1).entries - np.eye(2)).max() < 1e-12
    assert np.allclose(q.propagator(0.0 * h, 2.0).entries, np.eye(2))
    # <sigma(t)> rotates as e^{-i eps t}
    psi = q.KetState(q.two_level_basis(),
                     np.array([1, 1], dtype=complex) / math.sqrt(2))
    sm = q.pauli_ops().sm
    heis = u1.dag() @ sm @ u1
    before = q.expectation(sm, psi)
    after = q.expectation(heis, psi)
    assert after == pytest.approx(before * np.exp(-1j * eps * t1))
    with pytest.raises(ValidationError):
        q.propagator(q.Operator(q.two_level_basis(),
                                np.array([[0, 1], [0, 0]], dtype=complex)), 1.0)


def test_coherent_annihilation_residual_decreases_with_cutoff():
    alpha = 2.0
    res = []
    for n_max in (12, 20, 30):
        st = q.coherent_state(alpha, n_max)
        ops = q.fock_ops(n_max)
        vec = (ops.a.entries - alpha * np.eye(n_max + 1)) @ st.amplitudes
        res.append(np.linalg.norm(vec))
    assert res[2] < res[1] < res[0]
    assert res[2] < 1e-4


def test_displacement_truncation_warning():
    with pytest.warns(UserWarning):
        q.displacement_op(3.0, 6)


def test_density_matrix_validation_catches_bad_state():
    bad = q.DensityMatrix(q.two_level_basis(),
                          np.array([[1.2, 0], [0, -0.2]], dtype=complex))
    with pytest.raises(ValidationError):
        bad.validate()


@pytest.mark.parametrize("scale", [1.0 - 1e-6, 1.0 + 1e-6])
def test_positivity_check_agrees_with_eigvalsh_at_the_edge(scale):
    # least eigenvalue -eps_psd (1 -+ 1e-6), 1e-14 from the edge, about 50
    # times the round-off of a Cholesky factor at d 6: the factor decides
    # where it exists, eigvalsh where it fails, and both must decide as
    # eigvalsh
    eps = q.DEFAULT.eps_psd
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    w = np.array([-eps * scale, 0.1, 0.15, 0.2, 0.25, 0.0])
    w[-1] = 1.0 - w[:-1].sum()
    rho = (u * w) @ u.conj().T
    state = q.DensityMatrix(q.fock_basis(5), 0.5 * (rho + rho.conj().T))
    accepted = np.linalg.eigvalsh(state.entries).min() >= -eps
    assert accepted == (scale < 1.0)
    try:
        np.linalg.cholesky(state.entries + eps * np.eye(6))
        factored = True
    except np.linalg.LinAlgError:
        factored = False
    assert factored == accepted
    if accepted:
        state.validate()
    else:
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            state.validate()


def test_operator_immutable():
    op = q.fock_ops(2).a
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0


# each value type built from writeable caller arrays: (type, its arguments,
# and per held array the caller's input and the expected dtype)
_VALUE_TYPES = {
    "CorrelationSeries": lambda: (q.CorrelationSeries, {
        "tau": np.array([0.0, 0.5, 1.0]),
        "values": np.array([2.0, 1.5, 1.0], dtype=complex)}, {
        "tau": float, "values": complex}),
    "SpectrumSeries": lambda: (q.SpectrumSeries, {
        "omega": np.array([-1.0, 0.0, 1.0]),
        "values": np.array([0.1, 0.4, 0.1])}, {
        "omega": float, "values": float}),
    "WignerGrid": lambda: (q.WignerGrid, {
        "grid": q.PhaseGrid(-1.0, 1.0, -1.0, 1.0, 2, 3),
        "values": np.arange(6.0).reshape(2, 3)}, {"values": float}),
    "GaussianState": lambda: (q.GaussianState, {
        "d": np.array([0.3, -0.2]), "v": np.eye(2)}, {
        "d": float, "v": float}),
    "SymplecticMap": lambda: (q.SymplecticMap, {
        "s": np.eye(2), "a": np.array([1.0, 2.0])}, {
        "s": float, "a": float}),
    "LangevinLinearModel": lambda: (q.LangevinLinearModel, {
        "a": -np.eye(2, dtype=complex), "d": np.diag([2.0, 0.0]),
        "drive": np.array([0.5, 0.5])}, {
        "a": complex, "d": complex, "drive": complex}),
    "Superoperator": lambda: (q.Superoperator, {
        "matrix": -np.eye(4, dtype=complex),
        "basis": q.two_level_basis()}, {"matrix": complex}),
}


@pytest.mark.parametrize("name", sorted(_VALUE_TYPES))
def test_value_types_hold_private_read_only_arrays(name):
    cls, args, held = _VALUE_TYPES[name]()
    value = cls(**args)
    for field_name, dtype in held.items():
        arr = getattr(value, field_name)
        assert arr.dtype == dtype and not arr.flags.writeable
        before = arr.copy()
        with pytest.raises(ValueError):
            arr[...] = 7.0
        args[field_name][...] = 7.0
        assert np.array_equal(arr, before)


def test_hermiticity_helper():
    assert herm_residual(np.array([[0, 1j], [1j, 0]])) == pytest.approx(2.0)


def test_tensor_embed_errors():
    basis = q.BasisSpec((q.Fock(2), q.TwoLevel()))
    with pytest.raises(q.ValidationError):
        q.tensor_embed(q.pauli_ops().sz, 5, basis)
    with pytest.raises(q.BasisMismatchError):
        q.tensor_embed(q.pauli_ops().sz, 0, basis)  # 2x2 into dim-3 slot


def test_partial_trace_bad_indices():
    rho = q.thermal_state(0.2, 3)
    with pytest.raises(q.ValidationError):
        q.partial_trace(rho, keep=[2])


def test_expectation_basis_mismatch():
    with pytest.raises(q.BasisMismatchError):
        q.expectation(q.pauli_ops().sz, q.coherent_state(0.1, 3))


def test_quadrature_expectations_on_reference_states():
    coh = q.coherent_state(1.0)
    ops = q.fock_ops(coh.basis.factors[0].n_max)
    assert q.expectation(ops.x, coh).real == pytest.approx(2.0, abs=1e-9)
    vac_amp = np.zeros(6)
    vac_amp[0] = 1.0
    vac = q.KetState(q.fock_basis(5), vac_amp)
    ops5 = q.fock_ops(5)
    assert q.variance(ops5.x, vac) == pytest.approx(1.0)
    assert q.variance(ops5.p, vac) == pytest.approx(1.0)
