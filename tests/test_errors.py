"""The error contract of the public API, one row per input: a degenerate
but well-typed input raises ``ValidationError`` (or the subclass of
``QuopticsError`` named in ``_EXPECT``), never a bare numpy or scipy error,
a RuntimeWarning (pytest turns those into errors) or NaN.

Every allocation whose size grows with a finite input has one bound: the
element limit of ``operators._check_size``, counted in floats before
anything is allocated.  It covers the dense operators at a Fock cutoff
(explicit or the default one that alpha, z or nbar sets), phase grids and
the tables of ``wigner_numeric``, the tau grid of ``spectrum_numeric``, the
Poisson table of ``collapse_revival``, the dense Liouvillians, the time
x wavevector table of ``wigner_weisskopf``, the jump counts of
``mcwf_evolve`` and the series that ``solve_linear`` returns.  The runaway
rows would allocate gigabytes without it."""

import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import quoptics as q
from quoptics.scenarios import physical_params
from quoptics.serialize import artifact_from_json, state_from_json

NAN, INF = math.nan, math.inf


def _cavity(n_max=2):
    return q.driven_cavity_model(q.CavityParams(1.0, 1.0, 0.0, 0.3), n_max)


def _thermal_cavity_spectrum(omega, phase=0.0):
    ops = q.fock_ops(4)
    model = q.LindbladModel(ops.a.basis, ops.n * 0.0,
                            ((0.7, ops.a), (0.3, ops.a.dag())))
    return q.spectrum_numeric(model, phase, omega, mode_op=ops.a,
                              kappa_out=1.0)


def _langevin_spectrum(omega, phase=0.0):
    return q.spectrum_numeric(q.cavity_langevin_model(1.0, 0.0, 0.0, 0.4),
                              phase, omega)


def _jump_model(rate):
    ops = q.fock_ops(2)
    return q.LindbladModel(ops.a.basis, ops.n, ((rate, ops.a),))


def _fock_projector(n):
    return q.DensityMatrix(q.fock_basis(n), np.diag([0.0] * n + [1.0]))


def _g2_series():
    return q.CorrelationSeries([0.0, 1.0], np.ones(2, dtype=complex))


def _opo_spectrum(kappa_out):
    return q.spectrum_numeric(q.opo_langevin_model(1.0, 0.3), 0.0,
                              [0.0, 1.0], kappa_out=kappa_out)


def _atom_cavity_state():
    basis = q.BasisSpec((q.Fock(1), q.TwoLevel()))
    return q.DensityMatrix(basis, np.diag([1.0, 0.0, 0.0, 0.0]))


def _two_level_elimination(t_horizon):
    pl = q.pauli_ops()
    proj = q.ProjectorPair(q.Operator(q.two_level_basis(),
                                      np.diag([0.0, 1.0]).astype(complex)))
    return q.effective_hamiltonian_2nd(pl.sz, 0.1 * pl.sx, proj, t_horizon)


_GROUND = [0.0, 0.0, -1.0]
_ONE_PHOTON = np.array([0.0, 1.0])


_ROWS = {
    # validators whose comparisons let NaN through
    "density-matrix-nan-diagonal": lambda: q.DensityMatrix(
        q.fock_basis(2), np.diag([NAN, 0.0, 0.0])).validate(),
    "evolve-master-nan-state": lambda: q.evolve_master(
        q.DensityMatrix(q.fock_basis(2), np.full((3, 3), NAN)), _cavity(),
        [0.0, 1.0]),
    "ket-nan-amplitude": lambda: q.KetState(
        q.fock_basis(2), [NAN, 0.0, 0.0]).validate(),
    "thermal-state-nan-nbar": lambda: q.thermal_state(NAN, 3),
    "lindblad-nan-rate": lambda: _jump_model(NAN),
    "lindblad-inf-rate": lambda: _jump_model(INF),
    "cavity-nan-gamma": lambda: q.CavityParams(1.0, NAN, 0.0, 0.3),
    "cavity-nan-nbar": lambda: q.CavityParams(1.0, 1.0, 0.0, 0.3, NAN),
    "rf-nan-saturation": lambda: q.RFParams(NAN, 1.0),
    "rf-nan-gamma": lambda: q.RFParams(1.0, NAN),
    "jc-nan-coupling": lambda: q.JCParams(1.0, 1.0, NAN),
    "pdc-nan-rate": lambda: q.PDCParams(0.0, NAN),
    "gaussian-nan-covariance": lambda: q.GaussianState(
        np.zeros(2), [[1.0, NAN], [NAN, 1.0]]).validate(),
    "gaussian-nan-mean": lambda: q.GaussianState(
        [NAN, 0.0], np.eye(2)).validate(),
    "purcell-nan-kappa": lambda: q.purcell_rates(1.0, NAN, 1.0, 0.0, 0.0),
    "optomech-nan-gamma": lambda: q.optomech_rates(
        0.1, 1.0, NAN, -1.0, 1.0, 0.0),
    # empty or non-finite grids
    "spectrum-langevin-empty-omega": lambda: _langevin_spectrum([]),
    "spectrum-langevin-inf-omega": lambda: _langevin_spectrum([INF]),
    "spectrum-lindblad-empty-omega": lambda: _thermal_cavity_spectrum([]),
    "spectrum-lindblad-inf-omega": lambda: _thermal_cavity_spectrum([INF]),
    "opo-g2-empty-tau": lambda: q.opo_g2(q.OPOParams(1.0, 0.3), []),
    "rf-analytics-empty-tau": lambda: q.rf_analytics(
        q.RFParams(1.0, 1.0), []),
    "correlation-nan-tau": lambda: q.CorrelationSeries(
        [0.0, NAN], np.zeros(2, dtype=complex)),
    "correlation-nan-g2": lambda: q.CorrelationSeries(
        [0.0, 1.0], np.array([1.0, NAN], dtype=complex)),
    "correlation-inf-values": lambda: q.CorrelationSeries(
        [0.0, 1.0], np.array([1.0, INF], dtype=complex), kind="generic"),
    "collapse-revival-zero-coupling": lambda: q.collapse_revival(
        4.0, 0.0, np.linspace(0.0, 1.0, 5)),
    "collapse-revival-inf-coupling": lambda: q.collapse_revival(
        4.0, INF, np.linspace(0.0, 1.0, 5)),
    "collapse-revival-empty-grid": lambda: q.collapse_revival(4.0, 1.0, []),
    "collapse-revival-nan-nbar": lambda: q.collapse_revival(
        NAN, 1.0, np.linspace(0.0, 1.0, 5)),
    "wigner-weisskopf-empty-grid": lambda: q.wigner_weisskopf(
        1.0, 100.0, t_grid=[]),
    "wigner-weisskopf-empty-k-grid": lambda: q.wigner_weisskopf(
        1.0, 100.0, k_grid=[]),
    "wigner-weisskopf-nan-gamma": lambda: q.wigner_weisskopf(NAN, 100.0),
    # non-finite physics scalars that reached the formulas
    "physical-params-nan-length": lambda: physical_params(0.01, NAN),
    "physical-params-inf-length": lambda: physical_params(0.01, INF),
    "physical-params-nan-power": lambda: physical_params(
        0.01, 1.0, p_inj=NAN),
    "physical-params-inf-phase": lambda: physical_params(
        0.01, 1.0, p_inj=1e-3, phase=INF),
    "physical-params-zero-omega": lambda: physical_params(
        0.01, 1.0, p_inj=1e-3, omega_c=0.0),
    "physical-params-complex-phase": lambda: physical_params(
        0.01, 1.0, p_inj=1e-3, phase=1j),
    "physical-params-complex-transmissivity": lambda: physical_params(
        1j, 1.0),
    "physical-params-none-transmissivity": lambda: physical_params(
        None, 1.0),
    "pdc-analysis-nan-detuning": lambda: q.pdc_analysis(q.PDCParams(NAN, 1.0)),
    "purcell-nan-detuning": lambda: q.purcell_rates(1.0, 1.0, 1.0, NAN, 0.0),
    "purcell-inf-kappa": lambda: q.purcell_rates(1.0, INF, 1.0, 0.0, 0.0),
    "optomech-inf-coupling": lambda: q.optomech_rates(
        INF, 1.0, 1.0, 0.0, 1.0, 0.0),
    "lamb-shift-inf-cutoff": lambda: q.lamb_shift_estimate(1.0, 1.0, INF),
    "lamb-shift-nan-gamma": lambda: q.lamb_shift_estimate(NAN, 1.0, 2.0),
    "jc-dressed-inf-coupling": lambda: q.jc_dressed(
        1, q.JCParams(1.0, 1.0, INF)),
    "g2-normalized-nan-mean": lambda: q.g2_normalized(_g2_series(), NAN),
    "cavity-nan-detuning": lambda: q.CavityParams(1.0, 1.0, NAN, 0.3),
    "cavity-inf-drive": lambda: q.CavityParams(1.0, 1.0, 0.0, INF),
    "jc-nan-frequency": lambda: q.JCParams(NAN, 1.0, 1.0),
    "exponential-correlator-nan-amp": lambda: q.ExponentialCorrelator(
        NAN, 1.0),
    "exponential-correlator-nan-rate": lambda: q.ExponentialCorrelator(
        1.0, NAN + 0j),
    # state constructors, cutoffs and grid sizes
    "coherent-state-nan-amplitude": lambda: q.coherent_state(NAN, 4),
    "squeezed-vacuum-inf-squeezing": lambda: q.squeezed_vacuum(INF, 4),
    "displacement-op-inf-amplitude": lambda: q.displacement_op(INF, 4),
    "thermal-state-inf-nbar": lambda: q.thermal_state(INF, 3),
    "opo-langevin-inf-gamma": lambda: q.opo_langevin_model(INF, 0.1),
    "wigner-weisskopf-inf-gamma": lambda: q.wigner_weisskopf(INF, 100.0),
    "rabi-rwa-inf-drive-frequency": lambda: q.rabi_rwa(
        _GROUND, 0.0, 1.0, [0.0, 1.0], omega=INF),
    "rabi-rwa-inf-detuning": lambda: q.rabi_rwa(_GROUND, INF, 1.0, [0.0, 1.0]),
    "squeeze-op-inf-squeezing": lambda: q.squeeze_op(INF, 4),
    "displacement-op-fractional-cutoff": lambda: q.displacement_op(0.5, 2.5),
    "squeeze-op-fractional-cutoff": lambda: q.squeeze_op(0.5, 2.5),
    "propagator-inf-time": lambda: q.propagator(q.fock_ops(2).n, INF),
    "frame-transform-inf-frequency": lambda: q.frame_transform(
        q.driven_cavity_model(q.CavityParams(1.0, 1.0, 0.0, 0.0), 3),
        q.fock_ops(3).n, INF),
    "opo-lindblad-inf-coupling": lambda: q.opo_lindblad_model(1.0, INF, 4),
    "langevin-steady-nan-gamma": lambda: q.langevin_steady(
        q.cavity_langevin_model(NAN, 0.0)),
    "fock-fractional-cutoff": lambda: q.Fock(2.5),
    "fock-nan-cutoff": lambda: q.Fock(NAN),
    "fock-bool-cutoff": lambda: q.Fock(True),
    "fock-ops-fractional-cutoff": lambda: q.fock_ops(2.5),
    "phase-grid-nan-bound": lambda: q.PhaseGrid(NAN, 1.0, -1.0, 1.0, 5, 5),
    "phase-grid-nan-size": lambda: q.PhaseGrid(-1.0, 1.0, -1.0, 1.0, NAN, 5),
    "wigner-fock-nan-number": lambda: q.wigner_fock(NAN, [0.0], [0.0]),
    "thermal-state-fractional-cutoff": lambda: q.thermal_state(0.5, 2.5),
    "coherent-state-fractional-cutoff": lambda: q.coherent_state(0.5, 2.5),
    "squeezed-vacuum-fractional-cutoff": lambda: q.squeezed_vacuum(0.5, 2.5),
    # 1-D grids that were read without a check
    "driven-cavity-analytic-nan-time": lambda: q.driven_cavity_analytic(
        q.CavityParams(1.0, 1.0, 0.0, 0.3), [0.0, NAN]),
    "driven-cavity-analytic-2d-time": lambda: q.driven_cavity_analytic(
        q.CavityParams(1.0, 1.0, 0.0, 0.3), [[0.0, 1.0]]),
    "pdc-photon-number-nan-time": lambda: q.pdc_photon_number(
        q.PDCParams(0.0, 1.0), [NAN]),
    "jc-excited-population-nan-time": lambda: q.jc_excited_population(
        _ONE_PHOTON, q.JCParams(1.0, 1.0, 1.0), [NAN]),
    "opo-spectra-empty-omega": lambda: q.opo_spectra(q.OPOParams(1.0, 0.3), []),
    "rabi-rwa-empty-grid": lambda: q.rabi_rwa(_GROUND, 0.0, 1.0, []),
    # scalars checked only after the work, or not numbers at all
    "spectrum-langevin-nan-phase": lambda: _langevin_spectrum([0.0, 1.0], NAN),
    "spectrum-lindblad-inf-phase": lambda: _thermal_cavity_spectrum(
        [0.0, 1.0], INF),
    "cavity-string-gamma": lambda: q.CavityParams(1.0, "a", 0.0, 0.0),
    "cavity-none-gamma": lambda: q.CavityParams(1.0, None, 0.0, 0.0),
    "spectrum-lindblad-foreign-mode-op": lambda: q.spectrum_numeric(
        _cavity(), 0.0, [0.0, 1.0], mode_op=q.fock_ops(3).a, kappa_out=1.0),
    "spectrum-langevin-string-kappa-out": lambda: _opo_spectrum("x"),
    "spectrum-langevin-nan-kappa-out": lambda: _opo_spectrum(NAN),
    "langevin-model-nan-drift": lambda: q.LangevinLinearModel(
        [[NAN]], [[1.0]]),
    "langevin-model-inf-diffusion": lambda: q.LangevinLinearModel(
        [[-1.0]], [[INF]]),
    "langevin-model-nan-drive": lambda: q.LangevinLinearModel(
        [[-1.0]], [[1.0]], drive=[NAN]),
    "regression-formula-wrong-coeff-shape": lambda: q.regression_formula(
        [q.fock_ops(2).a], np.eye(2), q.fock_ops(2).a_dag, q.fock_ops(2).a,
        _cavity(), [0.0, 1.0]),
    "effective-hamiltonian-nan-horizon": lambda: _two_level_elimination(NAN),
    "input-output-scale-nan-kappa": lambda: q.input_output_scale(
        _g2_series(), NAN, (1, 1)),
    "wigner-gaussian-nan-mean": lambda: q.wigner_gaussian(
        q.GaussianState([NAN, 0.0], np.eye(2)), 0.0, 0.0),
    "gaussian-moment-index-out-of-range": lambda: q.gaussian_moment(
        np.eye(2), [0, 5]),
    "partial-trace-string-keep": lambda: q.partial_trace(
        _atom_cavity_state(), keep=["a"]),
    "tensor-embed-fractional-slot": lambda: q.tensor_embed(
        q.pauli_ops().sm, 0.5, _atom_cavity_state().basis),
    "wigner-gaussian-nan-covariance": lambda: q.wigner_gaussian(
        q.GaussianState([0.0, 0.0], [[NAN, 0.0], [0.0, 1.0]]), 0.0, 0.0),
    "langevin-model-nan-kappa-out": lambda: q.LangevinLinearModel(
        [[-1.0]], [[1.0]], kappa_out=NAN),
    "langevin-model-string-kappa-out": lambda: q.LangevinLinearModel(
        [[-1.0]], [[1.0]], kappa_out="x"),
    # default Fock cutoffs whose formula overflows
    "coherent-state-huge-amplitude": lambda: q.coherent_state(1e200),
    "squeezed-vacuum-huge-squeezing": lambda: q.squeezed_vacuum(400.0),
    "thermal-state-huge-nbar": lambda: q.thermal_state(1e17),
    # states with no weight left within an explicit cutoff
    "coherent-state-beyond-cutoff": lambda: q.coherent_state(50.0, 4),
    "squeezed-vacuum-beyond-cutoff": lambda: q.squeezed_vacuum(1e17, 4),
    # serialized documents whose structure is not the one written
    "artifact-json-not-an-object": lambda: artifact_from_json("[]"),
    "state-json-not-an-object": lambda: state_from_json("[]"),
    "artifact-json-without-scenario": lambda: artifact_from_json(
        '{"columns": {}}'),
    "artifact-json-columns-list": lambda: artifact_from_json(
        '{"scenario": "s", "params": {}, "columns": [], "metadata": {}}'),
    "state-json-ket-without-basis": lambda: state_from_json(
        '{"kind": "ket", "amplitudes": {"values": [1.0]}}'),
    "state-json-fock-without-n-max": lambda: state_from_json(
        '{"kind": "ket", "basis": [{"type": "fock"}], '
        '"amplitudes": {"values": [1.0, 0.0]}}'),
    "artifact-json-string-re": lambda: artifact_from_json(
        '{"scenario": "s", "params": {}, "metadata": {}, '
        '"columns": {"c": {"re": ["a"], "im": [1]}}}'),
    "artifact-json-re-im-shapes": lambda: artifact_from_json(
        '{"scenario": "s", "params": {}, "metadata": {}, '
        '"columns": {"c": {"re": [1.0, 2.0], "im": [1.0, 2.0, 3.0]}}}'),
    "artifact-json-string-values": lambda: artifact_from_json(
        '{"scenario": "s", "params": {}, "metadata": {}, '
        '"columns": {"c": {"values": ["x"]}}}'),
    "state-json-ragged-entries": lambda: state_from_json(
        '{"kind": "density_matrix", "basis": [{"type": "fock", "n_max": 1}], '
        '"entries": {"values": [[1.0, 0.0], [0.0]]}}'),
    # sizes that grow with a finite input: each raises before allocating
    "spectrum-langevin-huge-omega": lambda: _langevin_spectrum([1e6]),
    "collapse-revival-huge-nbar": lambda: q.collapse_revival(
        1e12, 1.0, np.linspace(0.0, 1.0, 5)),
    "coherent-state-runaway-cutoff": lambda: q.coherent_state(1e5),
    "squeezed-vacuum-runaway-cutoff": lambda: q.squeezed_vacuum(10.0),
    "thermal-state-runaway-cutoff": lambda: q.thermal_state(1e9),
    "fock-ops-runaway-cutoff": lambda: q.fock_ops(10**5),
    "phase-grid-runaway-size": lambda: q.PhaseGrid(
        -1.0, 1.0, -1.0, 1.0, 10**5, 10**5),
    "wigner-numeric-runaway-u-table": lambda: q.wigner_numeric(
        _fock_projector(10), q.PhaseGrid(-0.1, 0.1, 1e6, 1e6 + 1.0, 2, 1000)),
    "wigner-numeric-runaway-hermite-rows": lambda: q.wigner_numeric(
        _fock_projector(600), q.PhaseGrid(-0.01, 0.01, 6e4, 6e4 + 0.01, 2, 2)),
    # a fine x grid puts its u points on a lattice of 1.5e7 points
    "wigner-numeric-runaway-shared-table": lambda: q.wigner_numeric(
        _fock_projector(10), q.PhaseGrid(-0.1, 0.1, -0.1, 0.1, 10**5, 2)),
    "spectrum-lindblad-runaway-dense-liouvillian": lambda: q.spectrum_numeric(
        _cavity(56), 0.0, [0.0, 1.0], mode_op=q.fock_ops(56).a,
        kappa_out=1.0),
    "build-liouvillian-runaway-dense": lambda: q.build_liouvillian(
        _cavity(56)),
    "effective-master-runaway-generator": lambda: q.effective_master_2nd(
        _cavity(56), [], {}, {}),
    "wigner-weisskopf-runaway-table": lambda: q.wigner_weisskopf(
        1.0, 100.0, t_grid=np.linspace(0.0, 5.0, 5000)),
    "solve-linear-runaway-solution": lambda: q.solve_linear(
        sp.diags(-np.ones(200_000)), np.ones(200_000),
        np.linspace(0.0, 1.0, 51)),
    "mcwf-runaway-trajectories": lambda: q.mcwf_evolve(
        q.KetState(q.fock_basis(2), [0.0, 1.0, 0.0]), _jump_model(1.0),
        [0.0, 1.0], n_traj=10**8, seed=0),
}
# rows that expect another QuopticsError subclass than ValidationError, or a
# message naming the input where a later output check would also raise one
_EXPECT = {
    "spectrum-lindblad-foreign-mode-op": (q.BasisMismatchError, None),
    "spectrum-langevin-nan-kappa-out": (q.ValidationError, "kappa_out"),
    # the grid misses most of the state, so the normalization check would
    # raise if the transform ran
    "wigner-numeric-runaway-shared-table": (q.ValidationError,
                                            "shared Hermite table"),
}


@pytest.mark.parametrize("case", sorted(_ROWS))
def test_degenerate_input_raises_validation_error(case):
    error, match = _EXPECT.get(case, (q.ValidationError, None))
    with pytest.raises(error, match=match):
        _ROWS[case]()


@pytest.mark.parametrize("n_max", [None, 4])
@pytest.mark.parametrize("value", [1e17, 1e200, 400.0, sys.float_info.max])
@pytest.mark.parametrize("build", [q.coherent_state, q.squeezed_vacuum,
                                   q.thermal_state])
def test_state_builders_take_any_finite_parameter(build, value, n_max):
    """A finite alpha, z or nbar gives a valid state or a ValidationError,
    at the default cutoff and at a fixed one."""
    try:
        state = build(value, n_max)
    except q.ValidationError:
        return
    state.validate()


@pytest.mark.parametrize("value", [400.0, 1e3, 1e17, 1e200,
                                   sys.float_info.max])
@pytest.mark.parametrize("build", [q.displacement_op, q.squeeze_op])
def test_operators_take_any_finite_amplitude(build, value):
    """A finite alpha or z gives an operator with finite entries, which
    warns that the cutoff truncates it, or a ValidationError."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            op = build(value, 4)
    except q.ValidationError:
        return
    assert np.all(np.isfinite(op.entries))


# valid values of every numeric field of the public parameter classes;
# CavityParams.omega_c is read nowhere and so is left out
_FIELDS = {
    q.CavityParams: dict(omega_c=1.0, gamma=1.0, delta=0.0, drive=0.3,
                         nbar=0.0),
    q.RFParams: dict(p_sat=1.0, gamma=1.0),
    q.JCParams: dict(omega=1.0, epsilon=1.0, g=0.5),
    q.PDCParams: dict(delta=0.0, g=1.0),
    q.OPOParams: dict(gamma=1.0, g=0.3),
    q.ExponentialCorrelator: dict(amp=1.0, rate=1.0),
    q.PhaseGrid: dict(x_min=-1.0, x_max=1.0, p_min=-1.0, p_max=1.0, nx=5,
                      np=5),
    q.Fock: dict(n_max=3),
}
_INTEGER_FIELDS = {"nx", "np", "n_max"}
_FIELD_CASES = [
    pytest.param(cls, name, bad, id=f"{cls.__name__}-{name}-{bad}")
    for cls, fields in _FIELDS.items() for name in fields
    if name != "omega_c"
    for bad in (NAN, INF, -INF) + ((2.5,) if name in _INTEGER_FIELDS else ())
]


@pytest.mark.parametrize("cls, name, bad", _FIELD_CASES)
def test_parameter_fields_reject_non_finite_and_fractional_values(
        cls, name, bad):
    cls(**_FIELDS[cls])
    with pytest.raises(q.ValidationError, match=name):
        cls(**{**_FIELDS[cls], name: bad})


def test_input_rules_have_one_owner():
    """The basis and integer rules live in operators.py; every other
    module calls them instead of writing its own copy."""
    copies = re.compile(r"raise BasisMismatchError\(|\bnp\.integer\b")
    package = Path(q.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "operators.py":
            assert not copies.search(path.read_text()), path.name


def test_size_limit_has_one_owner():
    """operators.py holds the one element limit and raises its error; every
    other module sizes its allocations through _check_size."""
    limits = re.compile(r"^_MAX_\w*\s*=", re.M)
    package = Path(q.__file__).parent
    found = {path.name: limits.findall(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert {name: v for name, v in found.items() if v} == {
        "operators.py": ["_MAX_ELEMENTS ="]}
    for path in sorted(package.glob("*.py")):
        if path.name != "operators.py":
            text = path.read_text()
            assert not re.search(r"size limit|\b10\s*\*\*\s*7\b|\b1e7\b",
                                 text), path.name
