"""The error contract of the public API, one row per input: a degenerate
but well-typed input raises ``ValidationError``, never a bare numpy or
scipy error, a RuntimeWarning (pytest turns those into errors) or NaN.

No row hands a large finite frequency or photon number to
``spectrum_numeric`` or ``collapse_revival``: their tau grid and Poisson
window grow with it, and no bound on that size exists yet."""

import math

import numpy as np
import pytest

import quoptics as q

NAN, INF = math.nan, math.inf


def _cavity(n_max=2):
    return q.driven_cavity_model(q.CavityParams(1.0, 1.0, 0.0, 0.3), n_max)


def _thermal_cavity_spectrum(omega):
    ops = q.fock_ops(4)
    model = q.LindbladModel(ops.a.basis, ops.n * 0.0,
                            ((0.7, ops.a), (0.3, ops.a.dag())))
    return q.spectrum_numeric(model, 0.0, omega, mode_op=ops.a,
                              kappa_out=1.0)


def _langevin_spectrum(omega):
    return q.spectrum_numeric(q.cavity_langevin_model(1.0, 0.0, 0.0, 0.4),
                              0.0, omega)


def _jump_model(rate):
    ops = q.fock_ops(2)
    return q.LindbladModel(ops.a.basis, ops.n, ((rate, ops.a),))


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
}


@pytest.mark.parametrize("case", sorted(_ROWS))
def test_degenerate_input_raises_validation_error(case):
    with pytest.raises(q.ValidationError):
        _ROWS[case]()
