"""Two-time correlation functions, photon statistics, and noise spectra.

Stationary correlators are evaluated in the Schroedinger picture as
tr{B exp(L tau)[C rho A]}; closed operator sets go through the moment-matrix
shortcut after an explicit closure verification.  Spectra are one-sided
Fourier transforms of stationary covariances, exploiting c(-tau) = c(tau)*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from .dynamics import solve_linear
from .lindblad import (
    LangevinLinearModel,
    LindbladModel,
    langevin_steady,
    steady_state,
    unvec,
    vec,
)
from .operators import (
    DensityMatrix,
    Operator,
    QuopticsError,
    ValidationError,
    _check_basis,
    _check_scalars,
    _check_size,
    _finite_grid,
    _frozen,
    fock_basis,
    fock_ops,
)
from .settings import DEFAULT


# ---------------------------------------------------------------------------
# Series containers
# ---------------------------------------------------------------------------

# largest |Im G2|, per max(1, max|G2|), still counted as regression round-off
_G2_IMAG_TOL = 1e-8


@dataclass(frozen=True)
class CorrelationSeries:
    tau: np.ndarray
    values: np.ndarray
    kind: str = "G2"
    normalization: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        tau = _finite_grid(_frozen(self.tau, float), "tau")
        vals = _frozen(self.values)
        if tau[0] != 0.0 or np.any(np.diff(tau) <= 0):
            raise ValidationError("tau grid must increase strictly from 0")
        if vals.shape != tau.shape:
            raise ValidationError("tau/values length mismatch")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "values", vals)
        if self.kind == "G2" and np.max(np.abs(vals.imag)) > (
                _G2_IMAG_TOL * max(1.0, np.max(np.abs(vals)))):
            raise ValidationError("G2 correlators must be real")


@dataclass(frozen=True)
class SpectrumSeries:
    omega: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        om = _frozen(self.omega, float)
        vals = _frozen(self.values, float)
        if not (np.all(np.isfinite(om)) and np.all(np.isfinite(vals))):
            raise ValidationError("spectrum values must be finite")
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "values", vals)


# ---------------------------------------------------------------------------
# Quantum regression
# ---------------------------------------------------------------------------

def regression_correlator(a: Operator, b: Operator, c: Operator,
                          m: LindbladModel, tau_grid,
                          initial="steady") -> CorrelationSeries:
    """lim_t <A(t) B(t+tau) C(t)> = tr{B exp(L tau)[C rho A]}.

    ``initial`` is the steady state by default; pass a DensityMatrix to
    correlate from a specific state instead.
    """
    for op in (a, b, c):
        _check_basis(op.basis, m.basis)
    rho = steady_state(m) if initial == "steady" else initial
    tau = np.asarray(tau_grid, dtype=float)
    values = _regression(m.liouvillian, b.entries,
                         c.entries @ rho.entries @ a.entries, tau)
    return CorrelationSeries(tau=tau, values=values, kind="generic")


def _regression(liouv, b: np.ndarray, seed: np.ndarray,
                tau: np.ndarray) -> np.ndarray:
    """tr{B exp(L tau)[seed]} along tau for the model's built sparse L
    (the quantum regression theorem): ``solve_linear``'s read-out of the
    linear functional tr{B X} = vec(B^T) . vec(X), taken of each vec(X) as
    it is propagated, so no series of states is held."""
    return solve_linear(liouv, vec(seed), tau, readout=vec(b.T))


def g2_normalized(series: CorrelationSeries, n_mean: float) -> CorrelationSeries:
    """Divide an intensity correlator by the squared mean photon number."""
    _check_scalars("> 0", n_mean=n_mean)
    return CorrelationSeries(
        tau=series.tau, values=series.values / n_mean**2, kind="G2",
        normalization={"n_mean": n_mean},
    )


# closure of the operator set is checked on this many random states
_CLOSURE_CHECKS = 12
_CLOSURE_SEED = 7


def regression_formula(ops, coeff: np.ndarray, a: Operator, c: Operator,
                       m: LindbladModel, tau_grid,
                       initial="steady") -> list[CorrelationSeries]:
    """Two-time correlators of a closed operator set from its moment matrix.

    Verifies (on random states) that d<B_j>/dt = sum_k M_jk <B_k> before
    solving d/dtau <A B_j(t+tau) C> = M <A B(t+tau) C> with initial
    condition tr{A B_j C rho}.
    """
    for op in ops:
        _check_basis(op.basis, m.basis)
    coeff = np.asarray(coeff, dtype=complex)
    if coeff.shape != (len(ops), len(ops)):
        raise ValidationError(
            f"coeff must be {len(ops)} x {len(ops)}, got shape {coeff.shape}")
    dim = m.basis.total_dim
    rng = np.random.default_rng(_CLOSURE_SEED)
    # random check states are damped toward high indices: moment equations
    # on a truncated ladder only close away from the cutoff
    envelope = np.exp(-0.5 * np.arange(dim))
    for _ in range(_CLOSURE_CHECKS):
        r = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        r *= envelope[:, None]
        rho_m = r @ r.conj().T
        rho = DensityMatrix(m.basis, rho_m / rho_m.trace())
        moments = np.array([np.trace(op.entries @ rho.entries) for op in ops])
        # d<B_j>/dt = tr(B_j L[rho]), as moment_rhs, with L[rho] formed once
        l_rho = unvec(m.liouvillian @ vec(rho.entries))
        rhs = np.array([np.trace(op.entries @ l_rho) for op in ops])
        resid = np.max(np.abs(rhs - coeff @ moments))
        scale = max(1.0, float(np.max(np.abs(moments))),
                    float(np.max(np.abs(coeff))))
        if resid > DEFAULT.eps_close * scale:
            raise QuopticsError(
                f"operator set does not close: residual {resid:.3e}"
            )
    rho = steady_state(m) if initial == "steady" else initial
    g0 = np.array([
        np.trace(a.entries @ op.entries @ c.entries @ rho.entries) for op in ops
    ])
    tau = np.asarray(tau_grid, dtype=float)
    g = solve_linear(coeff, g0, tau)
    return [
        CorrelationSeries(tau=tau, values=g[:, j], kind="generic")
        for j in range(len(ops))
    ]


# ---------------------------------------------------------------------------
# Resonance fluorescence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RFParams:
    """Saturation parameter P = |E|^2 / (gamma^2 + Delta^2) plus decay rate."""

    p_sat: float
    gamma: float

    def __post_init__(self):
        _check_scalars(">= 0", p_sat=self.p_sat)
        _check_scalars("> 0", gamma=self.gamma)


@dataclass(frozen=True)
class RFAnalytics:
    pe_bar: float
    g2: CorrelationSeries


# |9 - 16 P| below this is the critical P = 9/16, where the g2 body is 1 + 5 x
_RF_DISC_TOL = 1e-12


def rf_analytics(p: RFParams, tau_grid) -> RFAnalytics:
    """Steady excitation and the antibunched intensity correlation.

    pe_bar = P / (2 (1 + P)).  On resonance the normalized correlation obeys
    p'' + 5 gamma p' + 4 gamma^2 (1+P) p = 2 gamma^2 P with p(0) = p'(0) = 0,
    whose solution is 1 - e^{-5 gamma tau / 2} [cosh(r gamma tau / 2)
    + 5 sinh(r gamma tau / 2) / r], r = sqrt(9 - 16 P); for P > 9/16 the
    hyperbolic pair turns trigonometric, so values stay real by construction.
    """
    tau = np.asarray(tau_grid, dtype=float)
    pe_bar = p.p_sat / (2.0 * (1.0 + p.p_sat))
    disc = 9.0 - 16.0 * p.p_sat
    x = 0.5 * p.gamma * tau
    if disc > _RF_DISC_TOL:
        r = math.sqrt(disc)
        body = np.cosh(r * x) + 5.0 * np.sinh(r * x) / r
    elif disc < -_RF_DISC_TOL:
        s = math.sqrt(-disc)
        body = np.cos(s * x) + 5.0 * np.sin(s * x) / s
    else:
        body = 1.0 + 5.0 * x
    vals = 1.0 - np.exp(-5.0 * x) * body
    g2 = CorrelationSeries(tau=tau, values=vals.astype(complex), kind="G2",
                           normalization={"pe_bar": pe_bar})
    return RFAnalytics(pe_bar=pe_bar, g2=g2)


# ---------------------------------------------------------------------------
# Below-threshold OPO
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OPOParams:
    gamma: float
    g: float

    def __post_init__(self):
        _check_scalars(">= 0", gamma=self.gamma, g=self.g)
        if not self.g < self.gamma:
            raise ValidationError("below threshold requires 0 <= g < gamma")

    @property
    def sigma(self) -> float:
        return self.g / self.gamma


def opo_spectra(p: OPOParams, omega_grid) -> tuple[SpectrumSeries, SpectrumSeries]:
    """Output quadrature noise spectra of the resonant below-threshold OPO.

    V0 = 1 + 4 sigma / ((1-sigma)^2 + (w/gamma)^2) (antisqueezed) and
    Vpi2 = 1 - 4 sigma / ((1+sigma)^2 + (w/gamma)^2); their product is 1.
    """
    om = _finite_grid(omega_grid, "omega_grid")
    s = p.sigma
    x2 = (om / p.gamma) ** 2
    v0 = 1.0 + 4.0 * s / ((1.0 - s) ** 2 + x2)
    vpi2 = 1.0 - 4.0 * s / ((1.0 + s) ** 2 + x2)
    meta = {"sigma": s, "phase": 0.0}
    return (
        SpectrumSeries(om, v0, meta=meta),
        SpectrumSeries(om, vpi2, meta={"sigma": s, "phase": math.pi / 2}),
    )


def opo_g2(p: OPOParams, tau_grid) -> CorrelationSeries:
    """Steady intensity correlator assembled by Gaussian factorization:
    G2(tau) = |<a^dag(t) a^dag(t+tau)>|^2 + |<a^dag(t) a(t+tau)>|^2 + n^2."""
    tau = np.asarray(tau_grid, dtype=float)
    s = p.sigma
    g_ = p.gamma
    anon = 0.25 * (s / (1.0 - s) * np.exp(-(1.0 - s) * g_ * tau)
                   + s / (1.0 + s) * np.exp(-(1.0 + s) * g_ * tau))
    norm = 0.25 * (s / (1.0 - s) * np.exp(-(1.0 - s) * g_ * tau)
                   - s / (1.0 + s) * np.exp(-(1.0 + s) * g_ * tau))
    n_ss = s * s / (2.0 * (1.0 - s * s))
    vals = anon**2 + norm**2 + n_ss**2
    return CorrelationSeries(tau=tau, values=vals.astype(complex), kind="G2",
                             normalization={"n_steady": n_ss})


def opo_lindblad_model(gamma: float, g: float, n_max: int) -> LindbladModel:
    """Fock-truncated resonant OPO: H = i g (a^dag^2 - a^2)/2, decay gamma."""
    _check_scalars(g=g)
    ops = fock_ops(n_max)
    a2 = ops.a.entries @ ops.a.entries
    h = Operator(fock_basis(n_max), 0.5j * g * (a2.conj().T - a2))
    return LindbladModel(fock_basis(n_max), h, ((gamma, ops.a),))


# ---------------------------------------------------------------------------
# Numeric noise spectra
# ---------------------------------------------------------------------------

def _normally_ordered_quadrature_cov(g12: np.ndarray, g22: np.ndarray,
                                     phase: float) -> np.ndarray:
    """Output-field <: dX^phi(t) dX^phi(t+tau) :> with X = e^{-i phi} a
    + e^{i phi} a^dag, from g12 = <da(t+tau) da(t)> and g22, the number-like
    pair <da^dag da> in either time order (only g22 + g22^* enters), tau > 0.

    The vacuum input contributions cancel only for specific time orders:
    the annihilator pair needs the later time on the left (causality), the
    creator pair the earlier time on the left, and both orders of the
    number-like pair appear:
    c = e^{-2i phi} g12 + e^{+2i phi} g12^* + g22 + g22^*.
    """
    e2 = np.exp(-2j * phase)
    return e2 * g12 + np.conj(e2 * g12) + g22 + np.conj(g22)


def _one_sided_ft(tau: np.ndarray, cov: np.ndarray,
                  omega: np.ndarray) -> np.ndarray:
    """2 Re Int_0^taumax e^{-i w tau} cov(tau) dtau, composite Simpson:
    2 (cos(w tau) . Re cw + sin(w tau) . Im cw), cw = cov times the
    weights, summed one w at a time, so only one row of w tau is held."""
    dtau = tau[1] - tau[0]
    weights = np.full(tau.size, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= dtau / 3.0
    cw = cov * weights
    re, im = np.ascontiguousarray(cw.real), np.ascontiguousarray(cw.imag)
    phase, trig = np.empty(tau.size), np.empty(tau.size)
    out = np.empty(omega.size)
    for i, w in enumerate(omega):
        np.multiply(w, tau, out=phase)
        out[i] = np.cos(phase, out=trig) @ re
        out[i] += np.sin(phase, out=trig) @ im
    out *= 2.0
    return out


def spectrum_numeric(model, phase: float, omega_grid,
                     mode_op: Operator | None = None,
                     kappa_out: float | None = None) -> SpectrumSeries:
    """Quadrature noise spectrum V = 1 + kappa_out * FT of the normally
    ordered stationary quadrature covariance.

    Accepts a LangevinLinearModel in the (a, a^dag) mode convention or a
    LindbladModel together with the monitored ``mode_op`` and its
    input-output rate ``kappa_out``.  The tau window runs 20 decay times of
    the slowest mode with a rectangular window; the recorded leakage bound
    is attached to the metadata.
    """
    _check_scalars(phase=phase)
    if kappa_out is not None:
        _check_scalars(">= 0", kappa_out=kappa_out)
    omega = _finite_grid(omega_grid, "omega_grid")
    if isinstance(model, LangevinLinearModel):
        if model.kappa_out is None and kappa_out is None:
            raise ValidationError("kappa_out required for the spectrum scale")
        kappa = kappa_out if kappa_out is not None else model.kappa_out
        rates = np.linalg.eigvals(model.a)
        if np.any(rates.real >= 0):
            raise QuopticsError("non-decaying correlations: drift not Hurwitz")
        tau, dtau, tail = _spectrum_tau_grid(rates, omega)
        # G(tau) = <dv(t+tau) dv(t)^dag> = exp(A tau) M; the covariance
        # reads only column 1, the pairs that end in da(t)
        g_tau = solve_linear(model.a, langevin_steady(model).second[:, 1], tau)
        cov = _normally_ordered_quadrature_cov(g_tau[:, 0], g_tau[:, 1], phase)
    elif isinstance(model, LindbladModel):
        if mode_op is None or kappa_out is None:
            raise ValidationError(
                "LindbladModel spectra need mode_op and kappa_out"
            )
        _check_basis(mode_op.basis, model.basis)
        kappa = kappa_out
        # first, so that a model without a unique steady state (an undamped
        # one) raises before its eigenvalues build a tau grid
        rho = steady_state(model).entries
        liouv = model.liouvillian
        dim = float(liouv.shape[0])
        _check_size(dim * dim, f"the dense Liouvillian of a model on "
                    f"{model.basis.factors}, to size its tau grid")
        ev = np.linalg.eigvals(liouv.toarray())
        nonzero = ev[np.abs(ev) > 1e-9 * max(1.0, np.abs(ev).max())]
        if np.any(nonzero.real > 1e-12 * max(1.0, np.abs(ev).max())):
            raise QuopticsError("non-decaying correlations in the Liouvillian")
        tau, dtau, tail = _spectrum_tau_grid(nonzero, omega)
        da = mode_op.entries - np.trace(mode_op.entries @ rho) * np.eye(
            mode_op.dim)
        # time orders as _normally_ordered_quadrature_cov needs them:
        # <da(t+tau) da(t)> = tr{da e^{L tau}[da rho]} and
        # <da^dag(t) da(t+tau)> = tr{da e^{L tau}[rho da^dag]}
        cov = _normally_ordered_quadrature_cov(
            _regression(liouv, da, da @ rho, tau),
            _regression(liouv, da, rho @ da.conj().T, tau), phase)
    else:
        raise ValidationError("unsupported model type")
    values = 1.0 + kappa * _one_sided_ft(tau, cov, omega)
    return SpectrumSeries(omega, values, meta={
        "phase": phase, "kappa_out": kappa, "tau_max": float(tau[-1]),
        "dtau": dtau, "window_leakage_bound": tail,
    })


# tau step: this many points per period of the fastest rate or frequency
_TAU_POINTS_PER_PERIOD = 60


def _spectrum_tau_grid(rates: np.ndarray, omega: np.ndarray):
    decay = -rates.real
    slowest = float(decay[decay > 0].min())
    tau_max = 20.0 / slowest
    f_max = max(float(np.abs(rates.imag).max()), float(np.abs(omega).max()),
                float(decay.max()), slowest)
    # the point count from the same formula, in floats; the omega x tau
    # terms of the Fourier sum bound the tau grid too
    points = tau_max * f_max * _TAU_POINTS_PER_PERIOD / (2.0 * math.pi)
    _check_size((points + 2.0) * omega.size,
                f"omega_grid of {omega.size} points up to |omega| "
                f"{float(np.abs(omega).max()):.3g} needs a tau grid of "
                f"{points:.3g} points (rates up to {f_max:.3g}, slowest decay "
                f"{slowest:.3g}); its Fourier sum")
    dtau = 2.0 * math.pi / (f_max * _TAU_POINTS_PER_PERIOD)
    n = int(math.ceil(tau_max / dtau)) + 1
    if n % 2 == 0:  # Simpson weights need an odd point count
        n += 1
    tau = np.linspace(0.0, tau_max, n)
    tail = math.exp(-20.0) / slowest
    return tau, float(tau[1] - tau[0]), tail


# ---------------------------------------------------------------------------
# Input-output scaling
# ---------------------------------------------------------------------------

def input_output_scale(series: CorrelationSeries, kappa: float,
                       counts: tuple[int, int]) -> CorrelationSeries:
    """Scale a system correlator with N daggered and M plain operators to
    the output field: multiply by kappa^{(N+M)/2}.

    The caller picks kappa = 2 gamma for a cavity and kappa = gamma for an
    atom (half of the atomic radiation reaches the collected direction);
    normalized correlators are unchanged by this scaling.
    """
    _check_scalars(">= 0", kappa=kappa)
    n, m_ = counts
    factor = kappa ** (0.5 * (n + m_))
    meta = dict(series.normalization)
    meta.update({"kappa": kappa, "counts": (n, m_),
                 "convention": "cavity kappa=2*gamma, atom kappa=gamma"})
    return CorrelationSeries(tau=series.tau, values=series.values * factor,
                             kind=series.kind, normalization=meta)
