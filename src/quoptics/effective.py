"""Adiabatic-elimination machinery: second-order effective Hamiltonians by
projectors, effective master equations from environment correlators, the
single-excitation decay problem, and the derived cooling/shift rate formulas.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .lindblad import LindbladModel, unvec, vec
from .operators import (
    BasisSpec,
    Operator,
    QuopticsError,
    ValidationError,
    _check_scalars,
    _check_size,
    _finite_grid,
    herm_residual,
)
from .settings import DEFAULT


# ---------------------------------------------------------------------------
# Projector-based effective Hamiltonians
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectorPair:
    """Hermitian projector P (Q = 1 - P implicit)."""

    p: Operator

    def __post_init__(self):
        m = self.p.entries
        if herm_residual(m) > DEFAULT.eps_herm:
            raise ValidationError("projector must be Hermitian")
        if np.abs(m @ m - m).max() > 1e3 * DEFAULT.eps_herm:
            raise ValidationError("projector must satisfy P^2 = P")

    @property
    def q(self) -> Operator:
        d = self.p.dim
        return Operator(self.p.basis, np.eye(d, dtype=complex) - self.p.entries)


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Second-order effective Hamiltonian with its elimination residuals.

    ``secular`` is the time-averaged generator, the piece normally kept as
    the effective model; ``hamiltonian`` is the full second-order form at the
    requested horizon.  ``hermiticity_residual`` is the worst |H - H^dag|
    entry over the horizon and ``time_dependent_tail`` bounds the oscillatory
    part dropped by the secular form; both are reported, never zeroed.
    """

    hamiltonian: Operator
    secular: Operator
    hermiticity_residual: float
    time_dependent_tail: float


# times in [0, t_horizon] at which the hermiticity residual is sampled
_RESIDUAL_SAMPLES = 201
# gaps below this, per max(1, largest gap), are eigh round-off: degenerate
_GAP_TOL = 1e-12


def effective_hamiltonian_2nd(h0: Operator, h1: Operator, proj: ProjectorPair,
                              t_horizon: float) -> EffectiveHamiltonian:
    """Eliminate the complement of P to second order in H1.

    Builds P H0 P + Int_0^t (dtau / i) P H1 H1(tau) P with
    H1(tau) = e^{-i H0 tau} H1 e^{i H0 tau} in the H0 eigenbasis, which makes
    the time integral analytic: the secular weight of a virtual transition of
    energy gap w is -1/w (the standard second-order level shift) and the
    oscillatory remainder carries e^{-i w t} / w.  Requires [P, H0] = 0; a
    nonzero P H1 P block is moved into H0 first.
    """
    _check_scalars(t_horizon=t_horizon)
    p = proj.p.entries
    h0m = h0.entries.copy()
    h1m = h1.entries.copy()
    scale = max(1.0, float(np.abs(h0m).max()))
    if np.abs(p @ h0m - h0m @ p).max() > 1e3 * DEFAULT.eps_herm * scale:
        raise QuopticsError("P does not commute with H0")
    php = p @ h1m @ p
    if np.abs(php).max() > DEFAULT.eps_herm:
        h0m = h0m + php
        h1m = h1m - php

    w, u = np.linalg.eigh(0.5 * (h0m + h0m.conj().T))
    h1e = u.conj().T @ h1m @ u
    pe = u.conj().T @ p @ u
    gaps = w[:, None] - w[None, :]  # w_{mk} = E_m - E_k
    small = np.abs(gaps) < _GAP_TOL * max(1.0, float(np.abs(gaps).max()))
    inv_gaps = np.where(small, 0.0, 1.0 / np.where(small, 1.0, gaps))

    def second_order(fmat: np.ndarray) -> np.ndarray:
        # (P H1)_{jm} (H1)_{mk} f(w_{mk}) (P)_{k.}; f enters on the m->k gap
        return pe @ (h1e @ (h1e * fmat)) @ pe

    def osc_factor(t: float) -> np.ndarray:
        out = np.where(small, -1j * t, np.exp(-1j * gaps * t) * inv_gaps)
        return out

    h0_proj = pe @ np.diag(w).astype(complex) @ pe
    sec = h0_proj + second_order(-inv_gaps)
    full = h0_proj + second_order(-inv_gaps + osc_factor(t_horizon))

    resid = 0.0
    for t in np.linspace(0.0, t_horizon, _RESIDUAL_SAMPLES):
        ht = h0_proj + second_order(-inv_gaps + osc_factor(t))
        resid = max(resid, float(np.abs(ht - ht.conj().T).max()))
    pe_abs = np.abs(pe)
    envelope = pe_abs @ (np.abs(h1e) @ (np.abs(h1e) * np.abs(inv_gaps))) @ pe_abs
    tail = float(envelope.max())

    back = lambda m: Operator(h0.basis, u @ m @ u.conj().T)
    return EffectiveHamiltonian(
        hamiltonian=back(full),
        secular=back(sec),
        hermiticity_residual=resid,
        time_dependent_tail=tail,
    )


# ---------------------------------------------------------------------------
# Generator -> Lindblad-form refit
# ---------------------------------------------------------------------------

def _reshuffle(t_matrix: np.ndarray, d: int) -> np.ndarray:
    """Map a column-stacked superoperator to the Hermitian sandwich matrix R
    with T[rho] = sum_mu lam_mu A_mu rho A_mu^dag for R = sum lam vec(A)vec(A)^dag."""
    t4 = t_matrix.reshape(d, d, d, d)        # axes (j, i, l, k)
    r4 = np.transpose(t4, (3, 1, 2, 0))      # axes (k, i, l, j)
    return r4.reshape(d * d, d * d)


# Kossakowski eigenvalues below this fraction of max|r|, the largest entry
# of the Hermitian part of the reshuffled generator, are round-off
_RATE_TOL = 1e-12


def lindblad_decompose(t_matrix: np.ndarray, basis: BasisSpec):
    """Split a Hermiticity- and trace-preserving generator into a Hamiltonian
    commutator plus jump dissipators (our 2 J rho J^dag convention).

    Works on the Hermitian part r of the reshuffled generator, with
    T[rho] = sum_ab r_ab E_a rho E_b^dag, and on e = vec(I)/sqrt(d).  The
    terms with one identity factor collect into K rho + rho K^dag with
    K = (e^dag r e)/(2d) I + unvec(r e - (e^dag r e) e)/sqrt(d), whose
    anti-Hermitian part is the Hamiltonian.  The Kossakowski matrix is r
    compressed onto the traceless operators, P r P with P = 1 - e e^dag; its
    eigenvectors, unvec'd, are the jump operators at half the eigenvalue.
    Significantly negative dissipation directions are dropped and reported,
    never silently absorbed.
    """
    d = basis.total_dim
    t_matrix = np.asarray(t_matrix)
    if t_matrix.shape != (d * d, d * d):
        raise ValidationError(
            f"generator shape {t_matrix.shape} is not ({d * d}, {d * d}) "
            f"for a basis of dimension {d}"
        )
    r2 = _reshuffle(t_matrix, d)
    herm_res = float(np.abs(r2 - r2.conj().T).max())
    r = 0.5 * (r2 + r2.conj().T)
    scale = max(1.0, float(np.abs(r).max()))

    e = vec(np.eye(d, dtype=complex)) / math.sqrt(d)
    re = r @ e
    r_ee = np.vdot(e, re)
    k_op = (r_ee / (2.0 * d)) * np.eye(d) + unvec(re - r_ee * e) / math.sqrt(d)
    h = 0.5j * (k_op - k_op.conj().T)

    proj = np.eye(d * d) - np.outer(e, e.conj())
    evals, evecs = np.linalg.eigh(proj @ r @ proj)
    jumps = []
    dropped = 0.0
    for val, v in zip(evals, evecs.T):
        if abs(val) < _RATE_TOL * scale:
            continue
        if val < 0:
            dropped = max(dropped, float(-val))
            continue
        jumps.append((float(val) / 2.0, Operator(basis, unvec(v))))

    rebuilt = LindbladModel(basis, Operator(basis, h), jumps).liouvillian
    report = {
        "choi_hermiticity_residual": herm_res,
        "refit_residual": float(abs(rebuilt - t_matrix).max()),
        "dropped_negative_weight": dropped,
    }
    return Operator(basis, h), jumps, report


# ---------------------------------------------------------------------------
# Effective master equations from environment correlators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialCorrelator:
    """amp * exp(-rate * tau) with Re rate > 0."""

    amp: complex
    rate: complex

    def __post_init__(self):
        _check_scalars(amp=self.amp, rate=self.rate)
        _check_scalars("> 0", rate_real_part=complex(self.rate).real)


@dataclass(frozen=True)
class EffectiveMasterResult:
    model: LindbladModel
    report: dict = field(default_factory=dict)


def effective_master_2nd(system: LindbladModel, interaction,
                         c_corr: dict, k_corr: dict,
                         h_slow: Operator | None = None) -> EffectiveMasterResult:
    """Second-order time-local master equation from environment correlators.

    ``interaction`` lists (g_m, S_m) system couplings to environment
    operators E_m; ``c_corr[(m, n)]`` and ``k_corr[(n, m)]`` hold
    ExponentialCorrelator entries for <E_m(t) E_n(t+tau)> and
    <E_n(t+tau) E_m(t)>.  The tau integrals are taken to their long-time
    limits analytically in the eigenbasis of ``h_slow`` (the system
    Hamiltonian that survives on the correlator timescale); the assembled
    generator is refit into Lindblad form and returned together with a
    self-consistency report comparing correlator decay to effective rates.
    """
    basis = system.basis
    d = basis.total_dim
    dim = float(d) ** 2
    _check_size(dim * dim, f"the dense generator of a model on {basis.factors}")
    if h_slow is None:
        h_slow = Operator(basis, np.zeros((d, d), dtype=complex))
    w, u = np.linalg.eigh(0.5 * (h_slow.entries + h_slow.entries.conj().T))
    gaps = w[:, None] - w[None, :]

    def tilde_integral(corr: ExponentialCorrelator, s_op: np.ndarray) -> np.ndarray:
        """Int_0^inf corr(tau) S(tau) dtau, S(tau) = e^{-iH tau} S e^{iH tau}."""
        se = u.conj().T @ s_op @ u
        integ = corr.amp / (corr.rate + 1j * gaps)
        return u @ (se * integ) @ u.conj().T

    eye = np.eye(d, dtype=complex)
    t_matrix = np.zeros((d * d, d * d), dtype=complex)
    couplings = list(interaction)
    for m_idx, (g_m, s_m) in enumerate(couplings):
        for n_idx, (g_n, s_n) in enumerate(couplings):
            gg = g_m * g_n
            cc = c_corr.get((m_idx, n_idx))
            if cc is not None:
                a_mn = tilde_integral(cc, s_m.entries)
                # + gg S_n rho A_mn, plus the Hermitian conjugate term
                t_matrix += gg * np.kron(a_mn.T, s_n.entries)
                t_matrix += np.conj(gg) * np.kron(
                    s_n.entries.conj(), a_mn.conj().T)
            kk = k_corr.get((n_idx, m_idx))
            if kk is not None:
                b_nm = tilde_integral(kk, s_m.entries)
                # - gg S_n B_nm rho, plus the Hermitian conjugate term
                t_matrix -= gg * np.kron(eye, s_n.entries @ b_nm)
                t_matrix -= np.conj(gg) * np.kron(
                    (s_n.entries @ b_nm).conj(), eye)

    h_fit, jumps, decomp = lindblad_decompose(t_matrix, basis)
    h_total = Operator(basis, system.h.entries + h_fit.entries)
    model = LindbladModel(basis, h_total, tuple(system.jumps) + tuple(jumps))

    corr_rate = min(
        min((complex(c.rate).real for c in c_corr.values()), default=math.inf),
        min((complex(k.rate).real for k in k_corr.values()), default=math.inf),
    )
    eff_rate = max(
        (rate * float(np.linalg.norm(op.entries, 2)) ** 2
         for rate, op in jumps), default=0.0,
    )
    report = dict(decomp)
    report.update({
        "correlator_decay_rate": corr_rate,
        "max_effective_rate": eff_rate,
        "rate_separation": corr_rate / eff_rate if eff_rate else math.inf,
    })
    if eff_rate and corr_rate / eff_rate < 10.0:
        report["warning"] = (
            "effective rates are not well separated from the correlator decay"
        )
        warnings.warn(report["warning"], stacklevel=2)
    return EffectiveMasterResult(model=model, report=report)


def purcell_effective_model(g: float, kappa: float, gamma: float, delta: float,
                            nbar: float) -> EffectiveMasterResult:
    """Assemble the cavity-cooled atom model by eliminating the cavity.

    System: hot two-level emitter (rates gamma (nbar+1) on sigma and
    gamma nbar on sigma^dag, frame rotating at the transition).  Environment:
    a damped cavity mode detuned by ``delta`` whose only surviving
    correlator is <a(t) a^dag(t+tau)> = e^{-(kappa - i delta) tau}.
    """
    from .operators import pauli_ops, two_level_basis

    pl = pauli_ops()
    basis = two_level_basis()
    h0 = Operator(basis, np.zeros((2, 2), dtype=complex))
    jumps = [(gamma * (nbar + 1.0), pl.sm)]
    if nbar > 0:
        jumps.append((gamma * nbar, pl.sp))
    system = LindbladModel(basis, h0, tuple(jumps))
    interaction = [(g, pl.sp), (g, pl.sm)]   # couples to (a, a^dag)
    c_corr = {(0, 1): ExponentialCorrelator(1.0, kappa - 1j * delta)}
    k_corr = {(0, 1): ExponentialCorrelator(1.0, kappa + 1j * delta)}
    return effective_master_2nd(system, interaction, c_corr, k_corr)


# ---------------------------------------------------------------------------
# Closed-form rate formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PurcellRates:
    gamma_eff: float
    nbar_eff: float
    delta_eps: float
    cooperativity: float


def purcell_rates(g: float, kappa: float, gamma: float, delta: float,
                  nbar: float) -> PurcellRates:
    """Cavity-enhanced decay of a hot two-level emitter.

    Gamma_eff = gamma [1 + C / (1 + (Delta/kappa)^2)] with cooperativity
    C = g^2 / (kappa gamma); nbar_eff = nbar / (1 + C / (1 + (Delta/kappa)^2));
    level shift delta_eps = -g^2 Delta / (kappa^2 + Delta^2), entering the
    effective Hamiltonian as +(epsilon + delta_eps)/2 sigma_z.
    """
    _check_scalars(">= 0", g=g, nbar=nbar)
    _check_scalars("> 0", kappa=kappa, gamma=gamma)
    _check_scalars(delta=delta)
    coop = g * g / (kappa * gamma)
    enh = coop / (1.0 + (delta / kappa) ** 2)
    return PurcellRates(
        gamma_eff=gamma * (1.0 + enh),
        nbar_eff=nbar / (1.0 + enh),
        delta_eps=-g * g * delta / (kappa * kappa + delta * delta),
        cooperativity=coop,
    )


@dataclass(frozen=True)
class OptomechRates:
    gamma_minus_opt: float   # cooling sideband rate
    gamma_plus_opt: float    # heating sideband rate
    domega_minus: float
    domega_plus: float
    gamma_eff: float
    nbar_eff: float


def optomech_rates(g: complex, kappa: float, gamma: float, delta: float,
                   omega_m: float, nbar: float) -> OptomechRates:
    """Sideband cooling rates of a mechanical mode driven through a cavity.

    Gamma_-^opt carries the (Delta + Omega_m) resonance (cooling) and
    Gamma_+^opt the (Delta - Omega_m) one (heating); in the red-sideband
    resolved regime nbar_eff bottoms out at nbar/C + kappa^2/(4 Omega_m^2).
    """
    _check_scalars("> 0", kappa=kappa, gamma=gamma, omega_m=omega_m)
    _check_scalars(">= 0", nbar=nbar)
    _check_scalars(g=g, delta=delta)
    g2 = abs(g) ** 2

    def lorentz(shift: float) -> float:
        return (g2 / kappa) / (1.0 + (shift / kappa) ** 2)

    def pull(shift: float) -> float:
        return g2 * shift / (kappa * kappa + shift * shift)

    gm = lorentz(delta + omega_m)
    gp = lorentz(delta - omega_m)
    gamma_eff = gamma + gm - gp
    nbar_eff = (gamma * nbar + gp) / gamma_eff
    return OptomechRates(
        gamma_minus_opt=gm, gamma_plus_opt=gp,
        domega_minus=pull(delta + omega_m), domega_plus=pull(delta - omega_m),
        gamma_eff=gamma_eff, nbar_eff=nbar_eff,
    )


# ---------------------------------------------------------------------------
# Single-excitation decay into a continuum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WWResult:
    t: np.ndarray
    k: np.ndarray
    alpha_t: np.ndarray          # excited amplitude e^{-gamma t}
    beta_k_t: np.ndarray         # photon amplitudes, shape (nt, nk)
    norm_residual: float


# half-width, in linewidths, and point count of default_k_grid
_K_SPAN, _K_POINTS = 100.0, 4001


def default_k_grid(gamma: float, epsilon: float) -> np.ndarray:
    """Uniform grid over the emission line, epsilon +- _K_SPAN gamma.

    The span keeps the analytic-tail error of the norm identity below 1e-6
    whenever the transition sits well above the linewidth.
    """
    lo = max(epsilon - _K_SPAN * gamma, 1e-3 * gamma)
    return np.linspace(lo, epsilon + _K_SPAN * gamma, _K_POINTS)


def _osc_tail(a_over: float, t: np.ndarray) -> np.ndarray:
    """Int_a^inf cos(x t)/(gamma^2 + x^2) dx for a >> gamma, via 1/x^2; at
    t = 0 it is exactly 1/a, because Si(0) = 0."""
    from scipy.special import sici

    si, _ = sici(a_over * t)
    return np.cos(a_over * t) / a_over - t * (math.pi / 2 - si)


def wigner_weisskopf(gamma: float, epsilon: float, k_grid=None,
                     t_grid=None) -> WWResult:
    """Closed-form single-excitation dynamics of an emitter in a 1-D continuum.

    alpha(t) = e^{-gamma t} and beta(k, t) = sqrt(gamma/2pi)
    (1 - e^{-(gamma - i(|k| - epsilon)) t}) / (gamma - i(|k| - epsilon))
    (unit propagation speed; both directions counted, so the k grid covers
    positive wavevectors only).  The norm identity
    |alpha|^2 + Int |beta|^2 dk = 1 is checked on the grid with analytic
    Lorentzian tails beyond the edges.
    """
    _check_scalars("> 0", gamma=gamma, epsilon=epsilon)
    t = (np.linspace(0.0, 5.0 / gamma, 51) if t_grid is None
         else _finite_grid(t_grid, "t_grid"))
    if k_grid is None:
        k = default_k_grid(gamma, epsilon)
    else:
        k = _finite_grid(k_grid, "k_grid")
        if k.min() > epsilon - 30.0 * gamma or k.max() < epsilon + 30.0 * gamma:
            raise QuopticsError(
                "k grid must span at least +-30 gamma around the transition"
            )
    _check_size(float(t.size) * k.size, f"t_grid of {t.size} by k_grid of "
                f"{k.size} points, as the beta(k, t) table")
    dk = float(np.max(np.diff(k)))
    t_max = float(np.max(t))
    if t_max > 0 and dk > math.pi / (4.0 * t_max):
        raise QuopticsError(
            f"k spacing {dk:.3g} aliases oscillations up to t={t_max:.3g}"
        )
    detune = np.abs(k) - epsilon
    denom = gamma - 1j * detune
    alpha_t = np.exp(-gamma * t)
    beta = (math.sqrt(gamma / (2.0 * math.pi))
            * (1.0 - np.exp(-np.outer(t, denom))) / denom)
    norm_k = np.trapezoid(2.0 * np.abs(beta) ** 2, k, axis=1)

    # analytic continuation of the line shape beyond the grid edges
    hi = float(detune.max())
    lo = float(-detune.min())
    lorentz_tail = (1.0 / math.pi) * (
        (math.pi / 2 - math.atan(hi / gamma))
        + (math.pi / 2 - math.atan(lo / gamma))
    )
    osc = _osc_tail(hi, t) + _osc_tail(lo, t)
    tail = ((1.0 + alpha_t**2) * lorentz_tail
            - (2.0 * gamma / math.pi) * alpha_t * osc)
    total = alpha_t**2 + norm_k + tail
    resid = float(np.max(np.abs(total - 1.0)))
    if resid > DEFAULT.eps_ww:
        raise QuopticsError(f"norm deficit {resid:.2e}: k span insufficient")
    return WWResult(t=t, k=k, alpha_t=alpha_t, beta_k_t=beta,
                    norm_residual=resid)


def lamb_shift_estimate(gamma: float, epsilon: float, lam: float) -> float:
    """Logarithmic level-shift estimate -(gamma / pi) ln(Lambda / epsilon)."""
    _check_scalars("> 0", gamma=gamma, epsilon=epsilon, lam=lam)
    if not lam >= epsilon:
        raise ValidationError("need Lambda >= epsilon")
    return -(gamma / math.pi) * math.log(lam / epsilon)
