"""Closed-system dynamics: Bloch equations, Rabi oscillations with and
without the rotating-wave approximation, Jaynes-Cummings dressed states and
collapse/revival, parametric down-conversion phases, and the exponential
propagator that every linear evolution in the toolkit goes through.

Frames are always labeled: outputs say whether they live in the lab frame or
in a frame rotating at the drive frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from .operators import QuopticsError, ValidationError
from .settings import DEFAULT


# ---------------------------------------------------------------------------
# Bloch equations
# ---------------------------------------------------------------------------

def validate_bloch(b) -> np.ndarray:
    b = np.asarray(b, dtype=float).reshape(3)
    if np.linalg.norm(b) > 1.0 + DEFAULT.eps_bloch:
        raise ValidationError(f"Bloch vector length {np.linalg.norm(b)} > 1")
    return b


# DOP853 tolerances of integrate_bloch, far below the O(Omega_R/eps) RWA error
_BLOCH_RTOL, _BLOCH_ATOL = 1e-10, 1e-12


def integrate_bloch(b0, alpha, t_grid) -> np.ndarray:
    """Integrate db/dt = alpha(t) x b with an adaptive embedded RK pair.

    ``alpha`` maps time to the 3-vector of Hamiltonian coefficients
    (H = (alpha . sigma)/2); |b| is conserved up to integrator tolerance.
    """
    # imported on first use: scipy.integrate loads scipy.optimize with it
    from scipy.integrate import solve_ivp
    b0 = validate_bloch(b0)
    t_grid = np.asarray(t_grid, dtype=float)

    def rhs(t, b):
        return np.cross(np.asarray(alpha(t), dtype=float), b)

    sol = solve_ivp(rhs, (t_grid[0], t_grid[-1]), b0, t_eval=t_grid,
                    rtol=_BLOCH_RTOL, atol=_BLOCH_ATOL, method="DOP853")
    if not sol.success:
        raise QuopticsError(f"Bloch integration failed: {sol.message}")
    return sol.y.T


@dataclass(frozen=True)
class RabiSolution:
    t: np.ndarray
    slow: np.ndarray   # Bloch vectors in the frame rotating at the drive
    lab: np.ndarray | None
    p_e: np.ndarray


def rwa_bloch_matrix(delta: float, omega_rabi: float) -> np.ndarray:
    """Coefficient matrix of the slowly-varying complex Bloch system
    for x = (b_tilde, b_tilde*, b_z)."""
    o = omega_rabi
    return 1j * np.array(
        [[delta, 0.0, o / 2.0],
         [0.0, -delta, -o / 2.0],
         [o, -o, 0.0]], dtype=complex
    )


def rabi_rwa(b0, delta: float, omega_rabi: float, t_grid,
             omega: float | None = None) -> RabiSolution:
    """Rotating-wave solution of the driven two-level system.

    Returns the slowly-varying Bloch vector; when the drive frequency
    ``omega`` is supplied the lab-frame vector (with the optical precession
    re-attached) is returned as well.  For a ground-state start the excited
    population is (1 - cos(Omega_R t)) / (2 (1 + delta^2/Omega^2)).
    """
    b0 = validate_bloch(b0)
    t_grid = np.asarray(t_grid, dtype=float)
    x0 = np.array([0.5 * (b0[0] - 1j * b0[1]),
                   0.5 * (b0[0] + 1j * b0[1]),
                   b0[2]], dtype=complex)
    # b0 is the state at t = 0 even when t_grid starts elsewhere
    x = solve_linear(rwa_bloch_matrix(delta, omega_rabi), x0,
                     np.append(0.0, t_grid))[1:]
    slow = np.stack([2.0 * x[:, 0].real, -2.0 * x[:, 0].imag, x[:, 2].real],
                    axis=1)
    lab = None
    if omega is not None:
        b_lab = x[:, 0] * np.exp(-1j * omega * t_grid)
        lab = np.stack([2.0 * b_lab.real, -2.0 * b_lab.imag, x[:, 2].real],
                       axis=1)
    p_e = 0.5 * (1.0 + slow[:, 2])
    return RabiSolution(t=t_grid, slow=slow, lab=lab, p_e=p_e)


# ---------------------------------------------------------------------------
# Jaynes-Cummings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JCParams:
    omega: float
    epsilon: float
    g: float

    def __post_init__(self):
        if self.g < 0:
            raise ValidationError("coupling must be >= 0")

    @property
    def delta_detuning(self) -> float:
        return self.omega - self.epsilon


@dataclass(frozen=True)
class DressedLevels:
    e_plus: float
    e_minus: float
    theta: float
    v_plus: np.ndarray   # components on (|n, g>, |n-1, e>)
    v_minus: np.ndarray


# amplitudes below this are round-off zeros (cos(pi/2) = 6e-17), not phases
_PHASE_FIX_FLOOR = 1e-14
# largest |sum |c_n|^2 - 1| of field amplitudes: 10 eps_norm of round-off
_JC_NORM_TOL = 1e-9


def _fix_global_phase(v: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(v) > _PHASE_FIX_FLOOR)
    phase = v[idx] / abs(v[idx])
    return v / phase


def jc_dressed(n: int, p: JCParams) -> DressedLevels:
    """Energies and mixing angle of the n-excitation dressed doublet.

    Splitting Omega_n = sqrt(Delta^2 + 4 n g^2); mixing angle
    theta_n = arg(Delta + 2 i sqrt(n) g) / 2 in [0, pi/2].  Global phases are
    fixed by making the first nonzero amplitude real and positive.
    """
    if n < 1:
        raise ValidationError("manifold index must be >= 1")
    delta = p.delta_detuning
    omega_n = math.hypot(delta, 2.0 * math.sqrt(n) * p.g)
    theta = 0.5 * math.atan2(2.0 * math.sqrt(n) * p.g, delta)
    e_mid = (n - 0.5) * p.omega
    v_plus = np.array([math.cos(theta), -1j * math.sin(theta)], dtype=complex)
    v_minus = np.array([math.sin(theta), 1j * math.cos(theta)], dtype=complex)
    return DressedLevels(
        e_plus=e_mid + 0.5 * omega_n,
        e_minus=e_mid - 0.5 * omega_n,
        theta=theta,
        v_plus=_fix_global_phase(v_plus),
        v_minus=_fix_global_phase(v_minus),
    )


def jc_excited_population(cn, p: JCParams, t) -> np.ndarray:
    """p_e(t) for an initial |field> (x) |g> state with field amplitudes cn."""
    cn = np.asarray(cn, dtype=complex)
    norm = np.sum(np.abs(cn) ** 2)
    if abs(norm - 1.0) > _JC_NORM_TOL:
        raise ValidationError(f"field amplitudes have norm {norm}")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    delta = p.delta_detuning
    out = np.zeros_like(t)
    for n in range(1, cn.size):
        w = abs(cn[n]) ** 2
        if w == 0.0:
            continue
        omega_n = math.hypot(delta, 2.0 * math.sqrt(n) * p.g)
        sin2 = (2.0 * math.sqrt(n) * p.g / omega_n) ** 2 if omega_n else 0.0
        out += w * sin2 * np.sin(0.5 * omega_n * t) ** 2
    return out


def jc_hamiltonian(n_max: int, p: JCParams):
    """Dense Jaynes-Cummings Hamiltonian on Fock(n_max) (x) (|e>, |g>):
    omega a^dag a + (epsilon/2) sigma_z + i g (a sigma^dag - a^dag sigma)."""
    from .operators import BasisSpec, Fock, TwoLevel, fock_ops, pauli_ops, tensor_embed

    basis = BasisSpec((Fock(n_max), TwoLevel()))
    ops = fock_ops(n_max)
    pl = pauli_ops()
    a = tensor_embed(ops.a, 0, basis)
    num = tensor_embed(ops.n, 0, basis)
    sz = tensor_embed(pl.sz, 1, basis)
    sm = tensor_embed(pl.sm, 1, basis)
    sp = tensor_embed(pl.sp, 1, basis)
    return (p.omega * num + 0.5 * p.epsilon * sz
            + 1j * p.g * (a @ sp - a.dag() @ sm))


@dataclass(frozen=True)
class CollapseRevival:
    t: np.ndarray
    series: np.ndarray      # exact resonant sum over the Poisson distribution
    envelope: np.ndarray    # Gaussian-envelope approximation
    gamma_c: float          # collapse rate g / sqrt(2)
    t_revivals: np.ndarray  # 2 pi m sqrt(nbar) / g within the time window


# largest Poisson mass that collapse_revival may drop outside its window
_TAIL_TOL = 1e-12


def collapse_revival(nbar: float, g: float, t_grid) -> CollapseRevival:
    """Resonant excited population for a coherent field of mean number nbar.

    Exact series 1/2 - (1/2) sum_n w_n cos(2 sqrt(n) g t) with Poisson
    weights cut at nbar +- 10 sqrt(nbar); Gaussian-approximation envelope
    1/2 - (1/2) exp(-g^2 t^2 / 2) cos(2 g sqrt(nbar) t).

    Revivals appear when ADJACENT terms of the sum rephase,
    (Omega_{n+1} - Omega_n) t = 2 pi m, giving uniformly spaced centers
    t_m = 2 pi m sqrt(nbar) / g; at half of that spacing adjacent terms are
    in antiphase and the series stays collapsed (no revival).
    """
    if nbar <= 0:
        raise ValidationError("nbar must be positive")
    t = np.asarray(t_grid, dtype=float)
    lo = max(0, math.floor(nbar - 10.0 * math.sqrt(nbar)))
    # the +10 floor keeps the tail bound honest at small nbar, where the
    # ten-standard-deviation window alone is too narrow in absolute terms
    hi = math.ceil(nbar + 10.0 * math.sqrt(nbar)) + 10
    n = np.arange(lo, hi + 1)
    from scipy.special import gammaln

    w = np.exp(n * math.log(nbar) - nbar - gammaln(n + 1))
    if 1.0 - w.sum() > _TAIL_TOL:
        raise QuopticsError(
            f"Poisson tail mass {1.0 - w.sum():.2e} exceeds {_TAIL_TOL:.0e}"
        )
    phases = 2.0 * g * np.sqrt(n)
    series = 0.5 - 0.5 * (w[None, :] * np.cos(np.outer(t, phases))).sum(axis=1)
    envelope = 0.5 - 0.5 * np.exp(-0.5 * g * g * t * t) * np.cos(
        2.0 * g * math.sqrt(nbar) * t
    )
    t_rev_spacing = 2.0 * math.pi * math.sqrt(nbar) / g
    m_max = int(t[-1] / t_rev_spacing)
    t_revivals = t_rev_spacing * np.arange(1, m_max + 1)
    return CollapseRevival(t=t, series=series, envelope=envelope,
                           gamma_c=g / math.sqrt(2.0), t_revivals=t_revivals)


# ---------------------------------------------------------------------------
# Parametric down-conversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PDCParams:
    delta: float   # detuning between the mode and half the pump frequency
    g: float       # dressed down-conversion rate

    def __post_init__(self):
        if self.g < 0:
            raise ValidationError("down-conversion rate must be >= 0")


@dataclass(frozen=True)
class PDCAnalysis:
    phase: str          # "stable", "unstable", or "critical"
    r: float            # Bogoliubov parameter
    rate: float         # oscillation frequency (stable) or growth rate


def pdc_analysis(p: PDCParams) -> PDCAnalysis:
    """Bogoliubov analysis of the quadratic down-conversion Hamiltonian.

    |Delta| > g: stable, tanh 2r = g/Delta, rate = sign(Delta) sqrt(D^2-g^2).
    |Delta| < g: unstable, tanh 2r = Delta/g, rate = sqrt(g^2 - D^2).
    |Delta| = g: critical point, flagged explicitly.
    """
    d, g = p.delta, p.g
    if abs(d) > g:
        r = 0.5 * math.atanh(g / d) if g else 0.0
        rate = math.copysign(math.sqrt(d * d - g * g), d)
        return PDCAnalysis("stable", r, rate)
    if abs(d) < g:
        r = 0.5 * math.atanh(d / g)
        return PDCAnalysis("unstable", r, math.sqrt(g * g - d * d))
    return PDCAnalysis("critical", math.inf, 0.0)


def pdc_photon_number(p: PDCParams, t) -> np.ndarray:
    """Mean photon number from vacuum under the down-conversion Hamiltonian."""
    t = np.asarray(t, dtype=float)
    d, g = p.delta, p.g
    if g == 0.0:
        return np.zeros_like(t)
    if abs(d) > g:
        omega = math.sqrt(d * d - g * g)
        return (g * g / (d * d - g * g)) * np.sin(omega * t) ** 2
    if abs(d) < g:
        kappa = math.sqrt(g * g - d * d)
        return (g * g / (g * g - d * d)) * np.sinh(kappa * t) ** 2
    return (g * t) ** 2  # common limit of both branches at the critical point


# ---------------------------------------------------------------------------
# Linear-system engine
# ---------------------------------------------------------------------------

# Cost laws of the two routes, in seconds on one OpenBLAS thread of a 2-vCPU
# x86_64 host.  The dense route pays about _C_DENSE D^3 per distinct step
# for scaling and squaring (Higham 2005; 1.0-2.2e-9 D^3 measured at D 441
# and 961) and _C_DENSE_STEP D^2 per grid step for the product with the
# exponential, which streams its 16 D^2 bytes once whatever the number of
# columns (3.5-8.4e-10 D^2 measured from D 169 to 2116).  The sparse route
# pays about _C_SPARSE per expm_multiply substep, since the step split bounds
# its s m* mat-vecs (Al-Mohy & Higham 2011; 1-5e-3 s measured on the cavity
# Liouvillians, the n_max 12 OPO and purcell-cooling).
_C_DENSE = 2e-9
_C_DENSE_STEP = 8e-10
_C_SPARSE = 3e-3
# Steps are split to keep ||dt (B - mu I)||_1 below condition (3.13) of
# Al-Mohy & Higham (2011), about 63 for one vector; above it scipy calls
# onenormest, which draws from the global np.random stream.
_STEP_NORM_MAX = 60.0
# Steps equal to this many digits of the largest step share one exponential:
# round-off spreads the n steps of a linspace grid by about n eps relative.
_STEP_DIGITS = 9


def _distinct_steps(steps: np.ndarray):
    """Index of each distinct step's first occurrence and, per step, its
    index among the distinct ones (see _STEP_DIGITS)."""
    key = np.round(steps / (np.abs(steps).max(initial=0.0) or 1.0),
                   _STEP_DIGITS)
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    return first, which


@dataclass(frozen=True)
class _Plan:
    """Route chosen by ``_plan_route`` and what that route runs on."""

    route: str               # "dense" or "sparse"
    first: np.ndarray        # the dense route's grouping of the steps,
    which: np.ndarray        # as _distinct_steps returns it
    trace: complex           # trace of B, for expm_multiply
    splits: np.ndarray       # sparse substeps per grid step


def _plan_route(b, steps: np.ndarray) -> _Plan:
    """Pick the cheaper propagation route from sizes alone: dense iff
    n_distinct C_DENSE D^3 + n_steps C_DENSE_STEP D^2 <= n_substeps
    C_SPARSE.  ``b`` is a CSR matrix; the choice never depends on timings,
    so the route, and with it every result, is reproducible."""
    n = b.shape[0]
    trace = b.diagonal().sum()
    shift = (trace / n) * sp.identity(n, format="csr")
    norm = abs(b - shift).sum(axis=0).max()
    splits = np.maximum(1, np.ceil(np.abs(steps) * norm / _STEP_NORM_MAX))
    first, which = _distinct_steps(steps)
    dense_cost = (first.size * _C_DENSE * n**3
                  + steps.size * _C_DENSE_STEP * n**2)
    dense = dense_cost <= splits.sum() * _C_SPARSE
    return _Plan("dense" if dense else "sparse", first, which, trace,
                 splits.astype(int))


def _touched_rows(b, x: np.ndarray) -> np.ndarray:
    """Sorted indices of the rows that exp(B t) x can reach: the connected
    components of the pattern of |B| + |B|^T that hold a nonzero of x.
    B is block diagonal over its components, so every other row stays
    exactly zero.  The pattern is a copy; ``b`` is never written to."""
    # imported on first use, so that importing quoptics does not load csgraph
    from scipy.sparse.csgraph import connected_components

    pattern = abs(b)
    pattern.eliminate_zeros()
    _, label = connected_components(pattern, directed=False)
    seeded = np.unique(label[np.any(x, axis=tuple(range(1, x.ndim)))])
    return np.flatnonzero(np.isin(label, seeded))


def solve_linear(b, x0, t_grid) -> np.ndarray:
    """x(t) = exp(B (t - t_grid[0])) x0 sampled on t_grid.

    ``b`` is a dense array or a scipy.sparse matrix; ``x0`` is a vector or an
    (n, k) matrix of k initial columns, and the result has shape (nt, n) or
    (nt, n, k).  Only the blocks of B that x0 touches are propagated: the
    connected components of the nonzero pattern of |B| + |B|^T that hold an
    exact nonzero of x0 (a symmetry of B, such as the coherence order a
    thermal cavity conserves, splits it into such blocks).  Their principal
    submatrix is propagated at its own D and every other row is exactly 0.
    Two routes give the same numbers to round-off: one dense expm per
    distinct step (scaling and squaring, exact also for defective B), or
    step-split sparse expm_multiply, which never forms the dense
    exponential.  ``_plan_route`` takes whichever its cost model, which reads
    only D and the step counts, rates cheaper: dense for small or stiff
    generators on long grids, sparse for large ones on short grids and for
    very large ones on any grid.  B is held as complex CSR from entry on.
    """
    shape = np.shape(b)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValidationError("B must be square")
    b = sp.csr_matrix(b, dtype=complex)
    t = np.asarray(t_grid, dtype=float)
    if not (np.all(np.isfinite(b.data)) and np.all(np.isfinite(t))):
        raise ValidationError("B and t_grid must be finite")
    x = np.asarray(x0, dtype=complex)
    if x.ndim not in (1, 2) or x.shape[0] != b.shape[0]:
        raise ValidationError("x0 must have one row per row of B")
    keep = _touched_rows(b, x)
    if keep.size == b.shape[0]:
        return _propagate(b, x, np.diff(t))
    out = np.zeros((t.size,) + x.shape, dtype=complex)
    if keep.size:
        out[:, keep] = _propagate(b[keep][:, keep], x[keep], np.diff(t))
    return out


def _propagate(b, x: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """exp(B (t_k - t_0)) x for every grid point, on the planned route."""
    out = np.empty((steps.size + 1,) + x.shape, dtype=complex)
    out[0] = x
    plan = _plan_route(b, steps)
    if plan.route == "dense":
        dense = b.toarray()
        props = [expm(dense * steps[j]) for j in plan.first]
        for k, p in enumerate(plan.which):
            x = props[p] @ x
            out[k + 1] = x
    else:
        for k, (dt, n_sub) in enumerate(zip(steps, plan.splits)):
            h = dt / n_sub
            for _ in range(n_sub):
                x = expm_multiply(b * h, x, traceA=plan.trace * h)
            out[k + 1] = x
    return out
