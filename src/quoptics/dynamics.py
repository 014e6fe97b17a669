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

from .operators import (QuopticsError, ValidationError, _check_integer,
                        _check_scalars, _check_size, _finite_grid)
from .settings import DEFAULT


# ---------------------------------------------------------------------------
# Bloch equations
# ---------------------------------------------------------------------------

def validate_bloch(b) -> np.ndarray:
    b = np.asarray(b, dtype=float).reshape(3)
    if np.linalg.norm(b) > 1.0 + DEFAULT.eps_bloch:
        raise ValidationError(f"Bloch vector length {np.linalg.norm(b)} > 1")
    return b


# Magnus-Rodrigues Bloch propagator: the (h |alpha|)^4 T |alpha| aimed at
# over a span T, which holds the error summed over the span fixed (6e-3 rad
# per substep over 50 pi rad: 66 substeps per step on the rabi-bloch
# defaults), and the most substeps built and reduced in one pass, which
# bounds the memory at any drive strength
_MAGNUS_BUDGET = 6e-3 ** 4 * 50.0 * math.pi
_MAGNUS_CHUNK = 1 << 14
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


def _alpha_rows(alpha, t: np.ndarray) -> np.ndarray:
    values = np.asarray(alpha(t), dtype=float)
    try:
        return np.broadcast_to(values, (t.size, 3))
    except ValueError as exc:
        raise ValidationError(
            f"alpha(t) must broadcast to ({t.size}, 3) for {t.size} times"
        ) from exc


def _compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """(I + later)(I + earlier) - I for 3x3 matrices stored component-major,
    (3, 3, ...). Rotations are kept as their offset from I, so the unit
    diagonal is not rounded at every product and |b| holds to round-off over
    any number of substeps."""
    product = (later[:, 0, None] * earlier[0] + later[:, 1, None] * earlier[1]
               + later[:, 2, None] * earlier[2])
    return later + earlier + product


def _reduce(e: np.ndarray) -> np.ndarray:
    """Compose the rotations along the last axis, earliest first, as a
    pairwise tree."""
    while e.shape[-1] > 1:
        n = e.shape[-1]
        pair = _compose(e[..., 1:n:2], e[..., 0:n - 1:2])
        e = np.concatenate([pair, e[..., n - 1:]], axis=-1) if n % 2 else pair
    return e[..., 0]


def _substep_offsets(alpha, starts, h, j0: int, j1: int) -> np.ndarray:
    """R - I of substeps j0..j1-1 of each interval, shape (3, 3, k, j1 - j0).

    Interval i starts at starts[i] with substep h[i]. Each substep is the
    two-Gauss-point Magnus step w = (h/2)(a1 + a2) + (sqrt(3) h^2/12)(a2 x a1),
    exponentiated exactly by Rodrigues' formula
    R = I + (sin th/th) [w]_x + ((1 - cos th)/th^2) [w]_x^2, th = |w|.
    """
    base = starts[:, None] + h[:, None] * np.arange(j0, j1)
    hh = np.broadcast_to(h[:, None], base.shape)
    a1, a2 = (_alpha_rows(alpha, (base + g * hh).ravel()).T.reshape(
        3, *base.shape) for g in _GAUSS)
    w = 0.5 * hh * (a1 + a2) + (math.sqrt(3.0) / 12.0) * hh * hh * np.cross(
        a2, a1, axis=0)
    th2 = (w * w).sum(axis=0)
    # sinc is 1 at 0, so a zero-length or undriven substep is exactly I
    s1 = np.sinc(np.sqrt(th2) / math.pi)
    s2 = 0.5 * np.sinc(np.sqrt(th2) / (2.0 * math.pi)) ** 2
    # [w]_x^2 = w w^T - th^2 I
    e = s2 * w[:, None] * w[None, :]
    for i in range(3):
        e[i, i] -= s2 * th2
    sw = s1 * w
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        e[i, j] -= sw[k]
        e[j, i] += sw[k]
    return e


def _interval_offsets(alpha, t: np.ndarray, m: int) -> np.ndarray:
    """R - I of each grid interval at m substeps, shape (3, 3, t.size - 1),
    built and reduced at most _MAGNUS_CHUNK substeps at a time."""
    starts, h = t[:-1], np.diff(t) / m
    block = min(m, _MAGNUS_CHUNK)
    per_pass = max(1, _MAGNUS_CHUNK // m)
    out = np.empty((3, 3, starts.size))
    for i0 in range(0, starts.size, per_pass):
        rows = slice(i0, i0 + per_pass)
        acc = None
        for j0 in range(0, m, block):
            e = _reduce(_substep_offsets(alpha, starts[rows], h[rows], j0,
                                         min(j0 + block, m)))
            acc = e if acc is None else _compose(e, acc)
        out[..., rows] = acc
    return out


def _magnus_run(b0: np.ndarray, alpha, t: np.ndarray, m: int) -> np.ndarray:
    e = np.moveaxis(_interval_offsets(alpha, t, m), -1, 0)
    rows = np.empty((t.size, 3))
    rows[0] = b0
    for k in range(t.size - 1):
        rows[k + 1] = rows[k] + e[k] @ rows[k]
    return rows


def _magnus_substeps(t: np.ndarray, a_max: float) -> int:
    """Substeps m per grid step: h |alpha| <= (_MAGNUS_BUDGET / T a_max)^(1/4)
    on the longest step, T the whole span."""
    ratio = abs(t[-1] - t[0]) * a_max / _MAGNUS_BUDGET
    step = float(np.abs(np.diff(t)).max(initial=0.0))
    return max(1, math.ceil(step * a_max * ratio ** 0.25))


def integrate_bloch(b0, alpha, t_grid) -> np.ndarray:
    """Integrate db/dt = alpha(t) x b on a monotone grid; rows are b(t_grid).

    ``alpha`` is vectorized: an array of n times maps to the Hamiltonian
    coefficients (H = (alpha . sigma)/2) as anything that broadcasts to
    (n, 3), so a constant ``lambda _: np.zeros(3)`` works as it is.

    Each grid interval is cut into m equal substeps, m set by the largest
    |alpha| on the grid and the span T so that (h |alpha|)^4 T |alpha| is
    about 2e-7: the error then does not grow with the span. Each substep is a
    fourth-order two-Gauss-point Magnus rotation, exact through Rodrigues'
    formula, so |b| holds to round-off (Blanes, Casas, Oteo & Ros, Phys.
    Rep. 470, 151 (2009)). The run is repeated at 2m substeps and the finer
    one returned; its error is about 1/15 of the gap between the two. A gap
    above ``eps_magnus`` raises QuopticsError: alpha changes faster than
    its grid samples show (a pulse between grid points). Repeated times are
    zero-length steps, and a decreasing grid integrates backwards.
    """
    b0 = validate_bloch(b0)
    t = _finite_grid(t_grid, "t_grid")
    d = np.diff(t)
    if np.any(d > 0) and np.any(d < 0):
        raise ValidationError("t_grid must be monotone")
    a_max = float(np.linalg.norm(_alpha_rows(alpha, t), axis=1).max())
    if not math.isfinite(a_max):
        raise ValidationError("alpha(t) is not finite on t_grid")
    m = _magnus_substeps(t, a_max)
    coarse = _magnus_run(b0, alpha, t, m)
    fine = _magnus_run(b0, alpha, t, 2 * m)
    gap = float(np.abs(fine - coarse).max())
    if not gap <= DEFAULT.eps_magnus:
        raise QuopticsError(
            f"Bloch propagation at {m} and {2 * m} substeps per grid step "
            f"differs by {gap:.2e} > eps_magnus = {DEFAULT.eps_magnus:.0e}: "
            "alpha varies faster than its grid samples show")
    return fine


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
    _check_scalars(delta=delta, omega_rabi=omega_rabi)
    t_grid = _finite_grid(t_grid, "t_grid")
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
        _check_scalars(omega=omega)
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
        _check_scalars(omega=self.omega, epsilon=self.epsilon)
        _check_scalars(">= 0", g=self.g)

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
    _check_integer(n, "n", 1)
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
    t = _finite_grid(np.atleast_1d(t), "t")
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
    _check_scalars("> 0", nbar=nbar, g=g)
    t = _finite_grid(t_grid, "t_grid")
    # at least the term count hi - lo + 1 below, in floats, so that no
    # window edge is rounded before the check
    terms = 20.0 * math.sqrt(nbar) + 13.0
    _check_size(terms * t.size,
                f"nbar {nbar:.3g} needs about {terms:.3g} Poisson terms at "
                f"each of {t.size} times; their table")
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
        _check_scalars(delta=self.delta)
        _check_scalars(">= 0", g=self.g)


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
    t = _finite_grid(np.atleast_1d(t), "t").reshape(np.shape(t))
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
# exponential, which streams its 16 D^2 bytes once (3.5-8.4e-10 D^2
# measured from D 169 to 2116).  ``_plan_route`` charges that D^2 per grid
# step as if every point took its own product; on a grid of one group the
# block read-out (``_block_length``) pays it once per block of K points
# and about D per point with ``readout``.  The sparse route pays _C_PRODUCT +
# _C_PRODUCT_NNZ nnz per product of its Taylor loop, nnz that of h B - mu I,
# charged for the m* s products that bound each grid step (_Plan.products).  Measured per bounded product: 5.5-11.6 us from nnz 160
# to 6481 and 38 us at 38881 on driven cavities over 41 points, whose loops
# stop after about half the bound; 10.6-19.5 us from nnz 397 to 5457 and
# 35 us at 15097 on the OPO spectrum's tau grid, whose loops run nearly all
# of it; 7-8 us for D <= 6.  The constants sit between the two families,
# charging the first up to 1.6 times and the second down to 0.6 times what
# it takes.
_C_DENSE = 2e-9
_C_DENSE_STEP = 8e-10
_C_PRODUCT = 8e-6
_C_PRODUCT_NNZ = 1.2e-9
# Steps equal to this many digits of the largest step share one exponential:
# round-off spreads the n steps of a linspace grid by about n eps relative.
_STEP_DIGITS = 9
# The dense route's block read-out adds three costs to the laws above:
# _C_CALL per product that the step loop makes, its Python and numpy
# dispatch with the write of what it yields (0.8-1.2 us per matrix-vector
# product from D 2 to 31, 1.7-2.1 us per point for a product and its
# read-out); _C_EXPM per extra exponential beyond _C_DENSE D^3 (12-20 us
# at D <= 4, about 110 us beyond 2e-9 D^3 at D 31); and _C_SQUARE D^3 per
# doubling of K, the extra squaring that exp(K h B) takes over exp(h B)
# (1.5-2.3e-10 D^3 measured at D 84 and 169).  _C_EXPM sits at the top of
# its range, so that a grid where blocking would gain little keeps the
# chain.
_C_CALL = 1e-6
_C_EXPM = 1e-4
_C_SQUARE = 2e-10

# The sparse route's truncated-Taylor step is Algorithm 3.2 of Al-Mohy &
# Higham, SIAM J. Sci. Comput. 33, 488 (2011), with the operations and the
# stopping rule of scipy.sparse.linalg's exponential action, so that it gives
# the same bits.
# theta_m is the largest ||h A||_1 / s at which s steps of the degree-m
# Taylor polynomial hold the backward error to 2^-53: m <= 30 from table A.3
# of Higham & Al-Mohy, Acta Numer. 19, 159 (2010), m >= 35 from table 3.1 of
# the 2011 paper.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_DEGREES = np.array(list(_THETA))
_THETAS = np.array(list(_THETA.values()))
# The degree and scaling are read from the theta table alone (the first
# branch of code fragment 3.1) at any ||h (B - mu I)||_1: alpha_p(A) <=
# ||A||_1, so the table bounds the backward error for any norm.  scipy takes
# that branch only below condition (3.13), ||h A||_1 <= 63.4 for one column,
# and otherwise estimates norms of powers of A from draws of the global
# np.random stream, which can only save products.
_TAYLOR_TOL = 2.0 ** -53


def _distinct_steps(steps: np.ndarray):
    """Index of each distinct step's first occurrence and, per step, its
    index among the distinct ones (see _STEP_DIGITS)."""
    key = np.round(steps / (np.abs(steps).max(initial=0.0) or 1.0),
                   _STEP_DIGITS)
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    return first, which


def _taylor_degrees(norms: np.ndarray):
    """Taylor degree m* and scaling s per 1-norm ||h A||_1: the fewest m s
    products with ||h A||_1 / s <= theta_m, the smallest m on ties; (0, 1)
    for a zero norm.  Counted in floats, which hold every m s that can be
    the fewest exactly."""
    scalings = np.ceil(norms[:, None] / _THETAS)
    best = np.argmin(_DEGREES * scalings, axis=1)
    zero = norms == 0
    scalings = scalings[np.arange(norms.size), best].astype(int)
    return np.where(zero, 0, _DEGREES[best]), np.where(zero, 1, scalings)


def _full_diagonal(b):
    """CSR arrays (data, indices, indptr) of ``b`` with every diagonal entry
    stored, and where data holds the diagonal.  A missing entry is stored as
    zero after the row's entries left of the diagonal, so the rows stay
    sorted and each product sums a row in the order of scipy's b - mu I (a
    stored zero adds nothing)."""
    n = b.shape[0]
    rows = np.repeat(np.arange(n), np.diff(b.indptr))
    left = np.bincount(rows[b.indices < rows], minlength=n)
    bare = np.flatnonzero(
        np.bincount(rows[b.indices == rows], minlength=n) == 0)
    at = b.indptr[bare] + left[bare]
    indptr = b.indptr + np.searchsorted(bare, np.arange(n + 1))
    return ((np.insert(b.data, at, 0.0), np.insert(b.indices, at, bare),
             indptr), indptr[:-1] + left)


def _shifted(pattern: tuple, diagonal: np.ndarray, h, mu,
             out: np.ndarray) -> None:
    """Write the entries of h B - mu I into ``out``, stored as ``pattern``:
    the operations of scipy's b * h - mu * I."""
    np.multiply(pattern[0], h, out=out)
    out[diagonal] -= mu


def _one_norm(pattern: tuple, entries: np.ndarray) -> float:
    """Largest column sum of |entries| stored as ``pattern``, each column
    summed in row order as scipy sums it."""
    return np.bincount(pattern[1], np.abs(entries),
                       minlength=pattern[2].size - 1).max()


@dataclass(frozen=True)
class _Plan:
    """Route chosen by ``_plan_route`` and what that route runs on.

    Grid step k is taken as h = steps[which[k]], the first step of its group
    (``_distinct_steps``).  A group shares the shift mu = h tr(B) / D, the
    Taylor degree m* and the scaling s read from the 1-norm of h B - mu I.
    ``products`` sums m* s over all grid steps: the most products the
    sparse route takes, since its Taylor loop stops once two terms fall
    below 2^-53 of the sum.  ``pattern`` holds B with every diagonal entry
    stored (a zero where B stores none), so that one array of entries in
    its storage holds h B - mu I for any group."""

    route: str                # "dense" or "sparse"
    which: np.ndarray         # each grid step's group
    steps: np.ndarray         # h, the first step of each group
    shifts: tuple             # mu per group
    degrees: np.ndarray       # m* per group
    scalings: np.ndarray      # s per group
    products: int             # sum of m* s over all grid steps
    pattern: tuple            # CSR (data, indices, indptr) of that B
    diagonal: np.ndarray      # where pattern's data holds the diagonal


def _plan_route(b, steps: np.ndarray) -> _Plan:
    """Pick the cheaper propagation route from sizes alone: dense iff
    n_groups C_DENSE D^3 + n_steps C_DENSE_STEP D^2 <= products
    (C_PRODUCT + C_PRODUCT_NNZ nnz), with the sparse route's product bound
    and nnz those of h B - mu I (``_Plan``).  The steps are grouped once,
    and one 1-norm is formed per group.  ``b`` is canonical CSR; the choice
    never depends on timings, so the route, and with it every result, is
    reproducible."""
    n = b.shape[0]
    trace = b.diagonal().sum()
    pattern, diagonal = _full_diagonal(b)
    first, which = _distinct_steps(steps)
    firsts = steps[first]
    # mu and h B - mu I as scipy forms them from b * h and traceA = tr(B) h
    shifts = tuple(trace * h / float(n) for h in firsts)
    entries = np.empty_like(pattern[0])
    norms = np.empty(firsts.size)
    for i, (h, mu) in enumerate(zip(firsts, shifts)):
        _shifted(pattern, diagonal, h, mu, entries)
        norms[i] = _one_norm(pattern, entries)
    degrees, scalings = _taylor_degrees(norms)
    products = int((degrees * scalings)[which].sum())
    dense_cost = (firsts.size * _C_DENSE * n**3
                  + steps.size * _C_DENSE_STEP * n**2)
    dense = dense_cost <= products * (_C_PRODUCT
                                      + _C_PRODUCT_NNZ * entries.size)
    return _Plan("dense" if dense else "sparse", which, firsts, shifts,
                 degrees, scalings, products, pattern, diagonal)


def _block_length(n: int, points: int, width: int) -> int:
    """Grid points K per block of the dense route on a grid of ``points``
    points whose steps form one group, for an n x n B and ``width`` read-out
    rows per point (1 with ``readout``, n without); 1 is the plain chain.

    A block costs one product with E^K = exp(K h B) and one with
    W = [R E; ...; R E^(K-1)], R the read-out rows, against K - 1 products
    with E = exp(h B) and K read-outs on the chain.  Blocking adds one
    exponential, with its log2 K extra squarings, and the K - 1 products
    that form W.  With a = the cost of
    one row block of W and c = one product with E plus two calls, the
    blocked time (K - 1) a + (points / K) c is least at K = sqrt(points c /
    a), which is then held to a W no larger than E and the output together,
    (K - 1) width n <= n^2 + points width.  K is kept only where the whole
    blocked cost, the extra exponential included, is below the chain's."""
    step = _C_CALL + _C_DENSE_STEP * n * n
    row = _C_CALL + _C_DENSE_STEP * width * n * n
    k = round(math.sqrt(points * (step + 2 * _C_CALL) / row))
    k = min(k, 1 + (n * n + points * width) // (width * n))
    if k < 2:
        return 1
    blocks = -(-points // k)
    chain = (points - 1) * step + points * _C_CALL
    blocked = (_C_EXPM + (_C_DENSE + _C_SQUARE * math.log2(k)) * n**3
               + (k - 1) * row
               + (blocks - 1) * step + 2 * blocks * _C_CALL
               + (points - blocks) * _C_DENSE_STEP * width * n)
    return k if blocked < chain else 1


def _transpose_mirror(n: int, rows: np.ndarray) -> np.ndarray | None:
    """Position in ``rows`` of P(rows[k]) for each k, P the transpose
    permutation of vec(rho) for a d x d rho in Fortran order (rho[i, j] at
    i + d j goes to j + d i); None when n is not a square or ``rows`` is
    not closed under P."""
    d = math.isqrt(n)
    if d * d != n:
        return None
    images = rows // d + d * (rows % d)
    mirror = np.minimum(np.searchsorted(rows, images), rows.size - 1)
    return mirror if np.array_equal(rows[mirror], images) else None


@dataclass(frozen=True)
class _Fold:
    """The half of vec(rho) that the sparse route propagates for a
    J-invariant B and seed, J: x -> conj(x[P]) (``_hermitian_fold``).

    ``pattern`` holds the rows r <= P(r) of the plan's pattern, each in its
    stored order, with every column c renumbered as the entry of the work
    vector [u, conj(u)] that holds x[c]: u holds the rows r <= P(r) and
    conj(u) their images.  ``columns`` is that renumbering for every row,
    so that taking [u, conj(u)] at ``columns`` gives all of x."""

    rows: np.ndarray          # the rows r <= P(r), held as u
    pattern: tuple            # CSR (data, indices, indptr) of those rows
    diagonal: np.ndarray      # where pattern's data holds the diagonal
    columns: np.ndarray       # entry of [u, conj(u)] that holds each x[c]
    real: np.ndarray          # the rows r = P(r) within u: diag(rho)


def _hermitian_fold(plan: _Plan, x: np.ndarray, mirror) -> _Fold | None:
    """The fold of a sparse-route propagation, or None where it does not
    apply: ``mirror`` (``_transpose_mirror``) is None, or B or the seed x
    is not invariant, entry for entry, under J: x -> conj(x[P]), that is
    B[P][:, P] == conj(B) and x[P] == conj(x).  A stored zero equals an
    absent entry (a kron Liouvillian stores the zeros of whole blocks on
    one side of P only).  Lindblad generators are J-invariant and Hermitian
    seeds are, so then every exp(B t) x is too and its rows r > P(r) are the
    conjugates of rows r < P(r).  Checked in O(nnz)."""
    if mirror is None or not np.array_equal(x[mirror], x.conj()):
        return None
    n = x.size
    b = sp.csr_matrix(plan.pattern, shape=(n, n))
    if (b[mirror][:, mirror] != b.conj()).nnz:
        return None
    data, indices, indptr = plan.pattern
    upper = np.arange(n) <= mirror
    rank = np.cumsum(upper) - 1
    half = np.flatnonzero(upper)
    columns = np.where(upper, rank, half.size + rank[mirror])
    starts = indptr[half]
    lengths = indptr[half + 1] - starts
    half_indptr = np.concatenate(([0], np.cumsum(lengths)))
    take = (np.repeat(starts - half_indptr[:-1], lengths)
            + np.arange(half_indptr[-1]))
    return _Fold(half, (data[take], columns[indices[take]], half_indptr),
                 half_indptr[:-1] + (plan.diagonal[half] - starts),
                 columns, np.flatnonzero(mirror[half] == half))


def _touched_rows(b, x: np.ndarray) -> np.ndarray:
    """Sorted indices of the rows that exp(B t) x can reach for a vector x:
    the connected components of the pattern of |B| + |B|^T that hold a
    nonzero entry of x.
    B is block diagonal over its components, so every other row stays
    exactly zero.  The pattern is a copy; ``b`` is never written to."""
    # imported on first use, so that importing quoptics does not load csgraph
    from scipy.sparse.csgraph import connected_components

    pattern = abs(b)
    pattern.eliminate_zeros()
    _, label = connected_components(pattern, directed=False)
    seeded = np.unique(label[x != 0])
    return np.flatnonzero(np.isin(label, seeded))


def solve_linear(b, x0, t_grid, *, readout=None) -> np.ndarray:
    """x(t) = exp(B (t - t_grid[0])) x0 sampled on t_grid, or its read-out.

    ``b`` is a dense array or a scipy.sparse matrix of n rows and ``x0`` a
    vector of length n, and the result has shape (nt, n).  With ``readout``,
    a vector v of length n, it is the (nt,) series v . x(t), bilinear and
    not conjugated.  B, t_grid, x0 and v must be finite.  Only the
    blocks of B that x0 touches are propagated: the connected components of
    the nonzero pattern of |B| + |B|^T that hold an exact nonzero of x0 (a
    symmetry of B, such as the coherence order a thermal cavity conserves,
    splits it into such blocks).  Their principal submatrix, copied only
    when it is a part of B, is propagated at its own D, and each point is
    written once: into the block's rows of the result, or as its product
    with the block's entries of v, so no series of states is held.  Every
    other row stays exactly zero.  Both routes take each step as the first
    of its group of steps equal to _STEP_DIGITS digits, grouped once per
    call by ``_plan_route``, and give the same numbers to round-off: one
    dense expm per group (scaling and squaring, exact also for defective
    B), or one truncated Taylor series per grid step on the sparse B
    (Al-Mohy & Higham 2011; the bits of scipy's sparse exponential action),
    which never forms the dense exponential and draws nothing from
    np.random.  ``_plan_route`` takes whichever its cost model rates
    cheaper from D, nnz, the step and group counts and the Taylor product
    bound: dense for small or stiff generators on long grids, sparse for
    large ones on short grids and for very large ones on any grid.  B is
    held as canonical complex CSR from entry on.

    On the dense route, a grid whose steps form one group (every linspace
    grid) is read out in blocks of K points where ``_block_length`` rates
    that cheaper from D, nt and the read-out width: one product with
    exp(K h B) from block start to block start, and one product with
    W = [R E; ...; R E^(K-1)], E = exp(h B), R = v or I, for the K - 1
    points after each start, so about 2 nt / K products in all and about D
    work per point with ``readout`` instead of D^2.  W is formed once and
    held to the size of E and the result together.  K = 1, the plain
    chain x <- E x, is kept where the extra exponential and W cost more
    than blocking saves (short grids, larger D without ``readout``).

    Where n = d^2 rows hold vec(rho) of a d x d rho (Fortran order) and B
    and x0 are invariant under J: x -> conj(x[P]), P the transpose of rho,
    as Lindblad generators and Hermitian seeds are, the sparse route
    propagates only the d(d + 1)/2 rows of one triangle of rho on the same
    plan and writes the others as their conjugates (``_hermitian_fold``):
    about half the products' work, within round-off of the unfolded loop,
    and every output J-invariant to the bit.  The result, nt n entries or
    nt with ``readout``, is held to the element limit of ``_check_size``
    before anything is allocated.
    """
    shape = np.shape(b)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValidationError("B must be square")
    b = sp.csr_matrix(b, dtype=complex)
    if not b.has_canonical_format:
        # sorted and summed in a copy, so the caller's arrays stay as they are
        b = b.copy()
        b.sum_duplicates()
    t = _finite_grid(t_grid, "t_grid")
    x = np.asarray(x0, dtype=complex)
    v = x if readout is None else np.asarray(readout, dtype=complex)
    if x.shape != (b.shape[0],) or v.shape != x.shape:
        raise ValidationError(
            "x0 and readout must be vectors with one entry per row of B")
    if not all(np.isfinite(a).all() for a in (b.data, x, v)):
        raise ValidationError("B, x0 and readout must be finite")
    width = x.size if readout is None else 1
    _check_size(float(t.size) * width,
                f"{t.size} times of {width} entries each; the solution")
    keep = _touched_rows(b, x)
    out = np.zeros((t.size, x.size) if readout is None else t.size,
                   dtype=complex)
    if keep.size == 0:
        return out
    mirror = _transpose_mirror(b.shape[0], keep)
    rows = slice(None)
    if keep.size < b.shape[0]:
        b, x, rows = b[keep][:, keep], x[keep], keep
    plan = _plan_route(b, np.diff(t))
    if readout is None:
        for k, y in _propagate(b, x, plan, mirror, None):
            out[k, rows] = y
    else:
        for k, y in _propagate(b, x, plan, mirror, v[rows]):
            out[k] = y
    return out


def _taylor_step(a, f: np.ndarray, m_star: int, s: int, eta,
                 work, mag: np.ndarray) -> None:
    """f <- exp(A) f in place, A = h B - mu I, by s steps of the degree-m*
    Taylor polynomial, each scaled by eta = exp(mu / s).

    A step stops once two successive terms sum to at most 2^-53 ||F||_inf,
    F the partial sum.  ``bound`` is an upper bound on ||F||_inf, grown by
    each term's norm and by 1e-15 relative, more than the 6 2^-53 that one
    update of the sum and of the norms can round off, so ||F||_inf is
    computed only when the test can pass, and every stop falls where
    scipy's does.  ``mag`` is scratch for |f| and |term|."""
    for _ in range(s):
        c1 = bound = np.abs(f, out=mag).max()
        term = f
        for j in range(m_star):
            nxt = work[j % 2]
            np.multiply(1.0 / (s * (j + 1)), a @ term, out=nxt)
            c2 = np.abs(nxt, out=mag).max()
            np.add(f, nxt, out=f)
            bound = (bound + c2) * (1.0 + 1e-15)
            if c1 + c2 <= _TAYLOR_TOL * bound:
                bound = np.abs(f, out=mag).max()
                if c1 + c2 <= _TAYLOR_TOL * bound:
                    break
            c1 = c2
            term = nxt
        np.multiply(eta, f, out=f)


class _FoldedProduct:
    """u -> the rows r <= P(r) of A x, A = h B - mu I stored as
    ``_Fold.pattern`` in ``a`` and x the J-invariant vector whose rows
    r <= P(r) are u: one product with the half-height CSR, on the work
    vector [u, conj(u)].  ``expand`` gives all of x."""

    def __init__(self, a, fold: _Fold):
        self.a, self.fold = a, fold
        self.pair = np.empty(a.shape[1], dtype=complex)
        self.full = np.empty(fold.columns.size, dtype=complex)

    def _paired(self, u: np.ndarray) -> np.ndarray:
        self.pair[:u.size] = u
        np.conjugate(u, out=self.pair[u.size:])
        return self.pair

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        out = self.a @ self._paired(u)
        # the entries of diag(rho) are real: each row sums conjugate pairs,
        # whose imaginary parts cancel only to round-off when another entry
        # falls between them in the row's stored order
        out.imag[self.fold.real] = 0.0
        return out

    def expand(self, u: np.ndarray) -> np.ndarray:
        return np.take(self._paired(u), self.fold.columns, out=self.full)


def _propagate(b, x: np.ndarray, plan: _Plan, mirror, v):
    """Yield (k, y) for every grid point k in order, on the planned route:
    y is the state exp(B (t_k - t_0)) x or, with the read-out vector v (not
    None), the read-out v . x.  k may also be a slice of consecutive
    points, whose states (one row each) or read-outs y holds.  The sparse
    route yields a view of its working array, which the next step
    overwrites, so each y must be read before the next is drawn.

    The dense route takes one expm per group of steps.  When the steps form
    one group and ``_block_length`` gives K > 1, it steps from block start
    to block start, every K points, with E^K = expm(K h B), and writes the
    K - 1 points after each start as one product W s with the block start
    s, W = [R E; ...; R E^(K-1)] formed once (R = v, or I without v).  At
    K = 1 that is the chain x <- E x, point by point.

    On the sparse route a J-invariant B and x (``_hermitian_fold``, with
    ``mirror`` from ``_transpose_mirror``) are propagated on the rows
    r <= P(r) alone, d(d + 1)/2 of the d^2, through ``_FoldedProduct``,
    with the plan's m*, s and steps.  The shift is Re mu: tr(B) is real,
    and the imaginary part that its sum rounds to cancels between h B - mu I
    and exp(mu) in the unfolded loop, but would break the symmetry here.
    |conj z| = |z|, so the norms and every stop are those of all of x."""
    def read(s):
        return s if v is None else v @ s

    yield 0, read(x)
    which = plan.which.tolist()
    if plan.route == "dense":
        dense = b.toarray()
        n, points = x.size, len(which) + 1
        width = n if v is None else 1
        k = _block_length(n, points, width) if plan.steps.size == 1 else 1
        props = [expm(dense * (k * h)) for h in plan.steps]
        if k > 1:
            e = expm(dense * plan.steps[0])
            w = np.empty(((k - 1) * width, n), dtype=complex)
            w[:width] = read(e)
            for j in range(width, w.shape[0], width):
                np.matmul(w[j - width:j], e, out=w[j:j + width])
        for start in range(0, points, k):
            if start:
                x = props[which[start - 1]] @ x
                yield start, read(x)
            if k > 1:
                run = slice(start + 1, min(start + k, points))
                y = w[:(run.stop - run.start) * width] @ x
                yield run, y if v is not None else y.reshape(-1, n)
        return
    fold = _hermitian_fold(plan, x, mirror)
    if fold is None:
        pattern, diagonal, f = plan.pattern, plan.diagonal, x.copy()
        shape = b.shape
    else:
        pattern, diagonal, f = fold.pattern, fold.diagonal, x[fold.rows]
        shape = (f.size, 2 * f.size)
    # h B - mu I of the current group, rewritten when the group changes
    a = sp.csr_matrix((np.empty_like(pattern[0]),) + pattern[1:],
                      shape=shape)
    product = a if fold is None else _FoldedProduct(a, fold)
    work = (np.empty_like(f), np.empty_like(f))
    mag = np.empty(f.size)
    current = -1
    degrees, scalings = plan.degrees.tolist(), plan.scalings.tolist()
    for k, p in enumerate(which, 1):
        if p != current:
            m_star, s, mu = degrees[p], scalings[p], plan.shifts[p]
            if fold is not None:
                mu = mu.real
            _shifted(pattern, diagonal, plan.steps[p], mu, a.data)
            # 1.0 * mu as scipy scales it, down to the sign of a zero
            eta = np.exp(1.0 * mu / float(s))
            current = p
        _taylor_step(product, f, m_star, s, eta, work, mag)
        yield k, read(f if fold is None else product.expand(f))
