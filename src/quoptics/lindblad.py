"""Lindblad master-equation engine and the linear quantum-Langevin engine.

Superoperators act on column-stacked density matrices: vec(rho) stacks the
columns of rho (Fortran order), so vec(A rho B) = (B^T kron A) vec(rho).
The identities implied by that convention are unit-tested against direct
dissipator application.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_continuous_lyapunov
from scipy.sparse.linalg import splu

from .dynamics import _step_exponentials, solve_linear
from .operators import (
    BasisMismatchError,
    BasisSpec,
    DensityMatrix,
    KetState,
    Operator,
    QuopticsError,
    ValidationError,
    _finite_grid,
    _frozen,
    fock_basis,
    fock_ops,
    herm_residual,
)
from .settings import DEFAULT


def vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of vec; a stack of vec rows, as solve_linear returns for a
    series, becomes the stack of matrices."""
    d = int(round(math.sqrt(v.shape[-1])))
    return v.reshape(v.shape[:-1] + (d, d)).swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriveTerm:
    """Injection term amp * e^{-i freq t} A^dag + amp* e^{+i freq t} A."""

    op: Operator
    amp: complex
    frequency: float


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus (rate, jump-operator) pairs, all on one basis.

    The dissipator convention is kappa * (2 J rho J^dag - J^dag J rho
    - rho J^dag J).  The model is static: a lab-frame monochromatic drive
    enters through ``frame_transform``, which makes it time independent.
    """

    basis: BasisSpec
    h: Operator
    jumps: tuple

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple(self.jumps))
        if self.h.basis != self.basis:
            raise BasisMismatchError("Hamiltonian basis mismatch")
        for rate, op in self.jumps:
            if not 0.0 <= rate < math.inf:
                raise ValidationError("jump rates must be finite and >= 0")
            if op.basis != self.basis:
                raise BasisMismatchError("jump-operator basis mismatch")

    def validate(self) -> None:
        res = herm_residual(self.h.entries)
        if not res <= DEFAULT.eps_herm:
            raise ValidationError(f"Hamiltonian residual {res:.3e}")

    @cached_property
    def h_eff(self) -> np.ndarray:
        """Read-only H - i sum_j kappa_j J_j^dag J_j, the no-jump generator;
        its first access validates H for every engine that reads the model."""
        self.validate()
        h_eff = self.h.entries.astype(complex)
        for rate, op in self.jumps:
            h_eff = h_eff - 1j * rate * (op.entries.conj().T @ op.entries)
        h_eff.setflags(write=False)
        return h_eff

    @cached_property
    def liouvillian(self) -> sp.csr_matrix:
        """Sparse CSR matrix of rho -> K rho + rho K^dag + sum_j 2 kappa_j J_j
        rho J_j^dag with K = -i h_eff, which is -i[H, rho] + sum_j kappa_j
        D_j[rho]; built and checked on first access and kept for every engine.

        The model is immutable, so the cache cannot go stale: frame_transform
        and dataclasses.replace make new models, which start without it.  No
        engine writes to the matrix; vstack, toarray, b * h and b - shift all
        make new arrays."""
        d = self.basis.total_dim
        k = -1j * self.h_eff
        eye = sp.identity(d, dtype=complex, format="csr")
        liouv = sp.kron(eye, k) + sp.kron(k.conj(), eye)
        for rate, op in self.jumps:
            liouv += 2.0 * rate * sp.kron(op.entries.conj(), op.entries)
        liouv = liouv.tocsr()
        res = float(np.abs(vec(np.eye(d, dtype=complex)).conj() @ liouv).max())
        if not res <= DEFAULT.eps_sup * max(1.0, abs(liouv).max()):
            raise ValidationError(f"Liouvillian trace residual {res:.3e}")
        return liouv


@dataclass(frozen=True)
class Superoperator:
    matrix: np.ndarray
    basis: BasisSpec

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))


@dataclass(frozen=True)
class CavityParams:
    """Driven, damped cavity in the frame rotating at the laser frequency."""

    omega_c: float
    gamma: float
    delta: float          # laser frequency minus cavity frequency
    drive: complex        # injection rate E
    nbar: float = 0.0

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValidationError("gamma must be positive")
        if not self.nbar >= 0:
            raise ValidationError("nbar must be >= 0")


def driven_cavity_model(p: CavityParams, n_max: int) -> LindbladModel:
    """Rotating-frame Lindblad model of the driven cavity."""
    ops = fock_ops(n_max)
    basis = fock_basis(n_max)
    h = (-p.delta) * ops.n + 1j * p.drive * ops.a_dag - 1j * np.conj(p.drive) * ops.a
    jumps = [((p.nbar + 1.0) * p.gamma, ops.a)]
    if p.nbar > 0:
        jumps.append((p.nbar * p.gamma, ops.a_dag))
    return LindbladModel(basis, h, tuple(jumps))


# ---------------------------------------------------------------------------
# Superoperator construction and propagation
# ---------------------------------------------------------------------------

def lindblad_rhs(m: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] + sum_j kappa_j D_j[rho], applied to rho directly: the
    reference the tests check ``LindbladModel.liouvillian`` against."""
    h = m.h.entries
    out = -1j * (h @ rho - rho @ h)
    for rate, op in m.jumps:
        j = op.entries
        jd = j.conj().T
        jdj = jd @ j
        out += rate * (2.0 * (j @ rho @ jd) - jdj @ rho - rho @ jdj)
    return out


def build_liouvillian(m: LindbladModel) -> Superoperator:
    """Dense view of ``m.liouvillian``, kept only for the benchmark until
    ROADMAP item 13 deletes it with ``Superoperator``."""
    dense = m.liouvillian.toarray()
    dense.setflags(write=False)
    return Superoperator(dense, m.basis)


def evolve_master(rho0: DensityMatrix, m: LindbladModel,
                  t_grid) -> list[DensityMatrix]:
    """Master-equation evolution sampled on t_grid (t_grid[0] is the
    initial time); each output is re-validated as a density matrix."""
    rho0.validate()
    if rho0.basis != m.basis:
        raise BasisMismatchError("state/model basis mismatch")
    mats = unvec(solve_linear(m.liouvillian, vec(rho0.entries), t_grid))
    out = []
    for k, mat in enumerate(mats):
        rho = DensityMatrix(m.basis, mat)
        try:
            rho.validate()
        except ValidationError as err:
            raise ValidationError(
                f"state invariant violated at t={np.asarray(t_grid)[k]}: {err}"
            ) from err
        out.append(rho)
    return out


# inverse-iteration steps on B^dag B that estimate sigma_min(B)
_SIGMA_MIN_STEPS = 4
# sigma_min(B) below this fraction of max|L| means a (nearly) degenerate null
# space: such a B is singular to working precision, so no state is unique
_SS_SIGMA_FLOOR = 1e-10
# largest |L rho| accepted, per max(max|L|, 1): round-off of one LU solve
_SS_RES = 1e-9


def steady_state(m: LindbladModel) -> DensityMatrix:
    """Null vector of the Liouvillian, Hermitized and trace-normalized.

    Row 0 of L is replaced by the trace functional vec(I)^dag; the bordered
    matrix B is singular exactly when the steady state is not unique, since
    a second steady state leaves a traceless null vector of L.  One sparse
    LU of B both solves B x = e_0 and estimates sigma_min(B); a singular or
    nearly singular B raises with that estimate.
    """
    liouv = m.liouvillian
    d = m.basis.total_dim
    scale = abs(liouv).max()
    trace_row = sp.csr_matrix(vec(np.eye(d, dtype=complex)).conj())
    try:
        lu = splu(sp.vstack([trace_row, liouv[1:]], format="csc"))
    except RuntimeError as err:
        raise QuopticsError(f"steady state is not unique: {err}") from err
    # fixed, irregular start vector, so the estimate is deterministic
    v = np.exp(1j * np.sqrt(np.arange(d * d)))
    for _ in range(_SIGMA_MIN_STEPS):
        v = lu.solve(lu.solve(v, trans="H"))
        growth = np.linalg.norm(v)
        v /= growth
    # with |v| = 1 before the last step, |(B^dag B)^-1 v| -> 1/sigma_min^2;
    # a NaN estimate fails the test below and raises too
    sigma_min = growth ** -0.5
    if not sigma_min >= _SS_SIGMA_FLOOR * scale:
        raise QuopticsError(
            f"steady state is not unique: sigma_min of the trace-bordered "
            f"Liouvillian is about {sigma_min:.3e}"
        )
    rhs_vec = np.zeros(d * d, dtype=complex)
    rhs_vec[0] = 1.0
    rho = unvec(lu.solve(rhs_vec))
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / rho.trace().real
    out = DensityMatrix(m.basis, rho)
    res = np.max(np.abs(liouv @ vec(rho)))
    if res > _SS_RES * max(scale, 1.0):
        raise QuopticsError(f"steady-state residual {res:.3e}")
    return out


def moment_rhs(a: Operator, m: LindbladModel, state) -> complex:
    """d<A>/dt evaluated on a given state, tr(A L[rho]).  In Heisenberg form
    that is <[A, H]> / i + sum_j kappa_j (<[J^dag, A] J> + <J^dag [A, J]>)."""
    if a.basis != m.basis:
        raise BasisMismatchError("operator/model basis mismatch")
    rho = state.entries if isinstance(state, DensityMatrix) else \
        state.to_density_matrix().entries
    return complex(np.trace(a.entries @ unvec(m.liouvillian @ vec(rho))))


# ---------------------------------------------------------------------------
# Frame changes
# ---------------------------------------------------------------------------

# commutator residual, per max(1, max|entry|), that counts as zero in frame
# changes: round-off of a product of two dense operators
_COMM_TOL = 1e-10
# largest |c + 1| passing the drive check [G, A] = c A, c = -1: c carries
# the commutator round-off of _COMM_TOL, with a factor 10 of margin
_DRIVE_CHARGE_TOL = 1e-9


def _proportionality(commutator: np.ndarray, op: np.ndarray) -> float | None:
    """Return c with commutator = c * op, or None if not proportional."""
    norm = np.abs(op).max()
    if norm == 0:
        return 0.0 if np.abs(commutator).max() == 0 else None
    c = np.vdot(op, commutator) / np.vdot(op, op)
    if np.abs(commutator - c * op).max() > _COMM_TOL * max(
            1.0, np.abs(commutator).max()):
        return None
    return complex(c)


def frame_transform(m: LindbladModel, generator: Operator,
                    frequency: float,
                    drive: DriveTerm | None = None) -> LindbladModel:
    """Move to the frame rotating at ``frequency`` along a Hermitian generator.

    Requires [G, H] = 0 (so the static part is frame invariant) and each jump
    to satisfy [G, J] = c J (jumps only pick up phases, leaving dissipators
    unchanged).  A lab-frame ``drive`` with matching frequency and
    [G, A] = -A becomes the static term amp A^dag + amp* A.
    """
    g = generator.entries
    if herm_residual(g) > DEFAULT.eps_herm:
        raise ValidationError("frame generator must be Hermitian")
    h = m.h.entries
    if np.abs(g @ h - h @ g).max() > _COMM_TOL * max(1.0, np.abs(h).max()):
        raise QuopticsError("Hamiltonian does not commute with the generator")
    for _, op in m.jumps:
        if _proportionality(g @ op.entries - op.entries @ g, op.entries) is None:
            raise QuopticsError(
                "a jump operator is not phase-covariant under the generator"
            )
    h_new = h - frequency * g
    if drive is not None:
        if drive.op.basis != m.basis:
            raise BasisMismatchError("drive-operator basis mismatch")
        if abs(drive.frequency - frequency) > 0:
            raise QuopticsError(
                "drive frequency differs from the frame frequency; "
                "residual time dependence would remain"
            )
        a_op = drive.op.entries
        c = _proportionality(g @ a_op - a_op @ g, a_op)
        if c is None or abs(c + 1.0) > _DRIVE_CHARGE_TOL:
            raise QuopticsError("drive operator must satisfy [G, A] = -A")
        h_new = h_new + drive.amp * a_op.conj().T + np.conj(drive.amp) * a_op
    return LindbladModel(m.basis, Operator(m.basis, h_new), m.jumps)


# ---------------------------------------------------------------------------
# Driven-cavity closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CavityMoments:
    t: np.ndarray
    mean_a: np.ndarray     # <a>(t) in the rotating frame
    var_a: np.ndarray      # <d a^2>(t)
    n_fluct: np.ndarray    # <d a^dag d a>(t)
    steady_mean: complex
    steady_var: complex
    steady_n_fluct: float


def driven_cavity_analytic(p: CavityParams, t_grid, mean0: complex = 0.0,
                           var0: complex = 0.0,
                           nfluct0: float = 0.0) -> CavityMoments:
    """Closed-form first and second moments in the rotating frame.

    The steady amplitude is E / (gamma - i Delta), the sign fixed by the
    moment equation d<a>/dt = E - (gamma - i Delta) <a>.
    """
    t = np.asarray(t_grid, dtype=float)
    lam = p.gamma - 1j * p.delta
    decay = np.exp(-lam * t)
    mean = decay * mean0 + p.drive * (1.0 - decay) / lam
    var = np.exp(-2.0 * lam * t) * var0
    nf = np.exp(-2.0 * p.gamma * t) * nfluct0 + p.nbar * (
        1.0 - np.exp(-2.0 * p.gamma * t)
    )
    return CavityMoments(
        t=t, mean_a=mean, var_a=var, n_fluct=nf,
        steady_mean=complex(p.drive / lam), steady_var=0.0,
        steady_n_fluct=float(p.nbar),
    )


# ---------------------------------------------------------------------------
# Monte Carlo wave function
# ---------------------------------------------------------------------------

# substeps per random-number draw in mcwf_evolve
_MCWF_DRAW_BLOCK = 256


def _uniform_pairs(rngs: list, n_sub: int):
    """Yield (u1, u2), the jump and channel uniforms of each of n_sub
    substeps with one entry per stream.  One buffer of at most
    _MCWF_DRAW_BLOCK substeps is refilled from every stream in turn, so a
    stream's values do not depend on the block size."""
    block = np.empty((len(rngs), min(_MCWF_DRAW_BLOCK, n_sub), 2))
    for start in range(0, n_sub, _MCWF_DRAW_BLOCK):
        size = min(_MCWF_DRAW_BLOCK, n_sub - start)
        for i, rng in enumerate(rngs):
            rng.random(out=block[i, :size])
        yield from block[:, :size].transpose(1, 2, 0)


@dataclass(frozen=True)
class MCWFResult:
    t: np.ndarray
    populations: np.ndarray       # ensemble-averaged |amplitude|^2, (nt, dim)
    n_traj: int
    n_jumps: np.ndarray           # jump count per trajectory
    dt: float                     # smallest substep; <= 0.05 / rate bound
    seed: int


def mcwf_evolve(psi0: KetState, m: LindbladModel, t_grid, n_traj: int,
                seed: int) -> MCWFResult:
    """First-order jump/no-jump unraveling of the master equation.

    No-jump segments evolve under the model's non-Hermitian ``h_eff``
    (one exponential per distinct substep, from
    ``dynamics._step_exponentials``) with renormalization; jumps fire with probability
    p = 2 kappa dt <J^dag J>, evaluated at the start of the substep.  The
    model alone sets the substep, and nothing overrides it: every output
    interval is split evenly into steps of at most 0.05 / sum_j 2 kappa_j
    lambda_max(J_j^dag J_j), so the total p stays at or below 0.05.  The
    scheme is first order in dt, and so is its bias: a decaying atom
    (kappa = 1, dt = 0.025) survives to t = 0.5 with probability 0.95^20 =
    0.3585 instead of e^-1 = 0.3679, an error of -0.0094.  The waiting-time
    unravelling planned in ROADMAP.md removes this bias; a step argument
    would only shrink it.  Each trajectory draws from its own counter-split
    random stream, so the ensemble is reproducible for a fixed seed
    regardless of batching.  t_grid is a non-empty 1-D array of finite
    times that does not decrease; repeated points are allowed.
    """
    psi0.validate()
    if psi0.basis != m.basis:
        raise BasisMismatchError("state/model basis mismatch")
    t = _finite_grid(t_grid, "t_grid")
    if np.any(np.diff(t) < 0):
        raise ValidationError("t_grid must not decrease")
    for name, v, low in (("n_traj", n_traj, 1), ("seed", seed, 0)):
        if type(v) is bool or not isinstance(v, (int, np.integer)) or v < low:
            raise ValidationError(f"{name} must be an integer >= {low}")
    d = m.basis.total_dim
    jump_ops = [(rate, op.entries) for rate, op in m.jumps]
    rates = np.array([rate for rate, _ in jump_ops], dtype=float)

    # worst-case total jump rate over the truncated space sets the step
    rate_bound = 0.0
    for rate, j in jump_ops:
        rate_bound += 2.0 * rate * np.linalg.eigvalsh(j.conj().T @ j)[-1]
    # commensurate substepping of the output grid; without a jump rate each
    # interval is one exact step, and a zero-span grid divides nothing by 0
    if rate_bound > 0:
        dt = 0.05 / rate_bound
        steps = np.maximum(1, np.ceil(np.diff(t) / dt).astype(int))
    else:
        dt = t[-1] - t[0]
        steps = np.ones(t.size - 1, dtype=int)
    dts = np.diff(t) / steps

    props, which = _step_exponentials(-1j * m.h_eff, dts)

    # two uniforms per step per trajectory: jump decision, channel choice;
    # they are drawn in blocks, so memory stays at n_traj x _MCWF_DRAW_BLOCK
    # x 16 bytes whatever the output grid
    rngs = [np.random.default_rng(ss)
            for ss in np.random.SeedSequence(seed).spawn(n_traj)]

    psi = np.tile(psi0.amplitudes, (n_traj, 1)).astype(complex)
    pops = np.empty((t.size, d))
    pops[0] = np.mean(np.abs(psi) ** 2, axis=0)
    n_jumps = np.zeros(n_traj, dtype=int)

    for seg, n_sub in enumerate(steps):
        u_no_jump = props[which[seg]]
        for u1, u2 in _uniform_pairs(rngs, n_sub):
            # channel states J_j psi, (channels, n_traj, d), and their
            # probabilities p_j = 2 kappa_j dt <J^dag J>
            jpsi = np.array([psi @ j.T for _, j in jump_ops]).reshape(
                len(jump_ops), n_traj, d)
            probs = (2.0 * rates * dts[seg])[:, None] * np.sum(
                np.abs(jpsi) ** 2, axis=2)
            jumpers = np.nonzero(u1 < probs.sum(axis=0))[0]
            # pick each jumper's channel proportionally to its weight (the
            # slice cum[-1:] also divides the empty cum of a jumpless model)
            cum = np.cumsum(probs[:, jumpers], axis=0)
            cum /= cum[-1:]
            choice = (u2[jumpers][None, :] > cum).sum(axis=0)
            # every trajectory takes the no-jump step, then the jumpers
            # are overwritten with their normalized channel state
            evolved = psi @ u_no_jump.T
            psi = evolved / np.linalg.norm(evolved, axis=1, keepdims=True)
            jumped = jpsi[choice, jumpers]
            psi[jumpers] = jumped / np.linalg.norm(jumped, axis=1,
                                                   keepdims=True)
            n_jumps[jumpers] += 1
        pops[seg + 1] = np.mean(np.abs(psi) ** 2, axis=0)
    # a one-point grid has no substeps; its dt is the step that was chosen
    return MCWFResult(t=t, populations=pops, n_traj=n_traj,
                      n_jumps=n_jumps, dt=float(dts.min(initial=dt)),
                      seed=seed)


# ---------------------------------------------------------------------------
# Linear quantum-Langevin engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LangevinLinearModel:
    """dv/dt = A v + drive + noise with <xi(t) xi^dag(t')> = D delta(t-t').

    ``v`` collects mode operators (e.g. (a, a^dag) or quadratures); second
    moments are ordered as M = <v v^dag>.  ``kappa_out`` records the
    input-output scaling of the monitored mode (2 gamma for a cavity).
    """

    a: np.ndarray
    d: np.ndarray
    drive: np.ndarray | None = None
    kappa_out: float | None = None

    def __post_init__(self):
        a = _frozen(self.a)
        d = _frozen(self.d)
        if a.shape != d.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError("A and D must be square and equal-shaped")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)
        if self.drive is not None:
            object.__setattr__(self, "drive",
                               _frozen(self.drive).reshape(a.shape[0]))

    def hurwitz(self) -> bool:
        return bool(np.all(np.linalg.eigvals(self.a).real < 0))


@dataclass(frozen=True)
class SteadyMoments:
    mean: np.ndarray
    second: np.ndarray   # steady <delta v delta v^dag>


def langevin_steady(m: LangevinLinearModel) -> SteadyMoments:
    """Steady first/second moments: mean = -A^-1 drive and the solution of
    the continuous Lyapunov equation A M + M A^dag + D = 0."""
    if not m.hurwitz():
        raise QuopticsError("drift matrix is not Hurwitz; no steady state")
    mean = (np.linalg.solve(-m.a, m.drive) if m.drive is not None
            else np.zeros(m.a.shape[0], dtype=complex))
    second = solve_continuous_lyapunov(m.a, -m.d)
    return SteadyMoments(mean=mean, second=second)


def cavity_langevin_model(gamma: float, delta: float, drive: complex = 0.0,
                          nbar: float = 0.0) -> LangevinLinearModel:
    """Mode-vector (a, a^dag) model of the damped, driven cavity."""
    a = np.diag([-(gamma - 1j * delta), -(gamma + 1j * delta)]).astype(complex)
    d = 2.0 * gamma * np.diag([nbar + 1.0, nbar]).astype(complex)
    dr = np.array([drive, np.conj(drive)], dtype=complex)
    return LangevinLinearModel(a, d, drive=dr, kappa_out=2.0 * gamma)


def opo_langevin_model(gamma: float, g: float) -> LangevinLinearModel:
    """Mode-vector (a, a^dag) model of the resonant below-threshold OPO."""
    if not 0.0 <= g < gamma:
        raise ValidationError("below-threshold regime requires 0 <= g < gamma")
    a = np.array([[-gamma, g], [g, -gamma]], dtype=complex)
    d = 2.0 * gamma * np.diag([1.0, 0.0]).astype(complex)
    return LangevinLinearModel(a, d, kappa_out=2.0 * gamma)
