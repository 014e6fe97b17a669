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
from scipy.linalg import expm, solve_continuous_lyapunov
from scipy.sparse.linalg import splu

from .dynamics import _distinct_steps, solve_linear
from .operators import (
    BasisSpec,
    DensityMatrix,
    KetState,
    Operator,
    QuopticsError,
    ValidationError,
    _check_basis,
    _check_integer,
    _check_scalars,
    _check_size,
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
        _check_basis(self.h.basis, self.basis)
        for rate, op in self.jumps:
            _check_scalars(">= 0", rate=rate)
            _check_basis(op.basis, self.basis)

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
        _check_scalars("> 0", gamma=self.gamma)
        _check_scalars(delta=self.delta, drive=self.drive)
        _check_scalars(">= 0", nbar=self.nbar)


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
    dim = float(m.basis.total_dim) ** 2
    _check_size(dim * dim, f"the dense Liouvillian of a model on "
                f"{m.basis.factors}")
    dense = m.liouvillian.toarray()
    dense.setflags(write=False)
    return Superoperator(dense, m.basis)


def evolve_master(rho0: DensityMatrix, m: LindbladModel,
                  t_grid) -> list[DensityMatrix]:
    """Master-equation evolution sampled on t_grid (t_grid[0] is the
    initial time); each output is re-validated as a density matrix."""
    rho0.validate()
    _check_basis(rho0.basis, m.basis)
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
    _check_basis(a.basis, m.basis)
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
    _check_scalars(frequency=frequency)
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
        _check_basis(drive.op.basis, m.basis)
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
    t = _finite_grid(t_grid, "t_grid")
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

# bisection levels of mcwf_evolve: a jump time is located to 2^-30 of its
# output interval, far below the statistical error of any ensemble
_MCWF_LEVELS = 30
# state elements per chunk of mcwf_evolve (4 MB of amplitudes): an ensemble
# runs max(1, _MCWF_CHUNK // dim) trajectories at a time, so that its memory
# does not grow with n_traj beyond one jump count per trajectory
_MCWF_CHUNK = 2**18

# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, SC11): the multipliers of the
# two products of a round and the Weyl increments of the two key words
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]],
                     dtype=np.uint64)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B],
                     dtype=np.uint64)
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _philox_uniforms(key: np.ndarray, block: int,
                     rows: np.ndarray) -> np.ndarray:
    """The four uniforms in [0, 1) of Philox4x64-10 at counter (block, 0,
    row, 0) under ``key`` (two uint64 words), as one (rows.size, 4) array:
    the doubles ``Generator(Philox(key=key, counter=[block - 1, 0, row,
    0])).random(4)`` of numpy gives, since numpy steps the counter before
    each block.  Each 64 x 64-bit product takes its high word from 32-bit
    halves.  All arithmetic is on arrays, where uint64 wraps silently."""
    even = np.stack((np.full(rows.size, block, dtype=np.uint64), rows))
    odd = np.zeros_like(even)
    key = key.copy()
    m_lo, m_hi = _PHILOX_M & _LOW32, _PHILOX_M >> _SHIFT32
    for _ in range(10):
        lo, hi = even & _LOW32, even >> _SHIFT32
        p00, p01, p10 = lo * m_lo, lo * m_hi, hi * m_lo
        carry = ((p00 >> _SHIFT32) + (p01 & _LOW32)
                 + (p10 & _LOW32)) >> _SHIFT32
        mulhi = hi * m_hi + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + carry
        # (c0, c1, c2, c3) -> (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
        #                      hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))
        even, odd = mulhi[::-1] ^ odd ^ key[:, None], (even * _PHILOX_M)[::-1]
        key += _PHILOX_W
    words = np.stack((even[0], odd[0], even[1], odd[1]), axis=1)
    return (words >> np.uint64(11)) * 2.0**-53


class _Draws:
    """The uniform draws of trajectories first .. first + n - 1 of an
    ensemble.  Draw k of trajectory i is word k % 4 of the Philox4x64-10
    block at counter (k // 4 + 1, 0, i, 0): the k-th ``random()`` of
    ``Generator(Philox(key=key, counter=[0, 0, i, 0]))``.  A block is made
    for all n rows at once, the first time any row reads it; the columns
    that every row has read past are dropped then."""

    def __init__(self, key: np.ndarray, first: int, n: int):
        self._key = key
        self._rows = np.arange(first, first + n, dtype=np.uint64)
        self._drawn = np.zeros(n, dtype=np.int64)
        self._u = np.empty((n, 0))
        self._base = 0   # the draw that column 0 of _u holds

    def take(self, idx: np.ndarray, count: int) -> np.ndarray:
        """The next ``count`` draws of each row idx, as (idx.size, count)."""
        k = self._drawn[idx]
        end = int(k.max()) + count
        held = self._base + self._u.shape[1]
        if end > held:
            keep = int(self._drawn.min()) // 4 * 4
            blocks = range(held // 4 + 1, (end - 1) // 4 + 2)
            self._u = np.hstack(
                [self._u[:, keep - self._base:]]
                + [_philox_uniforms(self._key, b, self._rows) for b in blocks])
            self._base = keep
        self._drawn[idx] += count
        return self._u[idx[:, None], k[:, None] - self._base + np.arange(count)]


def _norm2(psi: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a C-ordered complex array."""
    re = psi.view(float)
    return np.einsum("ij,ij->i", re, re)


@dataclass(frozen=True)
class MCWFResult:
    t: np.ndarray
    populations: np.ndarray       # ensemble-averaged |amplitude|^2, (nt, dim)
    n_traj: int
    n_jumps: np.ndarray           # jump count per trajectory
    dt: float                     # shortest positive output interval, or 0.0
    seed: int


def _jump(psi, idx, r, draws, jumps, n_jumps) -> None:
    """Jump the trajectories idx: channel j with weight kappa_j |J_j psi|^2,
    then a normalized state and a new threshold r in (0, 1].  A trajectory
    whose weights are all 0 crossed by round-off alone: it is only
    renormalized.  Each jumper reads the pair from its own stream."""
    u = draws.take(idx, 2)
    jpsi = [psi[idx] @ j.T for _, j in jumps]
    # cumulative channel weights after a zero row, so cum[-1] is the total
    cum = np.zeros((len(jumps) + 1, idx.size))
    for c, ((rate, _), v) in enumerate(zip(jumps, jpsi)):
        cum[c + 1] = cum[c] + rate * _norm2(v)
    # the last channel takes what is left, so no zero weight is picked
    choice = (u[:, 0] * cum[-1] > cum[1:-1]).sum(axis=0)
    fired = cum[-1] > 0
    for c, v in enumerate(jpsi):
        sel = fired & (choice == c)
        psi[idx[sel]] = v[sel]
    psi[idx] /= np.sqrt(_norm2(psi[idx]))[:, None]
    n_jumps[idx[fired]] += 1
    r[idx] = 1.0 - u[:, 1]


def _advance(psi, r, table, draws, jumps, n_jumps) -> np.ndarray:
    """The states of every trajectory one output interval after psi.

    table[k] is U(step / 2^k) for k = 0.._MCWF_LEVELS.  A trajectory takes
    a piece only while its squared norm stays above its threshold r.  One
    product by table[0] carries every trajectory that does not cross r in
    the interval.  The others sweep the finer levels: a trajectory hunting
    a crossing halves the window that holds it at every level, the finest
    level takes the last piece and jumps, and a trajectory that jumped
    sweeps again, offered the binary digits of the time it has left
    (counted in units of the finest piece), largest first, with a new
    crossing hunted as before.  A sweep works on its own rows' states,
    time left and hunting flags, and writes the states back once."""
    top = _MCWF_LEVELS
    out = psi @ table[0].T
    act = np.flatnonzero(~(_norm2(out) > r))
    p, left = psi[act], np.full(act.size, 1 << top, dtype=np.int64)
    hunting = np.ones(act.size, dtype=bool)
    while act.size:
        rr = r[act]
        for level in range(1, top):
            piece = 1 << (top - level)
            tri = hunting | ((left & piece) > 0)
            if tri.any():
                phi = p @ table[level].T
                take = tri & (_norm2(phi) > rr)
                hunting |= tri ^ take
                np.copyto(p, phi, where=take[:, None])
                left -= piece * take
        tri = hunting | ((left & 1) > 0)
        phi = p @ table[top].T
        hunting |= tri & ~(_norm2(phi) > rr)
        np.copyto(p, phi, where=tri[:, None])
        left -= tri
        out[act] = p
        if hunting.any():
            _jump(out, act[hunting], r, draws, jumps, n_jumps)
        more = left > 0
        act, left = act[more], left[more]
        p, hunting = out[act], np.zeros(act.size, dtype=bool)
    return out


def mcwf_evolve(psi0: KetState, m: LindbladModel, t_grid, n_traj: int,
                seed: int) -> MCWFResult:
    """Waiting-time unravelling of the master equation (Dalibard, Castin &
    Molmer, PRL 68, 580 (1992); Plenio & Knight, RMP 70, 101 (1998)).

    Each trajectory evolves an unnormalized psi under the model's
    non-Hermitian ``h_eff`` and draws a threshold r, uniform in (0, 1]; it
    jumps when |psi|^2 falls to r, so its waiting time has exactly the
    no-jump survival law and the scheme has no time-step bias.  Every output
    interval is one product by U(step) per trajectory.  A trajectory that
    crosses r locates the crossing by bisection over precomputed U(step /
    2^k), k = 0..30, to 2^-30 of the interval, jumps through channel j with
    weight kappa_j |J_j psi|^2, is renormalized, draws a new r and finishes
    the interval with the dyadic pieces of the time left, checking each for
    a new crossing.  Populations are those of the normalized psi at the
    output points.

    The draws come from one counter-based stream, Philox4x64-10 (Salmon et
    al., SC11) keyed by ``SeedSequence(seed).generate_state(2, np.uint64)``:
    trajectory i reads the uniforms of ``Generator(Philox(key=key,
    counter=[0, 0, i, 0]))`` in order, one at the start and two per jump.
    So the ensemble is reproducible for a fixed seed, each trajectory is
    independent of how many others run, and the global ``np.random`` state
    is not touched.  The trajectories run in chunks of at most 2^18 state
    elements, and the populations are summed chunk by chunk, so memory
    beyond one chunk grows only by one jump count per trajectory.  ``dt``
    is the shortest positive output interval (0.0 if there is none): on an
    even grid, the span a trajectory advances between jump checks.  t_grid
    is a non-empty 1-D array of finite times that does not decrease;
    repeated points are allowed.
    """
    psi0.validate()
    _check_basis(psi0.basis, m.basis)
    t = _finite_grid(t_grid, "t_grid")
    if np.any(np.diff(t) < 0):
        raise ValidationError("t_grid must not decrease")
    _check_integer(n_traj, "n_traj", 1)
    _check_size(n_traj, f"n_traj {n_traj} (one jump count per trajectory)")
    _check_integer(seed, "seed", 0)
    jumps = [(rate, op.entries) for rate, op in m.jumps]
    gen = -1j * m.h_eff
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    dim = m.basis.total_dim
    per_chunk = max(1, _MCWF_CHUNK // dim)
    ket = psi0.amplitudes.astype(complex)
    n_jumps = np.zeros(n_traj, dtype=int)
    pops = np.zeros((t.size, dim))
    steps = np.diff(t)
    first, which = _distinct_steps(steps)
    fractions = 0.5 ** np.arange(_MCWF_LEVELS + 1)
    group = None
    for start in range(0, n_traj, per_chunk):
        n = min(per_chunk, n_traj - start)
        draws = _Draws(key, start, n)
        counts = n_jumps[start:start + n]
        r = 1.0 - draws.take(np.arange(n), 1)[:, 0]
        psi = np.tile(ket, (n, 1))
        for k in range(t.size):
            if k and steps[k - 1] > 0:
                if which[k - 1] != group:
                    group = which[k - 1]
                    table = expm(gen * steps[first[group]]
                                 * fractions[:, None, None])
                psi = _advance(psi, r, table, draws, jumps, counts)
            pops[k] += np.sum(np.abs(psi) ** 2 / _norm2(psi)[:, None], axis=0)
    pops /= n_traj
    positive = steps[steps > 0]
    return MCWFResult(t=t, populations=pops, n_traj=n_traj, n_jumps=n_jumps,
                      dt=float(positive.min()) if positive.size else 0.0,
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
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(d))):
            raise ValidationError("A and D must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)
        if self.drive is not None:
            drive = _frozen(self.drive).reshape(a.shape[0])
            if not np.all(np.isfinite(drive)):
                raise ValidationError("drive must be finite")
            object.__setattr__(self, "drive", drive)
        if self.kappa_out is not None:
            _check_scalars(">= 0", kappa_out=self.kappa_out)

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
    _check_scalars(gamma=gamma, delta=delta, drive=drive, nbar=nbar)
    a = np.diag([-(gamma - 1j * delta), -(gamma + 1j * delta)]).astype(complex)
    d = 2.0 * gamma * np.diag([nbar + 1.0, nbar]).astype(complex)
    dr = np.array([drive, np.conj(drive)], dtype=complex)
    return LangevinLinearModel(a, d, drive=dr, kappa_out=2.0 * gamma)


def opo_langevin_model(gamma: float, g: float) -> LangevinLinearModel:
    """Mode-vector (a, a^dag) model of the resonant below-threshold OPO."""
    _check_scalars(">= 0", gamma=gamma, g=g)
    if not g < gamma:
        raise ValidationError("below-threshold regime requires 0 <= g < gamma")
    a = np.array([[-gamma, g], [g, -gamma]], dtype=complex)
    d = 2.0 * gamma * np.diag([1.0, 0.0]).astype(complex)
    return LangevinLinearModel(a, d, kappa_out=2.0 * gamma)
