"""Truncated-Fock and two-level operator algebra.

Everything is dense complex numpy; Hilbert spaces are ordered tensor products
of Fock factors (cutoff ``n_max``, dimension ``n_max + 1``) and two-level
factors ordered (|e>, |g>).  Values are immutable after construction and all
operations are pure functions, so they are safe to share between threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .settings import (
    DEFAULT,
    _coherent_cutoff_float,
    _squeezed_cutoff_float,
    _thermal_cutoff_float,
)


class QuopticsError(Exception):
    """Base class for toolkit errors."""


class BasisMismatchError(QuopticsError):
    pass


class ValidationError(QuopticsError):
    pass


# ---------------------------------------------------------------------------
# Basis bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fock:
    """Bosonic factor truncated at photon number ``n_max`` (dim n_max + 1)."""

    n_max: int

    def __post_init__(self):
        _check_integer(self.n_max, "n_max", 1)

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class TwoLevel:
    """Two-level factor ordered (|e>, |g>)."""

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class BasisSpec:
    """Ordered tensor product of subsystem factors.

    The first factor owns the slowest-varying index of the composite space
    (numpy Kronecker convention).
    """

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValidationError("BasisSpec needs at least one factor")
        d = float(self.total_dim)
        _check_size(d * d, f"one dense operator on the basis {self.factors}")

    @property
    def total_dim(self) -> int:
        d = 1
        for f in self.factors:
            d *= f.dim
        return d

    @property
    def dims(self) -> tuple:
        return tuple(f.dim for f in self.factors)

    def single_fock(self) -> Fock:
        if len(self.factors) != 1 or not isinstance(self.factors[0], Fock):
            raise ValidationError("operation requires a single Fock factor")
        return self.factors[0]


def fock_basis(n_max: int) -> BasisSpec:
    return BasisSpec((Fock(n_max),))


def two_level_basis() -> BasisSpec:
    return BasisSpec((TwoLevel(),))


# ---------------------------------------------------------------------------
# Operators and states
# ---------------------------------------------------------------------------

def _frozen(a, dtype=complex) -> np.ndarray:
    """Read-only ``a`` as ``dtype``: a private copy, so that the caller's
    array cannot change it, or ``a`` itself when it already is a read-only,
    C-ordered ``dtype`` array that owns its memory (a result frozen by its
    maker), whose reshapes are read-only views."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.base is None
            and a.flags.c_contiguous and not a.flags.writeable):
        a = np.array(a, dtype=dtype)
        a.setflags(write=False)
    return a


def _finite_grid(values, name: str) -> np.ndarray:
    """``values`` as a float array, which must be non-empty, 1-D and
    finite."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 1 or a.size == 0 or not np.all(np.isfinite(a)):
        raise ValidationError(
            f"{name} must be a non-empty 1-D array of finite values")
    return a


def _check_scalars(bound: str = "", **values) -> None:
    """Each value must be one finite number, real or complex; a bound of
    ">= 0" or "> 0" also requires it real and within it.  NaN fails, and so
    does a value that is not a number, such as a string or None."""
    for name, v in values.items():
        try:
            ok = np.ndim(v) == 0 and np.isfinite(v) and (not bound or (
                np.isrealobj(v) and (v > 0 if bound == "> 0" else v >= 0)))
        except TypeError:
            ok = False
        if not ok:
            raise ValidationError(
                f"{name} must be finite {bound}".rstrip() + f", got {v!r}")


def _check_integer(v, name: str, low: int) -> None:
    """``v`` must be an int or numpy integer, not a bool, and >= low."""
    if type(v) is bool or not isinstance(v, (int, np.integer)) or v < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {v!r}")


# largest number of elements that one allocation sized by an input may hold
# (160 MB of complex values); the tests, the registry and the benchmark
# reach at most 1.3e6, in the Poisson table of collapse_revival
_MAX_ELEMENTS = 10**7


def _check_size(elements: float, what: str) -> None:
    """An allocation of ``elements`` elements, set by the input that ``what``
    describes, must be within the size limit.  Callers count in floats,
    before they allocate, so that no size overflows before the check; inf
    and NaN fail it."""
    if not elements <= _MAX_ELEMENTS:
        raise ValidationError(
            f"{what}: {elements:.3g} elements, above the size limit of "
            f"{_MAX_ELEMENTS:.0e}")


@dataclass(frozen=True)
class Operator:
    """Dense complex square matrix over a recorded basis (hbar = 1 units)."""

    basis: BasisSpec
    entries: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        arr = _frozen(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError("operator entries must be a square matrix")
        if arr.shape[0] != self.basis.total_dim:
            raise BasisMismatchError(
                f"matrix dim {arr.shape[0]} != basis dim {self.basis.total_dim}"
            )
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.basis, self.entries.conj().T)

    def is_hermitian(self) -> bool:
        return herm_residual(self.entries) <= DEFAULT.eps_herm

    def __matmul__(self, other):
        if isinstance(other, Operator):
            _check_basis(self.basis, other.basis)
            return Operator(self.basis, self.entries @ other.entries)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, Operator):
            _check_basis(self.basis, other.basis)
            return Operator(self.basis, self.entries + other.entries)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Operator):
            _check_basis(self.basis, other.basis)
            return Operator(self.basis, self.entries - other.entries)
        return NotImplemented

    def __mul__(self, scalar):
        if np.isscalar(scalar):
            return Operator(self.basis, self.entries * scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return Operator(self.basis, -self.entries)


@dataclass(frozen=True)
class KetState:
    """Normalized state vector; ``leakage`` records pre-normalization loss."""

    basis: BasisSpec
    amplitudes: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        v = _frozen(self.amplitudes).reshape(-1)
        if v.shape[0] != self.basis.total_dim:
            raise BasisMismatchError("amplitude length does not match basis")
        object.__setattr__(self, "amplitudes", v)

    def validate(self) -> None:
        n = np.linalg.norm(self.amplitudes)
        if not abs(n - 1.0) <= DEFAULT.eps_norm:
            raise ValidationError(f"ket norm {n} deviates from 1")

    def to_density_matrix(self) -> "DensityMatrix":
        v = self.amplitudes
        return DensityMatrix(self.basis, np.outer(v, v.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over a basis."""

    basis: BasisSpec
    entries: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        arr = _frozen(self.entries)
        if arr.shape != (self.basis.total_dim, self.basis.total_dim):
            raise BasisMismatchError("density matrix shape does not match basis")
        object.__setattr__(self, "entries", arr)

    def validate(self) -> None:
        h = herm_residual(self.entries)
        # each test is written so that NaN fails it
        if not h <= DEFAULT.eps_herm:
            raise ValidationError(f"hermiticity residual {h:.3e}")
        tr = self.entries.trace()
        if not abs(tr - 1.0) <= DEFAULT.eps_tr:
            raise ValidationError(f"trace {tr} deviates from 1")
        w = np.linalg.eigvalsh(0.5 * (self.entries + self.entries.conj().T))
        if not w.min() >= -DEFAULT.eps_psd:
            raise ValidationError(f"negative eigenvalue {w.min():.3e}")

    def purity(self) -> float:
        return float(np.real(np.trace(self.entries @ self.entries)))


def _check_basis(a: BasisSpec, b: BasisSpec) -> None:
    if a != b:
        raise BasisMismatchError("operands live on different bases")


def herm_residual(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


# ---------------------------------------------------------------------------
# Primitive operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FockOps:
    a: Operator
    a_dag: Operator
    n: Operator
    x: Operator
    p: Operator


def fock_ops(n_max: int) -> FockOps:
    """Ladder, number, and quadrature operators on the truncated Fock space.

    The ladder entries are exact (integer square roots), so [a, a_dag]
    equals the identity except for the (n_max, n_max) entry, which is -n_max.
    """
    basis = fock_basis(n_max)
    off = np.sqrt(np.arange(1, n_max + 1, dtype=float))
    a = np.diag(off, k=1).astype(complex)
    ad = a.conj().T
    return FockOps(
        a=Operator(basis, a),
        a_dag=Operator(basis, ad),
        n=Operator(basis, ad @ a),
        x=Operator(basis, ad + a),
        p=Operator(basis, 1j * (ad - a)),
    )


@dataclass(frozen=True)
class PauliOps:
    sx: Operator
    sy: Operator
    sz: Operator
    sm: Operator
    sp: Operator


def pauli_ops() -> PauliOps:
    """Pauli matrices in the (|e>, |g>) ordering; sm = (sx - i sy)/2 = |g><e|."""
    basis = two_level_basis()
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    sm = np.array([[0, 0], [1, 0]], dtype=complex)
    return PauliOps(
        sx=Operator(basis, sx),
        sy=Operator(basis, sy),
        sz=Operator(basis, sz),
        sm=Operator(basis, sm),
        sp=Operator(basis, sm.conj().T),
    )


def identity(basis: BasisSpec) -> Operator:
    return Operator(basis, np.eye(basis.total_dim, dtype=complex))


def tensor_embed(op: Operator, slot: int, basis: BasisSpec) -> Operator:
    """Embed a single-factor operator at ``slot`` of a composite basis."""
    _check_integer(slot, "slot", 0)
    if not slot < len(basis.factors):
        raise ValidationError(f"slot {slot} out of range")
    if op.dim != basis.factors[slot].dim:
        raise BasisMismatchError(
            f"operator dim {op.dim} != factor dim {basis.factors[slot].dim}"
        )
    out = np.ones((1, 1), dtype=complex)
    for i, f in enumerate(basis.factors):
        blk = op.entries if i == slot else np.eye(f.dim, dtype=complex)
        out = np.kron(out, blk)
    return Operator(basis, out)


def _truncation_warning(u: np.ndarray, keep: int, what: str) -> float:
    keep = max(1, keep)
    block = (u.conj().T @ u - np.eye(u.shape[0]))[:keep, :keep]
    res = float(np.max(np.abs(block)))
    if res > DEFAULT.eps_trunc:
        warnings.warn(
            f"{what}: unitarity residual {res:.2e} on the lower {keep}-block "
            f"exceeds {DEFAULT.eps_trunc:.1e}; increase n_max",
            stacklevel=3,
        )
    return res


def _exp_raising(coef: complex, dim: int, p: int = 1) -> np.ndarray:
    """exp(coef * a^dag^p) as an exact lower-triangular band matrix.

    (e^{c a^dag^p})_{m n} = c^k sqrt(m!/n!) / k! on the diagonals
    m - n = p k, evaluated in log space so large cutoffs stay finite.
    """
    from scipy.special import gammaln

    out = np.zeros((dim, dim), dtype=complex)
    n = np.arange(dim)
    logfact = gammaln(n + 1.0)
    mod = abs(coef)
    ph = coef / mod if mod else 0.0
    for k in range((dim - 1) // p + 1):
        rows = n[p * k:]
        cols = rows - p * k
        if mod == 0.0 and k > 0:
            break
        log_amp = (k * math.log(mod) if k else 0.0) \
            + 0.5 * (logfact[rows] - logfact[cols]) - gammaln(k + 1.0)
        out[rows, cols] = np.exp(log_amp) * (ph ** k)
    return out


def displacement_op(alpha: complex, n_max: int) -> Operator:
    """Displacement exp(alpha a^dag - alpha* a) on the truncated space.

    Built from the normal form e^{-|alpha|^2/2} e^{alpha a^dag}
    e^{-alpha* a}; the triangular factors make every retained matrix element
    the exact restriction of the untruncated operator, so the unitarity
    residual of the lower block is a faithful truncation diagnostic.  Warns
    (does not fail) when that residual exceeds eps_trunc; recommended
    n_max >= ceil(|alpha|^2 + 6 |alpha| + 10).
    """
    _check_scalars(alpha=alpha)
    basis = fock_basis(n_max)
    dim = basis.total_dim
    mod = abs(alpha)
    # the factors overflow where |alpha|^k does or their product does; the
    # operator is then refused rather than returned with inf or NaN entries
    with np.errstate(over="ignore", invalid="ignore"):
        lower = _exp_raising(alpha, dim)
        upper = _exp_raising(-np.conj(alpha), dim).T
        u = math.exp(-0.5 * (mod * mod)) * (lower @ upper)
    if not np.all(np.isfinite(u)):
        raise ValidationError(
            f"displacement_op: |alpha| = {mod:.3g} overflows the normal-"
            f"ordered form at n_max {n_max}")
    keep = dim - math.ceil(4.0 * mod)
    res = _truncation_warning(u, keep, "displacement_op")
    return Operator(basis, u, meta={"trunc_residual": res})


def squeeze_op(z: complex, n_max: int) -> Operator:
    """Squeezer exp((z*/2) a^2 - (z/2) a_dag^2) on the truncated space.

    Uses the factored form e^{-(eta/2) a_dag^2} (cosh r)^{-N - 1/2}
    e^{+(eta*/2) a^2} with eta = e^{i theta} tanh r, again an exact
    restriction of the untruncated operator; warns like displacement_op.
    """
    _check_scalars(z=z)
    basis = fock_basis(n_max)
    dim = basis.total_dim
    r = abs(z)
    if r == 0.0:
        return Operator(basis, np.eye(dim, dtype=complex),
                        meta={"trunc_residual": 0.0})
    eta = (z / r) * math.tanh(r)
    lower = _exp_raising(-0.5 * eta, dim, 2)
    upper = _exp_raising(0.5 * np.conj(eta), dim, 2).T
    n = np.arange(dim)
    try:
        mid = np.power(math.cosh(r), -(n + 0.5))
        keep = dim - math.ceil(4.0 * math.sinh(r) ** 2 + 4.0)
    except OverflowError:
        # r > 355: cosh r = e^r / 2 in floats, and no block of the cutoff
        # is free of truncation
        with np.errstate(over="ignore"):
            mid = np.exp(-(n + 0.5) * (r - math.log(2.0)))
        keep = 0
    u = (lower * mid[None, :]) @ upper
    res = _truncation_warning(u, keep, "squeeze_op")
    return Operator(basis, u, meta={"trunc_residual": res})


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

def _default_cutoff(n_max: float, what: str) -> int:
    """A default Fock cutoff, given as a float that is inf where its formula
    overflows, as an int once one dense operator at it is within the size
    limit; ``what`` names the state parameter that set it."""
    _check_size((n_max + 1.0) * (n_max + 1.0),
                f"{what} sets the default Fock cutoff {n_max:.3g}; one dense "
                f"operator at it")
    return int(n_max)


def coherent_state(alpha: complex, n_max: int | None = None) -> KetState:
    """Coherent amplitudes exp(-|alpha|^2/2) alpha^n / sqrt(n!), renormalized."""
    _check_scalars(alpha=alpha)
    if n_max is None:
        n_max = _default_cutoff(_coherent_cutoff_float(alpha),
                                f"alpha {alpha!r}")
    basis = fock_basis(n_max)
    n = np.arange(basis.total_dim)
    a = abs(alpha)
    if a == 0.0:
        amps = np.zeros(n_max + 1, dtype=complex)
        amps[0] = 1.0
        return KetState(basis, amps, leakage=0.0)
    from scipy.special import gammaln

    log_mod = n * math.log(a) - 0.5 * gammaln(n + 1) - 0.5 * a * a
    if complex(alpha).imag == 0.0:
        # exactly 1 or (-1)^n, where exp(i pi n) leaves imaginary parts of
        # 1e-16; complex, so that a positive alpha keeps its bits
        phase = (np.sign(complex(alpha).real) ** n).astype(complex)
    else:
        phase = np.exp(1j * np.angle(alpha) * n)
    amps = np.exp(log_mod) * phase
    return _normalized_ket(basis, amps)


def squeezed_vacuum(z: complex, n_max: int | None = None) -> KetState:
    """Even-Fock expansion of S(z)|0>, renormalized after truncation."""
    _check_scalars(z=z)
    r = abs(z)
    theta = np.angle(z) if r > 0 else 0.0
    if n_max is None:
        n_max = _default_cutoff(_squeezed_cutoff_float(r),
                                f"z {z!r} (r = |z| = {r:.3g})")
    basis = fock_basis(n_max)
    amps = np.zeros(basis.total_dim, dtype=complex)
    if r == 0.0:
        amps[0] = 1.0
        return KetState(basis, amps, leakage=0.0)
    try:
        log_cosh = math.log(math.cosh(r))
    except OverflowError:  # r > 710, where log cosh r = r - log 2 in floats
        log_cosh = r - math.log(2.0)
    from scipy.special import gammaln

    k = np.arange(0, n_max // 2 + 1)
    log_mod = (
        k * math.log(math.tanh(r))
        + 0.5 * gammaln(2 * k + 1)
        - k * math.log(2.0)
        - gammaln(k + 1)
        - 0.5 * log_cosh
    )
    phase = (-1.0) ** k * np.exp(1j * theta * k)
    amps[2 * k] = np.exp(log_mod) * phase
    return _normalized_ket(basis, amps)


def thermal_state(nbar: float, n_max: int | None = None) -> DensityMatrix:
    """Geometric photon-number mixture with mean occupation nbar."""
    _check_scalars(">= 0", nbar=nbar)
    if n_max is None:
        n_max = _default_cutoff(_thermal_cutoff_float(nbar), f"nbar {nbar!r}")
    basis = fock_basis(n_max)
    p = np.zeros(basis.total_dim)
    if nbar == 0.0:
        p[0] = 1.0
    else:
        n = np.arange(n_max + 1)
        p = np.exp(n * math.log(nbar) - (n + 1) * math.log(1.0 + nbar))
    leak = float(1.0 - p.sum())
    p = p / p.sum()
    return DensityMatrix(basis, np.diag(p.astype(complex)), leakage=leak)


def _normalized_ket(basis: BasisSpec, amps: np.ndarray) -> KetState:
    norm2 = float(np.sum(np.abs(amps) ** 2))
    if not norm2 > 0.0:
        raise ValidationError(
            f"every amplitude up to n_max {basis.total_dim - 1} underflows "
            f"to 0: the state lies above the cutoff")
    leak = 1.0 - norm2
    return KetState(basis, amps / math.sqrt(norm2), leakage=leak)


# ---------------------------------------------------------------------------
# Measures and maps
# ---------------------------------------------------------------------------

def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept factors (indices in original order)."""
    keep = list(keep)
    for k in keep:
        _check_integer(k, "keep index", 0)
    keep = tuple(sorted(set(int(k) for k in keep)))
    nf = len(rho.basis.factors)
    if not keep:
        raise ValidationError("keep set must not be empty")
    if any(k >= nf for k in keep):
        raise ValidationError("keep indices out of range")
    dims = rho.basis.dims
    t = rho.entries.reshape(dims + dims)
    traced = [i for i in range(nf) if i not in keep]
    # contract row/col indices of every traced factor, highest offset first
    for count, i in enumerate(sorted(traced)):
        ax = i - count  # axes shift as we trace out factors
        t = np.trace(t, axis1=ax, axis2=ax + (nf - count))
    d = 1
    for k in keep:
        d *= dims[k]
    new_basis = BasisSpec(tuple(rho.basis.factors[k] for k in keep))
    return DensityMatrix(new_basis, t.reshape(d, d))


def expectation(op: Operator, state) -> complex:
    """tr(rho A) for density matrices, <psi|A|psi> for kets."""
    _check_basis(op.basis, state.basis)
    if isinstance(state, KetState):
        v = state.amplitudes
        return complex(np.vdot(v, op.entries @ v))
    return complex(np.trace(state.entries @ op.entries))


def variance(op: Operator, state) -> float:
    """<A^2> - <A>^2; requires the imaginary part to vanish for Hermitian A."""
    mean = expectation(op, state)
    sq = expectation(Operator(op.basis, op.entries @ op.entries), state)
    var = sq - mean * mean
    if op.is_hermitian() and abs(var.imag) > 1e3 * DEFAULT.eps_herm:
        raise ValidationError(f"variance imaginary part {var.imag:.3e}")
    return float(var.real)


def propagator(h: Operator, t: float) -> Operator:
    """U(t) = exp(-i H t) by eigendecomposition; H must be Hermitian."""
    _check_scalars(t=t)
    res = herm_residual(h.entries)
    if res > DEFAULT.eps_herm:
        raise ValidationError(f"propagator needs Hermitian H (residual {res:.3e})")
    w, v = np.linalg.eigh(0.5 * (h.entries + h.entries.conj().T))
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    unit = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if unit > DEFAULT.eps_unit:
        raise ValidationError(f"unitarity residual {unit:.3e}")
    return Operator(h.basis, u, meta={"exp_method": "eigh", "unit_residual": unit})
