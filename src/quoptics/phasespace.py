"""Wigner functions, characteristic-free Gaussian calculus, symplectic maps.

Phase-space convention: r = (x, p), [X, P] = 2i, vacuum covariance V = I,
vacuum Wigner peak 1/(2 pi).  The normalization is asserted by the canary
test on the vacuum peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    DensityMatrix,
    QuopticsError,
    ValidationError,
    _frozen,
)
from .settings import DEFAULT

OMEGA_SYM = np.array([[0.0, 1.0], [-1.0, 0.0]])


class GridTooCoarseError(QuopticsError):
    """Raised when a phase-space grid would alias the state's oscillations."""


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseGrid:
    x_min: float
    x_max: float
    p_min: float
    p_max: float
    nx: int
    np: int

    def __post_init__(self):
        if self.x_max <= self.x_min or self.p_max <= self.p_min:
            raise ValidationError("grid bounds must be ordered")
        if self.nx < 2 or self.np < 2:
            raise ValidationError("grids need at least 2 points per axis")

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def p(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.np)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.np - 1)


def default_grid(n_max: int, points: int = 257) -> PhaseGrid:
    """Square grid covering the classically allowed region plus tails."""
    r = 2.0 * math.sqrt(n_max) + 4.0
    return PhaseGrid(-r, r, -r, r, points, points)


@dataclass(frozen=True)
class WignerGrid:
    grid: PhaseGrid
    values: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        v = _frozen(self.values, float)
        if v.shape != (self.grid.nx, self.grid.np):
            raise ValidationError("values shape must be (nx, np)")
        if not np.all(np.isfinite(v)):
            raise ValidationError("Wigner values must be finite")
        object.__setattr__(self, "values", v)

    def integral(self) -> float:
        return float(np.trapezoid(np.trapezoid(self.values, self.grid.p, axis=1),
                                  self.grid.x))


# ---------------------------------------------------------------------------
# Analytic Wigner functions
# ---------------------------------------------------------------------------

def _laguerre(n: int, s: np.ndarray) -> np.ndarray:
    """L_n(s) by the stable three-term recurrence."""
    s = np.asarray(s, dtype=float)
    prev = np.ones_like(s)
    if n == 0:
        return prev
    cur = 1.0 - s
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - s) * cur - k * prev) / (k + 1)
    return cur


def wigner_fock(n: int, x, p) -> np.ndarray:
    """Wigner function of |n><n|: ((-1)^n / 2pi) L_n(x^2+p^2) e^{-(x^2+p^2)/2}."""
    if n < 0:
        raise ValidationError("photon number must be >= 0")
    s = np.asarray(x, dtype=float) ** 2 + np.asarray(p, dtype=float) ** 2
    return ((-1.0) ** n / (2.0 * math.pi)) * _laguerre(n, s) * np.exp(-0.5 * s)


# ---------------------------------------------------------------------------
# Gaussian states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianState:
    """Mean vector d and 2x2 covariance V in the vacuum-variance-1 convention."""

    d: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", _frozen(self.d, float).reshape(2))
        object.__setattr__(self, "v", _frozen(self.v, float).reshape(2, 2))

    def validate(self) -> None:
        if not np.all(np.isfinite(self.d)):
            raise ValidationError("mean must be finite")
        # NaN fails each test, so a NaN covariance stops at the first
        if not np.max(np.abs(self.v - self.v.T)) <= DEFAULT.eps_herm:
            raise ValidationError("covariance must be symmetric")
        det = float(np.linalg.det(self.v))
        if not det >= 1.0 - DEFAULT.eps_gauss:
            raise ValidationError(f"uncertainty bound violated: det V = {det}")
        if not np.linalg.eigvalsh(self.v).min() > 0:
            raise ValidationError("covariance must be positive definite")


def vacuum_gaussian() -> GaussianState:
    return GaussianState(np.zeros(2), np.eye(2))


def wigner_gaussian(g: GaussianState, x, p) -> np.ndarray:
    """(2 pi sqrt(det V))^-1 exp(-(r-d)^T V^-1 (r-d) / 2), vectorized."""
    det = float(np.linalg.det(g.v))
    if det <= 0:
        raise ValidationError("singular covariance")
    vinv = np.linalg.inv(g.v)
    dx = np.asarray(x, dtype=float) - g.d[0]
    dp = np.asarray(p, dtype=float) - g.d[1]
    quad = vinv[0, 0] * dx * dx + 2.0 * vinv[0, 1] * dx * dp + vinv[1, 1] * dp * dp
    return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def gaussian_from_complex_moments(mean_a: complex, var_a: complex,
                                  n_fluct: float) -> GaussianState:
    """Gaussian state from <a>, <da^2>, <da^dag da>.

    d = 2(Re<a>, Im<a>); V = (1 + 2 n_fluct) I + 2 [[Re, Im], [Im, -Re]]<da^2>.
    """
    d = 2.0 * np.array([mean_a.real, mean_a.imag])
    v = (1.0 + 2.0 * n_fluct) * np.eye(2) + 2.0 * np.array(
        [[var_a.real, var_a.imag], [var_a.imag, -var_a.real]]
    )
    g = GaussianState(d, v)
    g.validate()
    return g


def gaussian_moment(v: np.ndarray, idx) -> float:
    """Centered Gaussian moment <dr_{i1} ... dr_{iN}> as a sum over pairings."""
    v = np.asarray(v, dtype=float)
    idx = tuple(int(i) for i in idx)
    if len(idx) % 2 == 1:
        return 0.0

    def pairings(rest: tuple) -> float:
        if not rest:
            return 1.0
        first, tail = rest[0], rest[1:]
        total = 0.0
        for k in range(len(tail)):
            total += v[first, tail[k]] * pairings(tail[:k] + tail[k + 1:])
        return total

    return float(pairings(idx))


# ---------------------------------------------------------------------------
# Symplectic maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymplecticMap:
    s: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", _frozen(self.s, float).reshape(2, 2))
        object.__setattr__(self, "a", _frozen(self.a, float).reshape(2))

    def validate(self) -> None:
        res = np.max(np.abs(self.s @ OMEGA_SYM @ self.s.T - OMEGA_SYM))
        if res > DEFAULT.eps_symp:
            raise ValidationError(f"symplectic residual {res:.3e}")


def rotation_map(theta: float) -> SymplecticMap:
    c, s = math.cos(theta), math.sin(theta)
    return SymplecticMap(np.array([[c, s], [-s, c]]), np.zeros(2))


def squeeze_map(r: float, theta: float = 0.0) -> SymplecticMap:
    rot = rotation_map(theta / 2.0).s
    q = np.diag([math.exp(-r), math.exp(r)])
    return SymplecticMap(rot.T @ q @ rot, np.zeros(2))


def displacement_map(alpha: complex) -> SymplecticMap:
    return SymplecticMap(np.eye(2), 2.0 * np.array([alpha.real, alpha.imag]))


def symplectic_apply(m: SymplecticMap, g: GaussianState) -> GaussianState:
    """d -> S d + a, V -> S V S^T."""
    m.validate()
    out = GaussianState(m.s @ g.d + m.a, m.s @ g.v @ m.s.T)
    out.validate()
    return out


# ---------------------------------------------------------------------------
# Numeric Wigner transform
# ---------------------------------------------------------------------------

def _hermite_functions(n_top: int, y: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions h_0..h_n_top at points y, shape (n+1, len)."""
    y = np.asarray(y, dtype=float)
    out = np.empty((n_top + 1, y.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * y * y)
    if n_top >= 1:
        out[1] = math.sqrt(2.0) * y * out[0]
    for k in range(1, n_top):
        out[k + 1] = (y * math.sqrt(2.0 / (k + 1)) * out[k]
                      - math.sqrt(k / (k + 1.0)) * out[k - 1])
    return out


def position_wavefunctions(n_top: int, x: np.ndarray) -> np.ndarray:
    """psi_n(x) = 2^-1/4 h_n(x / sqrt 2) in the [X,P]=2i convention."""
    return 2.0 ** -0.25 * _hermite_functions(n_top, np.asarray(x) / math.sqrt(2.0))


# Levels whose row and column mass is below this fraction of the largest are
# numerically empty: they would only add roundoff to the Hermite sums.
_OCCUPANCY_CUT = 1e-13

# Rows of the output grid share one pass through the u-grid sum, as many as
# keep each (n+1) x rows x nu Hermite table within this many float64 elements
# (1 MB), so the memory held does not grow with the grid.
_BLOCK_ELEMENTS = 1 << 17


def _occupied_levels(rho: np.ndarray) -> int:
    mass = np.abs(rho).sum(axis=0) + np.abs(rho).sum(axis=1)
    nz = np.nonzero(mass > _OCCUPANCY_CUT * mass.max())[0]
    return int(nz[-1]) if nz.size else 0


def wigner_numeric(rho: DensityMatrix, grid: PhaseGrid) -> WignerGrid:
    """Wigner transform of a single-mode density matrix on the given grid.

    Evaluates the midpoint integral W(x,p) = (2 pi)^-1 Int du e^{-ipu}
    <x+u|rho|x-u> with Hermite-function products from a stable recurrence and
    a trapezoid Fourier integral over u; the u step resolves every requested
    p and every position-space oscillation, so for a truncated rho the result
    carries no sampling bias.

    The Hermite tables psi_n(x +- u) are real, so the sum runs as real BLAS
    products over blocks of x rows: g_re = sum_m psi+ * (Re rho @ psi-),
    g_im likewise with Im rho, then the real part of g(u) e^{-iup} gives
    W = du/(2 pi) (g_re @ cos(u p) + g_im @ sin(u p)).
    """
    rho.basis.single_fock()
    n_eff = _occupied_levels(rho.entries)
    r_osc = 2.0 * math.sqrt(n_eff) + 4.0
    if grid.dx > math.pi / r_osc or grid.dp > math.pi / r_osc:
        raise GridTooCoarseError(
            f"grid spacing ({grid.dx:.3f}, {grid.dp:.3f}) cannot resolve "
            f"oscillations down to {math.pi / r_osc:.3f} for n_eff={n_eff}"
        )
    x = grid.x
    p = grid.p
    p_abs = float(np.max(np.abs(p)))
    x_abs = float(np.max(np.abs(x)))
    u_max = 2.0 * math.sqrt(n_eff) + 8.0 + x_abs
    du = math.pi / (2.0 * (p_abs + 2.0 * math.sqrt(n_eff) + 4.0))
    nu = 2 * int(math.ceil(u_max / du)) + 1
    u = np.linspace(-u_max, u_max, nu)
    du = u[1] - u[0]

    n_top = min(rho.entries.shape[0] - 1, n_eff)
    block = rho.entries[: n_top + 1, : n_top + 1]
    rho_re = np.ascontiguousarray(block.real)
    rho_im = np.ascontiguousarray(block.imag)
    up = np.outer(u, p)  # (nu, np)
    cos_up = np.cos(up)
    sin_up = np.sin(up, out=up)
    rows = max(1, _BLOCK_ELEMENTS // ((n_top + 1) * nu))
    values = np.empty((grid.nx, grid.np))
    for start in range(0, grid.nx, rows):
        xs = x[start:start + rows, None]
        # (n+1, rows*nu) tables, one nu-long stretch per row
        psi_plus = position_wavefunctions(n_top, (xs + u).ravel())
        psi_minus = position_wavefunctions(n_top, (xs - u).ravel())
        g_re = np.einsum("mk,mk->k", psi_plus, rho_re @ psi_minus)
        g_im = np.einsum("mk,mk->k", psi_plus, rho_im @ psi_minus)
        values[start:start + rows] = (g_re.reshape(-1, nu) @ cos_up
                                      + g_im.reshape(-1, nu) @ sin_up)
    values *= du / (2.0 * math.pi)
    w = WignerGrid(grid, values, meta={"n_eff": n_eff, "du": du, "nu": nu})
    norm = w.integral()
    if abs(norm - 1.0) > DEFAULT.eps_wig:
        raise ValidationError(f"Wigner normalization {norm} off by > eps_wig")
    return w


def marginal(w: WignerGrid, axis: str):
    """Integrate out one axis; returns (coordinates, samples).

    axis="x" returns the position distribution <x|rho|x> (integral over p);
    axis="p" the momentum distribution.
    """
    if axis == "x":
        return w.grid.x, np.trapezoid(w.values, w.grid.p, axis=1)
    if axis == "p":
        return w.grid.p, np.trapezoid(w.values, w.grid.x, axis=0)
    raise ValidationError("axis must be 'x' or 'p'")


def overlap_wigner(w1: WignerGrid, w2: WignerGrid) -> float:
    """tr(rho1 rho2) = 4 pi Int W1 W2 evaluated on matching grids."""
    if w1.grid != w2.grid:
        raise ValidationError("Wigner grids do not match")
    prod = w1.values * w2.values
    inner = np.trapezoid(np.trapezoid(prod, w1.grid.p, axis=1), w1.grid.x)
    return float(4.0 * math.pi * inner)
