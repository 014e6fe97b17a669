"""Wigner functions, characteristic-free Gaussian calculus, symplectic maps.

Phase-space convention: r = (x, p), [X, P] = 2i, vacuum covariance V = I,
vacuum Wigner peak 1/(2 pi).  The normalization is asserted by the canary
test on the vacuum peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .operators import (
    DensityMatrix,
    QuopticsError,
    ValidationError,
    _check_integer,
    _check_scalars,
    _check_size,
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
        _check_scalars(x_min=self.x_min, x_max=self.x_max, p_min=self.p_min,
                       p_max=self.p_max)
        if self.x_max <= self.x_min or self.p_max <= self.p_min:
            raise ValidationError("grid bounds must be ordered")
        _check_integer(self.nx, "nx", 2)
        _check_integer(self.np, "np", 2)
        _check_size(float(self.nx) * float(self.np),
                    f"a phase grid of nx {self.nx} by np {self.np} points")

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
    _check_integer(n, "n", 0)
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
    _check_scalars(mean_x=g.d[0], mean_p=g.d[1], v_xx=g.v[0, 0],
                   v_xp=g.v[0, 1], v_px=g.v[1, 0], v_pp=g.v[1, 1])
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
    idx = tuple(idx)
    for i in idx:
        _check_integer(i, "index", 0)
        if not i < len(v):
            raise ValidationError(f"index {i} out of range")
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
    # out[k+1] = y * c1 * out[k] - c2 * out[k-1], its operations in that
    # order (so the table keeps its bits), written into the new row and
    # one scratch row instead of four temporaries
    back = np.empty(y.size)
    for k in range(1, n_top):
        row = out[k + 1]
        np.multiply(y, math.sqrt(2.0 / (k + 1)), out=row)
        np.multiply(row, out[k], out=row)
        np.multiply(math.sqrt(k / (k + 1.0)), out[k - 1], out=back)
        np.subtract(row, back, out=row)
    return out


def position_wavefunctions(n_top: int, x: np.ndarray) -> np.ndarray:
    """psi_n(x) = 2^-1/4 h_n(x / sqrt 2) in the [X,P]=2i convention."""
    return 2.0 ** -0.25 * _hermite_functions(n_top, np.asarray(x) / math.sqrt(2.0))


# Levels whose row and column mass is below this fraction of the largest are
# numerically empty: they would only add roundoff to the Hermite sums.
_OCCUPANCY_CUT = 1e-13

# Rows of the output grid share one pass through the u-grid sum, as many as
# keep the block of integrands g(x_i, u_k), rows x nk (the u >= 0 half grid),
# within this many float64 elements (0.5 MB).  The Hermite values are read
# from the shared lattice tables without copies, so the memory held per block
# does not grow with the number of levels or with the grid.
_BLOCK_ELEMENTS = 1 << 16

# The u step du = b dx / r is kept at or above this fraction of its bound,
# so the u grid has at most 4/3 the points of the bound's own.
_DU_FRACTION = 0.75


def _occupied_levels(rho: np.ndarray) -> int:
    mass = np.abs(rho).sum(axis=0) + np.abs(rho).sum(axis=1)
    nz = np.nonzero(mass > _OCCUPANCY_CUT * mass.max())[0]
    return int(nz[-1]) if nz.size else 0


def _u_lattice(dx: float, du_max: float) -> tuple[int, int]:
    """(r, b): lattice step delta = dx / r and u step du = b delta <= du_max.

    r is the smallest integer from ceil(dx / du_max) on whose b =
    floor(du_max / delta) gives du >= _DU_FRACTION du_max; every r >=
    dx / ((1 - _DU_FRACTION) du_max) does, so the search is short.
    """
    r = math.ceil(dx / du_max)
    while True:
        delta = dx / r
        b = math.floor(du_max / delta)
        if b * delta > du_max:  # the quotient rounded up to an integer
            b -= 1
        if b * delta >= _DU_FRACTION * du_max:
            return r, b
        r += 1


def _midpoint_sum(block: np.ndarray, grid: PhaseGrid, u_max: float,
                  du_max: float) -> tuple[np.ndarray, float, int]:
    """W of the truncated rho ``block`` on the grid by the lattice sum that
    ``wigner_numeric`` describes, with the u step du and the point count nk
    of the u >= 0 half grid it took.  Its tables are freed on return."""
    n_top = block.shape[0] - 1
    r, b = _u_lattice(grid.dx, du_max)
    delta = grid.dx / r
    du = b * delta
    nk = math.ceil(u_max / du) + 1  # u_(nk-1) >= u_max
    nf = (grid.nx - 1) * r + 2 * (nk - 1) * b + 1
    _check_size(float(nf) * (n_top + 1), f"a lattice of step {delta:.3g} "
                f"under the grid's x +- u points has {nf:.3g} points; its "
                f"shared Hermite table up to level {n_top}")

    herm = 0.5 * (block + block.conj().T)
    rho_re = np.ascontiguousarray(herm.real)
    rho_im = np.ascontiguousarray(herm.imag) if herm.imag.any() else None
    centre = 0.5 * (grid.x_min + grid.x_max)
    table = position_wavefunctions(
        n_top, centre + (np.arange(nf) - 0.5 * (nf - 1)) * delta)
    # (n+1, nx, nk) read-only views: psi_m(x_i + u_k) and S[m, x_i - u_k]
    span = (nk - 1) * b + 1
    plus = sliding_window_view(table, span, axis=1)[:, (nk - 1) * b::r, ::b]
    row_starts = slice(None, grid.nx * r, r)
    minus_re = sliding_window_view(rho_re @ table, span,
                                   axis=1)[:, row_starts, ::-b]
    if rho_im is not None:
        minus_im = sliding_window_view(rho_im @ table, span,
                                       axis=1)[:, row_starts, ::-b]
    u = du * np.arange(nk)
    up = np.outer(u, grid.p)  # (nk, np)
    cos_w = np.cos(up)
    cos_w[1:] *= 2.0
    if rho_im is not None:
        sin_w = np.sin(up, out=up)
        sin_w[1:] *= 2.0
    rows = min(grid.nx, max(1, _BLOCK_ELEMENTS // nk))
    values = np.empty((grid.nx, grid.np))
    g = np.empty((rows, nk))  # g_re, then g_im, of one block
    for start in range(0, grid.nx, rows):
        block_rows = slice(start, start + rows)
        psi_plus = plus[:, block_rows]
        out = values[block_rows]
        sums = g[: out.shape[0]]
        np.einsum("mik,mik->ik", psi_plus, minus_re[:, block_rows], out=sums)
        np.matmul(sums, cos_w, out=out)
        if rho_im is not None:
            np.einsum("mik,mik->ik", psi_plus, minus_im[:, block_rows],
                      out=sums)
            out += sums @ sin_w
    values *= du / (2.0 * math.pi)
    return values, du, nk


def wigner_numeric(rho: DensityMatrix, grid: PhaseGrid) -> WignerGrid:
    """Wigner transform of a single-mode density matrix on the given grid.

    Evaluates the midpoint integral W(x,p) = (2 pi)^-1 Int du e^{-ipu}
    <x+u|rho|x-u> with Hermite-function products from a stable recurrence and
    a trapezoid Fourier integral over u; the u step resolves every requested
    p and every position-space oscillation, so for a truncated rho the result
    carries no sampling bias.

    The sum runs over the Hermitian part (rho + rho^dag)/2, whose W is the
    real part of the sum for rho itself.  For it g(u) = <x+u|rho|x-u> obeys
    g(-u) = conj g(u), so the symmetric grid u_k = k du, |k| <= nk - 1
    (nu = 2 nk - 1 points), folds onto k >= 0 with weight 1 at k = 0 and 2
    beyond.

    The u step sits on the x grid's lattice: delta = dx / r and du = b delta
    with b = floor(du_max / delta), so du <= du_max = pi / (2 (|p|max +
    2 sqrt(n_eff) + 4)).  r is the smallest integer from ceil(dx / du_max)
    on for which du >= 3/4 du_max (measured: a finer lattice costs table
    rows, a coarser u step costs u points in the Fourier products, and the
    plain r = ceil(dx / du_max) took nu 1755 against 1463 on the kerr-cat
    grid).  Every x_i +- u_k is then a point y_(j_i +- k b), j_i =
    (nk - 1) b + i r, of one lattice y_j = (x_min + x_max)/2 + (j - (nf -
    1)/2) delta centred on the grid, so that its points, like the grid's,
    sit symmetrically about the centre.  The real Hermite table psi_n(y)
    and its products S = Re rho @ psi (and Im rho @ psi) are built once,
    and g_re(x_i, u_k) = sum_m psi_m(y_(j_i + k b)) S[m, j_i - k b] is read
    from strided views over blocks of x rows, g_im likewise; then W =
    du/(2 pi) (g_re @ cos_w + g_im @ sin_w) with the weights in the
    kernels.  When Im rho is zero, S_im, g_im and the sin kernel are
    skipped.
    """
    rho.basis.single_fock()
    n_eff = _occupied_levels(rho.entries)
    r_osc = 2.0 * math.sqrt(n_eff) + 4.0
    if grid.dx > math.pi / r_osc or grid.dp > math.pi / r_osc:
        raise GridTooCoarseError(
            f"grid spacing ({grid.dx:.3f}, {grid.dp:.3f}) cannot resolve "
            f"oscillations down to {math.pi / r_osc:.3f} for n_eff={n_eff}"
        )
    x_abs = max(abs(grid.x_min), abs(grid.x_max))
    p_abs = max(abs(grid.p_min), abs(grid.p_max))
    u_max = 2.0 * math.sqrt(n_eff) + 8.0 + x_abs
    du_max = math.pi / (2.0 * (p_abs + 2.0 * math.sqrt(n_eff) + 4.0))
    n_top = min(rho.entries.shape[0] - 1, n_eff)
    # at least the point count nk of the u >= 0 half grid that
    # _midpoint_sum takes (du >= 3/4 du_max), in floats, so that no size
    # overflows before the checks
    points = 2.0 * (u_max / du_max) + 3.0
    grid_span = (f"a grid out to |x| {x_abs:.3g}, |p| {p_abs:.3g} needs "
                 f"about {points:.3g} u points")
    _check_size(points * grid.np, f"{grid_span}; their cos and sin table "
                f"at {grid.np} p points")
    _check_size(points * (n_top + 1), f"{grid_span}; their Hermite rows "
                f"up to level {n_top}")
    values, du, nk = _midpoint_sum(rho.entries[: n_top + 1, : n_top + 1],
                                   grid, u_max, du_max)
    w = WignerGrid(grid, values,
                   meta={"n_eff": n_eff, "du": du, "nu": 2 * nk - 1})
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
