"""phase-space: numeric Wigner transforms on 257 x 257 grids.

Five states go through ``wigner_numeric``: an even cat and a coherent state
at |alpha| = 1.5, a squeezed vacuum at r = 0.35, a thermal state near
nbar = 0.45 and a random mixture of Fock states 0..8.  The closed forms
``wigner_gaussian`` and ``wigner_fock`` serve as their oracles and are timed
too, as are ``marginal`` and ``overlap_wigner``.  No Lindblad code runs, so a
change to the superoperator layers must leave this workload unchanged.

The seed draws phases, the thermal occupation and the Fock weights; each
state's Fock cutoff, occupied levels and grid stay fixed.
"""

from __future__ import annotations

import math

import numpy as np

import quoptics as q
from quoptics import (
    DEFAULT,
    marginal,
    overlap_wigner,
    wigner_fock,
    wigner_gaussian,
    wigner_numeric,
)

GRID_POINTS = 257
ALPHA = 1.5
R_SQUEEZE = 0.35
# every nbar in [0.4, 0.5] keeps level 22 above the 1e-13 occupancy cut of
# wigner_numeric, so the levels transformed stay fixed
N_THERMAL = 22
N_FOCK = 8
# criterion 01: closed-form agreement and vacuum-peak tolerance
TOL_CLOSED = 1e-6
TOL_PEAK = 1e-9


def _grid(n_max: int):
    grid = q.default_grid(n_max, GRID_POINTS)
    xx, pp = np.meshgrid(grid.x, grid.p, indexing="ij")
    return grid, xx, pp


def _integral(values, grid) -> float:
    return float(np.trapezoid(np.trapezoid(values, grid.p, axis=1), grid.x))


def make_inputs(rng) -> dict:
    n_coh = q.settings.coherent_cutoff(ALPHA)
    alpha_cat = ALPHA * np.exp(2j * math.pi * rng.uniform())
    plus = q.coherent_state(alpha_cat, n_coh).amplitudes
    minus = q.coherent_state(-alpha_cat, n_coh).amplitudes
    cat = q.KetState(q.fock_basis(n_coh), (plus + minus)
                     / np.linalg.norm(plus + minus)).to_density_matrix()

    alpha = ALPHA * np.exp(2j * math.pi * rng.uniform())
    coherent = q.coherent_state(alpha, n_coh).to_density_matrix()

    theta = 2.0 * math.pi * rng.uniform()
    squeezed = q.squeezed_vacuum(R_SQUEEZE * np.exp(1j * theta))
    n_sq = squeezed.basis.factors[0].n_max
    r = R_SQUEEZE
    squeezed_g = q.gaussian_from_complex_moments(
        0.0, -np.exp(1j * theta) * math.cosh(r) * math.sinh(r),
        math.sinh(r) ** 2)

    nbar = rng.uniform(0.4, 0.5)
    weights = rng.uniform(0.2, 1.0, size=N_FOCK + 1)
    weights /= weights.sum()
    fock = q.DensityMatrix(q.fock_basis(N_FOCK),
                           np.diag(weights).astype(complex))

    return {
        "cat": (cat, _grid(n_coh)),
        "coherent": (coherent, _grid(n_coh)),
        "squeezed": (squeezed.to_density_matrix(), _grid(n_sq)),
        "thermal": (q.thermal_state(nbar, N_THERMAL), _grid(N_THERMAL)),
        "fock": (fock, _grid(N_FOCK)),
        "gaussians": {
            "coherent": q.gaussian_from_complex_moments(alpha, 0.0, 0.0),
            "squeezed": squeezed_g,
            "thermal": q.gaussian_from_complex_moments(0.0, 0.0, nbar),
        },
        "alpha": alpha, "nbar": nbar, "weights": weights,
    }


def warm_up(rec) -> None:
    rho = q.thermal_state(0.1, 4)
    grid = q.default_grid(4, 65)
    w = rec.call("warm", wigner_numeric, rho, grid)
    rec.call("warm", marginal, w, "x")
    rec.call("warm", overlap_wigner, w, w)
    rec.call("warm", wigner_fock, 1, grid.x, grid.p)
    rec.call("warm", wigner_gaussian, q.vacuum_gaussian(), grid.x, grid.p)


def _closed_form(rec, key, fn, first, grid, xx, pp):
    """One timed closed-form evaluation, checked for unit normalization."""
    vals = rec.call(key, fn, first, xx, pp)
    if vals is not None:
        rec.check(key, integral=(abs(_integral(vals, grid) - 1.0),
                                 DEFAULT.eps_wig))
    return vals


def run_pass(inp: dict, rec) -> None:
    grids = {}
    ops = 0
    for name in ("cat", "coherent", "squeezed", "thermal", "fock"):
        rho, (grid, xx, pp) = inp[name]
        key = f"phasespace.wigner_numeric.{name}"
        w = rec.call(key, wigner_numeric, rho, grid)
        grids[name] = w
        if w is None:
            continue
        ops += grid.nx * w.meta["nu"] * (w.meta["n_eff"] + 1) ** 2
        errors = {"integral": (abs(w.integral() - 1.0), DEFAULT.eps_wig)}
        if name in inp["gaussians"]:
            ref = _closed_form(rec, "phasespace.wigner_gaussian",
                               wigner_gaussian, inp["gaussians"][name],
                               grid, xx, pp)
            if ref is not None:
                errors["closed_form"] = (np.abs(w.values - ref).max(),
                                         TOL_CLOSED)
        elif name == "fock":
            ref = np.zeros_like(xx)
            for n, weight in enumerate(inp["weights"]):
                vals = _closed_form(rec, "phasespace.wigner_fock", wigner_fock,
                                    n, grid, xx, pp)
                ref = ref + weight * (vals if vals is not None else np.nan)
            errors["closed_form"] = (np.abs(w.values - ref).max(), TOL_CLOSED)
        else:
            # an even cat has parity +1, so W(0, 0) = 1 / (2 pi)
            mid = grid.nx // 2
            errors["parity"] = (abs(w.values[mid, mid] - 1.0 / (2.0 * math.pi)),
                                TOL_PEAK)
        rec.check(key, **errors)
    rec.count("phasespace.wigner_numeric.ops_computed", ops)

    w = grids["coherent"]
    if w is not None:
        alpha = inp["alpha"]
        for axis, centre in (("x", 2.0 * alpha.real), ("p", 2.0 * alpha.imag)):
            out = rec.call("phasespace.marginal", marginal, w, axis)
            if out is not None:
                coord, dens = out
                exact = np.exp(-0.5 * (coord - centre) ** 2) / math.sqrt(2 * math.pi)
                rec.check("phasespace.marginal",
                          density=(np.abs(dens - exact).max(), TOL_CLOSED))

    for name, purity in (("cat", 1.0), ("thermal", 1.0 / (2.0 * inp["nbar"] + 1.0))):
        w = grids[name]
        if w is None:
            continue
        out = rec.call("phasespace.overlap_wigner", overlap_wigner, w, w)
        if out is not None:
            rec.check("phasespace.overlap_wigner",
                      purity=(abs(out - purity), DEFAULT.eps_wig))
