"""Numerical tolerances and truncation heuristics shared by the whole toolkit.

Conventions fixed here once and for all: hbar = 1, quadratures X = a^dag + a
and P = i(a^dag - a) so that [X, P] = 2i and the vacuum has unit variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Settings:
    """Single record of every tolerance used by the library.

    Every check reads the frozen instance ``DEFAULT``; no call takes a
    tolerance as an argument, so one run uses one set of values throughout.
    """

    eps_norm: float = 1e-10      # ket normalization
    eps_herm: float = 1e-10      # hermiticity residuals
    eps_tr: float = 1e-10        # unit-trace residual of density matrices
    eps_psd: float = 1e-8        # most negative admissible eigenvalue
    eps_unit: float = 1e-10      # unitarity residual of propagators
    eps_trunc: float = 1e-6      # truncation residual of displacement/squeeze
    eps_symp: float = 1e-9       # symplectic-condition residual
    eps_gauss: float = 1e-9      # slack on det V >= 1
    eps_wig: float = 1e-6        # Wigner-grid normalization residual
    eps_bloch: float = 1e-9      # slack on |b| <= 1
    eps_magnus: float = 1e-8     # m vs 2m substep gap of integrate_bloch
    eps_sup: float = 1e-9        # trace-preservation residual of Liouvillians
    eps_close: float = 1e-8      # closure residual in the regression formula
    # single-excitation norm identity residual: the 1/x^2 tails leave 1.6e-5
    # at the narrowest k span, +-30 gamma; the rest covers coarse k grids
    eps_ww: float = 1e-3


DEFAULT = Settings()


def coherent_cutoff(alpha: complex) -> int:
    """Default Fock cutoff for coherent-dominated states of amplitude alpha."""
    a = abs(alpha)
    return max(1, math.ceil(a * a + 6.0 * a + 10.0))


def squeezed_cutoff(r: float) -> int:
    """Default Fock cutoff for squeezed states with squeezing parameter r."""
    return max(1, math.ceil(10.0 * math.exp(2.0 * abs(r))))


def thermal_cutoff(nbar: float, tail: float = 1e-12) -> int:
    """Smallest cutoff keeping the geometric occupation tail below ``tail``."""
    if nbar <= 0.0:
        return 1
    ratio = nbar / (1.0 + nbar)
    n = math.ceil(math.log(tail) / math.log(ratio))
    return max(1, n)
