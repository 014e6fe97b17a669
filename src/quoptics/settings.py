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


# largest geometric occupation tail that thermal_cutoff leaves out
_THERMAL_TAIL = 1e-12


def coherent_cutoff(alpha: complex) -> int:
    """Default Fock cutoff for coherent-dominated states of amplitude alpha."""
    return int(_coherent_cutoff_float(alpha))


def squeezed_cutoff(r: float) -> int:
    """Default Fock cutoff for squeezed states with squeezing parameter r."""
    return int(_squeezed_cutoff_float(r))


def thermal_cutoff(nbar: float) -> int:
    """Smallest cutoff keeping the geometric occupation tail below 1e-12."""
    return int(_thermal_cutoff_float(nbar))


# The same cutoffs as floats, inf where their formula overflows, so that the
# state builders can check the size a cutoff sets before converting it.

def _coherent_cutoff_float(alpha: complex) -> float:
    a = abs(alpha)
    return _round_up(a * a + 6.0 * a + 10.0)


def _squeezed_cutoff_float(r: float) -> float:
    try:
        return _round_up(10.0 * math.exp(2.0 * abs(r)))
    except OverflowError:  # exp(2|r|) is above the float range
        return math.inf


def _thermal_cutoff_float(nbar: float) -> float:
    if nbar <= 0.0:
        return 1.0
    ratio = nbar / (1.0 + nbar)
    if ratio == 1.0:  # nbar of about 2**53 or more: the ratio rounds to 1
        return math.inf
    return _round_up(math.log(_THERMAL_TAIL) / math.log(ratio))


def _round_up(levels: float) -> float:
    """max(1, ceil(levels)) as a float, which is exact; inf stays inf."""
    return max(1.0, float(math.ceil(levels))) if levels < math.inf else levels
