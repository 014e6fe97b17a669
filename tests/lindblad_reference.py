"""Direct reference for the Liouvillian: the Lindblad right-hand side
applied to rho, term by term, which the tests hold
``LindbladModel.liouvillian`` to."""

import numpy as np


def lindblad_rhs(m, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] + sum_j kappa_j D_j[rho] of the ``LindbladModel`` m,
    applied to rho directly."""
    h = m.h.entries
    out = -1j * (h @ rho - rho @ h)
    for rate, op in m.jumps:
        j = op.entries
        jd = j.conj().T
        jdj = jd @ j
        out += rate * (2.0 * (j @ rho @ jd) - jdj @ rho - rho @ jdj)
    return out
