"""Reference for ``polys.monomial_table``: the column-layout table it replaced.

Each variable's powers are built by repeated multiplication and multiplied
into a table of ones through a fancy-indexed, transposed view.  The library's
row-layout table must equal it in value (up to the sign of an exact zero),
and every lift built from either must agree bit for bit.
"""

import numpy as np

from greenp2.polys import monomial_exponents


def monomial_table(pts: np.ndarray, degree: int) -> np.ndarray:
    """(N, m) table of the degree-`degree` monomials at an (N, 3) complex array.

    Column order is storage order, so ``table @ p.coeffs`` evaluates any form p
    of that degree.  Callers evaluating several forms at the same points build
    the table once and take one such product per form.
    """
    exps = monomial_exponents(degree)
    monos = np.ones((pts.shape[0], exps.shape[0]), dtype=complex)
    for v in range(3):
        # powers[e] = pts[:, v] ** e by repeated multiplication
        powers = np.empty((degree + 1, pts.shape[0]), dtype=complex)
        powers[0] = 1.0
        for e in range(1, degree + 1):
            powers[e] = powers[e - 1] * pts[:, v]
        monos *= powers[exps[:, v]].T
    return monos
