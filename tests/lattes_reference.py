"""Reference for ``generators.lattes_map``: the image of a root pair, one root at a time.

``lattes_map`` reads the image quadratic off a closed form in power sums.
Here each root goes through R(x) = ((x - 2)/x)^d by itself and the image pair
is multiplied back into a quadratic; tests require the two to agree.
"""

import math

import numpy as np


def lattes_rational_coeffs(d: int):
    """Numerator and denominator of the degree-d Lattes map ((z - 2)/z)^d.

    Returned as binary-form coefficient arrays n[m], q[m] for X^(deg-m) Y^m.
    """
    num = np.array([math.comb(d, m) * (-2.0) ** m for m in range(d + 1)], dtype=complex)
    den = np.zeros(d + 1, dtype=complex)
    den[0] = 1.0
    return num, den


def lattes_root_pair_image(d: int, z1: complex, z2: complex):
    """The quadratic coefficients of the image pair {R(z1), R(z2)}."""
    num, den = lattes_rational_coeffs(d)

    def ratio(z):
        nv = sum(num[m] * z ** (d - m) for m in range(d + 1))
        dv = sum(den[m] * z ** (d - m) for m in range(d + 1))
        return nv, dv

    n1, d1 = ratio(z1)
    n2, d2 = ratio(z2)
    # (d1 X - n1 Y)(d2 X - n2 Y) up to scale
    return np.array([d1 * d2, -(d1 * n2 + d2 * n1), n1 * n2], dtype=complex)
