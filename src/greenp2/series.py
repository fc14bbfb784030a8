"""Truncated Taylor expansions in two affine chart variables.

Coefficients live in a square array ``coeffs[i, j]`` for the monomial
``u^i v^j``; only entries with ``i + j <= trunc`` are meaningful, the rest are
kept at zero.  Coefficients beyond the truncation are unknown, not zero.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .errors import IllConditioned, OrderExceedsTruncation, PositiveDimensional

#: relative tolerance for treating a coefficient as zero
EPS_COEF = 1e-9


class AffineSeries2:
    __slots__ = ("trunc", "coeffs")

    def __init__(self, trunc: int, coeffs=None):
        if trunc < 0:
            raise ValueError("truncation degree must be non-negative")
        self.trunc = int(trunc)
        n = self.trunc + 1
        if coeffs is None:
            self.coeffs = np.zeros((n, n), dtype=complex)
        else:
            c = np.asarray(coeffs, dtype=complex)
            self.coeffs = np.zeros((n, n), dtype=complex)
            m = min(n, c.shape[0]), min(n, c.shape[1])
            self.coeffs[: m[0], : m[1]] = c[: m[0], : m[1]]
            self.coeffs[self.total_degrees() > self.trunc] = 0.0

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, trunc):
        s = cls(trunc)
        s.coeffs[0, 0] = value
        return s

    def copy(self):
        out = AffineSeries2(self.trunc)
        out.coeffs[:] = self.coeffs
        return out

    # -- queries ------------------------------------------------------------

    @property
    def const(self):
        return complex(self.coeffs[0, 0])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def total_degrees(self):
        n = self.trunc + 1
        i = np.arange(n)
        return i[:, None] + i[None, :]

    def __repr__(self):
        return f"AffineSeries2(trunc={self.trunc})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if np.isscalar(other):
            out = self.copy()
            out.coeffs[0, 0] += other
            return out
        t = min(self.trunc, other.trunc)
        out = AffineSeries2(t)
        out.coeffs[:] = self.coeffs[: t + 1, : t + 1] + other.coeffs[: t + 1, : t + 1]
        return out

    def __sub__(self, other):
        if np.isscalar(other):
            return self + (-other)
        return self + other.scale(-1.0)

    def scale(self, s):
        out = self.copy()
        out.coeffs *= s
        return out

    def __mul__(self, other):
        if np.isscalar(other):
            return self.scale(other)
        t = min(self.trunc, other.trunc)
        out = AffineSeries2(t)
        out.coeffs[:] = _product(self.coeffs[: t + 1, : t + 1], other.coeffs[: t + 1, : t + 1])
        return out

    def reciprocal(self):
        """1/self by Newton doubling; the constant term must be nonzero.

        Each step x <- x (2 - self x) doubles the number of correct degrees,
        so the truncations run 1, 3, 7, ... up to ``trunc`` (Brent & Kung,
        J. ACM 25, 1978).  Formal inversion is exact whatever the coefficient
        magnitudes, so only an outright zero constant is rejected.
        """
        c = self.const
        if abs(c) < 1e-250:
            raise ZeroDivisionError("series has a vanishing constant term")
        x = AffineSeries2.constant(1.0 / c, 0)
        while x.trunc < self.trunc:
            x = AffineSeries2(min(2 * x.trunc + 1, self.trunc), x.coeffs)
            x = x * ((self * x).scale(-1.0) + 2.0)
        return x


def _product(a, b):
    """The ``i + j <= t`` triangle of the product of two triangles of size t + 1.

    In graded coordinates (row k holds degree k) rows k and m with k + m <= t
    multiply to k + m + 1 <= t + 1 entries, so at row width t + 1 nothing
    spills into the next row, and pairs with k + m > t land past the first
    (t + 1)^2 entries: the truncated product is one direct 1-D convolution,
    and input entries past the triangle are never read.
    Direct (non-FFT) convolution keeps rounding noise graded: a degree-k output
    coefficient only ever mixes inputs of degree <= k, which the
    vanishing-order tolerance logic relies on.
    """
    n = a.shape[0]
    flat = np.convolve(_graded(a), _graded(b))
    flat[n * n :] = 0.0  # the degrees past the truncation
    step = flat.itemsize
    # c[i, j] = g[i + j, j], read at row width n from the flat graded product
    return np.ndarray((n, n), complex, flat, 0, (n * step, (n + 1) * step))


def _graded(c):
    """g[k, j] = c[k - j, j], zero for j > k, flattened row by row."""
    n = c.shape[0]
    z = np.zeros((2 * n, n), dtype=complex)
    z[n:] = c  # the zero rows above c supply g[k, j] for j > k
    step = z.itemsize
    return np.ndarray((n, n), complex, z, n * n * step, (n * step, (1 - n) * step)).ravel()


# -- Taylor shifts of dense bivariate polynomials -------------------------------


def shift_bivariate(C: np.ndarray, center) -> np.ndarray:
    """Recenter a dense bivariate polynomial at ``center`` (exact binomial shift)."""
    c1, c2 = complex(center[0]), complex(center[1])
    n1, n2 = C.shape
    S1 = _shift_matrix(n1, c1)
    S2 = _shift_matrix(n2, c2)
    return S1 @ np.asarray(C, dtype=complex) @ S2.T


def _shift_matrix(n, c):
    # S[m, a] = binom(a, m) c^(a-m) so that (u + c)^a = sum_m S[m, a] u^m
    powers = np.ones(n, dtype=complex)
    for k in range(1, n):
        powers[k] = powers[k - 1] * c
    binomials, exponents = _pascal(n)
    return binomials * powers[exponents]


@lru_cache(maxsize=None)
def _pascal(n):
    """binom(a, m) at [m, a] (zero for m > a), and a - m clipped at 0."""
    binomials = np.array([[comb(a, m) for a in range(n)] for m in range(n)], dtype=complex)
    r = np.arange(n)
    exponents = np.maximum(r[None, :] - r[:, None], 0)
    binomials.flags.writeable = exponents.flags.writeable = False
    return binomials, exponents


def recenter_taylor(poly, chart: int, center, trunc: int) -> AffineSeries2:
    """Taylor expansion at ``center`` of ``poly`` dehomogenized in ``chart``.

    Dehomogenization of a polynomial is a polynomial, so coefficients up to
    the truncation are exact apart from float rounding.
    """
    shifted = shift_bivariate(poly.dehomogenize(chart), center)
    return AffineSeries2(trunc, coeffs=shifted)


def vanishing_order(s: AffineSeries2, abs_floor: float = 0.0, weights=(1, 1)):
    """Least weighted degree a2 i + a1 j of a significant coefficient u^i v^j.

    A coefficient of total degree k is significant when it exceeds the
    optional absolute floor, supplied by callers who know the ambient scale,
    and EPS_COEF times the largest coefficient of degree <= k (graded
    arithmetic keeps rounding noise graded too).  At the default weights
    (1, 1) this is the smallest total degree carrying a significant
    coefficient; at weights (a1, a2) it is the Kiselman number of log|s|
    (Kiselman 1987) when the series is a polynomial within its truncation.
    """
    n = s.trunc + 1
    g = np.abs(_graded(s.coeffs)).reshape(n, n)  # g[k, j]: the coefficient of u^(k - j) v^j
    running = np.maximum.accumulate(g.max(axis=1))
    if running[-1] <= 0.0:
        raise OrderExceedsTruncation(
            f"series is identically zero within truncation {s.trunc}"
        )
    k, j = np.nonzero((g > EPS_COEF * running[:, None]) & (g > abs_floor))
    if not k.size:
        raise OrderExceedsTruncation(
            f"all retained coefficients below tolerance at truncation {s.trunc}"
        )
    return (weights[1] * (k - j) + weights[0] * j).min().item()


def compose_poly_series(P: np.ndarray, s1: AffineSeries2, s2: AffineSeries2) -> AffineSeries2:
    """Substitute zero-constant series (s1, s2) into a dense bivariate polynomial.

    Exact up to the common truncation because the inner series have no
    constant term.  The powers of s2 are formed once; each row of P is a
    linear combination of them, and Horner runs in s1 only, which takes
    n1 + n2 - 3 products for a P of shape (n1, n2).
    """
    trunc = min(s1.trunc, s2.trunc)
    n1, n2 = P.shape
    powers = [AffineSeries2.constant(1.0, trunc), AffineSeries2(trunc, s2.coeffs)]
    while len(powers) < n2:
        powers.append(powers[-1] * s2)
    rows = np.tensordot(P, np.array([s.coeffs for s in powers[:n2]]), axes=(1, 0))
    acc = AffineSeries2(trunc, rows[n1 - 1])
    for a in range(n1 - 2, -1, -1):
        acc = acc * s1
        acc.coeffs += rows[a]
    return acc


# -- local intersection number at the origin ------------------------------------

#: singular values of the Macaulay matrix of the scaled germs at or below this
#: floor count as rank deficiency
_RANK_FLOOR = 1e-11

#: least ratio of the smallest kept to the largest dropped singular value
_RANK_GAP = 1e4


def local_multiplicity(g1: AffineSeries2, g2: AffineSeries2) -> int:
    """Intersection multiplicity dim C[[u, v]]/(g1, g2) at the origin.

    Both germs vanish at the origin and are read as polynomials, so the count
    is exact when their degrees are within the truncation.  With each germ
    scaled by its largest coefficient, h(k) is the number of monomials of
    degree <= k minus the rank of the Macaulay matrix whose rows are
    u^a v^b g_i, a + b < k, cut at degree k: the local Hilbert-Samuel function
    dim C[[u, v]]/((g1, g2) + m^(k+1)).  It rises strictly until
    h(k) = h(k + 1); then m^(k+1) lies in the ideal by Nakayama's lemma, and
    h(k) is the multiplicity (Dayton & Zeng, ISSAC 2005).  A pair sharing a
    branch never settles, and its h(k) passes the Bezout bound
    deg g1 * deg g2.
    """
    if min(g1.max_abs(), g2.max_abs()) == 0.0:
        raise PositiveDimensional("a germ vanishes identically within truncation")
    germs = [g.coeffs / g.max_abs() for g in (g1, g2)]
    bound = _degree(germs[0]) * _degree(germs[1])
    k, h = 1, _hilbert_samuel(germs, 1)
    while True:
        if h > bound:
            raise PositiveDimensional(
                f"h({k}) = {h} exceeds the Bezout bound {bound}: the germs share a branch"
            )
        h_next = _hilbert_samuel(germs, k + 1)
        if h_next == h:
            return h
        k, h = k + 1, h_next


def _degree(C) -> int:
    i, j = np.nonzero(C)
    return int(np.max(i + j))


def _hilbert_samuel(germs, k: int) -> int:
    """h(k): monomials of degree <= k minus the rank of the truncated Macaulay matrix."""
    sv = np.linalg.svd(_macaulay_matrix(germs, k), compute_uv=False)
    return (k + 1) * (k + 2) // 2 - _numerical_rank(sv)


def _macaulay_matrix(germs, k: int):
    """Rows u^a v^b g, a + b < k, for each germ g, cut at degree k: one gather
    from the germs' corners set in zero grids wide enough that every shift of a
    corner lands inside its grid."""
    n = k + 1
    grids = np.zeros((len(germs), 2 * n, 2 * n), dtype=complex)
    for grid, C in zip(grids, germs):
        m = min(n, C.shape[0])
        grid[n : n + m, n : n + m] = C[:m, :m]
    columns, rows = _macaulay_offsets(k)
    return np.take(grids.reshape(len(germs), -1), columns - rows[:, None], axis=1).reshape(-1, columns.size)


@lru_cache(maxsize=None)
def _macaulay_offsets(k: int):
    """Flat offsets in a zero grid of width w = 2(k + 1) with a germ's corner at
    (k + 1, k + 1): column u^x v^y (x + y <= k) at x w + y, and row u^a v^b
    (a + b < k) at a w + b less the corner's, so that column minus row is where
    the coefficient of u^(x - a) v^(y - b) sits."""
    n = k + 1
    r = np.arange(n)
    deg = r[:, None] + r[None, :]
    a, b = np.nonzero(deg < k)
    x, y = np.nonzero(deg <= k)
    w = 2 * n
    columns, rows = x * w + y, (a - n) * w + (b - n)
    columns.flags.writeable = rows.flags.writeable = False
    return columns, rows


def _numerical_rank(sv) -> int:
    """The number of singular values above _RANK_FLOOR, refused without a _RANK_GAP gap below them."""
    kept, dropped = sv[sv > _RANK_FLOOR], sv[sv <= _RANK_FLOOR]
    if len(kept) and len(dropped) and kept[-1] < _RANK_GAP * dropped[0]:
        raise IllConditioned(f"no rank gap in a Macaulay matrix: {kept[-1]:.2e} kept, {dropped[0]:.2e} dropped")
    return len(kept)
