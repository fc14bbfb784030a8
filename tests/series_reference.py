"""Reference for the truncated series arithmetic of ``greenp2.series``.

These are the rectangle convolution, the Horner composition and the Neumann
reciprocal that the triangle product, the power-table composition and the
Newton reciprocal replaced.  Tests compare the two to rounding accuracy.  The
loop over degrees of ``vanishing_order`` is the reference for the graded
read, which must give the same integer.  The double loop of the Taylor shift
matrix and the sliding-window Macaulay matrix are the references for the
Pascal-table product and the index gather, which must give the same bytes.
"""

from math import comb

import numpy as np

from greenp2.errors import OrderExceedsTruncation
from greenp2.series import EPS_COEF, AffineSeries2


def conv2(a, b):
    """Direct 2D convolution via a collision-free flattening of the full rectangles."""
    na, ma = a.shape
    nb, mb = b.shape
    width = ma + mb - 1
    fa = np.zeros((na, width), dtype=complex)
    fa[:, :ma] = a
    fb = np.zeros((nb, width), dtype=complex)
    fb[:, :mb] = b
    flat = np.convolve(fa.ravel(), fb.ravel())
    rows = na + nb - 1
    # column sums stay below `width`, so nothing lives past rows*width
    return flat[: rows * width].reshape(rows, width)


def product(x: AffineSeries2, y: AffineSeries2) -> AffineSeries2:
    """x * y from the full rectangle product, cut back to the triangle."""
    t = min(x.trunc, y.trunc)
    full = conv2(x.coeffs[: t + 1, : t + 1], y.coeffs[: t + 1, : t + 1])
    return AffineSeries2(t, full[: t + 1, : t + 1])


def compose_horner(P, s1: AffineSeries2, s2: AffineSeries2) -> AffineSeries2:
    """P(s1, s2) by nested Horner: n1 * n2 - 1 products."""
    trunc = min(s1.trunc, s2.trunc)
    n1, n2 = P.shape
    acc = None
    for a in range(n1 - 1, -1, -1):
        inner = AffineSeries2.constant(P[a, n2 - 1], trunc)
        for b in range(n2 - 2, -1, -1):
            inner = product(inner, s2)
            inner.coeffs[0, 0] += P[a, b]
        acc = inner if acc is None else product(acc, s1) + inner
    return acc


def reciprocal_neumann(s: AffineSeries2) -> AffineSeries2:
    """1/s as (1/c) * sum_k (-g)^k with g = s/c - 1: up to ``trunc`` products."""
    c = s.const
    g = s.scale(1.0 / c)
    g.coeffs[0, 0] = 0.0
    out = AffineSeries2.constant(1.0, s.trunc)
    term = AffineSeries2.constant(1.0, s.trunc)
    for _ in range(s.trunc):
        term = product(term, g).scale(-1.0)
        out = out + term
        if term.max_abs() == 0.0:
            break
    return out.scale(1.0 / c)


def vanishing_order_loop(s: AffineSeries2, abs_floor: float = 0.0) -> int:
    """Smallest total degree whose largest coefficient exceeds abs_floor and
    EPS_COEF times the largest coefficient of degree <= it, one degree at a time."""
    mags = np.abs(s.coeffs)
    deg = s.total_degrees()
    degmax = np.zeros(s.trunc + 1)
    for k in range(s.trunc + 1):
        sel = deg == k
        degmax[k] = mags[sel].max() if sel.any() else 0.0
    running = np.maximum.accumulate(degmax)
    if running[-1] <= 0.0:
        raise OrderExceedsTruncation(f"series is identically zero within truncation {s.trunc}")
    alive = (degmax > EPS_COEF * running) & (degmax > abs_floor)
    if not alive.any():
        raise OrderExceedsTruncation(f"all retained coefficients below tolerance at truncation {s.trunc}")
    return int(np.argmax(alive))


def shift_matrix_loop(n, c):
    """S[m, a] = binom(a, m) c^(a - m), one entry at a time."""
    S = np.zeros((n, n), dtype=complex)
    powers = np.ones(n, dtype=complex)
    for k in range(1, n):
        powers[k] = powers[k - 1] * c
    for a in range(n):
        for m in range(a + 1):
            S[m, a] = comb(a, m) * powers[a - m]
    return S


def macaulay_windows(germs, k):
    """The Macaulay matrix at degree k from windows of each germ padded with zeros:
    the window at (n - a, n - b) of the padded germ holds u^a v^b g."""
    n = k + 1
    r = np.arange(n)
    deg = r[:, None] + r[None, :]
    a, b = np.nonzero(deg < k)  # the shifts u^a v^b
    blocks = []
    for C in germs:
        Z = np.zeros((2 * n, 2 * n), dtype=complex)
        m = min(n, C.shape[0])
        Z[n : n + m, n : n + m] = C[:m, :m]
        W = np.lib.stride_tricks.sliding_window_view(Z, (n, n))
        blocks.append(W[n - a, n - b][:, deg <= k])
    return np.vstack(blocks)
