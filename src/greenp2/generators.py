"""Generators for the structured map corpus.

Configuration maps realize each known exceptional-set layout with random
unit-disk coefficients in the free entries.  The Lattes construction builds
the symmetric-square quotient of a product of one-dimensional Lattes maps: a
plane point encodes the coefficient triple of a binary quadratic, and the
image triple is a closed form in the power sums of its roots' images.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMap, GenerationFailed
from .maps import ProjMap
from .polys import HomogPoly3, monomial_exponents, n_monomials

CONFIGURATION_IDS = (
    "1-0",
    "0-1",
    "1-1-incident",
    "1-1-free",
    "1-2",
    "2-1",
    "2-2",
    "2-3",
    "3-3",
)


def _disk_coeffs(rng, count):
    r = np.sqrt(rng.uniform(0.0, 1.0, count))
    th = rng.uniform(0.0, 2.0 * np.pi, count)
    return r * np.exp(1j * th)


def _random_full(rng, d):
    return HomogPoly3(d, _disk_coeffs(rng, n_monomials(d)))


def _random_two_vars(rng, d, missing):
    """Random degree-d form omitting one variable."""
    p = HomogPoly3(d)
    exps = monomial_exponents(d)
    for idx, (i, j, k) in enumerate(exps):
        if (i, j, k)[missing] == 0:
            p.coeffs[idx] = _disk_coeffs(rng, 1)[0]
    return p


def _monomial(d, i, j, k):
    return HomogPoly3.from_monomials(d, [(i, j, k, 1.0)])


def configuration_map(row_id: str, d: int, rng_seed: int) -> ProjMap:
    """A random valid map realizing the requested exceptional configuration.

    Structural coefficients (the ones the detectors pivot on) are rejected
    below magnitude 0.05 so the realized configuration is numerically clean.
    """
    if row_id not in CONFIGURATION_IDS:
        raise ValueError(f"unknown configuration {row_id!r}; known: {CONFIGURATION_IDS}")
    if d < 2:
        raise ValueError("degree must be at least 2")
    rng = np.random.default_rng(rng_seed)
    for _ in range(100):
        comps, guards = _build_row(row_id, d, rng)
        if any(abs(g) < 0.05 for g in guards):
            continue
        try:
            return ProjMap.validate(comps)
        except DegenerateMap:
            continue
    raise GenerationFailed(f"no valid draw for configuration {row_id} at degree {d}")


def _build_row(row_id, d, rng):
    zd = _monomial(d, d, 0, 0)
    wd = _monomial(d, 0, d, 0)
    td = _monomial(d, 0, 0, d)
    if row_id == "3-3":
        return (zd, wd, td), (1.0,)
    if row_id == "1-0":
        P, Q = _random_full(rng, d), _random_full(rng, d)
        return (P, Q, td), (1.0,)
    if row_id == "0-1":
        P = _random_two_vars(rng, d, missing=1)  # in (z, t)
        R = _random_two_vars(rng, d, missing=1)
        Q = _random_full(rng, d)
        return (P, Q, R), (Q.coeff(0, d, 0),)
    t1 = _monomial(1, 0, 0, 1)
    if row_id == "1-1-incident":
        P = _random_full(rng, d)
        Q = _random_full(rng, d - 1)
        return (P, wd + t1 * Q, td), (P.coeff(d, 0, 0),)
    if row_id == "1-1-free":
        P = _random_two_vars(rng, d, missing=2)  # in (z, w)
        Q = _random_two_vars(rng, d, missing=2)
        return (P, Q, td), (1.0,)
    if row_id == "1-2":
        P = _random_two_vars(rng, d, missing=1)  # in (z, t)
        Q = _random_full(rng, d - 1)
        return (P, wd + t1 * Q, td), (P.coeff(d, 0, 0),)
    if row_id == "2-1":
        P = _random_full(rng, d)
        return (P, wd, td), (P.coeff(d, 0, 0),)
    if row_id == "2-2":
        P = _random_full(rng, d - 1)
        return (zd + t1 * P, wd, td), (1.0,)
    if row_id == "2-3":
        P = _random_full(rng, d - 2)
        return (zd + _monomial(2, 0, 1, 1) * P, wd, td), (P.coeffs[0] if d == 2 else 1.0,)
    raise AssertionError(row_id)


# -- Lattes quotient map -------------------------------------------------------------


def lattes_map(d: int = 2) -> ProjMap:
    """Symmetric-square quotient of the product Lattes map on the plane.

    Plane coordinates (z, w, t) encode the binary quadratic z X^2 + w XY + t Y^2
    whose roots r1, r2 (in X/Y) are the unordered point pair, and the image
    quadratic has roots R(r1), R(r2) for R(x) = ((x - 2)/x)^d.  Cleared of
    denominators its coefficients are t^d, -(a^d + b^d) and (4z + 2w + t)^d,
    where a = z r1 (r2 - 2) and b = z r2 (r1 - 2) have a + b = 2(w + t) and
    ab = t(4z + 2w + t); the power sum a^d + b^d follows from these by
    Newton's recursion p_k = (a + b) p_(k-1) - ab p_(k-2).
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    z, w, t = (HomogPoly3.variable(i) for i in range(3))
    s = z.scale(4.0) + w.scale(2.0) + t
    e1, e2 = (w + t).scale(2.0), t * s
    p_prev, p = HomogPoly3(0, [2.0]), e1
    for _ in range(d - 1):
        p_prev, p = p, e1 * p - e2 * p_prev
    # 0.0 - c, not -c, which would write -0.0 entries
    return ProjMap.validate((t.power(d), HomogPoly3(d, 0.0 - p.coeffs), s.power(d)))

