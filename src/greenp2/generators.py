"""Generators for the structured map corpus.

Configuration maps realize each known exceptional-set layout with random
unit-disk coefficients in the free entries.  The Lattes construction builds
the symmetric-square quotient of a product of one-dimensional Lattes maps: a
plane point encodes the coefficient triple of a binary quadratic, and the
image triple comes from a resultant against the graph form of the
one-variable map.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConstructionDegenerate, DegenerateMap, GenerationFailed
from .maps import ProjMap
from .polys import HomogPoly3, monomial_exponents, n_monomials, sylvester_matrix

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


def _monomial(d, i, j, k, c=1.0):
    return HomogPoly3.from_monomials(d, [(i, j, k, c)])


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


def lattes_rational_coeffs(d: int):
    """Numerator and denominator of the degree-d Lattes map ((z - 2)/z)^d.

    Returned as binary-form coefficient arrays n[m], q[m] for X^(deg-m) Y^m.
    """
    num = np.array([math.comb(d, m) * (-2.0) ** m for m in range(d + 1)], dtype=complex)
    den = np.zeros(d + 1, dtype=complex)
    den[0] = 1.0
    return num, den


def lattes_map(d: int = 2) -> ProjMap:
    """Symmetric-square quotient of the product Lattes map on the plane.

    Plane coordinates (z, w, t) encode the binary quadratic z X^2 + w XY + t Y^2
    whose root pair is the unordered point pair.  The image triple is read off
    the resultant of the quadratic against the graph form of the line map, so
    its coefficients are degree-d forms in (z, w, t).
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    num, den = lattes_rational_coeffs(d)

    m = n_monomials(d)
    rng = np.random.default_rng(5150)
    n_samples = 3 * m
    abc = rng.standard_normal((n_samples, 3)) + 1j * rng.standard_normal((n_samples, 3))
    abc /= np.linalg.norm(abc, axis=1)[:, None]

    # graph forms V*num(X) - U*den(X) (affine Y=1, ascending in X) at
    # (U, V) = (1, 0), (0, 1), (1, 1); each image coefficient comes from the
    # formal resultant in X of aX^2+bX+c against them
    graphs = [(V * num[::-1] - U * den[::-1])[None, :] for U, V in ((1, 0), (0, 1), (1, 1))]
    vals = np.zeros((n_samples, 3), dtype=complex)
    for s in range(n_samples):
        q = abc[s, ::-1][None, :]  # c + bX + aX^2
        d10, d01, d11 = (_sylvester_dets(q, g, [0.0])[0] for g in graphs)
        vals[s] = (d10, d11 - d10 - d01, d01)  # coefficients of U^2, UV, V^2

    exps = monomial_exponents(d)
    V = np.ones((n_samples, m), dtype=complex)
    for col, (i, j, k) in enumerate(exps):
        V[:, col] = abc[:, 0] ** i * abc[:, 1] ** j * abc[:, 2] ** k
    coeffs, residuals, *_ = np.linalg.lstsq(V, vals, rcond=None)
    fit_err = float(np.max(np.abs(V @ coeffs - vals)))
    scale = float(np.max(np.abs(vals)))
    if fit_err > 1e-8 * max(scale, 1.0):
        raise ConstructionDegenerate(f"resultant interpolation residual {fit_err:.2e}")

    comps = []
    for col in range(3):
        c = coeffs[:, col].copy()
        rounded = np.round(c.real) + 1j * np.round(c.imag)
        c = np.where(np.abs(c - rounded) < 1e-6 * max(scale, 1.0), rounded, c)
        c[np.abs(c) < 1e-9 * max(scale, 1.0)] = 0.0
        comps.append(HomogPoly3(d, c))
    if any(p.coeff_norm == 0 for p in comps):
        raise ConstructionDegenerate("a quotient component vanished")
    return ProjMap.validate(tuple(comps))


def lattes_root_pair_image(d: int, z1: complex, z2: complex):
    """Oracle: the quadratic coefficients of the image pair {R(z1), R(z2)}."""
    num, den = lattes_rational_coeffs(d)

    def ratio(z):
        nv = sum(num[m] * z ** (d - m) for m in range(d + 1))
        dv = sum(den[m] * z ** (d - m) for m in range(d + 1))
        return nv, dv

    n1, d1 = ratio(z1)
    n2, d2 = ratio(z2)
    # (d1 X - n1 Y)(d2 X - n2 Y) up to scale
    return np.array([d1 * d2, -(d1 * n2 + d2 * n1), n1 * n2], dtype=complex)


def _sylvester_dets(A, B, s_values):
    """Sylvester determinants in v of A(s, v) and B(s, v) at each s value.

    Rows of A and B index powers of s and columns powers of v; the formal
    v-degrees are the column counts minus one.
    """
    s = np.asarray(s_values)
    V = np.vander(s, max(A.shape[0], B.shape[0]), increasing=True)
    Av = V[:, : A.shape[0]] @ A
    Bv = V[:, : B.shape[0]] @ B
    return np.linalg.det(sylvester_matrix(Av, Bv))
