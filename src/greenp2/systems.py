"""Zero-dimensional bivariate polynomial systems via sheared Sylvester resultants.

The second variable is eliminated after a fixed generic shear u = s - lam*v,
so distinct solutions project to distinct s values and the v-leading
coefficient never degenerates.  Resultants are computed by evaluation at
roots of unity followed by an exact inverse DFT.
"""

from __future__ import annotations

import numpy as np

from .errors import IllConditioned, PositiveDimensional, SolverFailure
from .roots import CLUSTER_RADIUS, _abs, _horner, roots_batch, roots_univariate
from .series import AffineSeries2, _share_probe, _sylvester_dets, shear_series

#: deterministic shear candidates, tried in order on ambiguity
SHEARS = (
    complex(np.cos(1.0), np.sin(1.0)),
    complex(np.cos(2.3), np.sin(2.3)),
    complex(np.cos(0.4), np.sin(0.4)),
)

_REL = 1e-9

#: generic s values probing the sheared pair for a shared curve
_CURVE_PROBES = (0.3371 + 0.7241j, -0.8112 + 0.2643j, 0.1425 - 0.9332j)


def _dense(poly) -> np.ndarray:
    if isinstance(poly, AffineSeries2):
        return poly.coeffs.copy()
    return np.asarray(poly, dtype=complex).copy()


def _total_degree(C, rel_tol=_REL):
    mags = np.abs(C)
    top = mags.max()
    if top == 0.0:
        return -1
    i, j = np.nonzero(mags > rel_tol * top)
    return int((i + j).max())


def _trim_degree(C, deg):
    out = np.zeros((deg + 1, deg + 1), dtype=complex)
    n1 = min(C.shape[0], deg + 1)
    n2 = min(C.shape[1], deg + 1)
    out[:n1, :n2] = C[:n1, :n2]
    i = np.arange(deg + 1)
    out[(i[:, None] + i[None, :]) > deg] = 0.0
    return out


def solve_affine_system(a, b, trust_radius=None):
    """Common zeros of two bivariate polynomials with clustered multiplicities.

    Accepts dense coefficient arrays ``C[i, j]`` for u^i v^j or
    ``AffineSeries2`` values used as exact polynomials (truncation at least
    their degree).  Returns a list of ((u, v), multiplicity).

    With a ``trust_radius`` the solver only reports solutions with both
    coordinates inside that radius and silently drops resultant roots beyond
    it; chart-based callers rely on another chart covering the far range.
    """
    A0 = _dense(a)
    B0 = _dense(b)
    dA = _total_degree(A0)
    dB = _total_degree(B0)
    if dA < 0 or dB < 0:
        raise PositiveDimensional("an input polynomial is identically zero")
    if dA == 0 or dB == 0:
        return []
    A0 = _trim_degree(A0, dA) / np.max(np.abs(A0))
    B0 = _trim_degree(B0, dB) / np.max(np.abs(B0))

    last_exc = None
    for lam in SHEARS:
        try:
            return _solve_sheared(A0, B0, dA, dB, lam, trust_radius)
        except IllConditioned as exc:
            last_exc = exc
    raise last_exc


def _solve_sheared(A0, B0, dA, dB, lam, trust_radius):
    A = shear_series(A0, lam)
    B = shear_series(B0, lam)
    # post-shear the v-degree equals the total degree with a constant leading
    # coefficient (top form evaluated along the shear direction)
    lead_a = np.max(np.abs(A[:, dA]))
    lead_b = np.max(np.abs(B[:, dB]))
    if lead_a < 1e-8 or lead_b < 1e-8:
        raise IllConditioned("shear direction hits a top-form root")
    A = A[: dA + 1, : dA + 1]
    B = B[: dB + 1, : dB + 1]

    if _share_probe(A, B, _CURVE_PROBES, 1e-6):
        raise PositiveDimensional("resultant vanishes identically at tolerance")
    # samples sit at exp(+2 pi i k / N), so coefficients come from fft/N
    N = dA * dB + 1
    s = np.exp(2j * np.pi * np.arange(N) / N)
    res = np.fft.fft(_sylvester_dets(A, B, s)) / N
    top = float(np.max(np.abs(res)))
    if top == 0.0:
        raise SolverFailure("resultant cancellation below working precision")
    res = res / top
    if _total_degree(res.reshape(-1, 1), 1e-10) == 0:
        return []

    rr = roots_univariate(res)
    if not rr.converged:
        raise SolverFailure("resultant root iteration did not converge")

    s_trust = None if trust_radius is None else trust_radius * (1.0 + abs(lam)) + 1.0
    kept = [cl for cl in rr.clusters if s_trust is None or abs(cl.root) <= s_trust]
    # the v-polynomials of A and B over every kept resultant root, solved together
    fibres = [
        (cl.root ** np.arange(A.shape[0]) @ A, cl.root ** np.arange(B.shape[0]) @ B)
        for cl in kept
    ]
    found = roots_batch([co for pair in fibres for co in pair])
    solutions = []
    for cl, (aco, bco), ra, rb in zip(kept, fibres, found[::2], found[1::2]):
        s0 = cl.root
        cands = [c.root for c in ra.clusters + rb.clusters]
        try:
            v0 = _back_substitute(aco, bco, dA, dB, cands, s0, cl.spread)
        except IllConditioned:
            if s_trust is not None and abs(s0) > 0.7 * s_trust:
                continue  # marginal root; the point lives in another chart
            raise
        u0 = s0 - lam * v0
        if trust_radius is not None and max(abs(u0), abs(v0)) > trust_radius:
            continue
        solutions.append(((u0, v0), cl.multiplicity))

    return _merge_points(solutions, CLUSTER_RADIUS)


def _back_substitute(aco, bco, dA, dB, cands, s0, s_spread):
    """The v over resultant root ``s0``, picked from the roots ``cands`` of ``aco`` and ``bco``."""
    norm_a, norm_b = np.max(np.abs(aco)), np.max(np.abs(bco))
    vs = np.array(cands, dtype=complex)
    big = [max(1.0, abs(v)) for v in cands]
    # abs() as hypot and the scalar power, as in scalar scoring, keep each
    # score to its last bit: sorting and acceptance compare them
    sa = (_abs(_horner(aco, vs)) / [g**dA for g in big]).tolist()
    sb = (_abs(_horner(bco, vs)) / [g**dB for g in big]).tolist()
    scores = [max(a / norm_a, b / norm_b) for a, b in zip(sa, sb)]
    scored = sorted(zip(scores, vs.real.tolist(), vs.imag.tolist(), cands))
    best = scored[0][0]
    accepted = [v for sc, _, _, v in scored if sc <= max(5.0 * best, 1e-7)]

    groups = _cluster_values(accepted, CLUSTER_RADIUS)
    if len(groups) == 1:
        return complex(np.mean(groups[0]))
    spread = max(
        abs(x - y) for g1 in groups for x in g1 for g2 in groups for y in g2
    )
    vmax = max(abs(v) for v in accepted)
    # the fiber scatter inherits the uncertainty of a multiple resultant root
    window = max(1e-3 * (1.0 + vmax), 4.0 * s_spread)
    if spread <= window:
        return complex(np.mean(accepted))
    raise IllConditioned(
        f"ambiguous fiber over resultant root {s0!r}: {len(groups)} candidates"
    )


def _cluster_values(values, radius):
    groups = []
    for v in values:
        for g in groups:
            if abs(v - g[0]) <= radius:
                g.append(v)
                break
        else:
            groups.append([v])
    return groups


def _merge_points(solutions, radius):
    merged = []
    for (pt, mult) in solutions:
        for entry in merged:
            if abs(pt[0] - entry[0][0]) <= radius and abs(pt[1] - entry[0][1]) <= radius:
                entry[1] += mult
                break
        else:
            merged.append([pt, mult])
    merged.sort(key=lambda e: (round(e[0][0].real, 9), round(e[0][0].imag, 9), round(e[0][1].real, 9)))
    return [((complex(pt[0]), complex(pt[1])), int(m)) for pt, m in merged]
