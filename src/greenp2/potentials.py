"""Green potentials, curve-pullback potentials, weighted densities, volumes.

The dynamical Green function is computed through the renormalized log-norm
recurrence with a geometric tail bound from ``ProjMap.lognorm_sup``; curve
potentials are the normalized pullback potentials of plane curves, whose L1
distance to the Green function measures equidistribution of the pulled-back
curve currents.
Weighted (directional) density estimates and sublevel-volume experiments use
seeded Monte Carlo sampling throughout.

Potential callbacks used by the density and volume estimators are vectorized:
they receive an (N, 2) complex array of chart points and return N reals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitUnstable, OnCurve
from .maps import ProjMap, ProjPoint, _unit_rows
from .polys import HomogPoly3, monomial_table
from .sampling import ball_points, fs_points, polydisk_points, rng_from, sphere_shell, torus_points

#: values of a curve potential below this floor are treated as on-curve hits
CLIP_FLOOR = 30.0


@dataclass
class GreenEval:
    value: float
    n_used: int
    tail_bound: float
    sup_log: float  # bound on |log ||F|| | over unit vectors (ProjMap.lognorm_sup)


@dataclass
class EquidistRow:
    n: int
    l1_distance: float
    stderr: float
    clip_fraction: float


@dataclass
class EquidistReport:
    curve: HomogPoly3
    per_n: list
    samples: int
    seed: int
    tol: float


@dataclass
class KiselmanEstimate:
    point: tuple
    weights: tuple
    slope: float
    fit_residual: float


def _require_finite(name, value):
    """Raise ValueError unless value, a number or an array of them, is finite."""
    if not np.all(np.isfinite(np.asarray(value, dtype=complex))):
        raise ValueError(f"{name} must be finite")


def _require_power(f: ProjMap, e: int, arg: str):
    """Refuse arg (name = value) when d^e, and so the log-norm sums of e steps, overflow a float."""
    if e * math.log2(f.degree) >= 1024:
        raise ValueError(f"{arg} needs {f.degree}^{e}, which overflows a float")


def _tail(f: ProjMap, tol: float) -> tuple:
    """(n, tail): the fewest steps n whose geometric tail M d^-n / (d - 1), M =
    ``f.lognorm_sup()``, is at most tol, and that tail."""
    _require_finite("tol", tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    M, d = f.lognorm_sup(), f.degree
    n = max(1, math.ceil((math.log(M / (d - 1)) - math.log(tol)) / math.log(d)))
    _require_power(f, n, f"tol = {tol!r}")
    return n, M * d ** (-n) / (d - 1)


def green(f: ProjMap, x: ProjPoint, tol: float = 1e-6) -> GreenEval:
    """Green function value at x, the one-row case of ``green_batch``, with the
    geometric tail bound M d^-n / (d - 1), M = ``ProjMap.lognorm_sup()``."""
    n, tail = _tail(f, tol)
    a, _ = _orbit_arrays(f, x.coords[None, :], n)
    return GreenEval(float(a[-1, 0] / f.degree**n), n, tail, f.lognorm_sup())


def green_batch(f: ProjMap, points: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Vectorized Green values over an (N, 3) array of unit representatives."""
    n, _ = _tail(f, tol)
    a, _ = _orbit_arrays(f, points, n)
    return a[-1] / f.degree**n


#: most points walked through all orbit steps together: blocks of 2,048 to
#: 8,192 points timed alike (1,024 slower), and their arrays stay cache-sized
_BLOCK = 4096


def _blocks(n_points: int):
    """Row slices cutting n_points rows into near-equal blocks of at most _BLOCK.

    Near-equal blocks never leave a one-row block when n_points > 1: numpy
    sends a one-row ``table @ coeffs`` through BLAS dot, which rounds
    differently from the gemv that evaluates every longer block, so the
    blocked results stay bit-identical to one pass over all rows.
    """
    k = max(1, -(-n_points // _BLOCK))
    return [slice(i * n_points // k, (i + 1) * n_points // k) for i in range(k)]


def _orbit_arrays(
    f: ProjMap, points: np.ndarray, n: int, phi: HomogPoly3 | None = None, n_phi: int = 0
):
    """Log-norm accumulators along the renormalized orbit, walked block by block.

    Returns (a, v) for 0 <= n_phi <= n: a[k] is the log-norm array at step k
    for k = 0..n_phi, and a[-1] the one at step n; v[k] is |phi| at the unit
    representatives of step k (k = 0..n_phi; no rows without phi).  Each
    block of points runs through all n steps before the next starts, and only
    the rows read are kept, so memory is N * (n_phi + 2) floats, and
    N * (n_phi + 1) more with phi.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    d = f.degree
    points = np.asarray(points, dtype=complex)
    a = np.empty((n_phi + 2, points.shape[0]))
    v = np.empty((0 if phi is None else n_phi + 1, points.shape[0]))
    for rows in _blocks(points.shape[0]):
        x = points[rows]
        acc = np.zeros(x.shape[0])
        for k in range(n + 1):
            if k <= n_phi:
                a[k, rows] = acc
                if phi is not None:
                    v[k, rows] = np.abs(phi.eval_batch(x))
            if k < n:
                lognorms, x = _unit_rows(f.lift(x))
                acc = d * acc + lognorms
        a[-1, rows] = acc
    return a, v


def _check_curve(phi: HomogPoly3):
    """Refuse a constant or zero form: its zero set is no curve."""
    if phi.degree < 1 or not np.any(phi.coeffs):
        raise ValueError(f"curve {phi.to_string()!r} is constant: need a nonzero form of degree at least 1")


def curve_potential(f: ProjMap, phi: HomogPoly3, n: int, x: ProjPoint) -> float:
    """Normalized pullback potential of the curve {phi = 0} at x after n steps:
    the one-row case of the walk ``equidist_distance`` takes."""
    _check_curve(phi)
    _require_power(f, n, f"n = {n}")
    k = phi.degree
    a, absphi = _orbit_arrays(f, x.coords[None, :], n, phi, n)
    val = absphi[n, 0]
    if val < 1e-300:
        raise OnCurve(f"{x} hits the pullback curve at depth {n}")
    return float((math.log(val) + k * a[n, 0]) / (k * f.degree**n))


def equidist_distance(
    f: ProjMap,
    phi: HomogPoly3,
    n_max: int,
    samples: int,
    seed: int,
    tol: float = 1e-6,
) -> EquidistReport:
    """Per-iterate L1 distance between pullback potentials and the Green function.

    Sample values with potential below -CLIP_FLOOR are excluded from the mean and
    reported in clip_fraction (the potential has log poles on the curve).
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    _check_curve(phi)
    _require_power(f, n_max, f"n_max = {n_max}")
    d = f.degree
    k = phi.degree
    n_green = max(n_max, _tail(f, tol)[0])
    pts = fs_points(samples, seed)
    a, absphi = _orbit_arrays(f, pts, n_green, phi, n_max)
    g = a[-1] / d**n_green
    rows = []
    for n in range(n_max + 1):
        vals = np.maximum(absphi[n], 1e-300)
        vn = (np.log(vals) + k * a[n]) / (k * d**n)
        keep = vn > -CLIP_FLOOR
        diffs = np.abs(vn[keep] - g[keep])
        rows.append(
            EquidistRow(
                n=n,
                l1_distance=float(diffs.mean()),
                stderr=float(diffs.std(ddof=1) / math.sqrt(max(len(diffs), 2))),
                clip_fraction=float(1.0 - keep.mean()),
            )
        )
    return EquidistReport(phi, rows, samples, seed, tol)


# -- weighted density (directional Lelong) estimates --------------------------------


def _slope_fit(x, y):
    """Least-squares slope of y against x and the root-mean-square residual."""
    A = np.stack([x, np.ones_like(x)], axis=1)
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(np.mean((y - A @ sol) ** 2)))
    return float(sol[0]), resid


def _slope_fit_weighted(logr, vals):
    """Least-squares slope discarding the largest radius (transient regime)."""
    order = np.argsort(logr)[:-1]
    return _slope_fit(logr[order], vals[order])


#: the radii of a sup fit, which drops the largest
_R_GRID = np.geomspace(2.0**-4, 2.0**-14, 11)
_R_GRID.flags.writeable = False
#: sample points per radius of a sup fit
_SUP_SAMPLES = 64


def lelong_estimate(u, p, seed: int = 73) -> float:
    """Logarithmic pole order of the potential u at the chart point p.

    Fits sup-over-sphere values of u against log r; raises FitUnstable when
    the linear fit residual exceeds 0.1 or is not a number.
    """
    rng = rng_from(seed)
    p = np.asarray(p, dtype=complex)
    _require_finite("point", p)
    sups = []
    for r in _R_GRID:
        sphere = sphere_shell(_SUP_SAMPLES, 2, rng)
        sups.append(float(np.max(u(p[None, :] + r * sphere))))
    slope, resid = _slope_fit_weighted(np.log(_R_GRID), np.array(sups))
    if not resid <= 0.1:
        raise FitUnstable(f"sup fit residual {resid:.3f} over the radius grid")
    return slope


def kiselman_estimate(u, p, weights, seed: int = 74) -> KiselmanEstimate:
    """Directional (weighted-polydisk) density of u at p with the given weights.

    Raises FitUnstable when the fit residual exceeds 0.1 max(1, |slope|) or is
    not a number.
    """
    a1, a2 = float(weights[0]), float(weights[1])
    _require_finite("weights", (a1, a2))
    if a1 <= 0 or a2 <= 0:
        raise ValueError("weights must be positive")
    rng = rng_from(seed)
    p = np.asarray(p, dtype=complex)
    _require_finite("point", p)
    sups = []
    for r in _R_GRID:
        radii = (r ** (1.0 / a1), r ** (1.0 / a2))
        pts = torus_points(_SUP_SAMPLES, p, radii, rng)
        sups.append(float(np.max(u(pts))))
    slope, resid = _slope_fit_weighted(np.log(_R_GRID), a1 * a2 * np.array(sups))
    if not resid <= 0.1 * max(1.0, abs(slope)):
        raise FitUnstable(f"weighted sup fit residual {resid:.3f}")
    return KiselmanEstimate(tuple(p), (a1, a2), slope, resid)


def kiselman_decay_scan(u, line_points, alpha_grid):
    """Sup over line points of the weighted density, per weight in the grid.

    For a potential whose current puts no mass on the line, the table must
    decay to zero as the transverse weight degenerates.
    """
    table = []
    for alpha in alpha_grid:
        worst = 0.0
        for p in line_points:
            est = kiselman_estimate(u, p, (alpha, 1.0))
            worst = max(worst, est.slope)
        table.append((float(alpha), worst))
    return table


# -- volume experiments ---------------------------------------------------------------


def sublevel_volume(u, box, t_grid, samples: int, seed: int = 75):
    """Monte Carlo fractions of {u <= -t} in a polydisk box, per t."""
    center, radii = box
    pts = polydisk_points(samples, center, radii, seed)
    vals = u(pts)
    return [(float(t), float(np.mean(vals <= -t))) for t in t_grid]


@dataclass
class VolumeDecayReport:
    n: int
    jacobian_bound: float
    jacobian_stderr: float
    occupancy: float
    occupancy_cells: int
    samples: int
    seed: int


#: cells per real axis of the occupancy grid, which has _GRID^4 cells
_GRID = 16


def volume_decay(f: ProjMap, ball, n: int, samples: int, seed: int = 76) -> VolumeDecayReport:
    """Jacobian-integral lower-bound proxy and grid-occupancy image volume.

    The integral d^{-2n} * int |J f^n|^2 over the ball is estimated in the
    normalized study metric; the occupancy estimate bins forward images of
    the ball in the chart of the image centroid, on a grid of 16^4 cells.
    For n >= 1 it equals ``volume_sweep(f, ball, n, ...)[n - 1]`` field for field.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    _require_power(f, 2 * n, f"n = {n}")  # the Jacobian bound divides by d^2n
    log_lift_norms, X = _ball_lift(ball, samples, seed)
    *_, state = _orbit_log_jacobian(f, X, n)
    return _volume_report(f, ball, n, samples, seed, log_lift_norms, *state)


def volume_sweep(f: ProjMap, ball, n_max: int, samples: int, seed: int = 76) -> list:
    """``[volume_decay(f, ball, n, samples, seed) for n in 1..n_max]``.

    One ball draw, one chart lift and one walk of n_max Jacobian steps serve
    every n, where the per-n calls walk n_max (n_max + 1) / 2 steps.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    _require_power(f, 2 * n_max, f"n_max = {n_max}")
    log_lift_norms, X = _ball_lift(ball, samples, seed)
    steps = _orbit_log_jacobian(f, X, n_max)
    next(steps)  # step 0
    return [
        _volume_report(f, ball, n, samples, seed, log_lift_norms, *state)
        for n, state in enumerate(steps, 1)
    ]


def _ball_lift(ball, samples, seed):
    """(log norms, unit rows) of the chart lifts of the ball's seeded samples."""
    chart, center, radius = ball
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if not radius > 0:
        raise ValueError("radius must be positive")
    _require_finite("radius", radius)
    _require_finite("center", center)
    if chart not in (0, 1, 2):
        raise ValueError(f"chart must be 0, 1 or 2, not {chart!r}")
    return _unit_rows(_chart_lift(ball_points(samples, center, radius, seed), chart))


def _volume_report(f, ball, n, samples, seed, log_lift_norms, logdet, a_n, Y):
    """The report of volume_decay at step n, from the Jacobian walk's state there."""
    radius = ball[2]
    Dn = f.degree**n
    img_chart = int(np.argmax(np.mean(np.abs(Y), axis=0)))
    denom = np.abs(Y[:, img_chart])
    ok = denom > 1e-13
    img = np.stack(
        [Y[ok, j] / Y[ok, img_chart] for j in range(3) if j != img_chart], axis=1
    )

    # the chart Jacobian of the n-th iterate on the chart representative:
    # J_chart = J(F^n) / (d^n * (F^n)_c^3), with homogeneity folding the
    # chart-lift norm into a -3 log ||lift|| term
    log_chart_jac = (
        logdet[ok]
        - math.log(Dn)
        - 3.0 * (a_n[ok] + np.log(denom[ok]))
        - 3.0 * log_lift_norms[ok]
    )
    tgt_density = (1.0 + np.sum(np.abs(img) ** 2, axis=1)) ** -3
    vals = np.exp(2.0 * log_chart_jac) * tgt_density
    leb_ball = math.pi**2 * radius**4 / 2.0
    factor = leb_ball * (2.0 / math.pi**2) / Dn**2
    jac_bound = float(np.mean(vals) * factor)
    jac_stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals)) * factor)

    occupancy, cells = _grid_occupancy(img, _GRID)
    return VolumeDecayReport(n, jac_bound, jac_stderr, occupancy, cells, samples, seed)


def _chart_lift(pts2, chart):
    """(N, 3) lifts of (N, 2) chart points: a 1 inserted at position chart."""
    return np.insert(np.asarray(pts2, dtype=complex), chart, 1.0, axis=1)


def _orbit_log_jacobian(f: ProjMap, X: np.ndarray, n: int):
    """Generator of log |J(F^k)| on unit representatives, via chained differentials.

    Differentials are evaluated at renormalized orbit points; homogeneity
    folds the accumulated scales back in as 3(d-1) * lognorm terms.  Yields
    (logdet, lognorms, Y) at step k = 0..n, with Y the unit representatives
    of the k-th images; the three arrays are updated in place by the next
    step.  Each step walks every block of points in turn, and each block runs
    the operations of one pass over all points (see _blocks), so the values
    at step k do not depend on n.
    """
    parts = [[f.components[i].partial(j) for j in range(3)] for i in range(3)]
    acc = np.zeros(X.shape[0])  # log-norm accumulator a_k
    logdet = np.zeros(X.shape[0])
    Y = np.array(X, dtype=complex)
    yield logdet, acc, Y
    for _ in range(n):
        for rows in _blocks(X.shape[0]):
            _jacobian_step(f, parts, rows, logdet, acc, Y)
        yield logdet, acc, Y


def _jacobian_step(f, parts, rows, logdet, acc, Y):
    """One orbit step of the rows of Y, with its log |det| and log norm, in place."""
    d = f.degree
    cur = Y[rows]
    D = np.empty((cur.shape[0], 3, 3), dtype=complex)
    table = monomial_table(cur, d - 1)
    for i in range(3):
        for j in range(3):
            D[:, i, j] = table @ parts[i][j].coeffs
    # freed before f.lift builds its own table, so the two never coexist
    del table
    _, ld = np.linalg.slogdet(D)
    logdet[rows] = logdet[rows] + ld + 3.0 * (d - 1) * acc[rows]
    lognorms, Y[rows] = _unit_rows(f.lift(cur))
    acc[rows] = d * acc[rows] + lognorms


def _grid_occupancy(img: np.ndarray, grid: int):
    """Occupied-cell volume of an image cloud in normalized metric units."""
    if img.shape[0] == 0:
        return 0.0, 0
    flat = img.view(float).reshape(img.shape[0], 4)
    lo = flat.min(axis=0)
    hi = flat.max(axis=0)
    span = np.maximum(hi - lo, 1e-300)
    h = span / grid
    idx = np.minimum(((flat - lo) / h).astype(int), grid - 1)
    # one integer code per cell; each occupied cell is weighted at its first
    # point, in first-occurrence order
    _, first = np.unique(idx @ grid ** np.arange(4), return_index=True)
    first.sort()
    sq = np.sum(np.abs(img[first]) ** 2, axis=1)
    # a scalar power per cell, C pow on Python floats: the array power rounds
    # differently in the last bit
    weights = [(1.0 + s) ** -3 for s in sq.tolist()]
    cell_leb = float(np.prod(h))
    vol = (2.0 / math.pi**2) * cell_leb * sum(weights)
    return vol, len(weights)
