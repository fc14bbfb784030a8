"""Local multiplicities along orbits and their cocycle laws.

Three quantities are tracked for a map f and a point p:

* the vanishing order of the Jacobian of the n-th iterate at p, accumulated
  additively as sum_j ord_p(Jf o f^j);
* the local topological degree of the n-th iterate, accumulated
  multiplicatively from the per-step local degrees e(f, f^j p), each the
  local intersection number of f - f(f^j p) at f^j p;
* the contraction order: the lowest total degree in the Taylor expansion of
  the n-th iterate at p (both p and f^n p recentered to the origin).

Chart Jacobians are read off the lift: in any source chart the chart
Jacobian equals the dehomogenized lift Jacobian divided by d * F_c^3 for the
target chart coordinate F_c, and the divisor is a local unit, so vanishing
orders are chart independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OrderExceedsTruncation
from .maps import ProjMap, ProjPoint
from .polys import jacobian_det
from .series import (
    AffineSeries2,
    compose_poly_series,
    recenter_taylor,
    shift_bivariate,
    local_multiplicity,
    vanishing_order,
)

def _trunc_schedule(d: int, n: int):
    trunc = max(2 * d, 4)
    cap = max(4 * d**n, trunc)
    while True:
        yield trunc
        if trunc >= cap:
            return
        trunc = min(2 * trunc, cap)


def _escalate(f: ProjMap, p: ProjPoint, n: int, what: str, attempt):
    """attempt(trunc) at growing truncations until one has enough terms."""
    last = None
    for trunc in _trunc_schedule(f.degree, n):
        try:
            return attempt(trunc)
        except OrderExceedsTruncation as exc:
            last = exc
    raise OrderExceedsTruncation(f"{what} at {p} exceeds truncation cap: {last}")


def orbit_chart_series(f: ProjMap, p: ProjPoint, n: int, trunc: int, chart_override=None):
    """Taylor series at p of the chart representations of f^j for j = 0..n.

    Returns (points, charts, series) where series[j] is a pair of
    AffineSeries2 in the local coordinates at p whose constant terms are the
    chart coordinates of f^j(p) in charts[j].
    """
    points = f.orbit(p, n)
    charts = [pt.chart() for pt in points]
    if chart_override:
        for j, c in chart_override.items():
            charts[j] = c
    c0 = points[0].chart_coords(charts[0])
    s1 = AffineSeries2.constant(c0[0], trunc, base_point=c0)
    s1.coeffs[1, 0] = 1.0
    s2 = AffineSeries2.constant(c0[1], trunc, base_point=c0)
    s2.coeffs[0, 1] = 1.0
    series = [(s1, s2)]
    for j in range(n):
        series.append(_push_series(f, series[j], charts[j], charts[j + 1]))
    return points, charts, series


def _push_series(f: ProjMap, pair, chart_from: int, chart_to: int):
    s1, s2 = pair
    center = (s1.const, s2.const)
    z1 = s1 - center[0]
    z2 = s2 - center[1]
    comps = {}
    for idx in range(3):
        shifted = shift_bivariate(f.components[idx].dehomogenize(chart_from), center)
        comps[idx] = compose_poly_series(shifted, z1, z2)
    inv = comps[chart_to].reciprocal()
    keep = [i for i in range(3) if i != chart_to]
    return (comps[keep[0]] * inv, comps[keep[1]] * inv)


def _series_order(comp: AffineSeries2, scale: float) -> int:
    """vanishing_order with an absolute noise floor tied to the composition scale.

    A composition whose every retained coefficient is rounding noise must
    raise, not report the order of the noise.
    """
    floor = 1e-12 * max(scale, 1e-300)
    if comp.max_abs() <= floor:
        raise OrderExceedsTruncation(
            "series vanishes within truncation at the composition scale"
        )
    return vanishing_order(comp, abs_floor=floor)


def _jacobian_term(f: ProjMap, pair, chart: int) -> int:
    """ord_p of (lift Jacobian dehomogenized in `chart`) composed with the pair."""
    s1, s2 = pair
    center = (s1.const, s2.const)
    shifted = shift_bivariate(f.lift_jacobian.dehomogenize(chart), center)
    comp = compose_poly_series(shifted, s1 - center[0], s2 - center[1])
    return _series_order(comp, float(np.max(np.abs(shifted))))


def jacobian_multiplicity(f: ProjMap, p: ProjPoint, n: int, chart_override=None) -> int:
    """Vanishing order of the Jacobian of the n-th iterate at p."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def attempt(trunc):
        _, charts, series = orbit_chart_series(f, p, n - 1, trunc, chart_override)
        return sum(_jacobian_term(f, series[j], charts[j]) for j in range(n))

    return _escalate(f, p, n, "jacobian order", attempt)


def contraction_order(f: ProjMap, p: ProjPoint, n: int, chart_override=None) -> int:
    """Lowest Taylor degree of the n-th iterate at p (min over components).

    The truncation grows only until one component's order is decided, since
    the other's order then exceeds it or is decided too (`_pair_contraction`).
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def attempt(trunc):
        _, _, series = orbit_chart_series(f, p, n, trunc, chart_override)
        return _pair_contraction(series[n])

    return _escalate(f, p, n, "contraction order", attempt)


def _pair_contraction(pair) -> int:
    """Order of the pair minus its value: the smaller order of its components.

    A component that raises has no significant coefficient up to the
    truncation, so its order exceeds it and it cannot be the minimum when the
    other component's order does not.  Significance at a degree depends only
    on the coefficients up to that degree, which a larger truncation leaves
    as they are, so the answer is the one every larger truncation gives.
    Raises only when both components exceed the truncation.
    """
    s1, s2 = pair
    scale = max(1.0, abs(s1.const), abs(s2.const))
    orders, last = [], None
    for s in pair:
        try:
            orders.append(_series_order(s - s.const, scale))
        except OrderExceedsTruncation as exc:
            last = exc
    if not orders:
        raise last
    return min(orders)


def local_degree(f: ProjMap, p: ProjPoint, n: int) -> int:
    """Local topological degree of the n-th iterate at p (product along orbit)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    points = f.orbit(p, n - 1)
    out = 1
    for q in points:
        out *= local_degree_step(f, q)
    return out


def local_degree_step(f: ProjMap, q: ProjPoint) -> int:
    """Degree of the germ of f at q, the local intersection number of f - f(q)."""
    return local_degree_direct(f, q, 1)


# -- whole-report driver ---------------------------------------------------------


@dataclass
class MultiplicityReport:
    point: ProjPoint
    horizon: int
    degree_bound: int
    jacobian_orders: list  # n = 1..N
    local_degrees: list
    contraction_orders: list
    jacobian_terms: list  # ord_p(Jf o f^j), j = 0..N-1
    degree_steps: list  # e(f^j p, f), j = 0..N-1
    contraction_table: dict  # (j, k) -> contraction order of f^k at f^j(p)
    estimates: dict = field(default_factory=dict)
    inequality_verdicts: dict | None = None


def orbit_report(f: ProjMap, p: ProjPoint, horizon: int) -> MultiplicityReport:
    """Series of all three multiplicities up to the horizon, with growth estimates.

    The growth estimates are finite-horizon N-th roots, not certified limits.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    N = horizon
    points = f.orbit(p, N - 1)

    jac_terms = []
    contraction_table = {}
    for j, q in enumerate(points):
        last = None
        for trunc in _trunc_schedule(f.degree, N - j):
            try:
                _, charts, series = orbit_chart_series(f, q, N - j, trunc)
                if j == 0:
                    jac_terms = [
                        _jacobian_term(f, series[i], charts[i]) for i in range(N)
                    ]
                for k in range(1, N - j + 1):
                    contraction_table[(j, k)] = _pair_contraction(series[k])
                last = None
                break
            except OrderExceedsTruncation as exc:
                last = exc
        if last is not None:
            raise OrderExceedsTruncation(
                f"series at orbit point {j} exceed truncation cap: {last}"
            )

    degree_steps = [local_degree_step(f, q) for q in points]

    jacobian_orders = [int(v) for v in np.cumsum(jac_terms)]
    local_degrees = [int(v) for v in np.cumprod(degree_steps)]
    contraction_orders = [contraction_table[(0, k)] for k in range(1, N + 1)]

    muN = jacobian_orders[-1]
    est = {
        "jacobian_growth": (3.0 + 2.0 * muN) ** (1.0 / N),
        "jacobian_growth_alt": (1.0 + muN) ** (1.0 / N),
        "degree_growth": float(local_degrees[-1]) ** (1.0 / N),
        "contraction_growth": float(contraction_orders[-1]) ** (1.0 / N),
    }
    report = MultiplicityReport(
        point=p,
        horizon=N,
        degree_bound=f.degree,
        jacobian_orders=jacobian_orders,
        local_degrees=local_degrees,
        contraction_orders=contraction_orders,
        jacobian_terms=jac_terms,
        degree_steps=degree_steps,
        contraction_table=contraction_table,
        estimates=est,
    )
    report.inequality_verdicts = inequality_report(report, f.degree)
    return report


def inequality_report(report: MultiplicityReport, d: int) -> dict:
    """Named verdicts for the one-step inequalities and the cocycle laws."""
    mu1 = report.jacobian_orders[0]
    e1 = report.local_degrees[0]
    c1 = report.contraction_orders[0]
    N = report.horizon

    def mu_range(j, k):
        return sum(report.jacobian_terms[j : j + k])

    def e_range(j, k):
        out = 1
        for s in report.degree_steps[j : j + k]:
            out *= s
        return out

    pairs = [(n, k) for n in range(1, N) for k in range(1, N - n + 1)]
    verdicts = {
        "jacobian_between": bool(2 * (c1 - 1) <= mu1 <= 2 * (e1 - 1)),
        "contraction_sq_le_degree": bool(c1 * c1 <= e1),
        "jacobian_le_critical_degree": bool(0 <= mu1 <= 3 * (d - 1)),
        "degree_in_range": bool(1 <= e1 <= d * d),
        "contraction_in_range": bool(1 <= c1 <= d),
        "jacobian_additive": all(
            report.jacobian_orders[n + k - 1]
            == report.jacobian_orders[n - 1] + mu_range(n, k)
            for n, k in pairs
        ),
        "degree_multiplicative": all(
            report.local_degrees[n + k - 1]
            == report.local_degrees[n - 1] * e_range(n, k)
            for n, k in pairs
        ),
        "contraction_supermultiplicative": all(
            report.contraction_orders[n + k - 1]
            >= report.contraction_orders[n - 1] * report.contraction_table[(n, k)]
            for n, k in pairs
        ),
        "jacobian_hat_submultiplicative": all(
            3 + 2 * report.jacobian_orders[n + k - 1]
            <= (3 + 2 * report.jacobian_orders[n - 1]) * (3 + 2 * mu_range(n, k))
            for n, k in pairs
        ),
    }
    return verdicts


# -- direct routes on composed lifts (independent of the orbit machinery) --------


def _poly_taylor_order(poly, chart, center, trunc) -> int:
    series = recenter_taylor(poly, chart, center, trunc)
    return vanishing_order(series, abs_floor=1e-11 * max(series.max_abs(), 1e-300))


def jacobian_multiplicity_direct(f: ProjMap, p: ProjPoint, n: int) -> int:
    """Vanishing order at p of the Jacobian of the composed lift F^n."""
    JG = jacobian_det(f.iterate_lift(n))
    chart = p.chart()
    center = p.chart_coords(chart)
    return _escalate(
        f, p, n, "composed jacobian order",
        lambda trunc: _poly_taylor_order(JG, chart, center, trunc),
    )


def iterate_numerators(f: ProjMap, p: ProjPoint, n: int):
    """Cross numerators G_j * q_piv - q_j * G_piv of the n-th iterate at q = f^n(p).

    They vanish at p and their vanishing orders read off the chart
    representation of f^n minus its value (the denominator is a local unit).
    """
    G = f.iterate_lift(n)
    q = f.orbit(p, n)[-1]
    pivot = q.chart()
    return [
        G[j].scale(q.coords[pivot]) - G[pivot].scale(q.coords[j])
        for j in range(3)
        if j != pivot
    ]


def contraction_order_direct(f: ProjMap, p: ProjPoint, n: int) -> int:
    nums = iterate_numerators(f, p, n)
    chart = p.chart()
    center = p.chart_coords(chart)
    return _escalate(
        f, p, n, "composed contraction order",
        lambda trunc: min(_poly_taylor_order(h, chart, center, trunc) for h in nums),
    )


def local_degree_direct(f: ProjMap, p: ProjPoint, n: int) -> int:
    """Local degree of the n-th iterate as a local intersection number at p."""
    nums = iterate_numerators(f, p, n)
    chart = p.chart()
    center = p.chart_coords(chart)
    trunc = f.degree**n
    germs = []
    for h in nums:
        s = recenter_taylor(h, chart, center, trunc)
        s.coeffs[0, 0] = 0.0  # exact zero at the base point
        germs.append(s)
    return local_multiplicity(germs[0], germs[1])
