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

Every read goes through ``_Orbit``, which works from the germs of f at the
orbit points p = q_0, ..., q_(N-1) and never composes an iterate F^n.  Each
term is first decided by exact identities, and truncated series are built
only for the terms these leave open, one series per orbit point
(``_Orbit.reads``); only those terms set the truncation.  The reads at a
critical point that these identities use (ord(J), the germs with their
orders and cone, and e) are kept per map in ``f._memo``, keyed by the point's
coordinates, so each is made once per map and point.

* **Regular points.**  Where |J(q)| exceeds _CRITICAL_TOL times the largest
  coefficient of the lift Jacobian J, f is a local biholomorphism at q: its
  contraction order and local degree are 1 and ord_q(J) = 0.
* **Tangent cones.**  Elsewhere the germs of f - f(q) at q are read.  The
  one-step contraction order is their smaller order.  When both have one
  order c and the Sylvester matrix of their degree-c parts, each scaled to
  unit norm, has sigma_min >= _CONE_TOL sigma_max, the degree-c part of f at
  q is a finite homogeneous map (its only zero is 0).  A finite homogeneous
  map is onto and lowest parts of finite maps compose, so e(f, q) = c^2, the
  contraction order of f^k at q_j is c_j ... c_(j+k-1), and
  ord_p(J o f^j) = c_0 ... c_(j-1) ord_(q_j)(J), with ord_(q_j)(J) read from
  the Taylor expansion of J at q_j.
* **Periodic lines.**  A Jacobian term whose cones are not all finite is read
  on the linear factors l_i of J (multiplicity m_i) through q_j, when
  ord_(q_j)(J) = sum m_i: J is then a unit times the product of the l_i^m_i
  near q_j, so ord_p(J o f^j) = sum m_i ord_p(l_i o F^j).  Along the
  pullback fits l_t o F = lambda l_s^d, ord_p(l_t o F^j) is
  d ord_p(l_s o F^(j-1)) and ord_p(l) is 1 or 0.  A line on the way with no
  single source s leaves the term open.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import OrderExceedsTruncation
from .maps import ProjMap, ProjPoint
from .polys import sylvester_matrix
from .series import (
    AffineSeries2,
    compose_poly_series,
    recenter_taylor,
    shift_bivariate,
    local_multiplicity,
    vanishing_order,
)

#: largest |J| at a unit point, relative to J's largest coefficient, that may be critical
_CRITICAL_TOL = 1e-6
#: least ratio of the extreme singular values of the Sylvester matrix of a finite tangent cone
_CONE_TOL = 1e-6


def orbit_chart_series(f: ProjMap, p: ProjPoint, n: int, trunc: int):
    """Taylor series at p of the chart representations of f^j for j = 0..n.

    Returns (points, charts, series) where series[j] is a pair of
    AffineSeries2 in the local coordinates at p whose constant terms are the
    chart coordinates of f^j(p) in charts[j].
    """
    points = f.orbit(p, n)
    charts = [pt.chart() for pt in points]
    c0 = points[0].chart_coords(charts[0])
    s1 = AffineSeries2.constant(c0[0], trunc)
    s1.coeffs[1, 0] = 1.0
    s2 = AffineSeries2.constant(c0[1], trunc)
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


def _series_reads(f: ProjMap, p: ProjPoint, ks, terms, n: int, what: str):
    """Contraction orders of f^k at p for k in ks, and ord_p(Jf o f^i) for i in
    terms, from one orbit series.  The truncation starts at max(2d, 4) and
    doubles, up to max(4 d^n, 2d, 4), until all are read."""
    trunc = max(2 * f.degree, 4)
    cap = max(4 * f.degree**n, trunc)
    while True:
        try:
            _, charts, series = orbit_chart_series(f, p, max([*ks, *terms]), trunc)
            return (
                [_pair_contraction(series[k]) for k in ks],
                [_jacobian_term(f, series[i], charts[i]) for i in terms],
            )
        except OrderExceedsTruncation as exc:
            if trunc >= cap:
                raise OrderExceedsTruncation(f"{what} at {p} exceeds truncation cap: {exc}") from None
            trunc = min(2 * trunc, cap)


def jacobian_multiplicity(f: ProjMap, p: ProjPoint, n: int) -> int:
    """Vanishing order of the Jacobian of the n-th iterate at p."""
    orbit = _Orbit(f, p, n)
    return sum(orbit.reads(terms=range(orbit.n))[1])


def contraction_order(f: ProjMap, p: ProjPoint, n: int) -> int:
    """Lowest Taylor degree of the n-th iterate at p (min over components).

    Where the tangent cones along the orbit leave it open, the truncation of
    the series grows only until one component's order is decided, since the
    other's order then exceeds it or is decided too (`_pair_contraction`).
    """
    orbit = _Orbit(f, p, n)
    return orbit.reads(pairs=[(0, orbit.n)])[0][0, orbit.n]


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
    orbit = _Orbit(f, p, n)
    return math.prod(orbit.degree(j) for j in range(orbit.n))


def local_degree_step(f: ProjMap, q: ProjPoint) -> int:
    """Degree of the germ of f at q, the local intersection number of f - f(q):
    1 at a regular point, c^2 at a finite tangent cone of degree c, and the
    Hilbert-Samuel count of its germs (``series.local_multiplicity``) elsewhere."""
    return _Orbit(f, q, 1).degree(0)


# -- exact reads along an orbit ----------------------------------------------------


class _Orbit:
    """The reads along the orbit q_0 = p, ..., q_(n-1) of p, the one entry of
    every public read: the exact ones of the module docstring, None where they
    leave a read open, and ``reads``, which takes the open ones from series.

    One evaluation of J at the points not yet known to be critical sorts out
    the regular ones.  At each other point ord(J), the germs with their
    orders and cone, and e are read when first asked for.  These reads depend
    on the map and the point alone, so they are kept per map, keyed by the
    point's coordinates: in ``f._memo``, where they die with f and where every
    orbit through an equal point finds them.  A regular point keeps nothing,
    so probing a map at many points does not grow it.
    """

    def __init__(self, f: ProjMap, p: ProjPoint, n, name="n"):
        """n, the number of steps, must be an integer >= 1; ``name`` names it in errors."""
        if type(n) is not int and (isinstance(n, bool) or not isinstance(n, numbers.Integral)):
            raise ValueError(f"{name} must be an integer, not {n!r}")
        if n < 1:
            raise ValueError(f"{name} must be >= 1")
        self.f, self.n = f, int(n)
        self.points = points = f.orbit(p, self.n - 1)
        keys = [(_Orbit, q.coords.tobytes()) for q in points]
        self.memos = [f._memo.get(key) for key in keys]
        new = [i for i, memo in enumerate(self.memos) if memo is None]
        if new:
            J = f.lift_jacobian
            values = J.eval_batch(np.array([points[i].coords for i in new]))
            for i, regular in zip(new, np.abs(values) > _CRITICAL_TOL * J.coeff_norm):
                self.memos[i] = None if regular else f._memo.setdefault(keys[i], {})
        self.regular = [memo is None for memo in self.memos]

    def _kept(self, j, name, read):
        """read(j), made once per map and point q_j."""
        memo = self.memos[j]
        if name not in memo:
            memo[name] = read(j)
        return memo[name]

    def _read(self, j):
        """(germs, their orders, cone degree) at the critical point q_j."""
        return self._kept(j, "germs", self._read_germs)

    def _read_germs(self, j):
        germs = tuple(_germs(self.f, self.points[j]))
        for g in germs:
            g.coeffs.flags.writeable = False  # shared by every later read at q_j
        orders = tuple(_germ_order(g) for g in germs)
        return germs, orders, _cone_degree(germs, orders)

    def reads(self, pairs=(), terms=()):
        """(contraction table on the (j, k) pairs, Jacobian terms j in terms).

        What the exact reads leave open is read from one orbit series at each
        point q_j with open reads, over the n - j steps left from q_j; when
        nothing is open, nothing more is built.
        """
        jacobian = {i: self.jacobian_term(i) for i in terms}
        table = {(j, k): self.contraction(j, k) for j, k in pairs}
        if None in jacobian.values() or None in table.values():
            for j, q in enumerate(self.points):
                ks = [k for (i, k), c in table.items() if i == j and c is None]
                js = [i for i, t in jacobian.items() if t is None] if j == 0 else []
                if ks or js:
                    orders, read = _series_reads(self.f, q, ks, js, self.n - j, f"series at orbit point {j}")
                    table.update(((j, k), c) for k, c in zip(ks, orders))
                    jacobian.update(zip(js, read))
        return table, [jacobian[i] for i in terms]

    def cone_product(self, j, k):
        """c_j ... c_(j+k-1), with c = 1 at regular points, or None if one of the
        cones is not finite."""
        out = 1
        for i in range(j, j + k):
            c = 1 if self.regular[i] else self._read(i)[2]
            if c is None:
                return None
            out *= c
        return out

    def contraction(self, j, k):
        """Contraction order of f^k at q_j, or None."""
        if k == 1 and not self.regular[j]:
            orders = [o for o in self._read(j)[1] if o is not None]
            return min(orders) if orders else None
        return self.cone_product(j, k)

    def degree(self, j):
        """e(f, q_j)."""
        if self.regular[j]:
            return 1
        return self._kept(j, "degree", self._count)

    def _count(self, j):
        germs, _, c = self._read(j)
        return c * c if c is not None else local_multiplicity(*germs)

    def jacobian_term(self, j):
        """ord_p(Jf o f^j), or None."""
        if self.regular[j]:
            return 0
        m = self._kept(j, "jacobian_order", self._jacobian_order)
        lead = 1 if m == 0 else self.cone_product(0, j)
        return m * lead if lead is not None else self._line_term(j, m)

    def _jacobian_order(self, j):
        """ord_(q_j)(J), from J's Taylor expansion at q_j, which is exact."""
        f, q = self.f, self.points[j]
        chart = q.chart()
        expansion = recenter_taylor(f.lift_jacobian, chart, q.chart_coords(chart), 3 * (f.degree - 1) + 1)
        return _significant_order(expansion)

    def _line_term(self, j, m):
        """sum m_i ord_p(l_i o F^j) over the factor lines through q_j, when their
        multiplicities m_i add up to m = ord_(q_j)(J)."""
        from .invariant_sets import _line_images, _on_line  # invariant_sets imports this module

        images = _line_images(self.f)

        def order(t, k):
            """ord_p(l_t o F^k), following the fit l_t o F = lambda l_s^d back to p."""
            if not _on_line(images[t][0].coeffs, self.points[k]):
                return 0
            if k == 0:
                return 1
            sources = [s for s, image in enumerate(images) if image[2] == t]
            below = order(sources[0], k - 1) if len(sources) == 1 else None
            return None if below is None else self.f.degree * below

        through = [i for i, image in enumerate(images) if _on_line(image[0].coeffs, self.points[j])]
        if sum(images[i][1] for i in through) != m:
            return None
        orders = [order(i, j) for i in through]
        return None if None in orders else sum(images[i][1] * o for i, o in zip(through, orders))


def _germ_order(germ):
    """The germ's order by the significance rule of ``_significant_order``, None
    if no coefficient is significant."""
    try:
        return _significant_order(germ)
    except OrderExceedsTruncation:
        return None


def _cone_degree(germs, orders):
    """c when both germs have order c and their degree-c parts share no root on
    the projective line, else None."""
    c = orders[0]
    if c is None or orders[1] != c:
        return None
    i = np.arange(c + 1)
    parts = [g.coeffs[c - i, i] for g in germs]  # u^(c - i) v^i, read at u = 1
    sv = np.linalg.svd(sylvester_matrix(*(a / np.linalg.norm(a) for a in parts)), compute_uv=False)
    return c if sv[-1] >= _CONE_TOL * sv[0] else None


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
    orbit = _Orbit(f, p, horizon, "horizon")
    N = orbit.n
    pairs = [(j, k) for j in range(N) for k in range(1, N - j + 1)]
    contraction_table, jac_terms = orbit.reads(pairs, range(N))
    degree_steps = [orbit.degree(j) for j in range(N)]

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

    pairs = [(n, k) for n in range(1, N) for k in range(1, N - n + 1)]
    return {
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
            == report.local_degrees[n - 1] * math.prod(report.degree_steps[n : n + k])
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


# -- Taylor orders, and the germs of f --------------------------------------------


def _significant_order(series, weights=(1, 1)):
    return vanishing_order(series, abs_floor=1e-11 * max(series.max_abs(), 1e-300), weights=weights)


def kiselman_number(poly, chart: int, point, weights=(1.0, 1.0)) -> float:
    """Kiselman number of log|poly| at the point of ``chart`` with weights (a1, a2).

    It is the least a2 i + a1 j over the significant Taylor coefficients
    u^i v^j of poly there (``kiselman_estimate``'s weighting: log|u| has
    number a2), read from the expansion to poly's degree, which is exact; at
    weights (1, 1) it is the Lelong number ord_p(poly).
    """
    a1, a2 = float(weights[0]), float(weights[1])
    if not (math.isfinite(a1) and math.isfinite(a2)):
        raise ValueError("weights must be finite")
    if a1 <= 0 or a2 <= 0:
        raise ValueError("weights must be positive")
    if not np.all(np.isfinite(np.asarray(point, dtype=complex))):
        raise ValueError("point must be finite")
    return float(_significant_order(recenter_taylor(poly, chart, point, poly.degree), (a1, a2)))


def _germs(f: ProjMap, p: ProjPoint):
    """The germs at p of f minus its value: the cross numerators
    F_j q_piv - q_j F_piv at q = f(p), which vanish at p, expanded at p to
    degree d, which is exact, with the constant term zeroed."""
    F, q = f.components, f.apply(p)
    pivot, chart = q.chart(), p.chart()
    center = p.chart_coords(chart)
    germs = []
    for j in range(3):
        if j != pivot:
            numerator = F[j].scale(q.coords[pivot]) - F[pivot].scale(q.coords[j])
            germ = recenter_taylor(numerator, chart, center, f.degree)
            germ.coeffs[0, 0] = 0.0  # exact zero at the base point
            germs.append(germ)
    return germs
