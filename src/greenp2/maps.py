"""Holomorphic self-maps of the projective plane and their basic dynamics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChartUndefined,
    DegenerateMap,
    DegreeMismatch,
    IncompleteFiber,
    PositiveDimensional,
    SolverFailure,
)
from .polys import HomogPoly3, compose_map, jacobian_det, monomial_table
from .roots import CLUSTER_RADIUS
from .sampling import fs_points
from .systems import solve_affine_system

#: deterministic seed for sphere-sample certificates attached to a map
_CERT_SEED = 20240801

#: chart visiting order for fiber solves (t first: the common case)
CHART_ORDER = (2, 0, 1)

#: sphere samples and safety factor of the sup-sphere log-norm estimate
_LOGNORM_SAMPLES = 10**4
_LOGNORM_SAFETY = 1.5


def _unit_phase(v):
    """Unit-norm copy of the vector v with a canonical phase.

    The first non-negligible coordinate is made real positive; the threshold
    is relative so solver noise cannot grab the pivot.
    """
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("projective point needs a nonzero representative")
    v = v / norm
    top = np.max(np.abs(v))
    for c in v:
        if abs(c) > 1e-3 * top:
            return v * (c.conjugate() / abs(c))
    return v


class ProjPoint:
    """A point of the projective plane as a unit vector with canonical phase."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        v = np.asarray(coords, dtype=complex).reshape(3)
        if not np.all(np.isfinite(v)):
            raise ValueError("projective point needs a finite representative")
        self.coords = _unit_phase(v)

    @classmethod
    def from_chart(cls, chart, pair):
        v = np.zeros(3, dtype=complex)
        keep = [i for i in range(3) if i != chart]
        v[keep[0]], v[keep[1]] = pair
        v[chart] = 1.0
        return cls(v)

    def chart(self) -> int:
        return int(np.argmax(np.abs(self.coords)))

    def chart_coords(self, chart: int):
        c = self.coords[chart]
        if abs(c) < 1e-12:
            raise ChartUndefined(f"point {self} has no coordinates in chart {chart}")
        keep = [i for i in range(3) if i != chart]
        return (self.coords[keep[0]] / c, self.coords[keep[1]] / c)

    def dist(self, other) -> float:
        """Chordal distance (sine of the study-metric angle).

        Computed through the wedge product, which by the Lagrange identity
        equals sqrt(1 - |<a,b>|^2) but without the cancellation floor.
        """
        a, b = self.coords, other.coords
        wedge = np.array(
            [
                a[0] * b[1] - a[1] * b[0],
                a[0] * b[2] - a[2] * b[0],
                a[1] * b[2] - a[2] * b[1],
            ]
        )
        return min(1.0, float(np.linalg.norm(wedge)))

    def on_line(self, form: HomogPoly3, tol: float = 1e-8) -> bool:
        return abs(form(self.coords)) <= tol * max(form.coeff_norm, 1e-300)

    def __repr__(self):
        c = np.round(self.coords, 6)
        return f"[{c[0]}:{c[1]}:{c[2]}]"


@dataclass
class LogOrbit:
    points: list
    lognorms: list

    def __len__(self):
        return len(self.points)


@dataclass
class Fiber:
    target: ProjPoint
    preimages: list
    total_multiplicity: int
    complete: bool = True


class ProjMap:
    """A nondegenerate triple of degree-d homogeneous forms acting on the plane."""

    def __init__(self, components, nondegeneracy_residual):
        self.components = tuple(components)
        self.degree = self.components[0].degree
        self.nondegeneracy_residual = float(nondegeneracy_residual)
        self._jacobian = None
        self._iterates = {1: self.components}
        self._lognorm_sup = None

    # -- construction ----------------------------------------------------

    @classmethod
    def validate(cls, components, sphere_samples: int = 10**4):
        """Check a common degree >= 2 and the absence of a nontrivial common zero."""
        comps = tuple(components)
        if len(comps) != 3:
            raise DegreeMismatch("a map needs exactly three components")
        degs = [p.degree for p in comps]
        if len(set(degs)) != 1:
            raise DegreeMismatch(f"components have degrees {degs}")
        if degs[0] < 2:
            raise DegreeMismatch("algebraic degree must be at least 2")
        witness = _common_zero(comps)
        if witness is not None:
            raise DegenerateMap(f"components vanish simultaneously at {witness}", point=witness)
        table = monomial_table(fs_points(sphere_samples, _CERT_SEED), degs[0])
        vals = np.stack([table @ p.coeffs for p in comps], axis=1)
        residual = float(np.min(np.linalg.norm(vals, axis=1)))
        if residual <= 0.0:
            raise DegenerateMap("a sphere sample evaluates to zero", point=None)
        return cls(comps, residual)

    # -- evaluation --------------------------------------------------------

    def lift(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=complex)
        single = pts.ndim == 1
        if single:
            pts = pts.reshape(1, 3)
        table = monomial_table(pts, self.degree)
        out = np.stack([table @ p.coeffs for p in self.components], axis=1)
        return out[0] if single else out

    def apply(self, x: ProjPoint) -> ProjPoint:
        return ProjPoint(self.lift(x.coords))

    def orbit(self, x: ProjPoint, n: int):
        pts = [x]
        for _ in range(n):
            pts.append(self.apply(pts[-1]))
        return pts

    def iterate_lognorm(self, x0: ProjPoint, n: int) -> LogOrbit:
        """Normalized orbit with the renormalized log-norm recurrence.

        lognorms[k] equals log ||F^k(x)|| for the unit representative x of x0.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        points = [x0]
        lognorms = [0.0]
        d = self.degree
        for _ in range(n):
            image = self.lift(points[-1].coords)
            norm = float(np.linalg.norm(image))
            lognorms.append(d * lognorms[-1] + math.log(norm))
            points.append(ProjPoint(image))
        return LogOrbit(points, lognorms)

    # -- cached structure ---------------------------------------------------

    @property
    def lift_jacobian(self) -> HomogPoly3:
        if self._jacobian is None:
            self._jacobian = jacobian_det(self.components)
        return self._jacobian

    def iterate_lift(self, n: int):
        """Components of the n-fold composed lift (cached)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if n not in self._iterates:
            prev = self.iterate_lift(n - 1)
            self._iterates[n] = compose_map(prev, self.components)
        return self._iterates[n]

    def lognorm_sup(self) -> float:
        """Safety-padded sup-sphere estimate of |log ||F|| | on unit vectors."""
        if self._lognorm_sup is None:
            pts = fs_points(_LOGNORM_SAMPLES, _CERT_SEED)
            norms = np.linalg.norm(self.lift(pts), axis=1)
            self._lognorm_sup = float(np.max(np.abs(np.log(norms)))) * _LOGNORM_SAFETY
        return self._lognorm_sup

    def __repr__(self):
        return f"ProjMap(d={self.degree}, [{', '.join(p.to_string() for p in self.components)}])"

    # -- fibers and fixed points ---------------------------------------------

    def preimages(self, q: ProjPoint) -> Fiber:
        """The full fiber over q; total multiplicity is the topological degree d^2."""
        pivot = int(np.argmax(np.abs(q.coords)))
        others = [i for i in range(3) if i != pivot]
        eqs = [
            self.components[j].scale(q.coords[pivot])
            - self.components[pivot].scale(q.coords[j])
            for j in others
        ]
        found = self._solve_projective(eqs, expected=self.degree**2)
        total = sum(m for _, m in found)
        return Fiber(q, found, total, complete=(total == self.degree**2))

    def fixed_points(self):
        """All fixed points with multiplicities; total d^2 + d + 1 when finite."""
        d = self.degree
        # in chart c the pair {F_j x_c - x_j F_c} cuts out exactly the affine
        # fixed points (F_c cannot vanish on them by nondegeneracy)
        eq_builder = lambda chart: [
            self.components[j] * HomogPoly3.variable(chart)
            - HomogPoly3.variable(j) * self.components[chart]
            for j in range(3)
            if j != chart
        ]
        found = self._solve_projective(None, expected=d * d + d + 1, eq_builder=eq_builder)
        total = sum(m for _, m in found)
        if total != d * d + d + 1:
            raise IncompleteFiber(
                f"fixed point multiplicities sum to {total}, expected {d*d + d + 1}"
            )
        return found

    def _solve_projective(self, eqs, expected, eq_builder=None):
        """Solve a pair of homogeneous equations across charts and deduplicate."""
        found = []  # [point, mult, interiority]
        last_exc = None
        for chart in CHART_ORDER:
            chart_eqs = eq_builder(chart) if eq_builder is not None else eqs
            try:
                sols = solve_affine_system(
                    chart_eqs[0].dehomogenize(chart),
                    chart_eqs[1].dehomogenize(chart),
                    trust_radius=4.0,
                )
            except PositiveDimensional:
                raise
            except SolverFailure as exc:
                last_exc = SolverFailure(str(exc), chart=chart)
                continue
            for (u, v), mult in sols:
                pt = ProjPoint.from_chart(chart, (u, v))
                interior = abs(pt.coords[chart])
                for entry in found:
                    if entry[0].dist(pt) <= 10 * CLUSTER_RADIUS:
                        if interior > entry[2]:
                            entry[0], entry[1], entry[2] = pt, mult, interior
                        break
                else:
                    found.append([pt, mult, interior])
            if sum(e[1] for e in found) == expected:
                break
        if not found and last_exc is not None:
            raise last_exc
        found.sort(
            key=lambda e: (
                round(e[0].coords[0].real, 6),
                round(e[0].coords[0].imag, 6),
                round(e[0].coords[1].real, 6),
                round(e[0].coords[1].imag, 6),
            )
        )
        return [(e[0], e[1]) for e in found]


def _common_zero(comps):
    """A unit representative of a common zero of the three forms, or None.

    Any zero-dimensional pair of components confines the triple's common
    zeros within a chart, so checking the remaining component on that pair's
    solutions settles the chart.
    """
    pairs = ((0, 1, 2), (0, 2, 1), (1, 2, 0))
    for chart in CHART_ORDER:
        settled = False
        for ia, ib, ic in pairs:
            try:
                sols = solve_affine_system(
                    comps[ia].dehomogenize(chart), comps[ib].dehomogenize(chart)
                )
            except PositiveDimensional:
                continue
            settled = True
            norm_c = max(comps[ic].coeff_norm, 1e-300)
            scale = max(comps[ia].coeff_norm, comps[ib].coeff_norm)
            deg = comps[0].degree
            for (u, v), mult in sols:
                pt = ProjPoint.from_chart(chart, (u, v))
                val = abs(comps[ic](pt.coords))
                other = max(abs(comps[ia](pt.coords)), abs(comps[ib](pt.coords)))
                # a multiplicity-m intersection is located to ~eps^(1/m), so
                # the vanishing thresholds widen accordingly
                err = max(1e-8, 1e-12 ** (1.0 / mult))
                tol_val = max(1e-7, (5.0 * err) ** deg)
                tol_other = max(1e-5, (5.0 * err) ** deg)
                if val <= tol_val * norm_c and other <= tol_other * scale:
                    return pt
            break
        if not settled:
            # every pair shares a curve in this chart; curves meet in the
            # plane, so the triple must vanish somewhere
            raise DegenerateMap("components share curves pairwise", point=None)
    return None
