"""Holomorphic self-maps of the projective plane and their basic dynamics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartUndefined, DegenerateMap, DegreeMismatch, IllConditioned, IncompleteFiber, SolverFailure
from .polys import HomogPoly3, compose_map, jacobian_det, monomial_exponents, monomial_position, monomial_table
from .roots import CLUSTER_RADIUS
from .sampling import fs_points
from .systems import solve_affine_system

#: deterministic seed of the sphere samples behind ``lognorm_sup``
_CERT_SEED = 20240801

#: chart visiting order for fiber solves (t first: the common case)
CHART_ORDER = (2, 0, 1)

#: sphere samples and safety factor of the sup-sphere log-norm estimate
_LOGNORM_SAMPLES = 10**4
_LOGNORM_SAFETY = 1.5

#: least singular value of the row-normalised Macaulay matrix of a nondegenerate map
_MACAULAY_FLOOR = 1e-10
#: largest relative residual of a null-space point taken for a common zero
_WITNESS_TOL = 1e-10
#: generic linear form of the null-space pencil
_WITNESS_FORM = np.array([0.6 - 0.3j, -0.4 + 0.7j, 0.5 + 0.2j])
#: Newton steps of the polish
_POLISH_STEPS = 6


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

    def __repr__(self):
        c = np.round(self.coords, 6)
        return f"[{c[0]}:{c[1]}:{c[2]}]"


@dataclass
class LogOrbit:
    points: list
    lognorms: list


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
    def validate(cls, components):
        """Check a common degree >= 2 and the absence of a nontrivial common zero.

        Three forms of degree d have no common zero exactly when their Macaulay
        matrix in degree 3d - 2 has full column rank (Macaulay 1902).  The least
        singular value of that matrix, rows scaled to unit norm, is kept as
        ``nondegeneracy_residual``; at or below a fixed floor ``_refuse`` raises.
        """
        comps = tuple(components)
        if len(comps) != 3:
            raise DegreeMismatch("a map needs exactly three components")
        degs = [p.degree for p in comps]
        if len(set(degs)) != 1:
            raise DegreeMismatch(f"components have degrees {degs}")
        d = degs[0]
        if d < 2:
            raise DegreeMismatch("algebraic degree must be at least 2")
        unit = np.stack([p.coeffs / max(np.linalg.norm(p.coeffs), 1e-300) for p in comps])
        cols = _product_columns(2 * d - 2, d)  # rows x^alpha F_i, |alpha| = 2d - 2
        M = np.zeros((3, len(cols), len(monomial_exponents(3 * d - 2))), dtype=complex)
        M[:, np.arange(len(cols))[:, None], cols] = unit[:, None, :]
        M = M.reshape(-1, M.shape[2])
        sigma = np.linalg.svd(M, compute_uv=False)[-1]
        if sigma <= _MACAULAY_FLOOR:
            _refuse(d, unit, M, sigma)
        return cls(comps, sigma)

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
        c, F = q.chart(), self.components
        eqs = [F[j].scale(q.coords[c]) - F[c].scale(q.coords[j]) for j in range(3) if j != c]
        found = self._solve_projective(lambda chart: eqs, expected=self.degree**2)
        total = sum(m for _, m in found)
        return Fiber(q, found, total, complete=(total == self.degree**2))

    def _fixed_point_pair(self, chart: int):
        """{F_j x_c - x_j F_c : j != c} cuts out exactly the fixed points in chart c
        (F_c cannot vanish on them by nondegeneracy)."""
        x, F = HomogPoly3.variable, self.components
        return [F[j] * x(chart) - x(j) * F[chart] for j in range(3) if j != chart]

    def fixed_points(self):
        """All fixed points with multiplicities; total d^2 + d + 1 when finite."""
        d = self.degree
        found = self._solve_projective(self._fixed_point_pair, expected=d * d + d + 1)
        total = sum(m for _, m in found)
        if total != d * d + d + 1:
            raise IncompleteFiber(f"fixed point multiplicities sum to {total}, expected {d*d + d + 1}")
        return found

    def _solve_projective(self, eq_builder, expected):
        """Solve the pair eq_builder(chart) across charts, deduplicate and polish."""
        found = []  # [point, mult, interiority]
        last_exc = None
        for chart in CHART_ORDER:
            a, b = eq_builder(chart)
            try:
                sols = solve_affine_system(a.dehomogenize(chart), b.dehomogenize(chart), trust_radius=4.0)
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
        polished = _newton_polish(eq_builder, [e[0].coords for e in found])
        found = [(ProjPoint(x), e[1]) for x, e in zip(polished, found)]
        found.sort(key=lambda e: tuple(round(c, 6) for c in e[0].coords[:2].view(float)))
        return found


def _newton_polish(eq_builder, points) -> np.ndarray:
    """Newton steps on each point's pair eq_builder(chart) in its pivot chart.

    The points step together: one monomial table of degree e - 1 gives every
    partial derivative of the degree-e pair, Euler's identity e G = sum_v x_v
    dG/dx_v gives the values, and the 2 x 2 systems are solved in closed form.
    A point keeps a step only when the step lowers its residual.
    """
    pts = np.array(points, dtype=complex).reshape(-1, 3)
    rows, charts = np.arange(len(pts)), np.argmax(np.abs(pts), axis=1)
    pts /= pts[rows, charts][:, None]
    free = np.array([[1, 2], [0, 2], [0, 1]])[charts]
    pairs = [eq_builder(c) for c in range(3)]
    e = pairs[0][0].degree
    grads = np.array([[[g.partial(v).coeffs for v in range(3)] for g in pair] for pair in pairs])[charts]

    def evaluate(x):
        dG = np.einsum("nm,nivm->niv", monomial_table(x, e - 1), grads)
        G = np.einsum("niv,nv->ni", dG, x) / e
        return G, dG, np.linalg.norm(G, axis=1)

    G, dG, res = evaluate(pts)
    with np.errstate(all="ignore"):
        for _ in range(_POLISH_STEPS):
            J = np.take_along_axis(dG, free[:, None, :], axis=2)
            cramer = [J[:, 1, 1] * G[:, 0] - J[:, 0, 1] * G[:, 1], J[:, 0, 0] * G[:, 1] - J[:, 1, 0] * G[:, 0]]
            trial = pts.copy()
            trial[rows[:, None], free] -= np.stack(cramer, 1) / np.linalg.det(J)[:, None]
            tG, tdG, tres = evaluate(trial)
            better = tres < res
            if not better.any():
                break
            pts[better], G[better], dG[better], res[better] = trial[better], tG[better], tdG[better], tres[better]
    return pts


def _product_columns(da: int, db: int) -> np.ndarray:
    """Position in degree da + db of the product of the a-th monomial of degree da and the b-th of degree db."""
    tot = monomial_exponents(da)[:, None, :] + monomial_exponents(db)[None, :, :]
    return monomial_position(tot[..., 0], tot[..., 1], tot[..., 2])


def _refuse(d, unit, M, sigma):
    """Raise DegenerateMap with a common zero read from the null space of M, else IllConditioned.

    The null space holds the Veronese vector of every common zero.  Its rows
    at m x_0 and at m l, over the monomials m of degree 3d - 3 and for a fixed
    generic linear form l, form a pencil whose eigenvectors pick out those
    vectors; each is read at m (x_0, x_1, x_2) for its largest m.
    """
    shift = _product_columns(3 * d - 3, 1)
    _, s, vh = np.linalg.svd(M)
    null = vh[s <= _MACAULAY_FLOOR].conj().T
    pencil = np.linalg.lstsq(_WITNESS_FORM @ null[shift], null[shift[:, 0]], rcond=None)[0]
    reads = (null @ np.linalg.eig(pencil)[1])[shift]  # (m, x_j, eigenvector)
    cands = reads[np.argmax(np.linalg.norm(reads, axis=1), axis=0), :, np.arange(reads.shape[2])]
    cands /= np.linalg.norm(cands, axis=1)[:, None]
    residual = np.max(np.abs(monomial_table(cands, d) @ unit.T), axis=1)
    best = int(np.argmin(residual))
    if residual[best] <= _WITNESS_TOL:
        witness = ProjPoint(cands[best])
        raise DegenerateMap(f"components vanish simultaneously at {witness}", point=witness)
    raise IllConditioned(
        f"Macaulay matrix has least singular value {sigma:.2e} but its null space "
        f"holds no common zero (least relative residual {residual[best]:.2e})"
    )
