"""Holomorphic self-maps of the projective plane and their basic dynamics."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ChartUndefined, DegenerateMap, DegreeMismatch, IllConditioned
from .polys import HomogPoly3, jacobian_det, monomial_table, n_monomials
from .systems import macaulay_matrix, null_space_points, residuals, solve_projective

#: least singular value of the row-normalised Macaulay matrix of a nondegenerate map
_MACAULAY_FLOOR = 1e-10
#: largest relative residual of a null-space point taken for a common zero
_WITNESS_TOL = 1e-10
#: Newton steps of the polish
_POLISH_STEPS = 6


def once_per_map(build):
    """Decorate build(f), which depends on the map alone, to run once per ProjMap instance f.

    The value is kept in ``f._memo`` under the key ``(build,)``, so it lives
    and dies with f, and a fresh ``ProjMap(f.components,
    f.nondegeneracy_residual)`` starts cold.  Sequence values are kept as
    tuples (callers hand out fresh lists), and the arrays of the points and
    forms in them are made read-only, so no caller can change the memo in place.
    """
    key = (build,)

    @functools.wraps(build)
    def memoised(f):
        if key not in f._memo:
            f._memo[key] = _read_only(build(f))
        return f._memo[key]

    return memoised


def _read_only(value):
    """value, with the arrays of its points and forms, through tuples, made read-only."""
    if isinstance(value, tuple):
        for v in value:
            _read_only(v)
    elif isinstance(value, ProjPoint):
        value.coords.flags.writeable = False
    elif isinstance(value, HomogPoly3):
        value.coeffs.flags.writeable = False
    return value


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


def _unit_rows(v):
    """(log norms, unit rows) of an (N, 3) complex array.

    The norms are np.linalg.norm(v, axis=1) to the bit, without its reduce
    over a length-3 axis: the squared moduli summed left to right.  numpy
    divides a complex number by a real c with Smith's formula, which
    multiplies by 1 / c, so the rows equal ``v / norms[:, None]`` except for
    the sign of an exact zero.
    """
    s = (v.conj() * v).real
    norms = np.sqrt((s[:, 0] + s[:, 1]) + s[:, 2])
    return np.log(norms), v * (1.0 / norms)[:, None]


class ProjPoint:
    """A point of the projective plane as a unit vector with canonical phase."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        v = np.asarray(coords, dtype=complex).reshape(3)
        if not np.all(np.isfinite(v)):
            raise ValueError("projective point needs a finite representative")
        self.coords = _unit_phase(v)

    def chart(self) -> int:
        return int(np.argmax(np.abs(self.coords)))

    def chart_coords(self, chart: int):
        if chart not in (0, 1, 2):
            raise ValueError(f"chart must be 0, 1 or 2, not {chart!r}")
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
class Fiber:
    target: ProjPoint
    preimages: list
    total_multiplicity: int
    complete: bool = True


class ProjMap:
    """A nondegenerate triple of degree-d homogeneous forms acting on the plane."""

    def __init__(self, components, nondegeneracy_residual):
        """nondegeneracy_residual must be the sigma that ``validate`` computes for
        these components: ``lognorm_sup`` turns it into a bound."""
        self.components = tuple(components)
        self.degree = self.components[0].degree
        self.nondegeneracy_residual = float(nondegeneracy_residual)
        # what depends on the map alone, keyed (build,) (once_per_map), and the reads
        # at a critical point, keyed (_Orbit, coordinates) (multiplicities._Orbit)
        self._memo = {}

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
        M = macaulay_matrix(comps, 3 * d - 2)
        sigma = np.linalg.svd(M, compute_uv=False)[-1]
        if sigma <= _MACAULAY_FLOOR:
            _refuse(d, comps, M, sigma)
        return cls(comps, sigma)

    # -- evaluation --------------------------------------------------------

    def lift(self, points) -> np.ndarray:
        """F at an (N, 3) array of points (or at one point).

        Each component is one gemv of the C-contiguous monomial table, written
        into its column: one gemm for all three rounds differently (see
        ``monomial_table``).
        """
        pts = np.asarray(points, dtype=complex)
        single = pts.ndim == 1
        if single:
            pts = pts.reshape(1, 3)
        table = monomial_table(pts, self.degree)
        out = np.empty((pts.shape[0], 3), dtype=complex)
        for i, p in enumerate(self.components):
            out[:, i] = table @ p.coeffs
        return out[0] if single else out

    def apply(self, x: ProjPoint) -> ProjPoint:
        return ProjPoint(self.lift(x.coords))

    def orbit(self, x: ProjPoint, n: int):
        pts = [x]
        for _ in range(n):
            pts.append(self.apply(pts[-1]))
        return pts

    # -- cached structure ---------------------------------------------------

    @property
    @once_per_map
    def lift_jacobian(self) -> HomogPoly3:
        return jacobian_det(self.components)

    def lognorm_sup(self) -> float:
        """A bound on |log ||F|| | on the unit sphere from the 2-norms |F_i| and validate's sigma.

        |F_i(x)| <= |F_i|; at the degree-D monomials v(x), D = 3d - 2, the Macaulay rows x^a F_i / |F_i|
        give sum_i |F_i(x)|^2 / |F_i|^2 >= sigma^2 |v(x)|^2 >= sigma^2 C(D + 2, 2) / 3^D (h_D is
        Schur-convex).  sigma drops by the SVD's error, a few eps |M|_F, with |M|_F = sqrt(rows).
        """
        d, D = self.degree, 3 * self.degree - 2
        norms = [np.linalg.norm(p.coeffs) for p in self.components]
        sigma = self.nondegeneracy_residual - 4 * np.finfo(float).eps * np.sqrt(3 * n_monomials(D - d))
        lower = np.log(min(norms) * sigma) + 0.5 * np.log(n_monomials(D) / 3**D)
        return float(max(abs(0.5 * np.log(sum(n * n for n in norms))), abs(lower)))

    def __repr__(self):
        return f"ProjMap(d={self.degree}, [{', '.join(p.to_string() for p in self.components)}])"

    # -- fibers and fixed points ---------------------------------------------

    def preimages(self, q: ProjPoint) -> Fiber:
        """The full fiber over q; total multiplicity is the topological degree d^2."""
        c, F, d = q.chart(), self.components, self.degree
        eqs = [F[j].scale(q.coords[c]) - F[c].scale(q.coords[j]) for j in range(3) if j != c]
        return Fiber(q, self._solve_projective(eqs, 2 * d - 1, d * d, lambda chart: eqs), d * d)

    def fixed_points(self):
        """All fixed points with multiplicities, which total d^2 + d + 1: the common
        zeros of the 2 x 2 minors x_i F_j - x_j F_i of [x; F(x)].  In chart c the
        two minors through x_c cut them out exactly (F_c cannot vanish on them
        by nondegeneracy); the polish uses those."""
        return list(self._fixed_points())

    @once_per_map
    def _fixed_points(self):
        d, x, F = self.degree, HomogPoly3.variable, self.components
        pairs = ((0, 1), (0, 2), (1, 2))
        minors = [F[j] * x(i) - x(j) * F[i] for i, j in pairs]
        return tuple(self._solve_projective(
            minors, 2 * d, d * d + d + 1, lambda c: [m for m, p in zip(minors, pairs) if c in p]
        ))

    @staticmethod
    def _solve_projective(forms, D, expected, eq_builder):
        """The common zeros of the forms, each Newton-polished on its pair eq_builder(chart)."""
        points, mults = solve_projective(forms, D, expected)
        found = [(ProjPoint(x), m) for x, m in zip(_newton_polish(eq_builder, points), mults)]
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


def _refuse(d, comps, M, sigma):
    """Raise DegenerateMap with a common zero read from the null space of M, else IllConditioned.

    The null space holds the Veronese vector of every common zero; the points
    are read from it as the solver reads its solutions.
    """
    _, s, vh = np.linalg.svd(M)
    cands = null_space_points(vh[s <= _MACAULAY_FLOOR].conj().T, 3 * d - 2, comps)[0]
    residual = residuals(cands, comps)
    best = int(np.argmin(np.nan_to_num(residual, nan=np.inf)))
    if residual[best] <= _WITNESS_TOL:
        witness = ProjPoint(cands[best])
        raise DegenerateMap(f"components vanish simultaneously at {witness}", point=witness)
    raise IllConditioned(
        f"Macaulay matrix has least singular value {sigma:.2e} but its null space "
        f"holds no common zero (least relative residual {residual[best]:.2e})"
    )
