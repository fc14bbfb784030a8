"""Totally invariant lines and points, exceptional structure, and classification.

A totally invariant line {l = 0}, with l o F = lambda * l^d in coefficients,
is a linear factor of the lift Jacobian: the map ramifies to order d - 1 along
it.  The linear factors are found exactly, as lines through roots of the
Jacobian's restrictions to two fixed probe lines.  The same fit between two
factors, l' o F = lambda * l^d, says that {l' = 0} pulls back to {l = 0}; the
cycles of this map on lines are the periodic lines.

The totally invariant points come from f alone: its fixed points, and the
points where F restricted from a periodic line onto its image line is
(d - 1)-fold critical, kept where the local degree is d^2 and the orbit
returns.  The exceptional points are those on the invariant lines, and the
fixed points whose one-step contraction order equals the degree
(pencil-preserving points).

The linear factors, the line images and the invariant orbits depend on f
alone; each is computed once per map (``maps.once_per_map``) and shared by
the public functions, which hand out fresh lists of the memo's points and
forms, whose arrays are read-only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .maps import ProjMap, ProjPoint, _unit_phase, once_per_map
from .multiplicities import contraction_order, local_degree_step
from .polys import HomogPoly3
from .roots import roots_batch, strip_trailing

LINE_TOL = 1e-7
#: two fixed lines, spanned by points off the coordinate lines, whose coefficients
#: have near-equal moduli: far from the vertices, where structured maps put pencils
_PROBE_LINES = (
    (np.array([-0.8 - 0.9j, 1.0 + 0.3j, -0.7 - 0.4j]), np.array([0.9 + 0.4j, -0.4 + 0.9j, -0.2 + 0.8j])),
    (np.array([-0.8 - 0.8j, -0.2 + 0.8j, -0.7 - 0.8j]), np.array([-0.6 - 0.6j, 0.2 - 1.0j, 0.5 - 0.9j])),
)


# -- totally invariant lines ------------------------------------------------------


@dataclass
class InvariantLine:
    form: HomogPoly3  # degree 1, unit coefficient 2-norm, canonical phase
    lam: complex
    residual: float
    multiplicity: int  # of the form as a factor of the lift Jacobian

    def contains(self, point: ProjPoint) -> bool:
        return _on_line(self.form.coeffs, point)


def _on_line(l, point: ProjPoint) -> bool:
    """Whether the point lies on the line {l = 0}, for unit coefficients l."""
    return abs(np.dot(l, point.coords)) <= 1e-6


def _line_basis(l):
    """Two spanning points of the line {l = 0}, pivoted on the largest coefficient."""
    j = int(np.argmax(np.abs(l)))
    basis = []
    for i in range(3):
        if i == j:
            continue
        v = np.zeros(3, dtype=complex)
        v[i] = 1.0
        v[j] = -l[i] / l[j]
        basis.append(v / np.linalg.norm(v))
    return basis[0], basis[1]


def _cross(a, b):
    """np.cross of two 3-vectors: the same products and differences, without its overhead."""
    return a[[1, 2, 0]] * b[[2, 0, 1]] - a[[2, 0, 1]] * b[[1, 2, 0]]


def _canonical_coeffs(v):
    v = _unit_phase(np.asarray(v, dtype=complex))
    v[np.abs(v) < 1e-12] = 0.0
    return v


def invariant_lines(f: ProjMap):
    """The linear factors of the Jacobian with l o F = lambda l^d, at most three."""
    return _invariant_lines(_line_images(f))


def _invariant_lines(images):
    found = [InvariantLine(form, complex(lam), res, m) for i, (form, m, j, lam, res) in enumerate(images) if j == i]
    found = sorted(found, key=lambda L: L.residual)[:3]
    found.sort(key=lambda L: tuple(np.round(np.abs(L.form.coeffs), 6)))
    return found


@once_per_map
def _line_images(f: ProjMap):
    """(form, multiplicity, j, lambda, residual) for each linear factor l_i of
    the Jacobian: j is the index of the factor with F^-1 {l_j = 0} = {l_i = 0},
    that is l_j o F = lambda l_i^d, of the best fit; None if no fit holds.
    """
    factors = _linear_factors(f)
    comps = np.stack([p.coeffs for p in f.components])
    pulled = [target.coeffs @ comps for target, _ in factors]  # coefficients of target o F
    scale = max(1.0, max(p.coeff_norm for p in f.components))
    out = []
    for form, m in factors:
        v = form.power(f.degree).coeffs
        fits = [_pullback_fit(u, v, scale) for u in pulled]
        j = min(range(len(fits)), key=lambda k: fits[k][1])
        lam, res = fits[j]
        out.append((form, m, j if res <= LINE_TOL else None, lam, res))
    return tuple(out)


def _pullback_fit(u, v, scale):
    """Least-squares lambda in u = lambda v, for u the coefficients of target o F
    and v those of source^d, and the residual relative to the map's scale."""
    lam = np.sum(np.conj(v) * u) / np.sum(np.abs(v) ** 2)
    return lam, float(np.linalg.norm(u - lam * v)) / scale


# -- restriction of the map to a line ---------------------------------------------


def _line_restriction(f: ProjMap, source, target):
    """F from the line {source = 0} to the line {target = 0}, both coefficient
    vectors, as (num, den, basis): binary forms in (s, u), num[m] the
    coefficient of s^(d-m) u^m, in the ``_line_basis`` bases of the two lines,
    and the source line's basis."""
    b1, b2 = _line_basis(source)
    images = np.array([c.restrict_line(b1, b2) for c in f.components])  # (3, d + 1)
    (num, den), *_ = np.linalg.lstsq(np.stack(_line_basis(target), axis=1), images, rcond=None)
    return num, den, (b1, b2)


def _wronskian_points(f: ProjMap, pairs):
    """Points of each source line where F restricted to the target line is
    (d - 1)-fold critical.

    A point that is its image's whole fibre is such a point (Beardon,
    Iteration of Rational Functions, 4.1): a (d - 1)-fold root of the
    Wronskian num' den - num den', of degree 2d - 2, and so a simple root of
    its (d - 2)-th derivative.  [0:1] is the root of the degree drop.
    """
    d = f.degree
    rests = [_line_restriction(f, source, target) for source, target in pairs]
    m = np.arange(1, d + 1)  # num' has coefficients m num[m] at u^(m - 1)
    wrons = []
    for num, den, _ in rests:
        w = np.convolve(m * num[1:], den) - np.convolve(num, m * den[1:])
        wrons.append(strip_trailing(w[: 2 * d - 1]))  # its u^(2d - 1) terms cancel
    found = roots_batch([np.polyder(w[::-1], d - 2)[::-1] for w in wrons])
    return [
        ProjPoint(x)
        for (_, _, basis), w, rr in zip(rests, wrons, found)
        for x, _ in _probe_points(2 * d - 2, w, w, *basis, (d - 2,), [rr])
    ]


# -- totally invariant points ------------------------------------------------------


def invariant_orbits(f: ProjMap):
    """Totally invariant periodic orbits as lists of points."""
    return [list(orbit) for orbit in _invariant_orbits(f)]


@once_per_map
def _invariant_orbits(f: ProjMap):
    """Orbits through the candidates with local degree d^2 that return
    through such candidates.

    The candidates are the fixed points of f and the Wronskian points along
    the periodic lines.  A totally invariant cycle on a periodic line has
    each point on one, and each is its image's whole fibre there.  Off those
    lines the cycle has one point, since no configuration of f^k has two
    exceptional points off its lines, so it is a fixed point.  The local
    degree is 1 at once where the Jacobian does not vanish (``local_degree_step``).
    """
    d = f.degree
    candidates = [p for p, _ in f.fixed_points()]
    for p in _wronskian_points(f, _periodic_pairs(_line_images(f))):
        if all(p.dist(q) > 1e-5 for q in candidates):
            candidates.append(p)
    kept = [p for p in candidates if local_degree_step(f, p) == d**2]
    orbits = []
    for p in kept:
        if any(p.dist(q) <= 1e-5 for orbit in orbits for q in orbit):
            continue
        orbit = [p]
        cur = f.apply(p)
        while cur.dist(p) > 1e-5 and len(orbit) < len(kept) and any(cur.dist(q) <= 1e-5 for q in kept):
            orbit.append(cur)
            cur = f.apply(cur)
        if cur.dist(p) <= 1e-5:
            orbits.append(tuple(orbit))
    return tuple(orbits)


def _periodic_pairs(images):
    """(line, image line) coefficients along the cycles of the map on factor lines."""
    pairs = []
    for i, (form, _, j, _, _) in enumerate(images):
        k, steps = j, 1
        while k is not None and k != i and steps < len(images):
            k, steps = images[k][2], steps + 1
        if k == i:
            pairs.append((form.coeffs, images[j][0].coeffs))
    return pairs


def invariant_points(f: ProjMap):
    """Flat list of points on totally invariant periodic orbits."""
    pts = [p for orbit in invariant_orbits(f) for p in orbit]
    pts.sort(key=lambda p: tuple(np.round(np.abs(p.coords), 6)))
    return pts


# -- critical transition matrix ----------------------------------------------------


@dataclass
class TransitionMatrix:
    components: list
    matrix: np.ndarray  # integer exponents t[i, j]
    rho: float
    perron: np.ndarray

    def as_dict(self):
        return {
            "components": [c.to_string() for c in self.components],
            "matrix": self.matrix.tolist(),
            "rho": self.rho,
            "perron": [float(x) for x in self.perron],
        }


def _line_divides_jacobian(f: ProjMap, coeffs) -> bool:
    b1, b2 = _line_basis(_canonical_coeffs(coeffs))
    co = f.lift_jacobian.restrict_line(b1, b2)
    return float(np.max(np.abs(co))) <= 1e-7 * max(f.lift_jacobian.coeff_norm, 1e-300)


def detect_linear_critical_components(f: ProjMap):
    """Linear factors of the lift Jacobian, each once, canonical and sorted."""
    return [form for form, _ in _linear_factors(f)]


@once_per_map
def _linear_factors(f: ProjMap):
    """(form, multiplicity) for each linear factor of the lift Jacobian J, from its
    restrictions p to the probe lines.

    An m-fold factor meets a probe in an m-fold root of p, a simple root of
    p^(m-1).  The multiple factors come from the derivatives, the simple ones
    from p with those divided out: a multiple root's cloud can swallow a
    simple root beside it.
    """
    J = f.lift_jacobian
    probes = [(b1, b2, strip_trailing(J.restrict_line(b1, b2))) for b1, b2 in _PROBE_LINES]
    derivs = [[np.polyder(p[::-1], k)[::-1] for k in range(1, len(p) - 1)] for _, _, p in probes]
    found = iter(roots_batch([row for rows in derivs for row in rows]))
    factors = []  # (canonical coefficients, multiplicity)
    _add_factors(f, [
        _probe_points(J.degree, p, p, b1, b2, range(1, J.degree), [next(found) for _ in rows])
        for (b1, b2, p), rows in zip(probes, derivs)
    ], factors)
    deflated = [_deflate(p, b1, b2, factors) for b1, b2, p in probes]
    if min(len(q) for q in deflated) >= 2:
        _add_factors(f, [
            _probe_points(J.degree, p, q, b1, b2, (0,), [rr])
            for (b1, b2, p), q, rr in zip(probes, deflated, roots_batch(deflated))
        ], factors)
    out = [(HomogPoly3(1, c), m) for c, m in factors]
    return tuple(sorted(out, key=lambda fm: tuple(np.round(np.abs(fm[0].coeffs), 6))))


def _probe_points(degree, p, q, b1, b2, orders, results):
    """(point, order) pairs on a probe: the simple roots of each result where q vanishes.

    The probe's spanning point b2 is the root at infinity, of every order
    below the degree that p lost against its formal degree.
    """
    pts = [(b2, k) for k in orders if k < degree + 1 - len(p)]
    tol = 1e-8 * np.max(np.abs(q))
    for k, rr in zip(orders, results):
        for cl in rr.clusters:
            x = cl.root
            bound = tol * max(1.0, abs(x)) ** (len(q) - 1)
            if cl.multiplicity == 1 and abs(np.polyval(q[::-1], x)) <= bound:
                pts.append((b1 + x * b2, k))
    return pts


def _add_factors(f: ProjMap, points, factors):
    """Lines through equal-order points of the two probes that J vanishes along."""
    for (p1, k), (p2, k2) in itertools.product(*points):
        if k != k2 or not _line_divides_jacobian(f, _cross(p1, p2)):
            continue
        ell = _polish_factor(f.lift_jacobian, _cross(p1, p2), k + 1)
        if ell is None or not _line_divides_jacobian(f, ell):
            continue
        c = _factor_coeffs(ell)
        if all(np.linalg.norm(c - o) > 1e-5 for o, _ in factors):
            factors.append((c, k + 1))


def _factor_coeffs(ell):
    """Canonical coefficients of a line; dividing by the largest entry first
    makes coordinate lines exact."""
    return _canonical_coeffs(ell / ell[np.argmax(np.abs(ell))])


def _polish_factor(J, ell, m):
    """Newton steps on the line of an m-fold factor of J; None unless they converge.

    About the line, J(b1 + u b2 + e nrm) = sum_k C_k(u) e^k with C_0, ...,
    C_(m-1) zero at the factor.  Moving the line to e = a + b u changes
    C_(m-1) by m C_m (a + b u) to first order: a regular equation for (a, b).
    """
    for _ in range(8):
        (b1, b2, nrm), C = _frame_coeffs(J.eval_batch, ell, J.degree)
        col = m * C[:, m]
        A = np.stack([col, np.roll(col, 1)], axis=1)  # m C_m and m u C_m
        (a, b), *_ = np.linalg.lstsq(A, -C[:, m - 1], rcond=None)
        ell = _cross(b1 + a * nrm, b2 + b * nrm)
        if max(abs(a), abs(b)) <= 1e-10:
            return ell
    return None


def _frame_coeffs(values, ell, n):
    """The frame (b1, b2, nrm) of the line {ell = 0}, and the coefficients
    C[..., p, q] of u^p e^q in g(b1 + u b2 + e nrm) for forms g of degree n.

    b1, b2 = ``_line_basis(ell)`` span the line and nrm = conj(ell) / |ell| is
    its unit normal, so ell = |ell| e in the frame: the lowest power of e in g
    is the order of ell as a factor of g.  ``values`` maps (N, 3) points to
    (N,) or (N, k) values, one column per form; C comes from their values on a
    grid of (n + 1)-th roots of unity by one fft2.
    """
    nrm = np.conj(ell) / np.linalg.norm(ell)
    b1, b2 = _line_basis(ell)
    grid = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    pts = b1 + grid[:, None, None] * b2 + grid[None, :, None] * nrm
    vals = np.moveaxis(values(pts.reshape(-1, 3)), 0, -1)
    return (b1, b2, nrm), np.fft.fft2(vals.reshape(vals.shape[:-1] + (n + 1, n + 1))) / (n + 1) ** 2


def _deflate(p, b1, b2, factors):
    """p with the roots of the factors divided out; a factor through b2 has none in p."""
    roots = []
    for c, m in factors:
        a, b = np.dot(c, b1), np.dot(c, b2)  # the factor along the probe: a + b x
        if abs(b) > 1e-12 * abs(a):
            roots += [-a / b] * m
    return strip_trailing(np.polydiv(p[::-1], np.poly(roots))[0][::-1])


def transition_matrix(f: ProjMap) -> TransitionMatrix:
    """Pullback exponents of critical components, with Perron-Frobenius data.

    The components are the linear factors of the lift Jacobian.  t[i, j] is
    the order of l_j as a factor of l_i o F: in the frame of
    {l_j = 0} (``_frame_coeffs``), the lowest power of the normal coordinate
    with a coefficient above 1e-8 of the largest of l_i o F.  Column j takes
    one lift of F, on the frame's grid.
    """
    components = detect_linear_critical_components(f)
    k = len(components)
    if k == 0:
        return TransitionMatrix([], np.zeros((0, 0), dtype=int), 0.0, np.zeros(0))

    coeffs = np.stack([form.coeffs for form in components])
    t = np.zeros((k, k), dtype=int)
    for j, ell in enumerate(coeffs):
        C = np.abs(_frame_coeffs(lambda x: f.lift(x) @ coeffs.T, ell, f.degree)[1])
        big = C > 1e-8 * C.max(axis=(1, 2), keepdims=True)
        t[:, j] = np.argmax(big.any(axis=1), axis=1)
    rho, perron = _perron(t)
    return TransitionMatrix(components, t, rho, perron)


def _perron(t: np.ndarray):
    """Spectral radius and non-negative eigenvector of t^T by power iteration.

    Iterates on t^T + I so periodic (permutation-like) parts still converge;
    the shift leaves eigenvectors alone and adds one to the radius.  A
    nilpotent t makes t^T + I a single Jordan block, on which the iteration
    only creeps towards its limit, so that case is settled exactly first.
    """
    k = t.shape[0]
    # t is non-negative, so t^k = 0 exactly when the chain 1, t^T 1, (t^T)^2 1,
    # ... reaches 0 within k steps; its last nonzero vector is then in ker t^T
    v = np.ones(k, dtype=np.int64)
    for _ in range(k):
        w = t.T @ v
        if not w.any():
            return 0.0, v / np.max(v)
        v = w
    M = t.T.astype(float) + np.eye(k)
    x = np.ones(k) / k
    lam = 1.0
    for _ in range(200000):
        y = M @ x
        lam_new = float(np.max(np.abs(y)))
        if lam_new == 0.0:
            return 0.0, x
        y = y / lam_new
        if abs(lam_new - lam) <= 1e-12 * lam_new and np.max(np.abs(y - x)) <= 1e-12:
            x = y
            lam = lam_new
            break
        x, lam = y, lam_new
    x = np.maximum(x, 0.0)
    x = x / np.max(x)
    return float(lam - 1.0), x


# -- exceptional sets and classification ------------------------------------------


@dataclass
class ExceptionalSets:
    e1_lines: list
    e2_points: list  # (ProjPoint, kind): "on_E1" on a line, "homogeneous" a fixed point of contraction order d
    assumption_flag: bool
    line_order_checks: list = field(default_factory=list)


def exceptional_sets(f: ProjMap, horizon: int = 3) -> ExceptionalSets:
    """The totally invariant lines, and the points of the totally invariant
    orbits that lie on them or are fixed with contraction order d."""
    # horizon is unused; it stays because callers such as perfbench/workloads.py pass it
    d = f.degree
    lines = _invariant_lines(_line_images(f))
    points = []
    for orbit in _invariant_orbits(f):
        for p in orbit:
            if any(line.contains(p) for line in lines):
                points.append((p, "on_E1"))
            elif len(orbit) == 1 and contraction_order(f, p, 1) == d:
                points.append((p, "homogeneous"))
    points.sort(key=lambda e: tuple(np.round(np.abs(e[0].coords), 6)))
    flag = any(kind != "on_E1" for _, kind in points)
    return ExceptionalSets(lines, points, flag, [L.multiplicity == d - 1 for L in lines])


@dataclass
class ConfigurationRow:
    n_lines: int
    n_points: int
    row_id: str
    label: str
    incidence: list  # per point: sorted list of containing line indices
    note: str = ""


_ROW_LABELS = {
    "0-0": "no exceptional structure",
    "1-0": "[P:Q:t^d]",
    "0-1": "[P(z,t):Q:R(z,t)]",
    "1-1-incident": "[P:w^d+tQ:t^d]",
    "1-1-free": "[P(z,w):Q(z,w):t^d]",
    "1-2": "[P(z,t):w^d+tQ:t^d]",
    "2-1": "[P:w^d:t^d]",
    "2-2": "[z^d+tP:w^d:t^d]",
    "2-3": "[z^d+wtP:w^d:t^d]",
    "3-3": "[z^d:w^d:t^d]",
}

#: expected multiset of per-point line-incidence counts for each configuration
_ROW_INCIDENCE = {
    "0-0": (),
    "1-0": (),
    "0-1": (0,),
    "1-1-incident": (1,),
    "1-1-free": (0,),
    "1-2": (1, 1),
    "2-1": (2,),
    "2-2": (1, 2),
    "2-3": (1, 1, 2),
    "3-3": (2, 2, 2),
}


def classify(sets: ExceptionalSets) -> ConfigurationRow:
    """Match the detected exceptional structure against the known configurations."""
    n1 = len(sets.e1_lines)
    n2 = len(sets.e2_points)
    incidence = [
        sorted(i for i, line in enumerate(sets.e1_lines) if line.contains(p))
        for p, _ in sets.e2_points
    ]
    counts = tuple(sorted(len(ix) for ix in incidence))

    if (n1, n2) == (1, 1):
        row_id = "1-1-incident" if counts == (1,) else "1-1-free"
    else:
        row_id = f"{n1}-{n2}"
    label = _ROW_LABELS.get(row_id)
    if label is None or _ROW_INCIDENCE.get(row_id) != counts:
        return ConfigurationRow(
            n1, n2, "unlisted", "unlisted configuration", incidence,
            note=f"incidence counts {counts} match no known row",
        )
    note = "" if n2 == 0 else "kinds: " + ",".join(kind for _, kind in sets.e2_points)
    return ConfigurationRow(n1, n2, row_id, label, incidence, note)
