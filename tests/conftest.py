import numpy as np
import pytest

from greenp2 import CONFIGURATION_IDS, ProjMap, ProjPoint, configuration_map, parse_poly
from greenp2.errors import GreenP2Error
from greenp2.polys import HomogPoly3, monomial_exponents, n_monomials
from greenp2.roots import roots_univariate
from greenp2.systems import macaulay_matrix, solve_projective


def make_map(*exprs):
    return ProjMap.validate([parse_poly(e) for e in exprs])


@pytest.fixture(scope="session")
def power_map():
    return make_map("z^2", "w^2", "t^2")


@pytest.fixture(scope="session")
def power_map_d3():
    return make_map("z^3", "w^3", "t^3")


@pytest.fixture(scope="session")
def worked_map():
    """The degree-2 map with a non-superattracting totally invariant point."""
    return make_map("2zt+w^2", "z^2", "t^2")


@pytest.fixture(scope="session")
def lattes():
    from greenp2 import lattes_map

    return lattes_map(2)


def cold(f):
    """A copy of f with none of its per-map memo filled."""
    return ProjMap(f.components, f.nondegeneracy_residual)


def with_own_sigma(comps):
    """ProjMap(comps, sigma) with sigma the least singular value of the forms' own
    Macaulay matrix: the SVD that ProjMap.validate runs, without its refusal."""
    M = macaulay_matrix(comps, 3 * comps[0].degree - 2)
    return ProjMap(comps, np.linalg.svd(M, compute_uv=False)[-1])


def random_valid_map(rng, d=2):
    while True:
        comps = [
            HomogPoly3(
                d,
                rng.standard_normal(n_monomials(d)) + 1j * rng.standard_normal(n_monomials(d)),
            )
            for _ in range(3)
        ]
        try:
            return ProjMap.validate(comps)
        except GreenP2Error:
            continue


def conjugate(f, A):
    """A^-1 o f o A for an invertible 3x3 matrix A."""
    inner = tuple(HomogPoly3(1, row) for row in A)
    moved = [c.compose(inner) for c in f.components]
    inv = np.linalg.inv(A)
    comps = [moved[0].scale(inv[i, 0]) + moved[1].scale(inv[i, 1]) + moved[2].scale(inv[i, 2])
             for i in range(3)]
    return with_own_sigma(comps)


def conjugated_row(row, d, s, unitary=False):
    """configuration_map(row, d, 1000) moved by A = N + iN' from default_rng(100 + s),
    or by the unitary factor of A; returns the moved map and the matrix."""
    rng = np.random.default_rng(100 + s)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    if unitary:
        A = np.linalg.qr(A)[0]
    return conjugate(configuration_map(row, d, 1000), A), A


def two_form_zeros(f):
    """The d^2 unit common zeros of two combinations of f's components by a seeded
    unitary U.  There ||F|| is the modulus of the third combination, so log ||F||
    reaches far below its values at random points."""
    d, F = f.degree, f.components
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    G = [F[0].scale(u[0]) + F[1].scale(u[1]) + F[2].scale(u[2]) for u in U[:2]]
    return solve_projective(G, 2 * d - 1, d * d)[0]


def structure_maps():
    """The maps of the structure benchmark: each row at d = 2 and 3 (seed 1000),
    conjugated by one diagonal unitary matrix diag(e^ia, e^ib, 1) drawn in turn
    from one generator of seed 1, which scales the coefficients exactly."""
    rng = np.random.default_rng(1)
    for d in (2, 3):
        for row in CONFIGURATION_IDS:
            phases = np.append(np.exp(2j * np.pi * rng.uniform(size=2)), 1.0)
            scale = np.prod(phases ** monomial_exponents(d), axis=1)
            comps = [HomogPoly3(d, c.coeffs * scale / phases[i])
                     for i, c in enumerate(configuration_map(row, d, 1000).components)]
            yield row, ProjMap.validate(comps)


def online_fixed_point():
    """configuration_map('1-0', 3, 8) and its fixed point on the invariant line t = 0."""
    f = configuration_map("1-0", 3, 8)
    target = ProjPoint([0.69965703, -0.68112128 - 0.2157634j, 0.0])
    p = min((q for q, _ in f.fixed_points()), key=lambda q: q.dist(target))
    assert p.dist(target) < 1e-6
    return f, p


#: random lines sample_critical_points probes before it gives up
PROBE_LINES = 100


def sample_critical_points(f, count, rng):
    """Machine-polished points on the critical curve, away from singular spots:
    simple roots of the Jacobian on random lines.  Raises ValueError when
    PROBE_LINES lines give fewer than count, as on a Jacobian whose factors all
    repeat, which has no simple root on any line."""
    J = f.lift_jacobian
    pts = []
    for _ in range(PROBE_LINES):
        b1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b1, b2 = b1 / np.linalg.norm(b1), b2 / np.linalg.norm(b2)
        co = J.restrict_line(b1, b2)
        for cl in roots_univariate(co).clusters:
            if cl.multiplicity == 1:
                pts.append(ProjPoint(b1 + cl.root * b2))
                if len(pts) == count:
                    return pts
    raise ValueError(f"{len(pts)} of {count} simple critical points on {PROBE_LINES} random lines")
