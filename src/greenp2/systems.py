"""Zero-dimensional projective systems from the null space of a Macaulay matrix.

When the null space of the Macaulay matrix in degree D has the dimension k of
the expected solution count, its rows at the monomials m x_j, read against
the rows at m l for a generic linear form l, give the matrices of
multiplication by x_j / l on the quotient ring, whose joint eigenvalues are
the solutions (Telen, Mourrain & Van Barel, SIMAX 39, 2018).  An eigenvector
read that passes Smale's alpha test is a simple solution; the split
eigenvalues of a multiple solution are grouped by the pseudospectrum and read
through their spectral projector (Corless, Gianni & Trager, ISSAC 1997).
"""

from __future__ import annotations

import numpy as np

from .errors import IllConditioned, PositiveDimensional
from .polys import eval_forms, homogenize_bivariate, monomial_exponents, monomial_position, n_monomials
from .series import AffineSeries2, _numerical_rank

#: generic linear forms l; the best conditioned one divides the multiplication matrices
_FORMS = np.array(
    [[0.6 - 0.3j, -0.4 + 0.7j, 0.5 + 0.2j], [0.3 + 0.5j, 0.7 - 0.2j, -0.4 + 0.1j], [-0.5 + 0.4j, 0.2j, 0.8 - 0.6j]]
)
#: generic combination of the multiplication matrices whose eigenvalues are grouped
_COMBO = np.array([0.83 + 0.21j, -0.37 + 0.54j, 0.19 - 0.72j])
#: Smale's constant: alpha below it certifies quadratic Newton convergence to a simple zero
_ALPHA = (13 - 3 * 17**0.5) / 4
#: two eigenvalues are one point when zI - M at their midpoint z has a singular value below this times |M|
_LINK = 1e-10
#: trapezoid nodes of the spectral projector of a group
_NODES = 32
#: largest relative residual of a returned point that the alpha test does not certify
_BACKWARD_TOL = 1e-8
_EPS = np.finfo(float).eps


def _product_columns(da: int, db: int) -> np.ndarray:
    """Position in degree da + db of the product of the a-th monomial of degree da and the b-th of degree db."""
    tot = monomial_exponents(da)[:, None, :] + monomial_exponents(db)[None, :, :]
    return monomial_position(tot[..., 0], tot[..., 1], tot[..., 2])


def macaulay_matrix(forms, D: int) -> np.ndarray:
    """Rows x^alpha g / |g| over the forms g and the monomials x^alpha of degree D - deg g."""
    blocks = []
    for g in forms:
        cols = _product_columns(D - g.degree, g.degree)
        block = np.zeros((len(cols), n_monomials(D)), dtype=complex)
        block[np.arange(len(cols))[:, None], cols] = g.coeffs / max(np.linalg.norm(g.coeffs), 1e-300)
        blocks.append(block)
    return np.vstack(blocks)


def residuals(points, forms) -> np.ndarray:
    """max_g |g(x)| / |g| at each unit vector x."""
    values = eval_forms(forms, points)
    return np.max([np.abs(v) / max(np.linalg.norm(g.coeffs), 1e-300) for g, v in zip(forms, values)], axis=0)


def solve_projective(forms, D: int, k: int):
    """The k common zeros, counted with multiplicity, of homogeneous forms in P^2.

    D must be a degree at which the quotient by the forms has dimension k in
    degrees D - 1 and D.  Returns unit vectors (rows) and their multiplicities,
    which sum to k.  A null space larger than k raises PositiveDimensional; no
    singular-value gap at nullity k raises IllConditioned, and so does a point
    that neither passes Smale's alpha test, which certifies a simple zero
    nearby, nor fits the forms within _BACKWARD_TOL.
    """
    _, s, vh = np.linalg.svd(macaulay_matrix(forms, D))
    nullity = len(vh) - _numerical_rank(s)
    if nullity > k:
        raise PositiveDimensional(f"Macaulay matrix in degree {D} has nullity {nullity} > {k}")
    if nullity < k:
        raise IllConditioned(f"Macaulay matrix in degree {D} has nullity {nullity} < {k}")
    null = vh[-k:].conj().T
    del vh  # here and in null_space_points, arrays go once used: it bounds the peak memory of large solves
    points, mults, simple = null_space_points(null, D, forms)
    worst = np.max(residuals(points, forms), where=~simple, initial=0.0)
    if not worst <= _BACKWARD_TOL:
        raise IllConditioned(f"a point read from the null space fails the alpha test and has residual {worst:.2e}")
    return points, mults


def null_space_points(null, D: int, forms):
    """Points, multiplicities and alpha certificates from the forms' Macaulay null space in degree D.

    ``null`` holds a basis of the null space in its columns.  Of the forms
    _FORMS, the one whose rows m l have the least condition number divides
    the multiplication matrices, so that no point lies near l = 0.  Each
    eigenvalue of a generic combination of these matrices is read off its
    eigenvector: the null vector at m x_j over the monomial m of degree D - 1
    with the largest such row.  A read that passes Smale's alpha test is a
    simple point, certified.  The other eigenvalues are joined by ``_links``
    into points, each read by ``_projector_read``.
    """
    k = null.shape[1]
    shift = _product_columns(D - 1, 1)
    rows = null[shift]  # (m, x_j, basis)
    divisors = np.einsum("lj,mjb->lmb", _FORMS, rows)
    mult = np.linalg.lstsq(divisors[np.argmin(np.linalg.cond(divisors))], rows.reshape(len(shift), -1), rcond=None)[0]
    del rows, divisors
    mats = mult.reshape(k, 3, k).transpose(1, 0, 2)  # multiplication by x_j / l
    combo = np.tensordot(_COMBO, mats, 1)
    lam, vecs = np.linalg.eig(combo)
    reads = (null @ vecs)[shift]
    points = reads[np.argmax(np.linalg.norm(reads, axis=1), axis=0), :, np.arange(k)]
    del reads
    simple = _alpha(points, forms) < _ALPHA
    label = np.arange(k)
    for i, j in _links(combo, lam, ~simple):
        label[label == label[i]] = label[j]
    groups = [np.flatnonzero(label == t) for t in np.unique(label)]
    for g in groups:
        if len(g) > 1:
            points[g[0]] = _projector_read(mats, combo, lam, g)
    heads = [g[0] for g in groups]
    return points[heads] / np.linalg.norm(points[heads], axis=1)[:, None], [len(g) for g in groups], simple[heads]


def _alpha(points, forms) -> np.ndarray:
    """Smale's alpha = beta gamma at each point (Smale, "Newton's method estimates from data at one point", 1986).

    For the forms at unit coefficient norm, beta is the Newton step in the
    tangent space x-perp of the unit point x, floored at the rounding
    eps / sigma (sigma the least singular value of the Jacobian J), and gamma
    is estimated by its second-order term |J^+ D^2 g| / 2.  A read of a
    multiple point has alpha of order one however accurate it is.
    """
    x = points / np.linalg.norm(points, axis=1)[:, None]
    units = [g.scale(1.0 / np.linalg.norm(g.coeffs)) for g in forms]
    firsts = [g.partial(v) for g in units for v in range(3)]
    seconds = [h.partial(w) for h in firsts for w in range(3)]
    grads = np.array(eval_forms(firsts, x)).reshape(len(forms), 3, -1).transpose(2, 0, 1)
    hess = np.array(eval_forms(seconds, x)).reshape(len(forms), 3, 3, -1).transpose(3, 0, 1, 2)
    values = np.einsum("nfv,nv->nf", grads, x) / [g.degree for g in forms]  # Euler's identity
    tangent = np.linalg.svd(x.conj()[:, None, :])[2][:, 1:].conj().transpose(0, 2, 1)
    u, sv, vh = np.linalg.svd(grads @ tangent, full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        pinv = np.einsum("nba,nb,nfb->naf", vh.conj(), 1.0 / sv, u.conj())
        beta = np.linalg.norm(np.einsum("naf,nf->na", pinv, values), axis=1) + _EPS / sv[:, -1]
        curvature = np.einsum("naf,nvb,nfvw,nwc->nabc", pinv, tangent, hess, tangent)
        return beta * np.linalg.norm(curvature.reshape(len(x), -1), axis=1) / 2


def _links(combo, lam, candidates):
    """Pairs (i, j) of candidate eigenvalues that belong to one point.

    Two eigenvalues are linked when zI - combo has a singular value at most
    _LINK |combo| at their midpoint z, so that z lies in a pseudospectrum
    component of both.  The split eigenvalues of a multiple point meet this
    by orders of magnitude; distinct points miss it by as many.  Only
    Gabriel pairs are tested, whose midpoint has no third eigenvalue nearer
    than the pair.
    """
    i, j = np.nonzero(np.triu(np.outer(candidates, candidates), 1))
    mid = (lam[i] + lam[j]) / 2
    third = np.abs(mid[:, None] - lam[None, :])
    third[np.arange(len(i)), i] = third[np.arange(len(i)), j] = np.inf
    keep = np.min(third, axis=1, initial=np.inf) >= np.abs(lam[i] - lam[j]) / 2
    i, j, mid = i[keep], j[keep], mid[keep]
    sigma = np.linalg.svd(mid[:, None, None] * np.eye(len(lam)) - combo, compute_uv=False)[:, -1]
    near = sigma <= _LINK * np.linalg.norm(combo, 2)
    return zip(i[near], j[near])


def _projector_read(mats, combo, lam, group):
    """The point (tr(P M_j))_j for the spectral projector P of the group's eigenvalues.

    P is I for a group of every eigenvalue, else the trapezoid rule of the
    resolvent on a circle about the group's mean, of radius the geometric
    mean of the group's radius and its distance d to the others, but at least
    d / 4, as the resolvent of a defective group is large close to it.  NaN
    when no such circle separates the group or tr(P) misses its size.
    """
    k = len(lam)
    if len(group) == k:
        return np.trace(mats, axis1=1, axis2=2)
    centre = lam[group].mean()
    inner = np.max(np.abs(lam[group] - centre))
    outer = np.min(np.abs(np.delete(lam, group) - centre))
    if inner >= outer:
        return np.full(3, np.nan)
    z = centre + outer * max(np.sqrt(inner / outer), 0.25) * np.exp(2j * np.pi * (np.arange(_NODES) + 0.5) / _NODES)
    rhs = np.concatenate([np.eye(k)[None], mats]).transpose(1, 0, 2).reshape(k, -1)
    resolvents = np.linalg.solve(z[:, None, None] * np.eye(k) - combo, rhs[None])
    traces = (z - centre) @ np.trace(resolvents.reshape(_NODES, k, 4, k), axis1=1, axis2=3) / _NODES
    return traces[1:] if round(traces[0].real) == len(group) else np.full(3, np.nan)


def solve_affine_system(a, b):
    """Common zeros ((u, v), multiplicity) of two bivariate polynomials, points at infinity dropped.

    Accepts dense coefficient arrays ``C[i, j]`` for u^i v^j or
    ``AffineSeries2`` values used as exact polynomials.  Coefficients below
    1e-9 of the largest are dropped, and the pair, homogenised to
    [u : v : 1], is solved by ``solve_projective``.
    """
    forms = []
    for poly in (a, b):
        C = np.asarray(poly.coeffs if isinstance(poly, AffineSeries2) else poly, dtype=complex)
        if not np.any(C):
            raise PositiveDimensional("an input polynomial is identically zero")
        total = np.add.outer(np.arange(C.shape[0]), np.arange(C.shape[1]))
        degree = int(total[np.abs(C) > 1e-9 * np.abs(C).max()].max())
        forms.append(homogenize_bivariate(np.where(total <= degree, C, 0.0), 2, degree))
    if min(g.degree for g in forms) == 0:
        return []
    points, mults = solve_projective(forms, forms[0].degree + forms[1].degree - 1, forms[0].degree * forms[1].degree)
    finite = np.abs(points[:, 2]) > _BACKWARD_TOL
    sols = [((complex(p[0] / p[2]), complex(p[1] / p[2])), m) for p, m, keep in zip(points, mults, finite) if keep]
    return sorted(sols, key=lambda e: (round(e[0][0].real, 9), round(e[0][0].imag, 9), round(e[0][1].real, 9)))
