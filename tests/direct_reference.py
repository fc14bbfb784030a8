"""Reference for the orbit reads of ``greenp2.multiplicities``: the direct routes.

Each reads its quantity off the composed lift F^n at p, independent of the
orbit machinery, which never composes F: the Jacobian order from J(F^n), the
contraction order from the cross numerators of F^n, and the local degree as
the Hilbert-Samuel count of the germs of F^n.  The two Taylor reads escalate
their truncation on their own schedule.  Tests require the reports to agree
with them.
"""

from greenp2.errors import OrderExceedsTruncation
from greenp2.maps import ProjMap, ProjPoint
from greenp2.multiplicities import _significant_order
from greenp2.polys import jacobian_det
from greenp2.series import local_multiplicity, recenter_taylor


def iterate_lift(f: ProjMap, n: int):
    """Components of the n-fold composed lift F^n = F^(n-1) o F."""
    G = f.components
    for _ in range(n - 1):
        G = tuple(g.compose(f.components) for g in G)
    return G


def iterate_numerators(f: ProjMap, p: ProjPoint, n: int):
    """Cross numerators G_j q_piv - q_j G_piv of G = F^n at q = f^n(p).

    They vanish at p, and their vanishing orders read off the chart
    representation of f^n minus its value (the denominator is a local unit).
    """
    G = iterate_lift(f, n)
    q = f.orbit(p, n)[-1]
    pivot = q.chart()
    return [G[j].scale(q.coords[pivot]) - G[pivot].scale(q.coords[j]) for j in range(3) if j != pivot]


def iterate_germs(f: ProjMap, p: ProjPoint, n: int):
    """The germs at p of f^n minus its value: ``iterate_numerators`` expanded at
    p, exact at truncation d^n, with the constant term zeroed."""
    chart = p.chart()
    center = p.chart_coords(chart)
    germs = []
    for h in iterate_numerators(f, p, n):
        s = recenter_taylor(h, chart, center, f.degree**n)
        s.coeffs[0, 0] = 0.0  # exact zero at the base point
        germs.append(s)
    return germs


def _taylor_order(poly, chart, center, trunc) -> int:
    return _significant_order(recenter_taylor(poly, chart, center, trunc))


def _escalate(f: ProjMap, p: ProjPoint, n: int, what: str, attempt):
    """attempt(trunc) at truncations from max(2d, 4), doubling up to
    max(4 d^n, 2d, 4), until one has enough terms."""
    trunc = max(2 * f.degree, 4)
    cap = max(4 * f.degree**n, trunc)
    while True:
        try:
            return attempt(trunc)
        except OrderExceedsTruncation as exc:
            if trunc >= cap:
                raise OrderExceedsTruncation(f"{what} at {p} exceeds truncation cap: {exc}") from None
            trunc = min(2 * trunc, cap)


def jacobian_multiplicity_direct(f: ProjMap, p: ProjPoint, n: int) -> int:
    """Vanishing order at p of the Jacobian of the composed lift F^n."""
    JG = jacobian_det(iterate_lift(f, n))
    chart = p.chart()
    center = p.chart_coords(chart)
    return _escalate(
        f, p, n, "composed jacobian order",
        lambda trunc: _taylor_order(JG, chart, center, trunc),
    )


def contraction_order_direct(f: ProjMap, p: ProjPoint, n: int) -> int:
    """Least vanishing order at p of the cross numerators of F^n."""
    nums = iterate_numerators(f, p, n)
    chart = p.chart()
    center = p.chart_coords(chart)
    return _escalate(
        f, p, n, "composed contraction order",
        lambda trunc: min(_taylor_order(h, chart, center, trunc) for h in nums),
    )


def local_degree_direct(f: ProjMap, p: ProjPoint, n: int) -> int:
    """Local degree of the n-th iterate as a local intersection number at p."""
    return local_multiplicity(*iterate_germs(f, p, n))
