"""Reference for the orbit reads of ``greenp2.multiplicities``: the direct routes.

Each reads its quantity off the composed lift F^n at p, independent of the
orbit machinery: the Jacobian order from J(F^n), the contraction order from
the cross numerators of F^n, and the local degree as the Hilbert-Samuel count
of the germs of F^n.  The two Taylor reads escalate their truncation as the
series reads do.  Tests require the reports to agree with them.
"""

from greenp2.maps import ProjMap, ProjPoint
from greenp2.multiplicities import _escalate, _iterate_germs, _poly_taylor_order, iterate_numerators
from greenp2.polys import jacobian_det
from greenp2.series import local_multiplicity


def jacobian_multiplicity_direct(f: ProjMap, p: ProjPoint, n: int) -> int:
    """Vanishing order at p of the Jacobian of the composed lift F^n."""
    JG = jacobian_det(f.iterate_lift(n))
    chart = p.chart()
    center = p.chart_coords(chart)
    return _escalate(
        f, p, n, "composed jacobian order",
        lambda trunc: _poly_taylor_order(JG, chart, center, trunc),
    )


def contraction_order_direct(f: ProjMap, p: ProjPoint, n: int) -> int:
    """Least vanishing order at p of the cross numerators of F^n."""
    nums = iterate_numerators(f, p, n)
    chart = p.chart()
    center = p.chart_coords(chart)
    return _escalate(
        f, p, n, "composed contraction order",
        lambda trunc: min(_poly_taylor_order(h, chart, center, trunc) for h in nums),
    )


def local_degree_direct(f: ProjMap, p: ProjPoint, n: int) -> int:
    """Local degree of the n-th iterate as a local intersection number at p."""
    return local_multiplicity(*_iterate_germs(f, p, n))
