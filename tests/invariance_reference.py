"""Reference for two integer decisions of ``invariant_sets``: the heuristics they replaced.

``fibre_totally_invariant`` decides total invariance of a periodic orbit by
solving the whole fibre of each orbit point's image and counting the
preimages within a radius of the point.  ``slope_vanishing_order`` reads a
pullback's vanishing order as the log-log slope of its values along a
transverse arc.  Tests require both to agree with the exact decisions where
the heuristics resolve them (d = 2).
"""

import numpy as np

from greenp2.errors import NonIntegerOrder
from greenp2.potentials import _slope_fit


def fibre_totally_invariant(f, orbit) -> bool:
    """All d^2 preimages of each orbit point's image lie near the point."""
    # a multiplicity-m fiber point computed in floats splits on the scale
    # eps^(1/m); the match radius must sit above that for m up to degree^2
    d2 = f.degree**2
    radius = min(max(2e-3, 20.0 * 1e-14 ** (1.0 / d2)), 0.05)
    for i, q in enumerate(orbit):
        prev = orbit[(i - 1) % len(orbit)]
        fib = f.preimages(q)
        near = sum(m for x, m in fib.preimages if x.dist(prev) <= radius)
        if near != d2:
            return False
    return True


def slope_vanishing_order(pulled, x, v) -> int:
    """Rounded log-log slope of |pulled(x + s v)| over s = 1e-3 ... 1e-6."""
    s_grid = np.geomspace(1e-3, 1e-6, 8)
    vals = np.array([abs(pulled(x.coords + s * v)) for s in s_grid])
    # values under the rounding floor of the evaluation carry no slope
    keep = vals > 1e-13 * max(pulled.coeff_norm, 1e-300)
    if keep.sum() < 2:
        raise NonIntegerOrder("pullback vanishes identically along the arc")
    slope, _ = _slope_fit(np.log(s_grid[keep]), np.log(vals[keep]))
    order = round(slope)
    if abs(slope - order) > 0.1 or order < 0:
        raise NonIntegerOrder(f"fitted slope {slope:.3f} is not an integer order")
    return int(order)
