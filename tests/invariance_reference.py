"""Reference for the integer decisions of ``invariant_sets``: the sampled routes they replaced.

``fibre_totally_invariant`` decides total invariance of a periodic orbit by
solving the whole fibre of each orbit point's image and counting the
preimages within a radius of the point.  ``sampled_transition_matrix`` reads
each pullback exponent at a sample point of a component, along a transverse
arc: from the arc's coefficients, or with ``slope_vanishing_order`` as the
log-log slope of its values.  Tests require them to agree with the exact
decisions where the heuristics resolve them.
"""

import numpy as np

from greenp2.invariant_sets import detect_linear_critical_components
from greenp2.maps import ProjPoint
from greenp2.potentials import _slope_fit
from greenp2.roots import roots_batch


class NonIntegerOrder(ValueError):
    """A vanishing order has no finite value: the pullback of a critical component
    vanishes identically along the transverse arc it is read on."""


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


def sampled_transition_matrix(f, order=None):
    """t[i, j] = order(comp_i o F, x, v) for the linear factors comp_i of the
    Jacobian, at a sample point x of component j and along the transverse
    direction v there; ``order`` defaults to the arc's first coefficient above
    1e-8 of its largest."""
    components = detect_linear_critical_components(f)
    order = order or _arc_vanishing_order
    pulled = [c.compose(f.components) for c in components]
    k = len(components)
    t = np.zeros((k, k), dtype=int)
    for j, comp in enumerate(components):
        x = _component_sample(f, comp, components[:j] + components[j + 1:], seed=17 + j)
        v = _transverse_direction(comp, x)
        for i in range(k):
            t[i, j] = order(pulled[i], x, v)
    return t


def _component_sample(f, comp, others, seed):
    """A smooth sample point of {comp = 0} away from the other components."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(40):
        b1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b1, b2 = b1 / np.linalg.norm(b1), b2 / np.linalg.norm(b2)
        co = comp.restrict_line(b1, b2)
        if np.max(np.abs(co)) >= 1e-12:
            lines.append((b1, b2, co))
    best = None
    for (b1, b2, _), rr in zip(lines, roots_batch([co for _, _, co in lines])):
        for cl in rr.clusters:
            x = ProjPoint(b1 + cl.root * b2)
            clearance = min(
                (abs(o(x.coords)) / max(o.coeff_norm, 1e-300) for o in others),
                default=1.0,
            )
            if best is None or clearance > best[0]:
                best = (clearance, x)
    if best is None or best[0] < 1e-6:
        raise ValueError("no clean smooth sample point on a component")
    return best[1]


def _transverse_direction(comp, x):
    grad = np.array([comp.partial(v)(x.coords) for v in range(3)])
    n = np.linalg.norm(grad)
    if n < 1e-12:
        raise ValueError("sample point is singular on the component")
    return np.conj(grad) / n


def _arc_vanishing_order(pulled, x, v) -> int:
    """Order in s of pulled(x + s v): its first coefficient above the rounding level."""
    co = np.abs(pulled.restrict_line(x.coords, v))
    if co.max() == 0.0:
        raise NonIntegerOrder("pullback vanishes identically along the arc")
    return int(np.argmax(co > 1e-8 * co.max()))
