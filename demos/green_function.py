"""Green function of a plane self-map: values with a sampled tail estimate, and invariance.

The dynamical Green function is the renormalized escape rate
lim d^-n log||F^n(x)|| on unit representatives.  For coordinatewise power
maps it has the closed form log max(|z|,|w|,|t|), which makes a sharp
end-to-end check; for arbitrary maps the functional equation
G(f(x)) + log||F(x)|| = d G(x) is the invariant to watch.
"""

import math

import numpy as np

from greenp2 import ProjMap, ProjPoint, green, parse_poly
from greenp2.sampling import fs_points

power = ProjMap.validate([parse_poly(s) for s in ("z^2", "w^2", "t^2")])

x = ProjPoint([2, 1, 1])
ev = green(power, x, tol=1e-8)
closed = math.log(2) - 0.5 * math.log(6)
print("power map at [2:1:1]:")
print(f"  computed value {ev.value:+.10f} using {ev.n_used} iterations")
print(f"  closed form    {closed:+.10f}")
print(f"  certified tail {ev.tail_bound:.2e}")

print("\ncoordinate point [1:0:0] is fixed with unit norms, so the value is exactly")
print(f"  {green(power, ProjPoint([1, 0, 0]), tol=1e-8).value}")

bumpy = ProjMap.validate([parse_poly(s) for s in ("2zt+w^2", "z^2", "t^2")])
print("\nfunctional equation for [2zt+w^2 : z^2 : t^2] on five random points:")
for pt in fs_points(5, seed=42):
    p = ProjPoint(pt)
    gx = green(bumpy, p, tol=1e-9).value
    lift_norm = float(np.linalg.norm(bumpy.lift(p.coords)))
    gfx = green(bumpy, bumpy.apply(p), tol=1e-9).value
    err = abs(gfx + math.log(lift_norm) - 2 * gx)
    print(f"  G(x) = {gx:+.6f}   |G(f x) + log||F(x)|| - 2 G(x)| = {err:.2e}")
