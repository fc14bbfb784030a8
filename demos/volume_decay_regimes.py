"""Two regimes of volume decay for iterated images of a small ball.

At a totally invariant superattracting point, images of a ball shrink
doubly exponentially: log log(1/Vol) grows linearly with rate log d.  Away
from all exceptional structure (the product-quotient map has none) the decay
is strictly slower.  Both the Jacobian-integral lower-bound proxy and a
grid-occupancy estimate of the image volume are reported.
"""

import math

from greenp2 import ProjMap, lattes_map, parse_poly, volume_sweep

power = ProjMap.validate([parse_poly(s) for s in ("z^2", "w^2", "t^2")])
quotient = lattes_map(2)

print("ball of radius 0.1 at the totally invariant point [0:0:1] of the power map:")
prev = None
for rep in volume_sweep(power, (2, (0.0, 0.0), 0.1), 4, samples=8000, seed=5):
    y = math.log(math.log(1.0 / rep.occupancy))
    rate = f"   step rate {y - prev:.3f}" if prev is not None else ""
    print(f"  n={rep.n}: occupancy {rep.occupancy:.3e}  jacobian bound {rep.jacobian_bound:.3e}{rate}")
    prev = y
print(f"  (rates hover near log 2 = {math.log(2):.3f}: doubly exponential collapse)")

print("\nball away from exceptional structure, product-quotient map:")
prev = None
for rep in volume_sweep(quotient, (2, (0.35, 0.1), 0.08), 3, samples=8000, seed=5):
    y = math.log(max(math.log(1.0 / max(rep.occupancy, 1e-300)), 1e-9))
    rate = f"   step rate {y - prev:.3f}" if prev is not None else ""
    print(f"  n={rep.n}: occupancy {rep.occupancy:.3e}  jacobian bound {rep.jacobian_bound:.3e}{rate}")
    prev = y
print("  (no inner acceleration: the volume even spreads back out)")
