"""Reference for ``local_degree_step``: the perturbation ladder it replaced.

The ladder counts preimages of targets shrinking toward f(q): the count
inside a shrinking locality of q must agree on three consecutive rungs.  It
falls back to the multiplicity of q in the exact fibre when the fibre points
crowd q or the rungs disagree.  Each point costs four global fibre solves.
"""

import numpy as np

from greenp2 import ProjPoint

#: fixed unit-ish perturbation direction
_DIR = np.array([0.6 + 0.48j, -0.36 + 0.528j])
_RHO_FACTOR = 10.0


def ladder_local_degree(f, q) -> int:
    fq = f.apply(q)
    fiber = f.preimages(fq)
    match_tol = 1e-3
    mine = [(x, m) for x, m in fiber.preimages if q.dist(x) <= match_tol]
    assert mine, f"fiber over f({q}) misses the base point"
    e_exact = sum(m for _, m in mine)
    other = [q.dist(x) for x, _ in fiber.preimages if q.dist(x) > match_tol]
    if not other:
        return e_exact  # the whole fiber sits at q: totally invariant point
    sep = min(other)
    if sep <= 20 * match_tol:
        return e_exact
    e_max = f.degree**2
    delta_star = min(1e-4, (sep / (2 * _RHO_FACTOR)) ** e_max)
    chart = fq.chart()
    base = np.array(fq.chart_coords(chart))
    counts = []
    for k in range(3):
        delta = delta_star / 10.0**k
        target = ProjPoint(np.insert(base + delta * _DIR, chart, 1.0))
        rho = _RHO_FACTOR * delta ** (1.0 / e_max)
        fib = f.preimages(target)
        counts.append(sum(m for x, m in fib.preimages if q.dist(x) <= rho))
    if counts[0] == counts[1] == counts[2]:
        return counts[0]
    return e_exact
