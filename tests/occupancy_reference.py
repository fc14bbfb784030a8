"""Reference for ``potentials._grid_occupancy``: the per-point loop it replaced.

Tests require the vectorised binning to equal this result exactly: both weight
each occupied cell at its first point with the same scalar power and sum the
weights in first-occurrence order.
"""

import math

import numpy as np


def loop_grid_occupancy(img: np.ndarray, grid: int):
    """Occupied-cell volume of an image cloud, one point at a time."""
    if img.shape[0] == 0:
        return 0.0, 0
    flat = img.view(float).reshape(img.shape[0], 4)
    lo = flat.min(axis=0)
    hi = flat.max(axis=0)
    span = np.maximum(hi - lo, 1e-300)
    h = span / grid
    idx = np.minimum(((flat - lo) / h).astype(int), grid - 1)
    cells = {}
    for row, point in zip(idx, img):
        key = tuple(row)
        if key not in cells:
            cells[key] = float((1.0 + np.sum(np.abs(point) ** 2)) ** -3)
    cell_leb = float(np.prod(h))
    vol = (2.0 / math.pi**2) * cell_leb * sum(cells.values())
    return vol, len(cells)
