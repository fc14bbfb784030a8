"""Reference for ``roots_batch``: the one-polynomial Aberth iteration it replaced.

Tests require the batched rows to equal these results exactly, since the
batched code performs the same floating-point operations row by row.
"""

import numpy as np

from greenp2.roots import CLUSTER_RADIUS, MAX_ITER, RES_TOL, RootCluster, RootResult, strip_trailing


def scalar_roots(coeffs) -> RootResult:
    """One polynomial at a time, with a Python pair loop for the clusters."""
    c = strip_trailing(coeffs)
    n = len(c) - 1
    if n < 1:
        raise ValueError("root finding needs degree >= 1")
    c = c / np.max(np.abs(c))
    if n == 1:
        root = -c[0] / c[1]
        res = abs(_horner(c, np.array([root]))[0])
        return RootResult([RootCluster(complex(root), 1, float(res))], True, 0, 1)

    z = _initial_points(c)
    dc = c[1:] * np.arange(1, n + 1)
    converged = False
    it = 0
    best_step = np.inf
    stagnant = 0
    for it in range(1, MAX_ITER + 1):
        p = _horner(c, z)
        scale = np.maximum(1.0, np.abs(z)) ** n
        residual_ok = bool(np.all(np.abs(p) <= RES_TOL * scale))
        if residual_ok and (best_step <= 1e-12 or stagnant >= 10):
            # simple roots polish to machine precision; multiple-root clouds
            # stagnate at their accuracy floor and stop via the stall counter
            converged = True
            break
        dp = _horner(dc, z)
        dp = np.where(np.abs(dp) < 1e-300, 1e-300, dp)
        newton = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        s = inv.sum(axis=1)
        denom = 1.0 - newton * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = newton / denom
        # damp the rare wild step
        big = np.abs(step) > 1.0 + np.abs(z)
        step[big] *= (1.0 + np.abs(z[big])) / np.abs(step[big])
        z = z - step
        max_step = float(np.max(np.abs(step) / (1.0 + np.abs(z))))
        if max_step < 0.95 * best_step:
            stagnant = 0
        else:
            stagnant += 1
        best_step = min(best_step, max_step)

    clusters = _cluster(c, z, n)
    return RootResult(clusters, converged, it, n)


def _horner(c, z):
    acc = np.full_like(z, c[-1])
    for k in range(len(c) - 2, -1, -1):
        acc = acc * z + c[k]
    return acc


def _initial_points(c):
    n = len(c) - 1
    with np.errstate(divide="ignore"):
        bounds = [2.0 * abs(c[n - k] / c[-1]) ** (1.0 / k) for k in range(1, n + 1)]
    radius = max(max(bounds), 1e-2)
    angles = 2.0 * np.pi * (np.arange(n) + 0.25) / n + 0.4
    jitter = 1.0 + 0.05 * np.cos(7.0 * np.arange(n))
    return 0.7 * radius * jitter * np.exp(1j * angles)


def _cluster(c, z, n):
    p = _horner(c, z)
    # Weierstrass-correction inclusion radii: |p(z_i)| / (|c_n| prod |z_i-z_j|)
    # first-order-estimates the distance from z_i to its root even inside a
    # multiple-root cloud, with a backward-error floor for coefficient noise
    eps_c = 1e-14
    az = np.abs(z)
    powsum = np.where(
        np.abs(az - 1.0) < 1e-9,
        float(n + 1),
        (az ** (n + 1) - 1.0) / np.where(az == 1.0, 1.0, az - 1.0),
    )
    diff = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(diff, 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_prod = np.sum(np.log(np.maximum(diff, 1e-300)), axis=1)
        denom = abs(c[-1]) * np.exp(log_prod)
        incl = 6.0 * (np.abs(p) + eps_c * powsum) / denom
    incl = np.where(np.isfinite(incl), incl, 0.1)
    incl = np.minimum(incl, 0.1 * (1.0 + np.abs(z)))
    radius = np.maximum(incl, CLUSTER_RADIUS)

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(z[i] - z[j]) <= max(radius[i] + radius[j], CLUSTER_RADIUS):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    clusters = []
    for members in groups.values():
        pts = z[list(members)]
        mean = complex(np.mean(pts))
        mult = len(members)
        if mult == 1:
            mean = _polish(c, mean)
        res = abs(_horner(c, np.array([mean]))[0]) / max(1.0, abs(mean)) ** n
        clusters.append(RootCluster(mean, mult, float(res)))
    clusters.sort(key=lambda cl: (round(cl.root.real, 9), round(cl.root.imag, 9)))
    return clusters


def _polish(c, z0):
    dc = c[1:] * np.arange(1, len(c) - 1 + 1)
    z = z0
    for _ in range(3):
        p = _horner(c, np.array([z]))[0]
        dp = _horner(dc, np.array([z]))[0]
        if dp == 0:
            break
        z = z - p / dp
    return complex(z)
