"""Simultaneous (Aberth-Ehrlich) root finding for complex univariate polynomials.

Multiplicities are recovered by merging overlapping Newton inclusion disks,
so a residual-converged cloud around an m-fold root collapses to one cluster
of size m; they are cluster sizes, not certified algebraic multiplicities.

``roots_batch`` runs the simultaneous iteration of Bini & Fiorentino on a
stack of same-degree polynomials, one row each.  Every row keeps its own
convergence test and stall counter, so a row's result does not depend on the
rows solved beside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: clustering floor for identifying coincident roots
CLUSTER_RADIUS = 1e-6
#: relative residual target |p(z)| <= RES_TOL * coeff_norm * max(1,|z|)^deg
RES_TOL = 1e-8
MAX_ITER = 200

_EPS_STRIP = 1e-9


@dataclass
class RootCluster:
    root: complex
    multiplicity: int
    residual: float


@dataclass
class RootResult:
    clusters: list[RootCluster]
    converged: bool
    iterations: int
    degree: int

    def pairs(self):
        return [(c.root, c.multiplicity) for c in self.clusters]

    @property
    def total_multiplicity(self):
        return sum(c.multiplicity for c in self.clusters)


def strip_trailing(coeffs):
    c = np.asarray(coeffs, dtype=complex).ravel()
    norm = float(np.max(np.abs(c))) if c.size else 0.0
    if norm == 0.0:
        return np.zeros(1, dtype=complex)
    keep = np.nonzero(np.abs(c) > _EPS_STRIP * norm)[0]
    return c[: keep[-1] + 1]


def roots_univariate(coeffs) -> RootResult:
    """All complex roots of ``sum coeffs[k] X^k`` with clustered multiplicities."""
    return roots_batch([coeffs])[0]


def roots_batch(rows) -> list[RootResult]:
    """``roots_univariate`` of every coefficient row; rows of one degree iterate together."""
    stripped = [strip_trailing(row) for row in rows]
    by_degree = {}
    for i, c in enumerate(stripped):
        if len(c) < 2:
            raise ValueError("root finding needs degree >= 1")
        by_degree.setdefault(len(c) - 1, []).append(i)
    results = [None] * len(stripped)
    for n, idx in by_degree.items():
        c = np.array([stripped[i] for i in idx])
        c = c / np.max(np.abs(c), axis=1, keepdims=True)
        for i, res in zip(idx, _linear(c) if n == 1 else _aberth(c, n)):
            results[i] = res
    return results


def _linear(c):
    """Roots of the degree-1 rows of ``c``."""
    out = []
    for row in c:
        root = -row[0] / row[1]
        res = abs(_horner(row, np.array([root]))[0])
        out.append(RootResult([RootCluster(complex(root), 1, float(res))], True, 0, 1))
    return out


def _aberth(c, n):
    """Aberth iteration on the rows of ``c`` (all of degree ``n >= 2``)."""
    dc = c[:, 1:] * np.arange(1, n + 1)
    z = _initial_points(c, n)
    final = np.empty_like(z)
    iterations = np.full(len(c), MAX_ITER)
    converged = np.zeros(len(c), dtype=bool)
    # the rows still iterating, compacted only when some row finishes
    live = np.arange(len(c))
    c0, cols = _pd_columns(c, dc, n)
    best_step = np.full(len(c), np.inf)
    stagnant = np.zeros(len(c), dtype=int)
    az = np.abs(z)
    grow = 1.0 + az
    for it in range(1, MAX_ITER + 1):
        p, dp = _horner_pd(c0, cols, z)
        scale = np.maximum(1.0, az) ** n
        residual_ok = (np.abs(p) <= RES_TOL * scale).all(axis=1)
        # simple roots polish to machine precision; multiple-root clouds
        # stagnate at their accuracy floor and stop via the stall counter
        if residual_ok.any():
            done = residual_ok & ((best_step <= 1e-12) | (stagnant >= 10))
            if done.any():
                final[live[done]] = z[done]
                iterations[live[done]] = it
                converged[live[done]] = True
                if done.all():
                    break
                keep = ~done
                live, z, az, grow, p, dp, c0, best_step, stagnant = (
                    a[keep] for a in (live, z, az, grow, p, dp, c0, best_step, stagnant)
                )
                cols = cols[:, np.concatenate((keep, keep))]
        _floor(dp)
        newton = p / dp
        diff = z[:, :, None] - z[:, None, :]
        # 1 / inf is the exact zero the sum needs on the diagonal
        diff.reshape(len(z), -1)[:, :: n + 1] = np.inf
        s = (1.0 / diff).sum(axis=2)
        denom = 1.0 - newton * s
        _floor(denom)
        step = newton / denom
        astep = np.abs(step)
        # damp the rare wild step
        big = astep > grow
        if big.any():
            step[big] *= grow[big] / astep[big]
            astep = np.abs(step)
        z = z - step
        az = np.abs(z)
        grow = 1.0 + az
        max_step = (astep / grow).max(axis=1)
        stagnant += 1
        stagnant[max_step < 0.95 * best_step] = 0
        # fmin, like min(), keeps best_step when max_step is NaN
        best_step = np.fmin(best_step, max_step)
    else:
        final[live] = z

    return [
        RootResult(clusters, bool(ok), int(its), n)
        for clusters, ok, its in zip(_cluster(c, dc, final, n), converged, iterations)
    ]


def _floor(x):
    """Replace entries below 1e-300 in modulus by 1e-300, in place."""
    tiny = np.abs(x) < 1e-300
    if tiny.any():
        x[tiny] = 1e-300


def _horner(c, z):
    """``sum c[..., k] z^k`` for each coefficient row ``c[...]`` at its points ``z[...]``."""
    acc = np.empty_like(z)
    acc[...] = c[..., -1:]
    for k in range(c.shape[-1] - 2, -1, -1):
        acc = acc * z + c[..., k : k + 1]
    return acc


def _pd_columns(c, dc, m):
    """``(c0, cols)`` for ``_horner_pd`` on rows ``c`` with derivatives ``dc``, at m points a row.

    ``c0`` is ``c[:, 0]`` and ``cols[k]`` stacks the rows of ``c[:, k + 1]``
    over those of ``dc[:, k]``, each repeated across the m points.
    """
    stacked = np.concatenate((c[:, 1:], dc))
    return np.repeat(c[:, :1], m, axis=1), np.repeat(stacked.T[:, :, None], m, axis=2)


def _horner_pd(c0, cols, z):
    """``(_horner(c, z), _horner(dc, z))`` in one sweep over same-shape arrays.

    Each entry sees the same operations as in the two separate sweeps.
    """
    z2 = np.concatenate((z, z))
    acc = cols[-1]
    for k in range(len(cols) - 2, -1, -1):
        acc = acc * z2 + cols[k]
    return acc[: len(z)] * z + c0, acc[len(z) :]


def _abs(z):
    """``abs()`` of each entry as a scalar gets it (hypot); ``np.abs`` may differ in a last bit."""
    return np.hypot(z.real, z.imag)


def _initial_points(c, n):
    with np.errstate(divide="ignore"):
        ratios = _abs(c[:, n - 1 :: -1] / c[:, -1:]).tolist()
    # scalar pow: numpy's vectorised ** differs from it in the last bit
    radius = np.array(
        [max(max(2.0 * r ** (1.0 / k) for k, r in enumerate(row, 1)), 1e-2) for row in ratios]
    )
    angles = 2.0 * np.pi * (np.arange(n) + 0.25) / n + 0.4
    jitter = 1.0 + 0.05 * np.cos(7.0 * np.arange(n))
    return 0.7 * radius[:, None] * jitter * np.exp(1j * angles)


def _cluster(c, dc, z, n):
    """Clusters of each row's final points, linked by overlapping inclusion disks."""
    rows = len(z)
    p = _horner(c, z)
    # Weierstrass-correction inclusion radii: |p(z_i)| / (|c_n| prod |z_i-z_j|)
    # first-order-estimates the distance from z_i to its root even inside a
    # multiple-root cloud, with a backward-error floor for coefficient noise
    eps_c = 1e-14
    az = np.abs(z)
    pair = z[:, :, None] - z[:, None, :]
    diff = np.abs(pair)
    diff.reshape(rows, -1)[:, :: n + 1] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        powsum = (az ** (n + 1) - 1.0) / (az - 1.0)
        powsum[np.abs(az - 1.0) < 1e-9] = float(n + 1)
        log_prod = np.log(np.maximum(diff, 1e-300)).sum(axis=2)
        denom = _abs(c[:, -1:]) * np.exp(log_prod)
        incl = 6.0 * (np.abs(p) + eps_c * powsum) / denom
    incl = np.where(np.isfinite(incl), incl, 0.1)
    incl = np.minimum(incl, 0.1 * (1.0 + np.abs(z)))
    radius = np.maximum(incl, CLUSTER_RADIUS)

    link = _abs(pair) <= np.maximum(radius[:, :, None] + radius[:, None, :], CLUSTER_RADIUS)
    link.reshape(rows, -1)[:, :: n + 1] = True
    # transitive closure; a point's label is the smallest index it reaches
    while True:
        wider = link @ link
        if np.array_equal(wider, link):
            break
        link = wider
    labels = link.argmax(axis=2).tolist()

    groups = []  # (row, members), each row's groups in order of first member
    for b, row_labels in enumerate(labels):
        by_label = {}
        for i, label in enumerate(row_labels):
            by_label.setdefault(label, []).append(i)
        groups += [(b, members) for members in by_label.values()]

    # singletons are Newton-polished together, each from np.mean of its
    # one-point cloud: that turns a -0.0 part into +0.0, as the reference
    # loop in the tests does
    sb = [b for b, members in groups if len(members) == 1]
    si = [members[0] for b, members in groups if len(members) == 1]
    polished = iter(_polish(c[sb], dc[sb], np.mean(z[sb, si][:, None], axis=1)).tolist())
    means = [
        next(polished) if len(members) == 1 else complex(np.mean(z[b, members]))
        for b, members in groups
    ]

    at = [b for b, _ in groups]
    absp = _abs(_horner(c[at], np.array(means)[:, None])[:, 0]).tolist()
    out = [[] for _ in range(rows)]
    for (b, members), mean, ap in zip(groups, means, absp):
        res = ap / max(1.0, abs(mean)) ** n
        out[b].append(RootCluster(mean, len(members), float(res)))
    for clusters in out:
        clusters.sort(key=lambda cl: (round(cl.root.real, 9), round(cl.root.imag, 9)))
    return out


def _polish(c, dc, z):
    """Three Newton steps from each ``z[k]`` on its row ``c[k]``; a zero derivative stops ``z[k]``.

    A start where the derivative vanishes never moves again, so the derivative
    stays zero there and no mask is needed.
    """
    c0, cols = _pd_columns(c, dc, 1)
    z = z[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            p, dp = _horner_pd(c0, cols, z)
            z = np.where(dp != 0, z - p / dp, z)
    return z[:, 0]
