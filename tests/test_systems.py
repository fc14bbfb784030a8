import numpy as np
import pytest

import greenp2.roots
import greenp2.systems
from conftest import random_valid_map
from greenp2 import ProjPoint
from greenp2.errors import IllConditioned, PositiveDimensional
from greenp2.systems import SHEARS, solve_affine_system


def dense(entries, size=4):
    C = np.zeros((size, size), dtype=complex)
    for (i, j), c in entries.items():
        C[i, j] = c
    return C


def test_circle_and_diagonal():
    sols = solve_affine_system(dense({(0, 0): -1, (2, 0): 1}), dense({(0, 1): 1, (1, 0): -1}))
    pts = sorted((round(u.real), round(v.real)) for (u, v), _ in sols)
    assert pts == [(-1, -1), (1, 1)]
    assert all(m == 1 for _, m in sols)


def test_fat_origin():
    sols = solve_affine_system(dense({(2, 0): 1}), dense({(0, 2): 1}))
    assert len(sols) == 1
    (u, v), m = sols[0]
    assert m == 4 and abs(u) < 1e-3 and abs(v) < 1e-3


def test_curve_intersection_four_points():
    """{u^2 = v, v^2 = u} has the four points of u^4 = u."""
    sols = solve_affine_system(
        dense({(2, 0): 1, (0, 1): -1}), dense({(0, 2): 1, (1, 0): -1})
    )
    assert sum(m for _, m in sols) == 4
    us = sorted(round(abs(u), 6) for (u, v), _ in sols)
    assert us == [0.0, 1.0, 1.0, 1.0]
    for (u, v), _ in sols:
        assert abs(u * u - v) < 1e-7 and abs(v * v - u) < 1e-7


def test_positive_dimensional_detected():
    A = dense({(1, 1): 1})  # u*v
    B = dense({(1, 1): 1, (1, 0): -1})  # u*(v-1)
    with pytest.raises(PositiveDimensional):
        solve_affine_system(A, B)


def test_zero_input_detected():
    with pytest.raises(PositiveDimensional):
        solve_affine_system(np.zeros((3, 3)), dense({(1, 0): 1}))


def test_constant_input_no_solutions():
    assert solve_affine_system(dense({(0, 0): 2.0}), dense({(1, 0): 1})) == []


def test_random_bidegree_generic_count():
    """Random dense quadratic pairs carry exactly four solutions nearly always."""
    rng = np.random.default_rng(42)
    good = 0
    trials = 40
    for _ in range(trials):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        i = np.arange(3)
        A[(i[:, None] + i[None, :]) > 2] = 0
        B[(i[:, None] + i[None, :]) > 2] = 0
        sols = solve_affine_system(A, B)
        residual_ok = all(
            abs(_ev(A, u, v)) < 1e-6 and abs(_ev(B, u, v)) < 1e-6 for (u, v), _ in sols
        )
        good += residual_ok and sum(m for _, m in sols) == 4
    assert good >= int(0.95 * trials)


def _ev(C, u, v):
    nu, nv = C.shape
    return (u ** np.arange(nu)) @ C @ (v ** np.arange(nv))


def test_trust_radius_filters_far_solutions():
    # roots at u = 10 and u = 0.5 on the diagonal
    A = dense({(0, 0): 5.0, (1, 0): -10.5, (2, 0): 1.0})
    B = dense({(0, 1): 1, (1, 0): -1})
    sols = solve_affine_system(A, B, trust_radius=2.0)
    assert len(sols) == 1
    assert abs(sols[0][0][0] - 0.5) < 1e-8


def _record_sheared(monkeypatch):
    """Wrap _solve_sheared; each call appends [lam, outcome, root-finder calls]."""
    calls = []
    solve, find = greenp2.systems._solve_sheared, greenp2.roots.roots_batch

    def counting_find(rows):
        calls[-1][2] += 1
        return find(rows)

    def recording_solve(A0, B0, dA, dB, lam, trust_radius):
        calls.append([lam, "ok", 0])
        try:
            return solve(A0, B0, dA, dB, lam, trust_radius)
        except IllConditioned:
            calls[-1][1] = "ill-conditioned"
            raise

    monkeypatch.setattr(greenp2.systems, "_solve_sheared", recording_solve)
    monkeypatch.setattr(greenp2.systems, "roots_batch", counting_find)
    monkeypatch.setattr(greenp2.roots, "roots_batch", counting_find)
    return calls


def test_shear_retry_recovers_both_points(monkeypatch):
    """Both common zeros share one sheared s under SHEARS[0]; SHEARS[1] separates them."""
    lam = SHEARS[0]
    A = dense({(0, 2): 1, (0, 1): -1})  # v^2 - v
    B = dense({(1, 0): 1, (0, 1): lam - 0.7, (0, 2): 0.7})  # u + lam v + 0.7 (v^2 - v)
    calls = _record_sheared(monkeypatch)
    sols = solve_affine_system(A, B, trust_radius=4.0)
    assert [c[:2] for c in calls] == [[SHEARS[0], "ill-conditioned"], [SHEARS[1], "ok"]]
    assert [m for _, m in sols] == [1, 1]
    for wu, wv in [(0.0, 0.0), (-lam, 1.0)]:
        assert min(abs(u - wu) + abs(v - wv) for (u, v), _ in sols) < 1e-8


def test_back_substitution_is_one_batch(monkeypatch):
    """Probe, resultant and one batch for all fibres: at most 3 root-finder calls per shear."""
    f = random_valid_map(np.random.default_rng(303), d=3)
    calls = _record_sheared(monkeypatch)
    fiber = f.preimages(ProjPoint([0.3 + 0.1j, -0.7, 1.0]))
    assert fiber.total_multiplicity == 9
    assert calls
    assert max(c[2] for c in calls) <= 3
