import numpy as np
import pytest

from greenp2.errors import PositiveDimensional
from greenp2.systems import solve_affine_system


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
