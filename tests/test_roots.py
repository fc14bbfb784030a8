import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from greenp2.roots import roots_batch, roots_univariate
from scalar_aberth import scalar_roots


def test_quadratic_pair():
    rr = roots_univariate([-1, 0, 1])
    assert sorted((round(r.real), m) for r, m in rr.pairs()) == [(-1, 1), (1, 1)]


def test_pure_power_clusters():
    rr = roots_univariate([0, 0, 0, 0, 1])
    assert rr.pairs()[0][1] == 4
    assert abs(rr.pairs()[0][0]) < 1e-8


def test_double_root_vs_companion_oracle():
    """(X-1)^2 clusters to multiplicity two at the companion-matrix mean."""
    coeffs = [1, -2, 1]
    rr = roots_univariate(coeffs)
    assert len(rr.clusters) == 1 and rr.clusters[0].multiplicity == 2
    oracle = np.roots(coeffs[::-1])
    assert abs(rr.clusters[0].root - oracle.mean()) < 1e-6


def test_multiplicities_sum_to_degree():
    rng = np.random.default_rng(0)
    for _ in range(25):
        deg = int(rng.integers(1, 14))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        rr = roots_univariate(c)
        assert rr.total_multiplicity == deg
        assert rr.converged


def test_vieta_sum():
    """Sum of roots with multiplicity matches -c_{n-1}/c_n to 1e-6 relative."""
    rng = np.random.default_rng(5)
    for _ in range(25):
        deg = int(rng.integers(2, 12))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        rr = roots_univariate(c)
        total = sum(r * m for r, m in rr.pairs())
        target = -c[deg - 1] / c[deg]
        assert abs(total - target) <= 1e-6 * max(1.0, abs(target))


def test_matches_numpy_multiset():
    rng = np.random.default_rng(11)
    for _ in range(20):
        deg = int(rng.integers(2, 10))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        mine = sorted(
            (r for r, m in roots_univariate(c).pairs() for _ in range(m)),
            key=lambda v: (v.real, v.imag),
        )
        ref = sorted(np.roots(c[::-1]), key=lambda v: (v.real, v.imag))
        assert np.max(np.abs(np.array(mine) - np.array(ref))) < 1e-8


def test_close_but_distinct_roots_stay_split():
    c = npoly.polyfromroots([0.5, 0.5 + 1e-4])
    rr = roots_univariate(c)
    assert sorted(m for _, m in rr.pairs()) == [1, 1]


def test_residuals_reported():
    rr = roots_univariate([6, -5, 1])  # (X-2)(X-3)
    for cl in rr.clusters:
        assert cl.residual <= 1e-8


def test_degree_zero_rejected():
    with pytest.raises(ValueError):
        roots_univariate([3.0])


def _fields(rr):
    return (
        rr.degree,
        rr.converged,
        rr.iterations,
        [c.root for c in rr.clusters],
        [c.multiplicity for c in rr.clusters],
        [c.residual for c in rr.clusters],
    )


def test_batch_rows_equal_single_calls():
    """A batched call returns, row by row, exactly what one-row calls and the scalar loop return."""
    rng = np.random.default_rng(2000)
    rows = []
    for _ in range(40):
        deg = int(rng.integers(1, 13))
        rows.append(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
    rows.append(rng.standard_normal(46) + 1j * rng.standard_normal(46))  # degree 45
    rows += [
        npoly.polyfromroots([1, 1, -2]),  # (X-1)^2 (X+2)
        [0, 0, 0, 0, 1],  # X^4
        npoly.polyfromroots([0.5, 0.5 + 1e-4]),
        [6, -5, 1, 0, 0],  # (X-2)(X-3) with trailing zeros
        [2, 1, 0],
    ]
    batch = roots_batch(rows)
    assert len(batch) == len(rows)
    for row, got in zip(rows, batch):
        assert _fields(got) == _fields(roots_univariate(row))
        assert _fields(got) == _fields(scalar_roots(row))


def test_batch_degree_zero_row_rejected():
    with pytest.raises(ValueError):
        roots_batch([[1.0, 1.0], [3.0]])
