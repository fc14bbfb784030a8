import numpy as np
import pytest

from conftest import online_fixed_point
from greenp2.errors import OrderExceedsTruncation, PositiveDimensional
from greenp2.multiplicities import orbit_report
from greenp2.polys import parse_poly
from greenp2.series import (
    AffineSeries2,
    _macaulay_matrix,
    _shift_matrix,
    compose_poly_series,
    local_multiplicity,
    recenter_taylor,
    shift_bivariate,
    vanishing_order,
)
from series_reference import (
    compose_horner,
    macaulay_windows,
    product,
    reciprocal_neumann,
    shift_matrix_loop,
    vanishing_order_loop,
)


def series_from(entries, trunc):
    s = AffineSeries2(trunc)
    for (i, j), c in entries.items():
        s.coeffs[i, j] = c
    return s


def test_recenter_binomial_example():
    """zw dehomogenized in the t chart and recentered at (1, 0) reads v + uv."""
    s = recenter_taylor(parse_poly("z*w"), 2, (1.0, 0.0), 2)
    expect = np.zeros((3, 3))
    expect[0, 1] = 1.0
    expect[1, 1] = 1.0
    assert np.allclose(s.coeffs, expect)


def test_recenter_constant():
    s = recenter_taylor(parse_poly("t^2"), 2, (0.7 - 0.2j, 1.5), 3)
    assert s.coeffs[0, 0] == 1.0
    assert np.max(np.abs(s.coeffs)) == 1.0


def test_recenter_already_centered():
    s = recenter_taylor(parse_poly("z^2"), 2, (0.0, 0.0), 2)
    assert s.coeffs[2, 0] == 1.0 and np.count_nonzero(s.coeffs) == 1


def test_recenter_round_trip():
    """Recentering away and back reproduces the coefficients to 1e-9 relative."""
    rng = np.random.default_rng(3)
    p = parse_poly("z^3 + 2z*w*t - w^2*t + t^3 - z^2*w")
    C = p.dehomogenize(2)
    center = (0.8 - 0.3j, -1.1 + 0.6j)
    there = shift_bivariate(C, center)
    back = shift_bivariate(there, (-center[0], -center[1]))
    assert np.max(np.abs(back - C)) <= 1e-9 * np.max(np.abs(C))


def test_vanishing_order_inspection():
    s = series_from({(2, 1): 1.0, (5, 0): 1.0}, 5)
    assert vanishing_order(s) == 3


def test_vanishing_order_unit():
    s = series_from({(0, 0): 1.0, (1, 0): 1.0}, 3)
    assert vanishing_order(s) == 0


def test_vanishing_order_jacobian_example():
    """The Jacobian -4uv of (2u+v^2, u^2) vanishes to order two."""
    g1 = series_from({(1, 0): 2.0, (0, 2): 1.0}, 4)
    g2 = series_from({(2, 0): 1.0}, 4)
    du1, dv1 = series_from({(0, 0): 2.0}, 4), series_from({(0, 1): 2.0}, 4)
    du2, dv2 = series_from({(1, 0): 2.0}, 4), series_from({(0, 0): 0.0}, 4)
    jac = du1 * dv2 - dv1 * du2
    assert vanishing_order(jac) == 2


def test_vanishing_order_raises_beyond_truncation():
    s = series_from({(3, 3): 1.0}, 5)  # order 6 exceeds truncation 5
    s.coeffs[3, 3] = 0.0
    with pytest.raises(OrderExceedsTruncation):
        vanishing_order(s)


def test_vanishing_order_graded_tolerance():
    """Huge high-degree coefficients must not drown a legitimate low order."""
    s = series_from({(1, 0): 1.0, (4, 4): 1e12}, 8)
    assert vanishing_order(s) == 1


def _read(fn, s, **kw):
    """fn's order, or the type of error it raised."""
    try:
        return fn(s, **kw)
    except OrderExceedsTruncation as exc:
        return type(exc)


@pytest.mark.parametrize("floor", [False, True])
def test_vanishing_order_matches_loop_reference(floor):
    """The graded read gives the loop's integer on random sparse series whose
    coefficients span 1e-14 to 1e1, with and without absolute floors."""
    rng = np.random.default_rng(500 + floor)
    for _ in range(300):
        trunc = int(rng.integers(0, 20))
        n = trunc + 1
        mags = 10.0 ** rng.uniform(-14, 1, (n, n)) * (rng.uniform(size=(n, n)) < 0.4)
        s = AffineSeries2(trunc, mags * np.exp(2j * np.pi * rng.uniform(size=(n, n))))
        kw = {"abs_floor": 10.0 ** rng.uniform(-14, -1)} if floor else {}
        got = _read(vanishing_order, s, **kw)
        assert got == _read(vanishing_order_loop, s, **kw)
        assert type(got) is type(_read(vanishing_order_loop, s, **kw))


def test_vanishing_order_weighted():
    """At weights (a1, a2) the least a2 i + a1 j over the significant support:
    u^3 + u v + v^4 reads 0.5 + 1 at (0.5, 1), 0.5 * 3 at (1, 0.5), and v^4
    at (0.1, 1) once u v is dropped below the floor."""
    s = series_from({(3, 0): 1.0, (1, 1): 1.0, (0, 4): 1.0}, 5)
    assert vanishing_order(s, weights=(0.5, 1.0)) == 1.5
    assert vanishing_order(s, weights=(1.0, 0.5)) == 1.5
    assert vanishing_order(s, weights=(0.1, 0.1)) == pytest.approx(0.2)
    s.coeffs[1, 1] = 1e-12
    assert vanishing_order(s, abs_floor=1e-9, weights=(0.1, 1.0)) == pytest.approx(0.4)


def test_multiplication_truncates():
    a = series_from({(1, 0): 1.0, (0, 1): 1.0}, 3)
    prod = a * a
    assert prod.coeffs[2, 0] == 1.0 and prod.coeffs[1, 1] == 2.0
    assert vanishing_order(prod) == 2


def test_reciprocal_inverts():
    s = series_from({(0, 0): 2.0, (1, 0): 0.5, (0, 2): -1.0}, 6)
    one = s * s.reciprocal()
    assert abs(one.coeffs[0, 0] - 1.0) < 1e-12
    one.coeffs[0, 0] = 0.0
    assert np.max(np.abs(one.coeffs)) < 1e-12


def test_compose_poly_series():
    """(v + uv)^2 via composition of u^2 with the substituted series."""
    P = np.zeros((3, 3), dtype=complex)
    P[2, 0] = 1.0
    s1 = series_from({(0, 1): 1.0, (1, 1): 1.0}, 4)
    s2 = series_from({(1, 0): 1.0}, 4)
    comp = compose_poly_series(P, s1, s2)
    assert comp.coeffs[0, 2] == 1.0 and comp.coeffs[1, 2] == 2.0 and comp.coeffs[2, 2] == 1.0


def dense_series(rng, trunc, const=None, decay=1.0):
    """A seeded series with every coefficient of the triangle filled in."""
    n = trunc + 1
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    deg = np.add.outer(np.arange(n), np.arange(n))
    c *= decay**deg
    if const is not None:
        c[0, 0] = const
    return AffineSeries2(trunc, c)


@pytest.mark.parametrize("trunc", (0, 1, 2, 4, 6, 12, 24, 48))
def test_product_matches_rectangle_reference(trunc):
    rng = np.random.default_rng(100 + trunc)
    a, b = dense_series(rng, trunc), dense_series(rng, trunc)
    got, ref = (a * b).coeffs, product(a, b).coeffs
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert np.all(got[a.total_degrees() > trunc] == 0.0)


def test_product_of_mixed_truncations():
    rng = np.random.default_rng(7)
    a, b = dense_series(rng, 9), dense_series(rng, 5)
    got = a * b
    assert got.trunc == 5
    assert np.max(np.abs(got.coeffs - product(a, b).coeffs)) <= 1e-14 * got.max_abs()


@pytest.mark.parametrize("trunc", (6, 24, 48))
def test_product_noise_stays_graded(trunc):
    """Inputs of degree > k never touch an output coefficient of degree <= k."""
    rng = np.random.default_rng(200 + trunc)
    a, b = dense_series(rng, trunc), dense_series(rng, trunc)
    deg = a.total_degrees()
    base = (a * b).coeffs
    for k in range(trunc):
        a2, b2 = a.copy(), b.copy()
        high = deg > k
        a2.coeffs[high] += 1e3 * rng.standard_normal(np.count_nonzero(high))
        b2.coeffs[high] -= 1e3j * rng.standard_normal(np.count_nonzero(high))
        low = deg <= k
        assert np.array_equal((a2 * b2).coeffs[low], base[low])


@pytest.mark.parametrize("trunc", (0, 1, 5, 16, 48))
def test_reciprocal_inverts_and_matches_neumann(trunc):
    rng = np.random.default_rng(300 + trunc)
    s = dense_series(rng, trunc, const=2.0 - 0.5j, decay=0.3)
    inv = s.reciprocal()
    one = (s * inv).coeffs
    assert abs(one[0, 0] - 1.0) < 1e-12
    one[0, 0] = 0.0
    assert np.max(np.abs(one)) < 1e-12
    ref = reciprocal_neumann(s).coeffs
    assert np.max(np.abs(inv.coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape,trunc", [((1, 1), 4), ((3, 1), 6), ((1, 3), 6), ((4, 4), 12), ((7, 7), 24), ((4, 4), 48)])
def test_compose_matches_horner_reference(shape, trunc):
    rng = np.random.default_rng(400 + trunc + shape[0])
    P = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    s1, s2 = dense_series(rng, trunc, const=0.0), dense_series(rng, trunc, const=0.0)
    ref = compose_horner(P, s1, s2).coeffs
    got = compose_poly_series(P, s1, s2).coeffs
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_online_orbit_report_product_budget(monkeypatch):
    """At the passing on-line fixed point of configuration_map('1-0', 3, 8) the
    Jacobian terms (orders 2, 6 and 18) come from the invariant line t = 0 with
    no series, so only the contraction orders of f^2 and f^3, left open by the
    tangent cone, read series: they are 1 at truncation 6, as the other chart
    coordinate of f^3 is t^27 times a unit.  So no product runs past
    truncation 6, and there are at most 95 of them there, 115 in all."""
    f, p = online_fixed_point()
    mul = AffineSeries2.__mul__
    truncs = []

    def counted(self, other):
        out = mul(self, other)
        truncs.append(out.trunc)
        return out

    monkeypatch.setattr(AffineSeries2, "__mul__", counted)
    rep = orbit_report(f, p, 3)
    assert all(rep.inequality_verdicts.values())
    assert all(m >= 3**n - 1 for n, m in zip((1, 2, 3), rep.jacobian_orders))
    assert max(truncs) == 6
    assert truncs.count(6) <= 95
    assert len(truncs) <= 115


class TestLocalMultiplicity:
    def test_transversal(self):
        g1 = series_from({(1, 0): 1.0, (0, 2): 3.0}, 4)
        g2 = series_from({(0, 1): 1.0}, 4)
        assert local_multiplicity(g1, g2) == 1

    def test_cusp_pair(self):
        g1 = series_from({(2, 0): 1.0}, 4)
        g2 = series_from({(0, 2): 1.0}, 4)
        assert local_multiplicity(g1, g2) == 4

    def test_tangency(self):
        g1 = series_from({(0, 1): 1.0, (2, 0): -1.0}, 4)
        g2 = series_from({(0, 1): 1.0}, 4)
        assert local_multiplicity(g1, g2) == 2

    def test_shared_branch_raises(self):
        g = series_from({(0, 1): 1.0, (2, 0): -1.0}, 4)
        with pytest.raises(PositiveDimensional):
            local_multiplicity(g, g.copy())

    @pytest.mark.parametrize("a, b", [(1, 1), (2, 3), (5, 5), (1, 7)])
    def test_monomial_pair(self, a, b):
        """(u^a, v^b) has the a*b standard monomials u^i v^j, i < a, j < b."""
        assert local_multiplicity(series_from({(a, 0): 1.0}, 8), series_from({(0, b): 1.0}, 8)) == a * b

    def test_scale_free(self):
        """Each germ is scaled by its largest coefficient before the rank test."""
        g1 = series_from({(0, 1): 1e-9, (2, 0): -1e-9}, 4)
        g2 = series_from({(0, 1): 1e6, (3, 0): 2e6}, 4)
        assert local_multiplicity(g1, g2) == 2

    def test_curve_pair_passes_bezout_bound(self):
        """(v(v - u^2), v u^3) share the branch v = 0: h(k) grows past 3 * 4."""
        g1 = series_from({(0, 2): 1.0, (2, 1): -1.0}, 6)
        g2 = series_from({(3, 1): 1.0}, 6)
        with pytest.raises(PositiveDimensional):
            local_multiplicity(g1, g2)

    def test_zero_germ_raises(self):
        with pytest.raises(PositiveDimensional):
            local_multiplicity(AffineSeries2(4), series_from({(1, 0): 1.0}, 4))


def test_shift_matrix_matches_the_loop():
    """The Pascal-table product gives the bytes of the entry-by-entry loop,
    signed zeros included, for centres of every scale and on the axes."""
    rng = np.random.default_rng(17)
    centres = [0j, complex(-0.0, -0.0), complex(0.0, -0.0), 1.0, -1j]
    for _ in range(400):
        re, im = rng.standard_normal(2) * 10.0 ** rng.integers(-8, 9, size=2)
        centres += [complex(re, im), complex(re, 0.0), complex(0.0, im)]
    for c in centres:
        for n in (1, 2, 4, int(rng.integers(1, 17))):
            assert _shift_matrix(n, c).tobytes() == shift_matrix_loop(n, c).tobytes(), (n, c)


def _random_germ(rng, trunc):
    """Coefficients of a germ to degree ``trunc``: zero constant term, zeros past
    the truncation, and a share of negative zeros inside it."""
    C = rng.standard_normal((trunc + 1, trunc + 1)) + 1j * rng.standard_normal((trunc + 1, trunc + 1))
    C[rng.random(C.shape) < 0.2] = -0.0
    r = np.arange(trunc + 1)
    C[r[:, None] + r[None, :] > trunc] = 0.0
    C[0, 0] = 0.0
    return C


@pytest.mark.parametrize("k", range(1, 13))
def test_macaulay_gather_matches_the_windows(k):
    """The index gather builds the sliding-window matrix byte for byte, for germs
    truncated below k, at k and above it, where both cut the germ to k + 1 rows."""
    rng = np.random.default_rng(500 + k)
    truncs = sorted({1, max(1, k // 2), max(1, k - 1), k, k + 1, k + 4})
    for _ in range(4):
        for t1 in truncs:
            germs = [_random_germ(rng, t1), _random_germ(rng, int(rng.choice(truncs)))]
            built = _macaulay_matrix(germs, k)
            assert built.shape == (k * (k + 1), (k + 1) * (k + 2) // 2)
            assert built.tobytes() == macaulay_windows(germs, k).tobytes()
