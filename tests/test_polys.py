import numpy as np
import pytest

from greenp2.errors import ParseError
from greenp2.polys import (
    HomogPoly3,
    eval_forms,
    homogenize_bivariate,
    jacobian_det,
    monomial_exponents,
    monomial_position,
    n_monomials,
    parse_poly,
)


def test_monomial_order_fixed():
    """The storage order is pinned so serialized polynomials are stable."""
    assert monomial_exponents(2).tolist() == [
        [2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], [0, 0, 2],
    ]
    for d in range(7):
        assert len(monomial_exponents(d)) == n_monomials(d) == (d + 1) * (d + 2) // 2


def test_evaluate_monomial():
    p = parse_poly("z^2*w")
    assert p((2, 3, 1)) == pytest.approx(12)


def test_evaluate_at_origin_is_zero():
    p = parse_poly("z^2 + 3*w*t")
    assert p((0, 0, 0)) == 0


def test_evaluate_isotropic_vector():
    p = parse_poly("z^2+w^2+t^2")
    assert abs(p((1, 1j, 0))) < 1e-15


def test_homogeneity_random():
    """p(lam * x) = lam^d p(x) within 1e-10 relative, over 100 random draws."""
    rng = np.random.default_rng(42)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        p = HomogPoly3(d, rng.standard_normal(n_monomials(d)) + 1j * rng.standard_normal(n_monomials(d)))
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        bound = 1e-10 * p.coeff_norm * abs(lam) ** d * max(1.0, np.linalg.norm(x)) ** d
        assert abs(p(lam * x) - lam**d * p(x)) <= bound


def test_product_and_power():
    a = parse_poly("z+w")
    b = parse_poly("z-w")
    prod = a * b
    assert prod.coeff(2, 0, 0) == 1 and prod.coeff(0, 2, 0) == -1 and prod.coeff(1, 1, 0) == 0
    assert np.allclose(a.power(3).coeffs, (a * a * a).coeffs)


def test_partial_derivative():
    p = parse_poly("z^2*w + t^3")
    pz = p.partial(0)
    assert pz.coeff(1, 1, 0) == 2 and pz.coeff(0, 0, 2) == 0
    pt = p.partial(2)
    assert pt.coeff(0, 0, 2) == 3


def _partial_by_scatter(p, var):
    """Coefficients of the derivative, scattered term by term into zeros."""
    exps = monomial_exponents(p.degree)
    mask = exps[:, var] >= 1
    new = exps[mask].copy()
    new[:, var] -= 1
    out = np.zeros(n_monomials(p.degree - 1), dtype=complex)
    np.add.at(out, monomial_position(new[:, 0], new[:, 1], new[:, 2]), p.coeffs[mask] * exps[mask, var])
    return out


def test_partial_matches_scatter():
    """The derivative from cached positions is the term-by-term scatter, bit for
    bit, signed zeros included, at degrees 1..6."""
    rng = np.random.default_rng(61)
    for d in range(1, 7):
        m = n_monomials(d)
        c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        c[rng.integers(m, size=2)] = (-0.0, complex(-0.0, -1.0))
        p = HomogPoly3(d, c)
        for v in range(3):
            got = p.partial(v)
            assert got.degree == d - 1 and got.coeffs.tobytes() == _partial_by_scatter(p, v).tobytes()
    assert HomogPoly3(0, [2.0]).partial(1).coeffs.tolist() == [0.0]


def test_eval_forms_matches_eval_batch():
    """One monomial table per degree gives each form's eval_batch values bit for bit."""
    rng = np.random.default_rng(62)
    x = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    forms = [HomogPoly3(d, rng.standard_normal(n_monomials(d)) + 1j * rng.standard_normal(n_monomials(d)))
             for d in (2, 0, 3, 2, 1, 3)]
    values = eval_forms(forms, x)
    assert len(values) == len(forms)
    for v, g in zip(values, forms):
        assert v.tobytes() == g.eval_batch(x).tobytes()


def test_compose_power_map():
    F = tuple(parse_poly(s) for s in ("z^2", "w^2", "t^2"))
    comp = parse_poly("z*w").compose(F)
    assert comp.degree == 4
    assert comp.coeff(2, 2, 0) == 1
    assert np.count_nonzero(comp.coeffs) == 1


def test_compose_map_degree():
    F = tuple(parse_poly(s) for s in ("2zt+w^2", "z^2", "t^2"))
    F2 = tuple(p.compose(F) for p in F)
    assert all(p.degree == 4 for p in F2)
    # t-component of the square is t^4
    assert F2[2].coeff(0, 0, 4) == 1 and np.count_nonzero(F2[2].coeffs) == 1


def test_jacobian_of_power_map():
    F = tuple(parse_poly(s) for s in ("z^2", "w^2", "t^2"))
    J = jacobian_det(F)
    assert J.degree == 3
    assert J.coeff(1, 1, 1) == 8 and np.count_nonzero(J.coeffs) == 1


def test_dehomogenize_round_trip():
    rng = np.random.default_rng(7)
    p = HomogPoly3(3, rng.standard_normal(10) + 1j * rng.standard_normal(10))
    for chart in range(3):
        C = p.dehomogenize(chart)
        back = homogenize_bivariate(C, chart, 3)
        assert np.allclose(back.coeffs, p.coeffs)


def test_restrict_line_matches_evaluation():
    rng = np.random.default_rng(9)
    p = HomogPoly3(4, rng.standard_normal(15) + 1j * rng.standard_normal(15))
    b1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    co = p.restrict_line(b1, b2)
    for u in (0.3, -1.2 + 0.5j):
        direct = p(b1 + u * b2)
        via = sum(co[m] * u**m for m in range(5))
        assert abs(direct - via) < 1e-9 * max(1.0, abs(direct))


class TestParser:
    def test_simple(self):
        assert parse_poly("z").coeffs.tolist() == [1, 0, 0]

    def test_implicit_products(self):
        p = parse_poly("2zt+w^2")
        assert p.coeff(1, 0, 1) == 2 and p.coeff(0, 2, 0) == 1

    def test_complex_coefficient(self):
        p = parse_poly("(1+2j)*z*w")
        assert p.coeff(1, 1, 0) == 1 + 2j

    def test_parenthesized_power(self):
        p = parse_poly("(z+w)^2")
        assert p.coeff(1, 1, 0) == 2

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ParseError):
            parse_poly("z^2 + w")

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_poly("z + ?")
