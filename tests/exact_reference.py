"""Exact reference for the Jacobian orders of iterates, in rational arithmetic.

For forms F with rational coefficients, an integer matrix A and a rational
point p of G = A^-1 o F o A, ord_p(J(G^n)) is read from polynomials with no
rounding.  The lift Jacobian of G^n is the product of J o G^j, j < n, and
the order at a point is a valuation, so ord_p(J(G^n)) is the sum of the
orders of J at the triples G^j(x(u, v)), where x(u, v) runs over the chart
of p around p: each the lowest total degree of a polynomial in (u, v).
"""

from itertools import accumulate

import sympy as sp

Z, W, T, U, V = sp.symbols("z w t u v")


def jacobian_orders(forms, A, target, n):
    """[ord_p(J(G^k)) for k = 1..n] at p = A^-1 target, for forms written in z, w, t."""
    X = sp.Matrix([Z, W, T])
    A = sp.Matrix(A)
    F = sp.Matrix([sp.sympify(s) for s in forms])
    G = (A.inv() * F.subs(dict(zip((Z, W, T), A * X)), simultaneous=True)).applyfunc(sp.expand)
    J = sp.Poly(G.jacobian(X).det(), Z, W, T)
    G = [sp.Poly(g, Z, W, T) for g in G]
    p = A.inv() * sp.Matrix(target)
    c = max(range(3), key=lambda i: abs(p[i]))
    local = iter((U, V))
    H = [sp.Poly(1 if i == c else p[i] / p[c] + next(local), U, V, domain="QQ") for i in range(3)]
    terms = []
    for _ in range(n):
        terms.append(min(sum(m) for m in _at(J, H).monoms()))
        H = [_at(g, H) for g in G]
    return list(accumulate(terms))


def _at(P, H):
    """The form P at the triple H of polynomials in (u, v)."""
    powers = [[h**0] for h in H]
    for row, h in zip(powers, H):
        for _ in range(P.total_degree()):
            row.append(row[-1] * h)
    out = sp.Poly(0, U, V, domain="QQ")
    for (a, b, c), coef in P.terms():
        out += powers[0][a] * powers[1][b] * powers[2][c] * coef
    return out
