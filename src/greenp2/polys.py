"""Dense homogeneous polynomials in three complex variables.

Coefficients are stored in a fixed graded-lexicographic order on exponent
triples (i, j, k) with i + j + k = degree: i runs from degree down to 0 and,
inside each i-block, j runs from degree - i down to 0.  The position of a
monomial has the closed form

    pos(i, j) = (d - i)(d - i + 1) / 2 + (d - i - j),

so serialized coefficient arrays are bit-stable.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ParseError

VAR_NAMES = ("z", "w", "t")


@lru_cache(maxsize=None)
def monomial_exponents(degree: int) -> np.ndarray:
    """(m, 3) int array of exponent triples in storage order."""
    rows = [
        (i, j, degree - i - j)
        for i in range(degree, -1, -1)
        for j in range(degree - i, -1, -1)
    ]
    out = np.array(rows, dtype=np.int64).reshape(-1, 3)
    out.setflags(write=False)
    return out


def monomial_table(pts: np.ndarray, degree: int) -> np.ndarray:
    """(N, m) table of the degree-`degree` monomials at an (N, 3) complex array.

    Column order is storage order, so ``table @ p.coeffs`` evaluates any form p
    of that degree.  Callers evaluating several forms at the same points build
    the table once and take one such product per form.

    The products are formed as contiguous (m, N) rows and returned as one
    C-contiguous (N, m) copy, equal in value to powers multiplied into
    columns of ones.  The layout is load-bearing, as the product rounds with
    it: over 180 lifts (the 9 configuration rows at d = 2..5, five sets of
    4,096 points) one gemv per form on this copy kept the bits of the column
    table in all 180, while an F-order view of the rows, ``coeffs @ rows``
    or one gemm for all three components kept them in only the 20 lifts of
    the sparse row 3-3.
    """
    exps = monomial_exponents(degree)
    # ladder[e, v] = pts[:, v] ** e by repeated multiplication
    ladder = np.empty((degree + 1, 3, pts.shape[0]), dtype=complex)
    ladder[0] = 1.0
    for e in range(1, degree + 1):
        np.multiply(ladder[e - 1], pts.T, out=ladder[e])
    rows = ladder[exps[:, 0], 0]
    rows *= ladder[exps[:, 1], 1]
    rows *= ladder[exps[:, 2], 2]
    return rows.T.copy()


@lru_cache(maxsize=None)
def _partial_index(degree: int, var: int):
    """The monomials holding var, the positions of their derivatives and var's exponents."""
    exps = monomial_exponents(degree)
    mask = exps[:, var] >= 1
    lowered = exps[mask] - np.eye(3, dtype=np.int64)[var]
    out = (mask, monomial_position(*lowered.T), exps[mask, var])
    for a in out:
        a.setflags(write=False)
    return out


def eval_forms(forms, points) -> list:
    """[g.eval_batch(points) for g in forms], from one monomial table per degree."""
    pts = np.asarray(points, dtype=complex).reshape(-1, 3)
    tables = {d: monomial_table(pts, d) for d in {g.degree for g in forms if g.degree}}
    return [tables[g.degree] @ g.coeffs if g.degree else g.eval_batch(pts) for g in forms]


def n_monomials(degree: int) -> int:
    return (degree + 1) * (degree + 2) // 2


def monomial_position(i, j, k):
    d = i + j + k
    return (d - i) * (d - i + 1) // 2 + (d - i - j)


class HomogPoly3:
    """A homogeneous polynomial of fixed degree in (z, w, t)."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs=None):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        self.degree = int(degree)
        m = n_monomials(self.degree)
        if coeffs is None:
            self.coeffs = np.zeros(m, dtype=complex)
        else:
            c = np.asarray(coeffs, dtype=complex)
            if c.shape != (m,):
                raise ValueError(f"expected {m} coefficients for degree {degree}, got {c.shape}")
            if not np.isfinite(c).all():
                raise ValueError("coefficients must be finite")
            self.coeffs = c.copy()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_monomials(cls, degree, entries):
        """entries: iterable of (i, j, k, coeff)."""
        p = cls(degree)
        for i, j, k, c in entries:
            if i < 0 or j < 0 or k < 0 or i + j + k != degree:
                raise ValueError(f"exponent ({i},{j},{k}) does not sum to degree {degree}")
            p.coeffs[monomial_position(i, j, k)] += c
        return p

    @classmethod
    def variable(cls, index):
        p = cls(1)
        p.coeffs[index] = 1.0
        return p

    def copy(self):
        return HomogPoly3(self.degree, self.coeffs)

    # -- basic queries -----------------------------------------------------

    @property
    def coeff_norm(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def coeff(self, i, j, k):
        return self.coeffs[monomial_position(i, j, k)]

    def __eq__(self, other):
        return (
            isinstance(other, HomogPoly3)
            and self.degree == other.degree
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __repr__(self):
        return f"HomogPoly3({self.to_string()})"

    def to_string(self):
        terms = []
        for (i, j, k), c in zip(monomial_exponents(self.degree), self.coeffs):
            if c == 0:
                continue
            mono = "".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(VAR_NAMES, (i, j, k))
                if e > 0
            )
            if mono and c == 1:
                terms.append(mono)
            else:
                cs = repr(complex(c)) if c.imag else repr(float(c.real))
                terms.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(terms) if terms else "0"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch in addition")
        return HomogPoly3(self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch in subtraction")
        return HomogPoly3(self.degree, self.coeffs - other.coeffs)

    def __neg__(self):
        return HomogPoly3(self.degree, -self.coeffs)

    def scale(self, s):
        return HomogPoly3(self.degree, self.coeffs * s)

    def __mul__(self, other):
        if np.isscalar(other):
            return self.scale(other)
        d1, d2 = self.degree, other.degree
        e1 = monomial_exponents(d1)
        e2 = monomial_exponents(d2)
        # all pairwise exponent sums, accumulated into the dense result
        isum = e1[:, None, 0] + e2[None, :, 0]
        jsum = e1[:, None, 1] + e2[None, :, 1]
        d = d1 + d2
        pos = (d - isum) * (d - isum + 1) // 2 + (d - isum - jsum)
        prod = self.coeffs[:, None] * other.coeffs[None, :]
        out = np.zeros(n_monomials(d), dtype=complex)
        np.add.at(out, pos.ravel(), prod.ravel())
        return HomogPoly3(d, out)

    __rmul__ = __mul__

    def power(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = HomogPoly3.from_monomials(0, [(0, 0, 0, 1.0)])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def partial(self, var: int):
        """Partial derivative with respect to variable index 0|1|2."""
        if self.degree == 0:
            return HomogPoly3(0, [0.0])
        mask, pos, power = _partial_index(self.degree, var)
        out = np.zeros(n_monomials(self.degree - 1), dtype=complex)
        out[pos] += self.coeffs[mask] * power  # pos has no repeats
        return HomogPoly3(self.degree - 1, out)

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x):
        return complex(self.eval_batch(np.asarray(x, dtype=complex).reshape(1, 3))[0])

    def eval_batch(self, points) -> np.ndarray:
        """Evaluate at an (N, 3) array of complex triples."""
        pts = np.asarray(points, dtype=complex)
        if pts.ndim == 1:
            pts = pts.reshape(1, 3)
        if self.degree == 0:
            return np.full(pts.shape[0], self.coeffs[0])
        return monomial_table(pts, self.degree) @ self.coeffs

    # -- composition / restriction -------------------------------------------

    def compose(self, triple):
        """Substitute three equal-degree homogeneous polynomials for (z, w, t)."""
        a, b, c = triple
        if not (a.degree == b.degree == c.degree):
            raise ValueError("substituted polynomials must share a degree")
        if self.degree == 0:
            return HomogPoly3(0, [self.coeffs[0]])
        d = self.degree
        one = HomogPoly3.from_monomials(0, [(0, 0, 0, 1.0)])
        pow_a = [one]
        pow_b = [one]
        pow_c = [one]
        for _ in range(d):
            pow_a.append(pow_a[-1] * a)
            pow_b.append(pow_b[-1] * b)
            pow_c.append(pow_c[-1] * c)
        out = HomogPoly3(d * a.degree)
        for (i, j, k), coef in zip(monomial_exponents(d), self.coeffs):
            if coef == 0:
                continue
            term = pow_a[i] * pow_b[j] * pow_c[k]
            out = out + term.scale(coef)
        return out

    def dehomogenize(self, chart: int) -> np.ndarray:
        """Set the chart variable to 1; returns dense bivariate coeffs C[a, b].

        The two remaining variables keep their (z, w, t) order: chart 0 ->
        (w, t), chart 1 -> (z, t), chart 2 -> (z, w).
        """
        if chart not in (0, 1, 2):
            raise ValueError(f"chart must be 0, 1 or 2, not {chart!r}")
        d = self.degree
        out = np.zeros((d + 1, d + 1), dtype=complex)
        keep = [v for v in range(3) if v != chart]
        exps = monomial_exponents(d)
        np.add.at(out, (exps[:, keep[0]], exps[:, keep[1]]), self.coeffs)
        return out

    def restrict_line(self, b1, b2):
        """Restrict to the parametrized line s*b1 + u*b2; dense binary form.

        Returns a length degree+1 array r with r[m] the coefficient of
        s^(d-m) u^m.
        """
        d = self.degree
        # evaluate at s=1, u = (d+1)-th roots of unity and invert the DFT
        npts = d + 1
        theta = np.exp(2j * np.pi * np.arange(npts) / npts)
        pts = np.outer(np.ones(npts), np.asarray(b1, dtype=complex)) + np.outer(
            theta, np.asarray(b2, dtype=complex)
        )
        vals = self.eval_batch(pts)
        # samples sit at exp(+2 pi i p / npts): coefficients via fft/npts
        return np.fft.fft(vals) / npts


def homogenize_bivariate(C: np.ndarray, chart: int, degree: int) -> HomogPoly3:
    """Inverse of dehomogenize for coefficients supported in total degree <= degree."""
    keep = [v for v in range(3) if v != chart]
    entries = []
    n = C.shape[0]
    for a in range(n):
        for b in range(C.shape[1]):
            c = C[a, b]
            if c == 0:
                continue
            if a + b > degree:
                raise ValueError("bivariate degree exceeds target degree")
            e = [0, 0, 0]
            e[keep[0]] = a
            e[keep[1]] = b
            e[chart] = degree - a - b
            entries.append((e[0], e[1], e[2], c))
    return HomogPoly3.from_monomials(degree, entries)


def jacobian_det(components) -> HomogPoly3:
    """Determinant of the 3x3 matrix of partials of three equal-degree forms."""
    P, Q, R = components
    cols = [[P.partial(v), Q.partial(v), R.partial(v)] for v in range(3)]
    # expansion along the first row of the matrix M[r][v] = d comp_r / d x_v
    def minor(r1, r2, c1, c2):
        return cols[c1][r1] * cols[c2][r2] - cols[c1][r2] * cols[c2][r1]

    return (
        cols[0][0] * minor(1, 2, 1, 2)
        - cols[1][0] * minor(1, 2, 0, 2)
        + cols[2][0] * minor(1, 2, 0, 1)
    )


def sylvester_matrix(a, b):
    """Sylvester matrices of the polynomials with coefficient rows a and b.

    a[..., i] and b[..., i] are the coefficients of v^i, batched over equal
    leading axes, and the formal degrees are the row lengths minus one.  The
    matrix is singular exactly when the two share a root, or both lose their
    formal degree; for two binary forms read at u = 1, when they share a root
    on the projective line.
    """
    na = a.shape[-1] - 1
    nb = b.shape[-1] - 1
    size = na + nb
    M = np.zeros(a.shape[:-1] + (size, size), dtype=complex)
    for r in range(nb):
        M[..., r, r : r + na + 1] = a[..., ::-1]
    for r in range(na):
        M[..., nb + r, r : r + nb + 1] = b[..., ::-1]
    return M


# -- expression parsing --------------------------------------------------------


def parse_poly(text: str, degree: int | None = None) -> HomogPoly3:
    """Parse a homogeneous polynomial expression in z, w, t.

    Supports +, -, *, ^ (or **), parentheses, float and complex (1j)
    coefficients, and implicit products such as ``2zt`` or ``z w``.
    """
    tokens = _tokenize(text)
    terms, pos = _parse_expr(tokens, 0)
    if pos != len(tokens):
        raise ParseError(f"unexpected token {tokens[pos][1]!r} in {text!r}")
    if not terms:
        raise ParseError(f"empty polynomial expression {text!r}")
    degs = {sum(e) for e in terms}
    if len(degs) > 1:
        raise ParseError(f"expression {text!r} is not homogeneous (degrees {sorted(degs)})")
    d = degs.pop()
    if degree is not None and d != degree:
        raise ParseError(f"expression {text!r} has degree {d}, expected {degree}")
    return HomogPoly3.from_monomials(d, [(i, j, k, c) for (i, j, k), c in terms.items()])


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            if ch == "*" and i + 1 < len(text) and text[i + 1] == "*":
                tokens.append(("op", "^"))
                i += 2
            else:
                tokens.append(("op", ch))
                i += 1
        elif ch in "zwt":
            tokens.append(("var", ch))
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE" or (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            imag = j < len(text) and text[j] in "jJi"
            num = text[i:j]
            try:
                val = complex(0, float(num)) if imag else complex(float(num))
            except ValueError as exc:
                raise ParseError(f"bad number {num!r} in {text!r}") from exc
            tokens.append(("num", val))
            i = j + 1 if imag else j
        else:
            raise ParseError(f"unexpected character {ch!r} in {text!r}")
    return tokens


def _parse_expr(tokens, pos):
    sign = 1.0
    if pos < len(tokens) and tokens[pos] == ("op", "-"):
        sign, pos = -1.0, pos + 1
    elif pos < len(tokens) and tokens[pos] == ("op", "+"):
        pos += 1
    acc, pos = _parse_term(tokens, pos)
    acc = _dict_scale(acc, sign)
    while pos < len(tokens) and tokens[pos][0] == "op" and tokens[pos][1] in "+-":
        op = tokens[pos][1]
        term, pos = _parse_term(tokens, pos + 1)
        acc = _dict_add(acc, _dict_scale(term, -1.0 if op == "-" else 1.0))
    return acc, pos


def _parse_term(tokens, pos):
    acc, pos = _parse_factor(tokens, pos)
    while pos < len(tokens):
        tok = tokens[pos]
        if tok == ("op", "*"):
            nxt, pos = _parse_factor(tokens, pos + 1)
        elif tok[0] in ("num", "var") or tok == ("op", "("):
            nxt, pos = _parse_factor(tokens, pos)
        else:
            break
        acc = _dict_mul(acc, nxt)
    return acc, pos


def _parse_factor(tokens, pos):
    base, pos = _parse_base(tokens, pos)
    if pos < len(tokens) and tokens[pos] == ("op", "^"):
        pos += 1
        if pos >= len(tokens) or tokens[pos][0] != "num":
            raise ParseError("exponent must be a number")
        exp = tokens[pos][1]
        if exp.imag or exp.real != int(exp.real) or exp.real < 0:
            raise ParseError(f"exponent must be a non-negative integer, got {exp}")
        pos += 1
        out = {(0, 0, 0): 1.0}
        for _ in range(int(exp.real)):
            out = _dict_mul(out, base)
        return out, pos
    return base, pos


def _parse_base(tokens, pos):
    if pos >= len(tokens):
        raise ParseError("unexpected end of expression")
    kind, val = tokens[pos]
    if kind == "num":
        return {(0, 0, 0): val}, pos + 1
    if kind == "var":
        e = [0, 0, 0]
        e[VAR_NAMES.index(val)] = 1
        return {tuple(e): 1.0}, pos + 1
    if (kind, val) == ("op", "("):
        inner, pos = _parse_expr(tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos] != ("op", ")"):
            raise ParseError("unbalanced parentheses")
        return inner, pos + 1
    if (kind, val) == ("op", "-"):
        inner, pos = _parse_factor(tokens, pos + 1)
        return _dict_scale(inner, -1.0), pos
    raise ParseError(f"unexpected token {val!r}")


def _dict_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + v
        if out[k] == 0:
            del out[k]
    return out


def _dict_scale(a, s):
    return {k: v * s for k, v in a.items()}


def _dict_mul(a, b):
    out = {}
    for (i1, j1, k1), v1 in a.items():
        for (i2, j2, k2), v2 in b.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0.0) + v1 * v2
    return {k: v for k, v in out.items() if v != 0}
