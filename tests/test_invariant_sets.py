import sys

import numpy as np
import pytest

import greenp2.invariant_sets
import greenp2.maps
import greenp2.multiplicities
import greenp2.roots
from conftest import cold, conjugate, conjugated_row, make_map, random_valid_map, structure_maps
from greenp2 import CONFIGURATION_IDS, ProjMap, ProjPoint, configuration_map, lattes_map, parse_poly
from greenp2.invariant_sets import (
    _canonical_coeffs,
    _cross,
    _line_basis,
    _line_restriction,
    classify,
    detect_linear_critical_components,
    exceptional_sets,
    invariant_lines,
    invariant_orbits,
    invariant_points,
    transition_matrix,
)
from greenp2.multiplicities import jacobian_multiplicity, local_degree_step
from invariance_reference import fibre_totally_invariant, sampled_transition_matrix, slope_vanishing_order


def test_cross_matches_numpy():
    """The line through two points is np.cross's, bit for bit, zeros and signs included."""
    rng = np.random.default_rng(63)
    for _ in range(2000):
        a, b = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) * 10.0 ** rng.uniform(-6, 6, (2, 1))
        a[rng.integers(3)] = 0.0
        b[rng.integers(3)] = -b[rng.integers(3)].real
        assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()


def line_names(lines):
    return sorted(L.form.to_string() for L in lines)


def line_points(line, count, seed):
    """Seeded random points of an invariant line, spanned by its ``_line_basis``."""
    rng = np.random.default_rng(seed)
    b1, b2 = _line_basis(line.form.coeffs)
    pars = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    return [ProjPoint(s * b1 + u * b2) for s, u in pars]


def row_map(row, d, seed=1000):
    """The configuration map of a row."""
    return configuration_map(row, d, seed)


def unitary_conjugate(f, seed):
    """f conjugated by the unitary factor of a seeded complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    A = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    return conjugate(f, A), A


def rotations(f, count, seed):
    """f conjugated by ``count`` seeded diagonal unitary matrices diag(e^ia, e^ib, 1)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        phases = np.append(np.exp(2j * np.pi * rng.uniform(size=2)), 1.0)
        yield conjugate(f, np.diag(phases))


def normal_form_factor_count(row, d):
    """Distinct linear factors of the Jacobian in each row's normal form.

    At d = 2 the degree d - 1 factors Q_w, d w + t Q_w, P_z and 2 z + ... are
    lines too.
    """
    return {
        "1-0": 1,  # t^(d-1) (P_z Q_w - P_w Q_z)
        "0-1": 2 * (d - 1) + (d == 2),  # Q_w (P_z R_t - P_t R_z)
        "1-1-incident": 1,
        "1-1-free": 2 * (d - 1) + 1,  # t^(d-1) (P_z Q_w - P_w Q_z) in (z, w)
        "1-2": d + (d == 2),  # t^(d-1) P_z (d w^(d-1) + t Q_w)
        "2-1": 2 + (d == 2),  # (w t)^(d-1) P_z
        "2-2": 2 + (d == 2),
        "2-3": 2 + (d == 2),
        "3-3": 3,
    }[row]


class TestInvariantLines:
    def test_power_map_three_lines(self, power_map):
        lines = invariant_lines(power_map)
        assert line_names(lines) == ["t", "w", "z"]
        for L in lines:
            assert L.lam == pytest.approx(1.0)
            assert L.residual <= 1e-7

    def test_worked_map_single_line(self, worked_map):
        lines = invariant_lines(worked_map)
        assert line_names(lines) == ["t"]
        assert lines[0].lam == pytest.approx(1.0)

    def test_lattes_no_lines(self, lattes):
        assert invariant_lines(lattes) == []

    def test_generic_map_no_lines(self):
        rng = np.random.default_rng(2)
        f = random_valid_map(rng)
        assert invariant_lines(f) == []

    def test_total_invariance_of_fibers(self, worked_map):
        """All four preimages of a point on the line stay on the line."""
        line = invariant_lines(worked_map)[0]
        for p in line_points(line, 20, seed=5):
            fib = worked_map.preimages(p)
            assert fib.complete
            for x, _ in fib.preimages:
                assert abs(np.dot(line.form.coeffs, x.coords)) < 1e-6

    def test_jacobian_order_along_lines(self, power_map):
        """Generic points of a totally invariant line carry order d - 1."""
        for line in invariant_lines(power_map):
            for p in line_points(line, 5, seed=3):
                assert jacobian_multiplicity(power_map, p, 1) == 1


class TestLinearFactors:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_count_matches_normal_form_under_rotation(self, d):
        wrong = []
        for row in CONFIGURATION_IDS:
            f = row_map(row, d)
            counts = [len(detect_linear_critical_components(g)) for g in (f, *rotations(f, 4, d))]
            if counts != [normal_form_factor_count(row, d)] * 5:
                wrong.append((row, counts))
        assert wrong == []

    def test_power_map_d4_has_three_factors(self):
        f = make_map("z^4", "w^4", "t^4")
        assert [c.to_string() for c in detect_linear_critical_components(f)] == ["t", "w", "z"]

    @pytest.mark.parametrize("d", [4, 5])
    def test_coordinate_lines_are_exact(self, d):
        expected = {"1-0": "t", "1-1-incident": "t", "1-1-free": "t", "1-2": "t",
                    "2-1": "tw", "2-2": "tw", "2-3": "tw", "3-3": "twz", "0-1": ""}
        for row in CONFIGURATION_IDS:
            lines = invariant_lines(row_map(row, d))
            assert "".join(line_names(lines)) == expected[row], row
            for L in lines:
                assert np.array_equal(L.form.coeffs, np.eye(3)["zwt".index(L.form.to_string())]), row
                assert L.residual == 0.0

    @pytest.mark.parametrize("row, d", [("3-3", 2), ("2-2", 3)])
    def test_lines_follow_a_linear_conjugacy(self, row, d):
        f = configuration_map(row, d, 1000)
        g, A = unitary_conjugate(f, 31)
        lines = invariant_lines(g)
        moved = [_canonical_coeffs(L.form.coeffs @ A) for L in invariant_lines(f)]
        assert len(lines) == len(moved) > 0
        for L in lines:
            assert min(np.linalg.norm(L.form.coeffs - m) for m in moved) <= 1e-10


class TestLineRestriction:
    def test_worked_map_swap(self, worked_map):
        """[2zt+w^2 : z^2 : t^2] restricted to {t = 0}, spanned by [1:0:0] and
        [0:1:0], is [s:u] -> [u^2:s^2]: it swaps the corners."""
        line = invariant_lines(worked_map)[0]
        num, den, basis = _line_restriction(worked_map, line.form.coeffs, line.form.coeffs)
        assert np.allclose(np.abs(basis), [[1, 0, 0], [0, 1, 0]])
        scale = abs(den[0])
        assert scale > 0.5
        assert np.allclose(np.abs([num[0], num[1], den[1], den[2]]), 0.0, atol=1e-9 * scale)
        assert abs(abs(num[2]) - scale) < 1e-9 * scale

    def test_line_onto_another(self):
        """(w^2 : z^2 : t^2) maps {z = 0}, spanned by [0:1:0] and [0:0:1], onto
        {w = 0}, spanned by [1:0:0] and [0:0:1], as [1:u] -> [1:u^2]."""
        f = make_map("w^2", "z^2", "t^2")
        num, den, _ = _line_restriction(f, np.eye(3)[0], np.eye(3)[1])
        assert np.allclose(num, [1, 0, 0], atol=1e-12)
        assert np.allclose(den, [0, 0, 1], atol=1e-12)


class TestInvariantPoints:
    def test_power_map_corners(self, power_map):
        pts = invariant_points(power_map)
        assert len(pts) == 3
        corners = [ProjPoint(v) for v in np.eye(3)]
        for c in corners:
            assert any(p.dist(c) < 1e-4 for p in pts)

    def test_worked_map_point_and_swap_orbit(self, worked_map):
        pts = invariant_points(worked_map)
        assert len(pts) == 3
        assert any(p.dist(ProjPoint([0, 0, 1])) < 1e-4 for p in pts)
        assert any(p.dist(ProjPoint([1, 0, 0])) < 1e-4 for p in pts)
        assert any(p.dist(ProjPoint([0, 1, 0])) < 1e-4 for p in pts)

    def test_lattes_empty(self, lattes):
        assert invariant_points(lattes) == []

    def test_generic_map_empty(self):
        rng = np.random.default_rng(12)
        assert invariant_points(random_valid_map(rng)) == []

    @pytest.mark.parametrize("d", [4, 5])
    def test_rows_beyond_d3(self, d):
        """Each row's totally invariant points are its exceptional points, d^2-fold
        points of their fibres, and the row classifies as itself."""
        for row in CONFIGURATION_IDS:
            f = row_map(row, d)
            assert len(invariant_points(f)) == int(row.split("-")[1]), row
            assert classify(exceptional_sets(f)).row_id == row

    def test_conjugated_rows_d5(self):
        """A unitary change of coordinates moves the structure off the coordinate lines."""
        for row in CONFIGURATION_IDS:
            g, _ = unitary_conjugate(row_map(row, 5), 31)
            assert classify(exceptional_sets(g)).row_id == row

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_cyclic_map_three_cycle(self, d):
        """(w^d : t^d : z^d) cycles the vertices and maps z = 0 onto t = 0, t = 0
        onto w = 0 and w = 0 onto z = 0.  No line is invariant; the vertices are
        the Wronskian points of that 3-cycle of lines.  They are in no
        exceptional set."""
        f = make_map(f"w^{d}", f"t^{d}", f"z^{d}")
        assert invariant_lines(f) == []
        pts = invariant_points(f)
        assert len(pts) == 3
        for c in np.eye(3):
            assert any(p.dist(ProjPoint(c)) < 1e-8 for p in pts)
        assert exceptional_sets(f).e2_points == []

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_swap_map(self, d):
        """(w^d : z^d : t^d) fixes [0:0:1] and swaps [1:0:0] and [0:1:0] on the
        invariant line t = 0."""
        f = make_map(f"w^{d}", f"z^{d}", f"t^{d}")
        pts = invariant_points(f)
        assert len(pts) == 3
        for c in np.eye(3):
            assert any(p.dist(ProjPoint(c)) < 1e-8 for p in pts)
        sets = exceptional_sets(f)
        assert [kind for _, kind in sets.e2_points] == ["homogeneous", "on_E1", "on_E1"]
        assert [p.dist(ProjPoint(c)) < 1e-8 for (p, _), c in zip(sets.e2_points, np.eye(3)[::-1])] == [True] * 3


    @pytest.mark.parametrize("row, d", [("0-1", 2), ("1-0", 2), ("1-2", 3)])
    def test_only_critical_candidates_take_a_degree_step(self, monkeypatch, row, d):
        """A candidate where J does not vanish has local degree 1 and takes no
        Hilbert-Samuel count: local_degree_step decides it by one evaluation of J.
        With that test off, its tangent cone decides it instead, and the count
        runs at the same candidates and finds the same orbits, bit for bit."""
        f = row_map(row, d)
        J = f.lift_jacobian
        calls = TestPerMapMemo.counters(monkeypatch)
        counted, count = [], greenp2.multiplicities.local_multiplicity

        def counted_count(g1, g2):
            counted.append(calls["steps"][-1].coords.tobytes())
            return count(g1, g2)

        monkeypatch.setattr(greenp2.multiplicities, "local_multiplicity", counted_count)
        orbits = invariant_orbits(cold(f))
        regular = [q for q in calls["steps"] if abs(J(q.coords)) > 1e-6 * J.coeff_norm]
        assert regular and len(regular) < len(calls["steps"])
        assert not {q.coords.tobytes() for q in regular} & set(counted)
        assert all(local_degree_step(f, q) == 1 for q in regular)
        first = counted[:]
        monkeypatch.setattr(greenp2.multiplicities, "_CRITICAL_TOL", np.inf)
        counted.clear()
        every = invariant_orbits(cold(f))
        assert counted == first
        assert all(local_degree_step(f, q) == 1 for q in regular)
        assert [[p.coords.tobytes() for p in o] for o in every] == [[p.coords.tobytes() for p in o] for o in orbits]


class TestIterateSolves:
    """invariant_points on the structure maps gives the counts it gave when it
    solved the fixed points of the iterate lifts."""

    POINTS = {"1-0": 0, "0-1": 1, "1-1-incident": 1, "1-1-free": 1, "1-2": 2, "2-1": 1, "2-2": 2, "2-3": 3, "3-3": 3}

    def test_invariant_points_unchanged(self):
        for row, f in structure_maps():
            pts = invariant_points(f)
            assert len(pts) == self.POINTS[row], (row, f.degree)
            for p in pts:
                assert min(f.apply(p).dist(q) for q in pts) < 1e-10


class TestTransitionMatrix:
    def test_power_map_diagonal(self, power_map):
        tm = transition_matrix(power_map)
        assert len(tm.components) == 3
        assert np.array_equal(tm.matrix, 2 * np.eye(3, dtype=int))
        assert tm.rho == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(tm.perron, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("d", [4, 5])
    def test_rows_beyond_d3(self, d):
        """rho = d where a totally invariant line exists, with d on its diagonal entry."""
        for row in CONFIGURATION_IDS:
            f = row_map(row, d)
            tm = transition_matrix(f)
            assert tm.rho == pytest.approx(0.0 if row == "0-1" else d, abs=1e-9), row
            names = [c.to_string() for c in tm.components]
            for L in invariant_lines(f):
                i = names.index(L.form.to_string())
                assert tm.matrix[i, i] == d, row

    def test_rho_matches_eigenvalue_oracle(self, power_map, worked_map, lattes):
        for f in (power_map, worked_map, lattes):
            tm = transition_matrix(f)
            if tm.matrix.size == 0:
                continue
            oracle = max(abs(np.linalg.eigvals(tm.matrix.astype(float))), default=0.0)
            assert tm.rho == pytest.approx(oracle, abs=1e-9)
            assert tm.rho <= f.degree + 1e-9

    def test_rho_maximal_iff_invariant_union(self, power_map, worked_map, lattes):
        """rho reaches the degree exactly when a totally invariant union exists."""
        for f, has_lines in ((power_map, True), (worked_map, True), (lattes, False)):
            tm = transition_matrix(f)
            if has_lines:
                assert abs(tm.rho - f.degree) <= 1e-9
            else:
                assert tm.rho < f.degree - 0.5

    @pytest.mark.parametrize("d", [2, 3])
    def test_lattes_nilpotent_matrix_exact(self, d):
        """t is nilpotent here: rho is 0 and the vector spans the kernel of t^T exactly."""
        from greenp2 import lattes_map

        tm = transition_matrix(lattes_map(d))
        assert tm.rho == 0.0
        assert not (tm.matrix.T @ tm.perron).any()
        assert tm.perron.max() == 1.0

    def test_perron_vector_identity(self, worked_map):
        tm = transition_matrix(worked_map)
        # t^T a = rho a for the reported vector
        lhs = tm.matrix.T.astype(float) @ tm.perron
        assert np.allclose(lhs, tm.rho * tm.perron, atol=1e-6)


class TestExceptionalSets:
    @pytest.mark.parametrize(
        "row, d", [("3-3", 2)] + [(row, d) for d in (4, 5) for row in CONFIGURATION_IDS if row != "0-1"]
    )
    def test_line_order_checks(self, row, d):
        """Each invariant line is a (d - 1)-fold factor of the Jacobian.  The 3-3 row at
        d = 2 is the power map z^2:w^2:t^2; the 0-1 row has no line."""
        sets = exceptional_sets(row_map(row, d))
        assert sets.line_order_checks and all(sets.line_order_checks)

    def test_power_map_full_structure(self, power_map):
        sets = exceptional_sets(power_map)
        assert len(sets.e1_lines) == 3
        assert len(sets.e2_points) == 3
        assert all(kind == "on_E1" for _, kind in sets.e2_points)

    def test_worked_map_excludes_invariant_point(self, worked_map):
        """The totally invariant point with slow contraction stays out."""
        sets = exceptional_sets(worked_map)
        assert line_names(sets.e1_lines) == ["t"]
        pts = [p for p, _ in sets.e2_points]
        assert len(pts) == 2
        assert all(
            any(p.dist(ProjPoint(c)) < 1e-4 for p in pts) for c in ([1, 0, 0], [0, 1, 0])
        )
        corner = ProjPoint([0, 0, 1])
        assert all(p.dist(corner) > 1e-3 for p in pts)

    def test_lattes_empty(self, lattes):
        sets = exceptional_sets(lattes)
        assert sets.e1_lines == [] and sets.e2_points == []

    def test_contraction_series_growth(self, power_map):
        """Contraction orders at an exceptional point grow like alpha * d^n."""
        from greenp2.multiplicities import contraction_order

        p = ProjPoint([0, 0, 1])
        series = [contraction_order(power_map, p, n) for n in range(1, 6)]
        alphas = [series[n] / 2.0 ** (n + 1) for n in range(5)]
        assert min(alphas) >= 0.5


class TestClassify:
    def test_power_map_row(self, power_map):
        row = classify(exceptional_sets(power_map))
        assert row.row_id == "3-3"
        assert row.label == "[z^d:w^d:t^d]"
        assert sorted(len(ix) for ix in row.incidence) == [2, 2, 2]

    def test_no_structure_row(self, lattes):
        row = classify(exceptional_sets(lattes))
        assert row.row_id == "0-0"
        assert "no exceptional structure" in row.label

    def test_one_line_two_points(self):
        from greenp2 import configuration_map

        f = configuration_map("1-2", 2, rng_seed=3)
        row = classify(exceptional_sets(f))
        assert row.row_id == "1-2"
        assert row.label == "[P(z,t):w^d+tQ:t^d]"
        assert sorted(len(ix) for ix in row.incidence) == [1, 1]

    @pytest.mark.parametrize("row, d, s", [
        ("0-1", 4, 2), ("0-1", 4, 4), ("0-1", 5, 0), ("0-1", 5, 2), ("0-1", 5, 3), ("0-1", 5, 4), ("1-1-free", 5, 0),
    ])
    def test_gaussian_conjugate_keeps_its_row(self, row, d, s):
        """The row moved by A = N + iN' from default_rng(100 + s).  Its homogeneous
        point has contraction order d, read from the tangent cone of f there:
        the orbit series read 3 from rounding noise, which classified these as
        0-0, and the 1-1-free one as 1-0."""
        g, _ = conjugated_row(row, d, s)
        assert classify(exceptional_sets(g)).row_id == row


class TestExactIntegers:
    """The exact decisions need no fibre solve, and agree with the heuristics they
    replaced (``invariance_reference``) where those resolve them."""

    def test_no_fibre_solves(self, monkeypatch, power_map, worked_map):
        """The points come from f itself.  Cold copies of the shared fixture maps,
        whose memo earlier tests may have filled."""
        calls = []
        preimages = ProjMap.preimages

        def counted_preimages(self, *args, **kwargs):
            calls.append("preimages")
            return preimages(self, *args, **kwargs)

        monkeypatch.setattr(ProjMap, "preimages", counted_preimages)
        for f in (cold(power_map), cold(worked_map), row_map("1-2", 2), row_map("2-3", 3)):
            exceptional_sets(f)
            invariant_points(f)
            transition_matrix(f)
        assert calls == []

    @pytest.mark.parametrize("row", CONFIGURATION_IDS)
    def test_total_invariance_matches_fibre_count(self, row):
        f = row_map(row, 2)
        orbits = [[p] for p, _ in f.fixed_points()] + invariant_orbits(f)
        for orbit in orbits:
            exact = all(local_degree_step(f, p) == f.degree**2 for p in orbit)
            assert exact == fibre_totally_invariant(f, orbit)

    @pytest.mark.parametrize("row", CONFIGURATION_IDS)
    def test_arc_orders_match_slope_fit(self, row):
        f = row_map(row, 2)
        assert np.array_equal(sampled_transition_matrix(f), sampled_transition_matrix(f, order=slope_vanishing_order))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_exact_matrix_matches_sampled(self, d):
        """The exact line valuations equal the sampled arc orders on the rows, on
        Lattes maps at d = 2, 3 and on unitary conjugates of the rows at d = 3, 5."""
        maps = [row_map(row, d) for row in CONFIGURATION_IDS]
        if d in (3, 5):
            maps += [unitary_conjugate(f, 31)[0] for f in maps]
        if d in (2, 3):
            maps.append(lattes_map(d))
        for f in maps:
            assert np.array_equal(transition_matrix(f).matrix, sampled_transition_matrix(f))


class TestPerMapMemo:
    """Structure that depends on f alone is computed once per map instance."""

    @staticmethod
    def counters(monkeypatch):
        """Fixed-point solves, root batches of _linear_factors and the points of
        local degree steps, recorded as the library makes them."""
        calls = {"solves": 0, "factor_roots": 0, "steps": []}
        solve = greenp2.maps.solve_projective
        roots = greenp2.invariant_sets.roots_batch
        step = greenp2.invariant_sets.local_degree_step

        def counted_solve(*args):
            calls["solves"] += 1
            return solve(*args)

        def counted_roots(rows):
            calls["factor_roots"] += sys._getframe(1).f_code.co_name == "_linear_factors"
            return roots(rows)

        def counted_step(f, q):
            calls["steps"].append(q)
            return step(f, q)

        monkeypatch.setattr(greenp2.maps, "solve_projective", counted_solve)
        monkeypatch.setattr(greenp2.invariant_sets, "roots_batch", counted_roots)
        monkeypatch.setattr(greenp2.invariant_sets, "local_degree_step", counted_step)
        return calls

    @pytest.mark.parametrize("row, d", [("worked", 2), ("2-3", 2), ("1-2", 3)])
    def test_invariants_sequence_runs_each_solve_once(self, monkeypatch, worked_map, row, d):
        """The CLI ``invariants`` calls: one fixed-point solve, one factor search and
        one local degree step per candidate; a cold copy computes them again."""
        f = cold(worked_map) if row == "worked" else row_map(row, d)
        calls = self.counters(monkeypatch)
        detect_linear_critical_components(cold(f))
        per_search = calls["factor_roots"]
        invariant_orbits(cold(f))
        per_orbits = len(calls["steps"])
        calls.update(solves=0, factor_roots=0, steps=[])

        for g in (f, f, cold(f)):
            exceptional_sets(g)
            transition_matrix(g)
            invariant_points(g)
            if g is f:
                assert calls["solves"] == 1
                assert calls["factor_roots"] == per_search > 0
                assert len(calls["steps"]) == per_orbits > 0
                assert len({id(q) for q in calls["steps"]}) == per_orbits
        assert calls["solves"] == 2
        assert calls["factor_roots"] == 2 * per_search
        assert len(calls["steps"]) == 2 * per_orbits

    @pytest.mark.parametrize("row, d", [("worked", 2), ("2-3", 3), ("1-1-free", 5)])
    def test_transition_matrix_reuses_the_memo(self, monkeypatch, worked_map, row, d):
        """Once exceptional_sets has run, the matrix needs no root finding and one
        lift of F per component."""
        f = cold(worked_map) if row == "worked" else row_map(row, d)
        exceptional_sets(f)
        calls = {"roots": 0, "lifts": 0}
        roots, lift = greenp2.invariant_sets.roots_batch, ProjMap.lift

        def counted_roots(rows):
            calls["roots"] += 1
            return roots(rows)

        def counted_lift(self, points):
            calls["lifts"] += 1
            return lift(self, points)

        monkeypatch.setattr(greenp2.invariant_sets, "roots_batch", counted_roots)
        monkeypatch.setattr(greenp2.roots, "roots_batch", counted_roots)
        monkeypatch.setattr(ProjMap, "lift", counted_lift)
        comps = transition_matrix(f).components
        assert len(comps) >= 2
        assert calls == {"roots": 0, "lifts": len(comps)}

    def test_returned_lists_are_fresh(self, worked_map):
        """Changing a returned list leaves the memo, and so later results, as they were."""
        f = cold(worked_map)

        def snapshot():
            return (
                [[p.coords.tobytes() for p in orbit] for orbit in invariant_orbits(f)],
                [c.coeffs.tobytes() for c in detect_linear_critical_components(f)],
                [(p.coords.tobytes(), m) for p, m in f.fixed_points()],
            )

        first = snapshot()
        assert all(first)
        invariant_orbits(f)[0].append(ProjPoint([1, 2, 3]))
        detect_linear_critical_components(f).clear()
        f.fixed_points().pop()
        assert snapshot() == first

    def test_memoised_arrays_are_read_only(self, worked_map):
        """The points, forms and germs handed out are the memo's own, so their arrays
        refuse changes in place, and later results stay as they were, bit for bit."""
        f = cold(worked_map)

        def arrays():
            return (
                [p.coords for orbit in invariant_orbits(f) for p in orbit]
                + [p.coords for p, _ in f.fixed_points()]
                + [p.coords for p, _ in exceptional_sets(f).e2_points]
                + [L.form.coeffs for L in exceptional_sets(f).e1_lines]
                + [c.coeffs for c in detect_linear_critical_components(f)]
                + [c.coeffs for c in transition_matrix(f).components]
                + [f.lift_jacobian.coeffs]
                + germs()
            )

        def germs():
            """The germs kept at the totally invariant points, which are critical."""
            points = [p for p, _ in exceptional_sets(f).e2_points]
            return [g.coeffs for p in points for g in greenp2.multiplicities._Orbit(f, p, 1)._read(0)[0]]

        first = [a.tobytes() for a in arrays()]
        assert len(first) > 8 and len(germs()) >= 2
        assert all(a is b for a, b in zip(germs(), germs()))
        for a in arrays():
            with pytest.raises(ValueError, match="read-only"):
                a *= 2
        assert [a.tobytes() for a in arrays()] == first
