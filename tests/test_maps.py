import numpy as np
import pytest

from conftest import (
    cold,
    conjugate,
    conjugated_row,
    make_map,
    random_valid_map,
    structure_maps,
    two_form_zeros,
    with_own_sigma,
)
from greenp2 import CONFIGURATION_IDS, ProjMap, ProjPoint, configuration_map, lattes_map, maps, parse_poly, systems
from greenp2.errors import ChartUndefined, DegenerateMap, DegreeMismatch, GreenP2Error
from greenp2.multiplicities import local_degree_step, orbit_report


def power_components(d):
    return [parse_poly(f"{v}^{d}") for v in "zwt"]


def backward_error(f, x, q):
    """|q ^ F(x)| for unit x and q, over the largest coefficient norm of F."""
    image = f.lift(x.coords)
    return q.dist(ProjPoint(image)) * np.linalg.norm(image) / max(np.linalg.norm(c.coeffs) for c in f.components)


class TestProjPoint:
    def test_normalization_and_phase(self):
        p = ProjPoint([2j, 0, 0])
        assert p.coords[0] == pytest.approx(1.0)

    def test_chart_coords(self):
        p = ProjPoint([2, 1, 1])
        u, v = p.chart_coords(0)
        assert u == pytest.approx(0.5) and v == pytest.approx(0.5)

    def test_chart_undefined(self):
        with pytest.raises(ChartUndefined):
            ProjPoint([1, 1, 0]).chart_coords(2)

    def test_dist_phase_invariant(self):
        a = ProjPoint([1, 2, 3])
        b = ProjPoint(np.array([1, 2, 3]) * np.exp(0.7j))
        assert a.dist(b) < 1e-12


class TestValidate:
    def test_power_map(self, power_map):
        assert power_map.degree == 2
        assert power_map.nondegeneracy_residual > 0.5

    @pytest.mark.parametrize("exprs", [("z^2", "w^2", "z*w"), ("z*w", "z*t", "z^2")], ids=["point", "curve"])
    def test_degenerate_triple(self, exprs):
        """A point zero of z^2 : w^2 : zw, and a shared curve {z = 0}: both
        raise DegenerateMap with a common zero as witness."""
        comps = [parse_poly(e) for e in exprs]
        with pytest.raises(DegenerateMap) as info:
            ProjMap.validate(comps)
        p = info.value.point
        assert p is not None
        assert max(abs(c(p.coords)) for c in comps) < 1e-8

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_power_map_and_unitary_conjugates(self, d):
        f = ProjMap.validate(power_components(d))
        assert f.nondegeneracy_residual == pytest.approx(1.0)
        rng = np.random.default_rng(100 + d)
        for _ in range(6):
            A = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
            assert ProjMap.validate(conjugate(f, A).components).nondegeneracy_residual > 1e-3

    @pytest.mark.parametrize("d", [4, 5])
    @pytest.mark.parametrize("row", CONFIGURATION_IDS)
    def test_rows_beyond_d3(self, row, d):
        assert configuration_map(row, d, 1000).nondegeneracy_residual > 1e-6

    @pytest.mark.parametrize("d", [4, 5])
    def test_gaussian_conjugates_typed(self, d):
        """Badly conditioned conjugates may be refused, but only with a typed
        error, and DegenerateMap always names its common zero."""
        f = ProjMap.validate(power_components(d))
        rng = np.random.default_rng(200 + d)
        for _ in range(40):
            A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            try:
                ProjMap.validate(conjugate(f, A).components)
            except DegenerateMap as exc:
                assert exc.point is not None
            except GreenP2Error:
                pass

    def test_no_solver_calls(self, monkeypatch):
        calls = []
        solve = systems.solve_projective

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        for module in (systems, maps):
            monkeypatch.setattr(module, "solve_projective", counted)
        ProjMap.validate(power_components(3))
        configuration_map("1-1-incident", 4, 1000)
        with pytest.raises(DegenerateMap):
            make_map("z^2", "w^2", "z*w")
        assert calls == []

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            ProjMap.validate([parse_poly("z^2"), parse_poly("w^2"), parse_poly("t")])

    def test_corner_pinch_is_fine(self, worked_map):
        """z = t = 0 forces w = 0, so the triple has no nontrivial common zero."""
        assert worked_map.degree == 2
        assert worked_map.nondegeneracy_residual > 0.1


class TestLognormSup:
    """lognorm_sup bounds |log ||F|| | on the unit sphere, from the Macaulay sigma."""

    @staticmethod
    def witness(f):
        return np.max(np.abs(maps._unit_rows(f.lift(two_form_zeros(f)))[0]))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("row", CONFIGURATION_IDS)
    def test_bounds_the_two_form_zeros(self, row, d):
        """A sup over 10^4 seeded points, padded by 1.5, fell below these values
        on 6 of the 36 maps: 11.63 against 4.29 on 1-0 at d = 4."""
        f = configuration_map(row, d, 1000)
        assert self.witness(f) <= f.lognorm_sup()

    def test_conjugate_takes_its_own_sigma(self):
        """conftest.conjugate gives the moved map the sigma validate computes for
        its components; the sigma of the unmoved map, 150 times larger here, gave
        a bound of 5.47 below the witness 5.54."""
        f = configuration_map("1-0", 3, 1000)
        g, _ = conjugated_row("1-0", 3, 0)
        assert g.nondegeneracy_residual == ProjMap.validate(g.components).nondegeneracy_residual
        assert g.nondegeneracy_residual < 0.01 * f.nondegeneracy_residual
        assert self.witness(g) <= g.lognorm_sup()


class TestApply:
    def test_power_map_value(self, power_map):
        img = power_map.apply(ProjPoint([2, 1, 1]))
        assert img.dist(ProjPoint([4, 1, 1])) < 1e-12

    def test_fixed_diagonal(self, power_map):
        x = ProjPoint([1, 1, 1])
        assert power_map.apply(x).dist(x) < 1e-12

    def test_worked_map_at_corner(self, worked_map):
        img = worked_map.apply(ProjPoint([0, 1, 0]))
        assert img.dist(ProjPoint([1, 0, 0])) < 1e-12

    def test_scale_phase_invariance(self, worked_map):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = worked_map.apply(ProjPoint(x))
        b = worked_map.apply(ProjPoint(x * (0.2 - 1.7j)))
        assert a.dist(b) < 1e-10


class TestLiftTable:
    """lift builds one monomial table and takes one product per component."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 7, 20000])
    def test_lift_equals_per_component_eval(self, d, n):
        from greenp2.potentials import _chart_lift
        from greenp2.sampling import fs_points

        f = random_valid_map(np.random.default_rng(40 + d), d)
        X = fs_points(n, 41)
        # chart lifts carry exact 1 and 0 coordinates
        chart_rows = _chart_lift(np.array([[0.3 - 0.2j, 0.0], [0.0, 0.0], [1.0, -0.5j]]), 1)
        k = min(n, 3)
        X[:k] = chart_rows[:k]
        expected = np.stack([p.eval_batch(X) for p in f.components], axis=1)
        assert np.array_equal(f.lift(X), expected)
        single = np.array([p.eval_batch(X[0])[0] for p in f.components])
        assert np.array_equal(f.lift(X[0]), single)


class TestFixedPoints:
    def test_power_map_seven(self, power_map):
        fp = power_map.fixed_points()
        assert len(fp) == 7
        assert sum(m for _, m in fp) == 7
        for p, _ in fp:
            assert power_map.apply(p).dist(p) < 1e-6

    def test_power_map_d3_thirteen(self, power_map_d3):
        fp = power_map_d3.fixed_points()
        assert len(fp) == 13 and sum(m for _, m in fp) == 13

    def test_deterministic(self, power_map):
        """Two solves on cold copies: a second call on one map reads its memo."""
        a = cold(power_map).fixed_points()
        b = cold(power_map).fixed_points()
        assert all(p.dist(q) == 0 and m == k for (p, m), (q, k) in zip(a, b))

    def test_defect_map_d4(self):
        """configuration_map('0-1', 4, 2003) has 21 simple fixed points."""
        f = configuration_map("0-1", 4, 2003)
        fp = f.fixed_points()
        assert [m for _, m in fp] == [1] * 21
        for p, _ in fp:
            assert backward_error(f, p, p) <= 1e-12

    def test_random_maps_fixed_points_verify(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            f = random_valid_map(rng)
            fp = f.fixed_points()
            assert sum(m for _, m in fp) == 7
            for p, _ in fp:
                assert f.apply(p).dist(p) < 1e-6

    def test_every_iterate_solve_completes(self):
        """The iterate lifts of degree e <= 10 of the structure maps have
        e^2 + e + 1 simple fixed points each: 45 solves."""
        solves = 0
        for _, f in structure_maps():
            for k in range(1, 4):
                e = f.degree**k
                if e > 10:
                    break
                g = with_own_sigma(f.iterate_lift(k))
                fixed = g.fixed_points()
                assert [m for _, m in fixed] == [1] * (e * e + e + 1)
                assert max(g.apply(p).dist(p) for p, _ in fixed) < 1e-8
                solves += 1
        assert solves == 45


class TestPreimages:
    def test_power_map_square_roots(self, power_map):
        fib = power_map.preimages(ProjPoint([1, 1, 1]))
        assert fib.total_multiplicity == 4 and len(fib.preimages) == 4
        for x, _ in fib.preimages:
            assert power_map.apply(x).dist(ProjPoint([1, 1, 1])) < 1e-8

    def test_totally_invariant_corner(self, power_map):
        fib = power_map.preimages(ProjPoint([0, 0, 1]))
        assert len(fib.preimages) == 1
        assert fib.preimages[0][1] == 4
        assert fib.preimages[0][0].dist(ProjPoint([0, 0, 1])) < 1e-3

    def test_worked_map_corner_fiber(self, worked_map):
        fib = worked_map.preimages(ProjPoint([0, 0, 1]))
        assert len(fib.preimages) == 1
        assert fib.preimages[0][1] == 4
        assert fib.preimages[0][0].dist(ProjPoint([0, 0, 1])) < 1e-3

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_power_map_fibres(self, d):
        """Under z^d : w^d : t^d the vertex [0:0:1] has one preimage of
        multiplicity d^2, the edge point [1:0:1] has d of multiplicity d, and a
        generic point has d^2 simple ones."""
        f = ProjMap.validate(power_components(d))
        vertex = f.preimages(ProjPoint([0, 0, 1])).preimages
        assert [m for _, m in vertex] == [d * d]
        assert vertex[0][0].dist(ProjPoint([0, 0, 1])) < 1e-4
        edge = f.preimages(ProjPoint([1, 0, 1])).preimages
        assert [m for _, m in edge] == [d] * d
        for x, _ in edge:
            assert abs(x.coords[1]) < 1e-4 and abs(abs(x.coords[0]) - abs(x.coords[2])) < 1e-4
        generic = f.preimages(ProjPoint([0.3 + 0.1j, -0.7, 1.0])).preimages
        assert [m for _, m in generic] == [1] * (d * d)

    def test_lattes_three_triple_points(self):
        """[0:1:-1] has three distinct preimages of multiplicity 3 under the
        degree-3 Lattes map; merging them into one point miscounts."""
        fib = lattes_map(3).preimages(ProjPoint([0, 1, -1]))
        points = [x for x, _ in fib.preimages]
        assert [m for _, m in fib.preimages] == [3, 3, 3]
        assert min(x.dist(y) for i, x in enumerate(points) for y in points[i + 1 :]) > 0.1

    def test_random_fibers_complete_and_correct(self):
        """Every preimage maps back within 1e-6 and multiplicities reach d^2."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = random_valid_map(rng)
            q = ProjPoint(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            fib = f.preimages(q)
            assert fib.complete and fib.total_multiplicity == 4
            for x, _ in fib.preimages:
                assert f.apply(x).dist(q) <= 1e-6


class TestPolish:
    """Every solved point is Newton-polished on its own equations."""

    #: fixed points on the invariant line {t = 0} of two d = 3 configuration
    #: maps, as [z : w : 0] to 8 digits
    ONLINE_POINTS = (
        (("1-0", 3, 8), (0.45917243, -0.3472656 + 0.81765964j)),
        (("1-1-incident", 3, 7), (0.87991767, -0.36929117 - 0.29894637j)),
        (("1-0", 3, 8), (0.69965703, -0.68112128 - 0.2157634j)),
    )

    def test_online_fixed_points(self):
        """The Jacobian of f^n vanishes to order >= 3^n - 1 along {t = 0}; the
        orders reach that floor once the points lie on the line."""
        for key, (z, w) in self.ONLINE_POINTS:
            f = configuration_map(*key)
            target = ProjPoint([z, w, 0.0])
            p = min((p for p, _ in f.fixed_points()), key=lambda p: p.dist(target))
            assert p.dist(target) < 1e-6
            assert abs(p.coords[2]) <= 1e-15
            assert orbit_report(f, p, 3).jacobian_orders == [2, 8, 26]

    def test_vertex_local_degree_d5(self):
        """[0:1:0] is a totally invariant fixed point of the 0-1 row at d = 5."""
        f = configuration_map("0-1", 5, 1000)
        vertex = ProjPoint([0, 1, 0])
        p = min((p for p, _ in f.fixed_points()), key=lambda p: p.dist(vertex))
        assert p.dist(vertex) < 1e-6
        assert local_degree_step(f, p) == 25

    @pytest.mark.parametrize("d", [2, 3])
    def test_backward_error(self, d):
        """Simple fixed points x have backward error |x ^ F(x)| / |F| of at most
        1e-14, and so do simple fibre points x over q with |q ^ F(x)| / |F|."""
        rng = np.random.default_rng(5)
        for row in CONFIGURATION_IDS:
            f = configuration_map(row, d, 1000)
            for p, m in f.fixed_points():
                assert m > 1 or backward_error(f, p, p) <= 1e-14, (row, p)
            for _ in range(3):
                q = ProjPoint(rng.standard_normal(3) + 1j * rng.standard_normal(3))
                for x, m in f.preimages(q).preimages:
                    assert m > 1 or backward_error(f, x, q) <= 1e-14, (row, x)
