import math

import numpy as np
import pytest

from conftest import make_map, random_valid_map
from greenp2 import ProjMap, ProjPoint, parse_poly
from greenp2.errors import ChartUndefined, DegenerateMap, DegreeMismatch


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

    def test_degenerate_triple(self):
        with pytest.raises(DegenerateMap) as info:
            make_map("z^2", "w^2", "z*w")
        assert info.value.point is not None
        assert info.value.point.dist(ProjPoint([0, 0, 1])) < 1e-3

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            ProjMap.validate([parse_poly("z^2"), parse_poly("w^2"), parse_poly("t")])

    def test_corner_pinch_is_fine(self, worked_map):
        """z = t = 0 forces w = 0, so the triple has no nontrivial common zero."""
        assert worked_map.degree == 2
        assert worked_map.nondegeneracy_residual > 0.1


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


class TestLogOrbit:
    def test_fixed_coordinate_point(self, power_map):
        orbit = power_map.iterate_lognorm(ProjPoint([1, 0, 0]), 5)
        assert orbit.lognorms == [0.0] * 6

    def test_two_step_reconstruction(self, power_map):
        """a_1 plus the degree-scaled norm of the representative recovers log||F||."""
        orbit = power_map.iterate_lognorm(ProjPoint([2, 1, 1]), 1)
        a1 = orbit.lognorms[1]
        lift_norm = math.log(math.sqrt(18))  # ||F(2,1,1)||
        assert a1 + 2 * math.log(math.sqrt(6)) == pytest.approx(lift_norm, abs=1e-12)

    def test_zero_steps(self, worked_map):
        orbit = worked_map.iterate_lognorm(ProjPoint([1, 2, 3]), 0)
        assert orbit.lognorms == [0.0] and len(orbit.points) == 1

    def test_renormalized_sequence_cauchy(self, worked_map):
        """d^-n a_n has gaps within the geometric tail bound."""
        M = worked_map.lognorm_sup()
        d = worked_map.degree
        orbit = worked_map.iterate_lognorm(ProjPoint([0.3, -0.8, 1.1]), 12)
        vals = [a / d**n for n, a in enumerate(orbit.lognorms)]
        for n in range(12):
            assert abs(vals[n + 1] - vals[n]) <= M * d ** (-n) / (d - 1) + 1e-12


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
        a = power_map.fixed_points()
        b = power_map.fixed_points()
        assert all(p.dist(q) == 0 and m == k for (p, m), (q, k) in zip(a, b))

    def test_random_maps_fixed_points_verify(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            f = random_valid_map(rng)
            fp = f.fixed_points()
            assert sum(m for _, m in fp) == 7
            for p, _ in fp:
                assert f.apply(p).dist(p) < 1e-6


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
