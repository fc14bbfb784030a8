import numpy as np
import pytest

from conftest import (
    cold,
    conjugate,
    conjugated_row,
    make_map,
    online_fixed_point,
    random_valid_map,
    sample_critical_points,
)
from direct_reference import contraction_order_direct, jacobian_multiplicity_direct, local_degree_direct
from exact_reference import jacobian_orders
from greenp2 import (
    CONFIGURATION_IDS,
    ProjMap,
    ProjPoint,
    configuration_map,
    multiplicities,
    parse_poly,
    roots_univariate,
)
from greenp2.errors import IllConditioned, OrderExceedsTruncation
from greenp2.multiplicities import (
    _pair_contraction,
    contraction_order,
    inequality_report,
    jacobian_multiplicity,
    kiselman_number,
    local_degree,
    local_degree_step,
    orbit_report,
)
from greenp2.potentials import _chart_lift, kiselman_estimate
from greenp2.series import AffineSeries2, recenter_taylor
from ladder_reference import ladder_local_degree

CORNER = ProjPoint([0, 0, 1])
DIAG = ProjPoint([1, 1, 1])
EDGE = ProjPoint([1, 0, 1])
#: the z <-> t swap, which fixes EDGE: chart 0 of the swapped map is chart 2 of the map
SWAP = np.eye(3)[[2, 1, 0]]


class TestJacobianOrder:
    def test_noncritical_point(self, power_map):
        assert jacobian_multiplicity(power_map, DIAG, 1) == 0

    def test_invariant_line_point(self, power_map):
        """Generic points of an invariant line carry order d - 1."""
        assert jacobian_multiplicity(power_map, EDGE, 1) == 1

    def test_worked_map_corner(self, worked_map):
        assert jacobian_multiplicity(worked_map, CORNER, 1) == 2

    def test_power_corner_series(self, power_map):
        assert [jacobian_multiplicity(power_map, CORNER, n) for n in (1, 2, 3)] == [2, 6, 14]

    def test_chart_independence(self, worked_map, monkeypatch):
        """The worked map moved by a real rotation A: at its fixed point A^-1[0:0:1] =
        [1:0:1], visible in charts 0 and 2, the exact rules leave the term of f(p) open,
        so the series is read there, in chart 0.  The swap conjugate reads the same
        point in its chart 0, which is chart 2 of f; both read the worked map's 5 at
        [0:0:1]."""
        c = 2**-0.5
        f = conjugate(worked_map, np.array([[c, 0, -c], [0, 1, 0], [c, 0, c]]))
        read = multiplicities._series_reads
        charts = []

        def spy(f, p, ks, terms, n, what):
            charts.append(p.chart())
            return read(f, p, ks, terms, n, what)

        monkeypatch.setattr(multiplicities, "_series_reads", spy)
        a = jacobian_multiplicity(f, EDGE, 2)
        b = jacobian_multiplicity(conjugate(f, SWAP), EDGE, 2)
        assert a == b == 5
        assert charts == [0, 0]


class TestContractionOrder:
    def test_power_corner_is_degree(self, power_map):
        assert contraction_order(power_map, CORNER, 1) == 2

    def test_generic_point(self, power_map):
        assert contraction_order(power_map, DIAG, 1) == 1

    def test_worked_map_corner_stays_one(self, worked_map):
        assert [contraction_order(worked_map, CORNER, n) for n in range(1, 6)] == [1] * 5

    def test_chart_independence(self, power_map):
        """The edge point is visible in two charts; the order must agree.  The swap
        conjugate reads it in its chart 0, which is chart 2 of the map."""
        a = contraction_order(power_map, EDGE, 2)
        b = contraction_order(conjugate(power_map, SWAP), EDGE, 2)
        assert a == b == 1

    def test_pair_decided_by_one_component(self):
        """(c + u, c') has order 1 although its constant second component has none."""
        s1 = AffineSeries2.constant(2.0, 6)
        s1.coeffs[1, 0] = 1.0
        assert _pair_contraction((s1, AffineSeries2.constant(3.0, 6))) == 1
        with pytest.raises(OrderExceedsTruncation):
            _pair_contraction((AffineSeries2.constant(2.0, 6), AffineSeries2.constant(3.0, 6)))

    def test_online_point_at_first_truncation(self, monkeypatch):
        """At the on-line fixed point one chart coordinate of f^3 is t^27 times a
        unit and the other has order 1, so truncation 6 decides the order."""
        f, p = online_fixed_point()
        build = multiplicities.orbit_chart_series
        truncs = []

        def counted(f, p, n, trunc):
            truncs.append(trunc)
            return build(f, p, n, trunc)

        monkeypatch.setattr(multiplicities, "orbit_chart_series", counted)
        assert contraction_order(f, p, 3) == contraction_order_direct(f, p, 3) == 1
        assert truncs == [6]


@pytest.mark.parametrize("read", [jacobian_multiplicity, contraction_order, local_degree, orbit_report])
def test_step_count_must_be_an_integer(power_map, read):
    """A float step count raised a stray TypeError from ``range`` and a bool gave
    a report of horizon True; both are refused, and a numpy integer is read as
    the integer it is."""
    for n in (2.5, 2.0, True, np.bool_(True), "2"):
        with pytest.raises(ValueError, match="must be an integer"):
            read(power_map, EDGE, n)
    for n in (0, -1, np.int64(0)):
        with pytest.raises(ValueError, match="must be >= 1"):
            read(power_map, EDGE, n)
    assert repr(read(power_map, EDGE, np.int64(2))) == repr(read(power_map, EDGE, 2))


class TestLocalDegree:
    def test_totally_invariant_corner(self, power_map):
        assert local_degree(power_map, CORNER, 1) == 4

    def test_generic_point(self, power_map):
        assert local_degree(power_map, DIAG, 1) == 1

    def test_fold_point_on_line(self, power_map):
        assert local_degree(power_map, EDGE, 1) == 2

    def test_worked_map_corner(self, worked_map):
        assert local_degree(worked_map, CORNER, 1) == 4


class TestAsymptotics:
    def test_power_corner(self, power_map):
        rep = orbit_report(power_map, CORNER, 3)
        assert rep.local_degrees == [4, 16, 64]
        assert rep.contraction_orders == [2, 4, 8]
        assert rep.estimates["degree_growth"] == pytest.approx(4.0)
        assert rep.estimates["contraction_growth"] == pytest.approx(2.0)

    def test_generic_point_trivial(self, power_map):
        rep = orbit_report(power_map, DIAG, 3)
        assert rep.jacobian_orders == [0, 0, 0]
        assert rep.local_degrees == [1, 1, 1]
        assert rep.contraction_orders == [1, 1, 1]

    def test_worked_map_corner(self, worked_map):
        rep = orbit_report(worked_map, CORNER, 4)
        assert rep.local_degrees == [4, 16, 64, 256]
        assert rep.contraction_orders == [1, 1, 1, 1]

    def test_series_bounds(self, worked_map):
        d = worked_map.degree
        rep = orbit_report(worked_map, CORNER, 4)
        for n in range(1, 5):
            assert 1 <= rep.local_degrees[n - 1] <= d ** (2 * n)
            assert 1 <= rep.contraction_orders[n - 1] <= d**n
        assert 0 <= rep.jacobian_orders[0] <= 3 * (d - 1)


class TestInequalities:
    def test_power_corner_verdicts(self, power_map):
        rep = orbit_report(power_map, CORNER, 3)
        assert all(rep.inequality_verdicts.values())
        # spot check the one-step numbers behind the verdicts
        mu1, e1, c1 = rep.jacobian_orders[0], rep.local_degrees[0], rep.contraction_orders[0]
        assert (mu1, e1, c1) == (2, 4, 2)
        assert 2 * (c1 - 1) <= mu1 <= 2 * (e1 - 1) and c1 * c1 <= e1

    def test_worked_map_verdicts(self, worked_map):
        rep = orbit_report(worked_map, CORNER, 3)
        assert all(rep.inequality_verdicts.values())
        assert (rep.jacobian_orders[0], rep.local_degrees[0]) == (2, 4)

    def test_noncritical_verdicts(self, power_map):
        rep = orbit_report(power_map, DIAG, 2)
        assert all(rep.inequality_verdicts.values())

    def test_report_only_interface(self, power_map):
        rep = orbit_report(power_map, EDGE, 3)
        verdicts = inequality_report(rep, power_map.degree)
        assert all(verdicts.values())


class TestDirectRoutes:
    """Composed-lift recomputations agree with the orbit accumulation."""

    def test_jacobian_orders_match(self, power_map, worked_map):
        for f, p in ((power_map, CORNER), (power_map, EDGE), (worked_map, CORNER)):
            for n in (1, 2, 3):
                assert jacobian_multiplicity_direct(f, p, n) == jacobian_multiplicity(f, p, n)

    def test_contraction_orders_match(self, power_map, worked_map):
        for f, p in ((power_map, CORNER), (worked_map, CORNER), (power_map, DIAG)):
            for n in (1, 2):
                assert contraction_order_direct(f, p, n) == contraction_order(f, p, n)

    def test_local_degrees_match(self, power_map, worked_map):
        """Degrees up to 16: past them the rank gap of the count on the composed
        lift narrows towards its refusal threshold (see test_degree_multiplicative)."""
        for f, p, n in (
            (power_map, CORNER, 2),
            (power_map, EDGE, 2),
            (power_map, EDGE, 3),
            (power_map, DIAG, 1),
            (worked_map, CORNER, 2),
            (worked_map, EDGE, 3),
        ):
            assert local_degree_direct(f, p, n) == local_degree(f, p, n)


class TestKiselmanNumber:
    """The exact densities of log|J| that ``greenp2 lelong`` and ``kiselman`` report."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("row", CONFIGURATION_IDS)
    def test_lelong_is_jacobian_order_at_fixed_points(self, row, d):
        f = configuration_map(row, d, 1000)
        points = [p for p, _ in f.fixed_points()]
        assert len(points) == d * d + d + 1
        for p in points:
            chart = p.chart()
            assert kiselman_number(f.lift_jacobian, chart, p.chart_coords(chart)) == jacobian_multiplicity(f, p, 1)

    @pytest.mark.parametrize("weights", [(1.0, 1.0), (0.5, 1.0), (1.0, 0.3)])
    def test_axis_convention_matches_the_estimator(self, power_map, weights):
        """J = 8uv in chart t of z^2:w^2:t^2 reads a1 + a2 at (0, 0), and the
        factor u alone reads a2 at (0, 0.5), v alone a1 at (0.5, 0), as the
        sampled estimate on log|J| does."""
        J = power_map.lift_jacobian
        a1, a2 = weights

        def u(pts):
            return np.log(np.abs(J.eval_batch(_chart_lift(pts, 2))))

        for point, want in (((0, 0), a1 + a2), ((0, 0.5), a2), ((0.5, 0), a1)):
            assert kiselman_number(J, 2, point, weights) == want
            assert kiselman_estimate(u, point, weights).slope == pytest.approx(want, abs=0.05)

    @pytest.mark.parametrize(
        "point, weights, message",
        [
            ((0, 0), (float("inf"), 1.0), "weights must be finite"),
            ((0, 0), (float("nan"), 1.0), "weights must be finite"),
            ((0, 0), (0.0, 1.0), "weights must be positive"),
            ((0, 0), (1.0, -2.0), "weights must be positive"),
            ((complex("nan"), 0), (1.0, 1.0), "point must be finite"),
        ],
    )
    def test_refuses_bad_input(self, power_map, point, weights, message):
        with pytest.raises(ValueError, match=message):
            kiselman_number(power_map.lift_jacobian, 2, point, weights)

    @pytest.mark.parametrize("chart", [3, -1])
    def test_refuses_a_chart_outside_0_1_2(self, power_map, chart):
        """Such a chart was read as chart 2: ``dehomogenize`` kept all three
        variables and read the first two, and ``chart_coords(-1)`` indexed the
        coordinates from the end."""
        J = power_map.lift_jacobian
        reads = [
            lambda: kiselman_number(J, chart, (0, 0)),
            lambda: recenter_taylor(J, chart, (0, 0), J.degree),
            lambda: ProjPoint([1, 2, 3]).chart_coords(chart),
        ]
        for read in reads:
            with pytest.raises(ValueError, match="chart must be 0, 1 or 2"):
                read()


class TestCocycleLaws:
    """Exact integer laws with the left sides recomputed on composed lifts."""

    def points(self, f):
        rng = np.random.default_rng(17)
        pts = [CORNER, EDGE]
        pts.append(ProjPoint(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        return pts

    def test_jacobian_additive(self, power_map, worked_map):
        """mu(p, n+k) = mu(p, n) + ord_p(Jf^k o f^n), cross term off the orbit terms."""
        for f in (power_map, worked_map):
            for p in self.points(f):
                for n, k in ((1, 1), (1, 2), (2, 1)):
                    lhs = jacobian_multiplicity_direct(f, p, n + k)
                    rep = orbit_report(f, p, n + k)
                    cross = sum(rep.jacobian_terms[n : n + k])
                    assert lhs == rep.jacobian_orders[n - 1] + cross

    def test_degree_multiplicative(self, power_map, worked_map):
        """Left side recomputed as a local intersection number of the iterate.

        The Hilbert-Samuel count on a composed lift of degree d^n loses rank
        gap as n grows: on [1:0:1] of z^2:w^2:t^2 the gap between kept and
        dropped singular values is 6e9 at e = 16 and about 12 at e = 32,
        where the count refuses.  So pairs are capped by the expected degree.
        """
        for f in (power_map, worked_map):
            for p in self.points(f):
                orbit = f.orbit(p, 3)
                for n, k in ((1, 1), (2, 1), (1, 2)):
                    per_step = [local_degree(f, q, 1) for q in orbit[: n + k]]
                    expected = int(np.prod(per_step))
                    if expected > 16:
                        continue
                    lhs = local_degree_direct(f, p, n + k)
                    assert lhs == local_degree(f, p, n) * local_degree(f, orbit[n], k)

    def test_contraction_supermultiplicative(self, power_map, worked_map):
        for f in (power_map, worked_map):
            for p in self.points(f):
                orbit = f.orbit(p, 3)
                for n, k in ((1, 1), (2, 1), (1, 2)):
                    lhs = contraction_order_direct(f, p, n + k)
                    assert lhs >= contraction_order(f, p, n) * contraction_order(f, orbit[n], k)

    def test_jacobian_hat_submultiplicative(self, power_map, worked_map):
        for f in (power_map, worked_map):
            for p in self.points(f):
                orbit = f.orbit(p, 3)
                for n, k in ((1, 1), (2, 1), (1, 2)):
                    lhs = 3 + 2 * jacobian_multiplicity_direct(f, p, n + k)
                    rhs = (3 + 2 * jacobian_multiplicity(f, p, n)) * (
                        3 + 2 * jacobian_multiplicity(f, orbit[n], k)
                    )
                    assert lhs <= rhs


def test_lower_jacobian_bound_on_samples(power_map, worked_map):
    """One-step Jacobian order dominates twice the contraction excess."""
    rng = np.random.default_rng(23)
    maps = [power_map, worked_map, random_valid_map(rng)]
    for f in maps:
        for _ in range(5):
            p = ProjPoint(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            mu = jacobian_multiplicity(f, p, 1)
            c = contraction_order(f, p, 1)
            assert mu >= 2 * (c - 1)


def _triple(f, p):
    """mu, c and e at p, as criterion 03 reads them."""
    return jacobian_multiplicity(f, p, 1), contraction_order(f, p, 1), local_degree_step(f, p)


def _simple_critical_points(f, lines, rng):
    """The simple roots of J on ``lines`` random lines; none where J is a product of
    multiple lines."""
    J = f.lift_jacobian
    for _ in range(lines):
        b1, b2 = (v / np.linalg.norm(v) for v in rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
        for cl in roots_univariate(J.restrict_line(b1, b2)).clusters:
            if cl.multiplicity == 1:
                yield ProjPoint(b1 + cl.root * b2)


def _point_entries(f):
    return [key for key in f._memo if key[0] is multiplicities._Orbit]


def test_sample_critical_points_fails_fast():
    """J = c (zwt)^2 on the 3-3 row has no simple root on any line: the sampler
    gives up after its probe lines, where it looped forever."""
    f = configuration_map("3-3", 3, 1000)
    with pytest.raises(ValueError, match="0 of 1 simple critical points on 100 random lines"):
        sample_critical_points(f, 1, np.random.default_rng(0))


class TestPointMemo:
    """The reads at a point are kept on the map, keyed by the point's coordinates."""

    @pytest.fixture
    def spies(self, monkeypatch):
        calls = {"germs": 0, "counts": 0}
        germs, count = multiplicities._germs, multiplicities.local_multiplicity

        def spy_germs(*args):
            calls["germs"] += 1
            return germs(*args)

        def spy_count(*args):
            calls["counts"] += 1
            return count(*args)

        monkeypatch.setattr(multiplicities, "_germs", spy_germs)
        monkeypatch.setattr(multiplicities, "local_multiplicity", spy_count)
        return calls

    def test_triple_reads_each_point_once(self, spies, power_map, worked_map):
        """mu, c and e at a critical point expand the germs once and count e at
        most once, however often the triple is read on one map."""
        rng = np.random.default_rng(31)
        f = random_valid_map(rng, d=3)
        cases = [(cold(power_map), EDGE), (cold(power_map), CORNER), (cold(worked_map), CORNER)]
        cases += [(f, p) for p in sample_critical_points(f, 3, rng)]
        for g, p in cases:
            before = dict(spies)
            first = _triple(g, p)
            assert _triple(g, p) == first
            assert spies["germs"] - before["germs"] == 1
            assert spies["counts"] - before["counts"] <= 1
        assert spies["counts"] >= 4  # EDGE and the sampled points need the count

    def test_equal_points_share_the_reads(self, spies, power_map):
        """The orbit of [1:0:1] under z^2 : w^2 : t^2 alternates between two
        coordinate vectors, so a report at horizon 4 reads two points."""
        f = cold(power_map)
        orbit_report(f, EDGE, 4)
        assert spies == {"germs": 2, "counts": 2}
        assert len(_point_entries(f)) == len({q.coords.tobytes() for q in f.orbit(EDGE, 3)}) == 2

    def test_warm_map_matches_cold_maps(self):
        """At the criterion-03 points (simple roots of J on random lines) of every
        row at d = 2, 3, the triple read on one map, which keeps its reads,
        equals the triple from three cold maps."""
        rng = np.random.default_rng(303)
        checked = 0
        for d in (2, 3):
            for row in CONFIGURATION_IDS:
                f = configuration_map(row, d, 1000)
                for p in _simple_critical_points(f, 2, rng):
                    cold_triple = (
                        jacobian_multiplicity(cold(f), p, 1),
                        contraction_order(cold(f), p, 1),
                        local_degree_step(cold(f), p),
                    )
                    assert _triple(f, p) == _triple(f, p) == cold_triple, (row, d)
                    checked += 1
        assert checked >= 80

    def test_cold_copy_starts_without_point_entries(self, spies, power_map):
        """Critical points keep their reads on the map, regular ones keep none,
        and a cold copy starts with none."""
        f = cold(power_map)
        orbit_report(f, CORNER, 2)
        _triple(f, EDGE)
        _triple(f, DIAG)
        assert len(_point_entries(f)) == 2
        g = cold(f)
        assert _point_entries(g) == []
        _triple(g, EDGE)
        assert spies["germs"] == 3


def test_local_degree_step_stability(power_map):
    assert local_degree_step(power_map, CORNER) == 4
    assert local_degree_step(power_map, EDGE) == 2
    assert local_degree_step(power_map, DIAG) == 1


def power(d):
    """z^d : w^d : t^d."""
    return ProjMap.validate([parse_poly(f"{v}^{d}") for v in "zwt"])


#: vertex, edge and generic points of the power maps, with their local degrees
POWER_POINTS = (([0, 0, 1], 2), ([1, 0, 1], 1), ([0.3, 0.7 + 0.2j, 1], 0))


def _conjugate_degrees(f, A):
    """local_degree_step at the images of POWER_POINTS under A^-1."""
    inv = np.linalg.inv(A)
    return [local_degree_step(f, ProjPoint(inv @ np.array(p, dtype=complex))) for p, _ in POWER_POINTS]


class TestHilbertSamuelCount:
    """local_degree_step counts dim C[[x, y]]/(g1, g2) for the germs of f - f(q)."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_power_map(self, d):
        degrees = [local_degree_step(power(d), ProjPoint(p)) for p, _ in POWER_POINTS]
        assert degrees == [d**k for _, k in POWER_POINTS]

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_unitary_conjugate(self, d):
        rng = np.random.default_rng(60 + d)
        A = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        assert _conjugate_degrees(conjugate(power(d), A), A) == [d**k for _, k in POWER_POINTS]

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_gaussian_conjugates_count_or_refuse(self, d):
        """Badly conditioned A blur the vertex germs; the count then refuses
        with IllConditioned and never returns a wrong degree."""
        rng = np.random.default_rng(70 + d)
        counted = 0
        for _ in range(5):
            A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            try:
                degrees = _conjugate_degrees(conjugate(power(d), A), A)
            except IllConditioned:
                continue
            assert degrees == [d**k for _, k in POWER_POINTS]
            counted += 1
        assert counted >= 3

    def test_refuses_without_rank_gap(self):
        """At n = 5 (e = 32) the gap is about 12 by k = 7: a typed refusal there,
        not a wrong count and not a run on to the Bezout bound 32^2."""
        with pytest.raises(IllConditioned):
            local_degree_direct(power(2), EDGE, 5)

    def test_matches_ladder_reference(self, power_map, worked_map):
        rng = np.random.default_rng(91)
        cases = [(f, p) for f in (power_map, worked_map) for p in (CORNER, EDGE, DIAG)]
        for d in (2, 3):
            f = random_valid_map(rng, d=d)
            cases += [(f, p) for p in sample_critical_points(f, 6, rng)]
        assert [local_degree_step(f, p) for f, p in cases] == [
            ladder_local_degree(f, p) for f, p in cases
        ]


class TestConjugatedOrbits:
    """Orders where the orbit series of a moved map read rounding noise as terms."""

    @pytest.mark.parametrize("d, unitary", [(3, False), (3, True), (4, False)])
    def test_online_jacobian_orders_meet_the_floor(self, d, unitary):
        """The 1-0 row has d + 1 fixed points on its invariant line, {A[2] x = 0}
        after the move, where J is t^(d - 1) times a unit, so ord_p(J(f^2)) is
        (d - 1)(1 + d) = d^2 - 1.  The series read [2, 5] at d = 3, with either
        A, and [3, 6] at d = 4."""
        g, A = conjugated_row("1-0", d, 0, unitary)
        line = A[2] / np.linalg.norm(A[2])
        online = [p for p, _ in g.fixed_points() if abs(line @ p.coords) <= 1e-8]
        assert len(online) == d + 1
        for p in online:
            assert orbit_report(g, p, 2).jacobian_orders == [d - 1, d * d - 1]
            assert jacobian_multiplicity(g, p, 2) == d * d - 1

    def test_homogeneous_point(self):
        """At the homogeneous point [0:1:0] of the 0-1 row at d = 3, moved by A, the
        germ of f is a finite homogeneous map of degree 3, so f^2 has contraction
        order 9, local degree 81 and Jacobian order 4 + 3 * 4.  The series read
        contraction orders [3, 5] and Jacobian orders [4, 10]."""
        g, A = conjugated_row("0-1", 3, 0)
        q = ProjPoint(np.linalg.solve(A, np.array([0, 1, 0], dtype=complex)))
        p = min((x for x, _ in g.fixed_points()), key=q.dist)
        assert p.dist(q) < 1e-8
        rep = orbit_report(g, p, 2)
        assert (rep.contraction_orders, rep.local_degrees, rep.jacobian_orders) == ([3, 9], [9, 81], [4, 16])
        assert (contraction_order(g, p, 2), jacobian_multiplicity(g, p, 2)) == (9, 16)

    #: forms with rational coefficients of the rows 1-0 and 1-1-incident, each
    #: with t = 0 invariant and with rational fixed points on it
    RATIONAL_ROWS = {
        "1-0": ("z^3 + w^2*t + z*t^2", "w^3 + 2*z^2*t - w*t^2", "t^3"),
        "1-1-incident": ("z^3 + w^2*t", "w^3 + t*(z^2 + w*t)", "t^3"),
    }
    INTEGER_A = ((1, 1, 0), (0, 1, 1), (1, 1, 1))

    @pytest.mark.parametrize("row, target, exact", [
        ("1-0", (1, 1, 0), [2, 8]), ("1-0", (1, -1, 0), [2, 8]), ("1-1-incident", (1, 0, 0), [4, 12]),
    ])
    def test_integer_conjugate_matches_exact_orders(self, row, target, exact):
        """A^-1 o f o A for an integer A of determinant 1 keeps the map and the
        point A^-1 target rational, so sympy gives ord_p(J(f^n)) exactly
        (``exact_reference``).  On 1-0 the series read [2, 7] and [2, 6].  At
        the incident point the cofactor of t^2 in J vanishes too (ord J = 4),
        so the second term is no multiple of the line's order: the line rule
        must leave it open, and the series read it."""
        forms = self.RATIONAL_ROWS[row]
        A = np.array(self.INTEGER_A, dtype=complex)
        g = conjugate(make_map(*forms), A)
        q = ProjPoint(np.linalg.solve(A, np.array(target, dtype=complex)))
        p = min((x for x, _ in g.fixed_points()), key=q.dist)
        assert p.dist(q) < 1e-8
        assert jacobian_orders(forms, self.INTEGER_A, target, 2) == exact
        assert [jacobian_multiplicity(g, p, n) for n in (1, 2)] == exact
        assert orbit_report(g, p, 2).jacobian_orders == exact


def test_free_row_at_d5_horizon_3():
    """configuration_map('1-1-free', 5, 1000) = [P(z, w) : Q(z, w) : t^5].  At its
    six fixed points on t = 0, J is t^4 times a unit and t o F = t^5, so the
    Jacobian terms are 4 * 5^j.  At [0:0:1] the germ of f is (P, Q), finite and
    homogeneous of degree 5, and ord(J) = 8 there.  All 31 reports keep every
    verdict."""
    f = configuration_map("1-1-free", 5, 1000)
    reports = [(p, orbit_report(f, p, 3)) for p, _ in f.fixed_points()]
    assert len(reports) == 31
    assert all(all(rep.inequality_verdicts.values()) for _, rep in reports)
    online = [rep for p, rep in reports if abs(p.coords[2]) <= 1e-8]
    assert len(online) == 6
    assert all(rep.jacobian_terms == [4, 20, 100] for rep in online)
    (vertex,) = [rep for p, rep in reports if p.dist(CORNER) <= 1e-8]
    assert vertex.jacobian_terms == [8, 40, 200]
    assert vertex.degree_steps == [25, 25, 25]
    assert vertex.contraction_orders == [5, 25, 125]
