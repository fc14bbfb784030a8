import functools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import table_reference
from conftest import random_valid_map, two_form_zeros
from occupancy_reference import loop_grid_occupancy
from greenp2 import CONFIGURATION_IDS, HomogPoly3, ProjPoint, configuration_map, lattes_map, parse_poly
from greenp2.errors import FitUnstable, OnCurve
from greenp2.maps import _unit_rows
from greenp2.polys import monomial_table, n_monomials
from greenp2.potentials import (
    _BLOCK,
    CLIP_FLOOR,
    _chart_lift,
    _grid_occupancy,
    _orbit_arrays,
    _orbit_log_jacobian,
    _tail,
    curve_potential,
    equidist_distance,
    green,
    green_batch,
    kiselman_decay_scan,
    kiselman_estimate,
    lelong_estimate,
    sublevel_volume,
    volume_decay,
    volume_sweep,
)
from greenp2.sampling import ball_points, fs_points


def u_log_abs(col):
    return lambda pts: np.log(np.abs(pts[:, col]) + 1e-300)


class TestGreen:
    def test_power_map_closed_form(self, power_map):
        """Coordinatewise power maps have the max-log closed form."""
        ev = green(power_map, ProjPoint([2, 1, 1]), tol=1e-6)
        assert ev.value == pytest.approx(math.log(2) - 0.5 * math.log(6), abs=1e-6)
        assert ev.tail_bound <= 1e-6

    def test_fixed_coordinate_point(self, power_map):
        assert green(power_map, ProjPoint([1, 0, 0]), tol=1e-6).value == pytest.approx(0.0, abs=1e-9)

    def test_tail_certificate(self, worked_map):
        """Loose- and tight-tolerance values differ within the loose tail."""
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = ProjPoint(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            a = green(worked_map, x, tol=1e-4).value
            b = green(worked_map, x, tol=1e-8).value
            assert abs(a - b) <= 1e-4 + 1e-8

    def test_lift_invariance(self, worked_map):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = ProjPoint(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            gx = green(worked_map, x, tol=1e-8).value
            lg = math.log(np.linalg.norm(worked_map.lift(x.coords)))
            gfx = green(worked_map, worked_map.apply(x), tol=1e-8).value
            assert abs(gfx + lg - worked_map.degree * gx) <= 1e-7

    def test_batch_matches_scalar(self, power_map):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        vals = green_batch(power_map, pts, tol=1e-8)
        for k in range(5):
            assert vals[k] == pytest.approx(green(power_map, ProjPoint(pts[k]), tol=1e-8).value, abs=1e-7)

    @pytest.mark.parametrize("tol", [-1e-6, 0.0])
    def test_batch_refuses_nonpositive_tol(self, power_map, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            green_batch(power_map, fs_points(5, 11), tol=tol)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_refuses_nonfinite_tol(self, power_map, tol):
        """A NaN tol raised a stray integer-conversion error; an infinite one walked one step."""
        with pytest.raises(ValueError, match="tol must be finite"):
            green(power_map, ProjPoint([2, 1, 1]), tol=tol)
        with pytest.raises(ValueError, match="tol must be finite"):
            green_batch(power_map, fs_points(5, 11), tol=tol)
        with pytest.raises(ValueError, match="tol must be finite"):
            equidist_distance(power_map, parse_poly("z+w+2t"), 2, 50, seed=3, tol=tol)

    def test_within_tol_at_preimage_chains_of_a_witness(self):
        """On 1-0 at d = 4, y_k with f^k(y_k) = x for k = 1..10, x the two-form zero
        of least ||F||: the orbit of y_k meets x at step k.  With the sampled sup
        as M the values missed a reference at tol / 1000 by up to 2.06 tol."""
        f = configuration_map("1-0", 4, 1000)
        zeros = two_form_zeros(f)
        chain = [ProjPoint(zeros[np.argmax(np.abs(_unit_rows(f.lift(zeros))[0]))])]
        for _ in range(10):
            chain.append(f.preimages(chain[-1]).preimages[0][0])
        X = np.array([p.coords for p in chain[1:]])
        for tol in 10.0 ** -np.arange(2, 8.25, 0.25):
            assert np.all(np.abs(green_batch(f, X, tol) - green_batch(f, X, tol * 1e-3)) <= tol)

    def test_refuses_tol_beyond_float_range(self, power_map):
        """A subnormal tol needs more steps than d^n holds; it raised OverflowError."""
        for tol in (1e-320, 1e-310):
            with pytest.raises(ValueError, match=rf"tol = {tol!r} needs 2\^10[0-9]{{2}}, which overflows a float"):
                green_batch(power_map, fs_points(5, 11), tol=tol)
        assert _tail(power_map, 1e-300)[0] < 1024

    def test_scalar_is_one_row_batch(self, worked_map):
        """green(f, x) is green_batch on the one row of x's coordinates, bit for bit."""
        for x in fs_points(10, 12):
            p = ProjPoint(x)
            ev = green(worked_map, p, tol=1e-8)
            assert ev.value == green_batch(worked_map, p.coords[None, :], tol=1e-8)[0]
            assert ev.n_used == _tail(worked_map, 1e-8)[0]


class TestCurvePotential:
    def test_depth_zero(self, power_map):
        v = curve_potential(power_map, parse_poly("z"), 0, ProjPoint([2, 1, 1]))
        assert v == pytest.approx(math.log(2 / math.sqrt(6)))

    def test_invariant_line_constant(self, power_map):
        """z o F^n = z^(2^n) exactly, so the normalized potential is constant."""
        x = ProjPoint([2, 1, 1])
        vals = [curve_potential(power_map, parse_poly("z"), n, x) for n in range(6)]
        assert max(vals) - min(vals) < 1e-12

    def test_on_curve_raises(self, power_map):
        with pytest.raises(OnCurve):
            curve_potential(power_map, parse_poly("z"), 0, ProjPoint([0, 1, 1]))

    def test_on_curve_raises_at_depth(self, power_map):
        """z o F^3 vanishes at [0:1:1]: the walk's |phi| at step 3 is exactly 0."""
        with pytest.raises(OnCurve, match="depth 3"):
            curve_potential(power_map, parse_poly("z"), 3, ProjPoint([0, 1, 1]))

    @pytest.mark.parametrize("phi", [parse_poly("0"), parse_poly("1"), HomogPoly3(2)], ids=["zero", "one", "zero-conic"])
    def test_refuses_constant_curve(self, power_map, phi):
        """A form of degree 0, or with no nonzero coefficient, divided by k = 0 or clipped
        every sample: NaN rows and RuntimeWarnings."""
        with pytest.raises(ValueError, match="is constant"):
            curve_potential(power_map, phi, 2, ProjPoint([2, 1, 1]))
        with pytest.raises(ValueError, match="is constant"):
            equidist_distance(power_map, phi, 2, 50, seed=3)

    def test_high_depth_close_to_green(self, power_map):
        """Pullback potentials of a generic line approach the Green values."""
        rng = np.random.default_rng(11)
        phi = parse_poly("z+w+2t")
        diffs = []
        for _ in range(100):
            x = ProjPoint(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            v6 = curve_potential(power_map, phi, 6, x)
            diffs.append(abs(v6 - green(power_map, x, tol=1e-8).value))
        assert np.mean(diffs) < 0.05


class TestEquidist:
    def test_converging_line(self, power_map):
        rep = equidist_distance(power_map, parse_poly("z+w+2t"), 8, 4000, seed=5)
        dists = [row.l1_distance for row in rep.per_n]
        assert dists[-1] < 0.02
        assert all(d2 <= d1 + 1e-9 for d1, d2 in zip(dists, dists[1:]))
        assert all(row.clip_fraction < 0.05 for row in rep.per_n)

    def test_invariant_line_stalls(self, power_map):
        rep = equidist_distance(power_map, parse_poly("z"), 8, 4000, seed=5)
        dists = [row.l1_distance for row in rep.per_n]
        assert min(dists) >= 0.1
        assert max(dists) - min(dists) < 0.02

    def test_degree_two_curve_normalization(self, power_map):
        """A product of two lines converges like its factors."""
        phi2 = parse_poly("(z+w+2t)*(z-w+t)")
        rep2 = equidist_distance(power_map, phi2, 6, 4000, seed=6)
        rep1 = equidist_distance(power_map, parse_poly("z+w+2t"), 6, 4000, seed=6)
        assert abs(rep2.per_n[-1].l1_distance - rep1.per_n[-1].l1_distance) < 0.02

    def test_seeded_reproducibility(self, power_map):
        a = equidist_distance(power_map, parse_poly("z+w+2t"), 4, 500, seed=3)
        b = equidist_distance(power_map, parse_poly("z+w+2t"), 4, 500, seed=3)
        assert [r.l1_distance for r in a.per_n] == [r.l1_distance for r in b.per_n]

    def test_refuses_negative_depth(self, power_map):
        with pytest.raises(ValueError, match="n_max"):
            equidist_distance(power_map, parse_poly("z+w+2t"), -1, 500, seed=3)

    @pytest.mark.parametrize("samples", [0, 1])
    def test_refuses_fewer_than_two_samples(self, power_map, samples):
        with pytest.raises(ValueError, match="2 samples"):
            equidist_distance(power_map, parse_poly("z+w+2t"), 4, samples, seed=3)

    def test_memory_is_blockwise(self, power_map):
        """40 Green steps over 20,000 samples.  One pass over all points kept 41
        complex triples per sample (a 51 MB peak); the blocked walk keeps 10
        log-norm (steps 0..8 and the last) and 9 |phi| floats per sample."""
        phi = parse_poly("z+w+2t")
        assert _tail(power_map, 1e-12)[0] >= 35
        tracemalloc.start()
        try:
            equidist_distance(power_map, phi, 8, 20000, seed=1, tol=1e-12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestLelong:
    def test_norm_potential(self):
        u = lambda pts: np.log(np.linalg.norm(pts.view(float).reshape(len(pts), 4), axis=1))
        assert lelong_estimate(u, (0, 0)) == pytest.approx(1.0, abs=0.02)

    def test_scaled_pole(self):
        u = lambda pts: 3.0 * np.log(np.abs(pts[:, 0]) + 1e-300)
        assert lelong_estimate(u, (0, 0)) == pytest.approx(3.0, abs=0.05)

    def test_jacobian_pole_matches_multiplicity(self, power_map):
        u = lambda pts: np.log(np.abs(8.0 * pts[:, 0] * pts[:, 1]) + 1e-300)
        assert lelong_estimate(u, (0, 0)) == pytest.approx(2.0, abs=0.05)

    def test_unstable_fit_raises(self):
        rng = np.random.default_rng(0)
        u = lambda pts: rng.standard_normal(len(pts)) * 5.0
        with pytest.raises(FitUnstable):
            lelong_estimate(u, (0, 0))

    def test_nan_fit_raises(self):
        """A NaN residual passed ``resid > 0.1`` and returned a NaN slope."""
        u = lambda pts: np.where(np.abs(pts[:, 0]) < 1e-3, np.nan, np.log(np.abs(pts[:, 0]) + 1e-300))
        with pytest.raises(FitUnstable, match="nan"):
            lelong_estimate(u, (0, 0))
        with pytest.raises(FitUnstable, match="nan"):
            kiselman_estimate(u, (0, 0), (1.0, 1.0))

    @pytest.mark.parametrize(
        "point, weights, message",
        [
            ((math.nan, 0), (1.0, 1.0), "point must be finite"),
            ((0, complex(0, math.inf)), (1.0, 1.0), "point must be finite"),
            ((0, 0), (math.inf, 1.0), "weights must be finite"),
            ((0, 0), (1.0, math.nan), "weights must be finite"),
        ],
    )
    def test_refuses_nonfinite_input(self, point, weights, message):
        with pytest.raises(ValueError, match=message):
            kiselman_estimate(u_log_abs(0), point, weights)
        if message.startswith("point"):
            with pytest.raises(ValueError, match=message):
                lelong_estimate(u_log_abs(0), point)


class TestKiselman:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.8, 1.0])
    def test_transverse_weight(self, alpha):
        est = kiselman_estimate(u_log_abs(1), (0, 0), (alpha, 1.0))
        assert est.slope == pytest.approx(alpha, abs=0.05)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_longitudinal_weight(self, alpha):
        est = kiselman_estimate(u_log_abs(0), (0, 0), (alpha, 1.0))
        assert est.slope == pytest.approx(1.0, abs=0.05)

    def test_matches_lelong_at_unit_weights(self):
        u = lambda pts: np.log(np.linalg.norm(pts.view(float).reshape(len(pts), 4), axis=1))
        ki = kiselman_estimate(u, (0, 0), (1.0, 1.0)).slope
        le = lelong_estimate(u, (0, 0))
        assert abs(ki - le) < 0.05

    def test_homogeneity(self):
        a = kiselman_estimate(u_log_abs(1), (0, 0), (0.6, 1.0)).slope
        b = kiselman_estimate(u_log_abs(1), (0, 0), (1.2, 2.0)).slope
        assert b == pytest.approx(2.0 * a, rel=0.05)

    def test_weighted_lower_bound(self):
        """The weighted density dominates min(weights) times the pole order."""
        u = lambda pts: np.log(np.abs(pts[:, 0]) + np.abs(pts[:, 1]) + 1e-300)
        le = lelong_estimate(u, (0, 0))
        for weights in ((0.5, 1.0), (1.0, 0.25)):
            ki = kiselman_estimate(u, (0, 0), weights).slope
            assert ki >= min(weights) * le - 0.05

    @pytest.mark.parametrize("r_grid", [[1e-2, 1e-3], [1e-2, 1e-3, 1e-4, 1e-5], [1e-2] * 6, [1e-2, 1e-3, 1e-4, 1e-5, 0.0]])
    @pytest.mark.parametrize("estimate", [
        lambda u, r_grid: kiselman_estimate(u, (0, 0), (1.0, 1.0), r_grid=r_grid),
        lambda u, r_grid: lelong_estimate(u, (0, 0), r_grid=r_grid),
    ], ids=["kiselman", "lelong"])
    def test_refuses_a_short_radius_grid(self, estimate, r_grid):
        """The fit drops the largest radius: two radii left a one-point fit with residual 0,
        which read 0.979 for log|z|, whose density is 1."""
        with pytest.raises(ValueError, match="5 distinct positive radii"):
            estimate(u_log_abs(0), r_grid)


class TestDecayScan:
    LINE = [(0.0, 0.0), (0.0, 0.4), (0.0, -0.25 + 0.3j)]

    def test_transverse_line_tends_to_zero(self):
        table = kiselman_decay_scan(u_log_abs(1), self.LINE, [0.5, 0.25, 0.1, 0.05])
        vals = [v for _, v in table]
        assert all(b <= a + 0.02 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1
        # the singular point dominates the sup with value about alpha
        assert vals[0] == pytest.approx(0.5, abs=0.05)

    def test_mixed_potential_decays(self):
        u = lambda pts: np.log(np.abs(pts[:, 0]) + np.abs(pts[:, 1]) + 1e-300)
        table = kiselman_decay_scan(u, self.LINE, [0.5, 0.2, 0.1])
        assert table[-1][1] < 0.15

    def test_charging_potential_flagged_by_value(self):
        """A potential with mass on the line keeps density near one."""
        table = kiselman_decay_scan(u_log_abs(0), self.LINE, [0.5, 0.2, 0.1])
        assert all(v == pytest.approx(1.0, abs=0.05) for _, v in table)


class TestSublevelVolume:
    def test_exponential_law(self):
        """u = 2 log|z| on the unit bidisk has fraction exp(-t)."""
        u = lambda pts: 2.0 * np.log(np.abs(pts[:, 0]) + 1e-300)
        table = sublevel_volume(u, ((0, 0), (1, 1)), [0.5, 1.0, 2.0, 3.0], 100000, seed=8)
        for t, frac in table:
            assert frac == pytest.approx(math.exp(-t), abs=0.01)

    def test_bounded_potential_empties(self):
        u = lambda pts: np.full(len(pts), -1.0)
        table = sublevel_volume(u, ((0, 0), (1, 1)), [0.5, 2.0], 1000, seed=9)
        assert table[0][1] == 1.0 and table[1][1] == 0.0


class TestVolumeDecay:
    def test_jacobian_bound_below_occupancy(self, power_map):
        rep = volume_decay(power_map, (2, (1.0, 1.0), 0.1), 3, 20000, seed=9)
        assert rep.jacobian_bound <= rep.occupancy + 2 * rep.jacobian_stderr

    def test_doubly_exponential_at_invariant_point(self, power_map):
        rates = []
        prev = None
        for n in (1, 2, 3, 4):
            rep = volume_decay(power_map, (2, (0.0, 0.0), 0.1), n, 6000, seed=9)
            y = math.log(math.log(1.0 / rep.occupancy))
            if prev is not None:
                rates.append(y - prev)
            prev = y
        assert np.mean(rates) == pytest.approx(math.log(2), abs=0.15 * math.log(2))

    @pytest.mark.parametrize(
        "ball, n, samples, message",
        [
            ((2, (0.4, 0.3), 0.1), -1, 500, "n must be non-negative"),
            ((2, (0.4, 0.3), 0.1), 2, 1, "need at least 2 samples"),
            ((2, (0.4, 0.3), 0.1), 2, 0, "need at least 2 samples"),
            ((2, (0.4, 0.3), 0.0), 2, 500, "radius must be positive"),
            ((2, (0.4, 0.3), -0.1), 2, 500, "radius must be positive"),
            ((2, (0.4, 0.3), math.nan), 2, 500, "radius must be positive"),
            ((5, (0.4, 0.3), 0.1), 2, 500, "chart must be 0, 1 or 2"),
            ((-1, (0.4, 0.3), 0.1), 2, 500, "chart must be 0, 1 or 2"),
            ((2, (0.4, 0.3), math.inf), 2, 500, "radius must be finite"),
            ((2, (math.nan, 0.3), 0.1), 2, 500, "center must be finite"),
        ],
    )
    def test_refuses_bad_arguments(self, power_map, ball, n, samples, message):
        with pytest.raises(ValueError, match=message):
            volume_decay(power_map, ball, n, samples, seed=9)

    @pytest.mark.parametrize(
        "ball, n_max, samples, message",
        [
            ((2, (0.4, 0.3), 0.1), 0, 500, "n_max must be at least 1"),
            ((2, (0.4, 0.3), 0.1), -1, 500, "n_max must be at least 1"),
            ((2, (0.4, 0.3), 0.1), 2, 1, "need at least 2 samples"),
            ((2, (0.4, 0.3), 0.1), 2, 0, "need at least 2 samples"),
            ((2, (0.4, 0.3), 0.0), 2, 500, "radius must be positive"),
            ((2, (0.4, 0.3), -0.1), 2, 500, "radius must be positive"),
            ((2, (0.4, 0.3), math.nan), 2, 500, "radius must be positive"),
            ((5, (0.4, 0.3), 0.1), 2, 500, "chart must be 0, 1 or 2"),
            ((-1, (0.4, 0.3), 0.1), 2, 500, "chart must be 0, 1 or 2"),
            ((2, (0.4, 0.3), math.inf), 2, 500, "radius must be finite"),
            ((2, (math.nan, 0.3), 0.1), 2, 500, "center must be finite"),
        ],
    )
    def test_sweep_refuses_bad_arguments(self, power_map, ball, n_max, samples, message):
        with pytest.raises(ValueError, match=message):
            volume_sweep(power_map, ball, n_max, samples, seed=9)

    @pytest.mark.parametrize("grid", [0, -3, 2.5, 16.0, None])
    def test_refuses_bad_grid(self, power_map, grid):
        """A grid of no cells gave an infinite occupancy, a negative one a single cell."""
        ball = (2, (0.4, 0.3), 0.1)
        with pytest.raises(ValueError, match="grid must be a positive integer"):
            volume_decay(power_map, ball, 2, 500, seed=9, grid=grid)
        with pytest.raises(ValueError, match="grid must be a positive integer"):
            volume_sweep(power_map, ball, 2, 500, seed=9, grid=grid)

    @pytest.mark.parametrize("row", CONFIGURATION_IDS)
    @pytest.mark.parametrize("d", [2, 3])
    def test_sweep_equals_per_n_reports(self, d, row):
        f = configuration_map(row, d, 1000)
        for chart in (0, 1, 2):
            ball = (chart, (0.4, 0.3), 0.1)
            sweep = volume_sweep(f, ball, 4, 800, seed=11, grid=8)
            assert sweep == [volume_decay(f, ball, n, 800, seed=11, grid=8) for n in (1, 2, 3, 4)]

    def test_slower_rate_off_exceptional_set(self, lattes):
        reps = [
            volume_decay(lattes, (2, (0.35, 0.1), 0.08), n, 6000, seed=10) for n in (1, 2, 3)
        ]
        ys = [math.log(max(math.log(1.0 / max(r.occupancy, 1e-300)), 1e-9)) for r in reps]
        rate = np.mean([b - a for a, b in zip(ys, ys[1:])])
        assert rate < math.log(2) * 0.85


def _log_jacobian_reference(f, X, n):
    """_orbit_log_jacobian with one eval_batch per partial, as before the shared table."""
    d = f.degree
    parts = [[f.components[i].partial(j) for j in range(3)] for i in range(3)]
    cur = X.copy()
    acc = np.zeros(X.shape[0])
    logdet = np.zeros(X.shape[0])
    for _ in range(n):
        D = np.empty((X.shape[0], 3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                D[:, i, j] = parts[i][j].eval_batch(cur)
        _, ld = np.linalg.slogdet(D)
        logdet = logdet + ld + 3.0 * (d - 1) * acc
        img = np.stack([p.eval_batch(cur) for p in f.components], axis=1)
        norms = np.linalg.norm(img, axis=1)
        acc = d * acc + np.log(norms)
        cur = img / norms[:, None]
    return logdet, acc, cur


def _orbit_arrays_reference(f, points, n):
    """_orbit_arrays as one pass over all points keeping every orbit step, as before blocks."""
    d = f.degree
    X = [np.asarray(points, dtype=complex)]
    a = [np.zeros(X[0].shape[0])]
    for _ in range(n):
        img = f.lift(X[-1])
        norms = np.linalg.norm(img, axis=1)
        a.append(d * a[-1] + np.log(norms))
        X.append(img / norms[:, None])
    return a, X


def _equidist_rows_reference(f, phi, n_max, samples, seed, tol):
    """equidist_distance rows as (n, l1_distance, stderr, clip_fraction) over that pass."""
    d, k = f.degree, phi.degree
    n_green = max(n_max, _tail(f, tol)[0])
    a, X = _orbit_arrays_reference(f, fs_points(samples, seed), n_green)
    g = a[n_green] / d**n_green
    rows = []
    for n in range(n_max + 1):
        vals = np.maximum(np.abs(phi.eval_batch(X[n])), 1e-300)
        vn = (np.log(vals) + k * a[n]) / (k * d**n)
        keep = vn > -CLIP_FLOOR
        diffs = np.abs(vn[keep] - g[keep])
        stderr = diffs.std(ddof=1) / math.sqrt(max(len(diffs), 2))
        rows.append((n, float(diffs.mean()), float(stderr), float(1.0 - keep.mean())))
    return rows


@functools.lru_cache(maxsize=None)
def _block_map(d):
    return random_valid_map(np.random.default_rng(70 + d), d)


class TestOrbitBlocks:
    """Blocked orbits equal one pass over all points bit for bit at every block boundary.

    A one-row block would differ: numpy evaluates a one-row table product
    through BLAS dot, which rounds differently from gemv (the B + 1 case).
    """

    @pytest.mark.parametrize("N", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_whole_array_loop(self, d, N):
        f = _block_map(d)
        phi = parse_poly("z+w+2t")
        X = fs_points(N, 80 + N)
        n = _tail(f, 1e-6)[0]
        a, xs = _orbit_arrays_reference(f, X, n)
        assert np.array_equal(green_batch(f, X, tol=1e-6), a[n] / d**n)
        absphi = [np.abs(phi.eval_batch(x)) for x in xs]
        # only the rows callers read: steps 0..n_phi, then step n
        for n_phi in (n, 2):
            got_a, got_phi = _orbit_arrays(f, X, n, phi, n_phi)
            assert got_a.shape == (n_phi + 2, N) and got_phi.shape == (n_phi + 1, N)
            assert np.array_equal(got_a, np.array(a[: n_phi + 1] + [a[n]]))
            assert np.array_equal(got_phi, np.array(absphi[: n_phi + 1]))
        got_a, got_phi = _orbit_arrays(f, X, n)
        assert got_a.shape == (2, N) and got_phi.shape == (0, N)
        assert np.array_equal(got_a, np.array([a[0], a[n]]))
        *_, got = _orbit_log_jacobian(f, X, 3)
        want = _log_jacobian_reference(f, X, 3)
        assert all(np.array_equal(u, v) for u, v in zip(got, want))
        if N >= 2:
            rep = equidist_distance(f, phi, 4, N, seed=81, tol=1e-6)
            rows = [(r.n, r.l1_distance, r.stderr, r.clip_fraction) for r in rep.per_n]
            assert rows == _equidist_rows_reference(f, phi, 4, N, 81, 1e-6)


class TestOrbitWalk:
    """The renormalized log-norm recurrence a_(k+1) = d a_k + log ||F(x_k)||, x_k unit."""

    def test_fixed_coordinate_point(self, power_map):
        a, v = _orbit_arrays(power_map, ProjPoint([1, 0, 0]).coords[None, :], 5, None, 5)
        assert a.shape == (7, 1) and v.shape == (0, 1)
        assert not a.any()

    def test_two_step_reconstruction(self, power_map):
        """a_1 plus the degree-scaled norm of the representative recovers log||F||."""
        a, _ = _orbit_arrays(power_map, ProjPoint([2, 1, 1]).coords[None, :], 1)
        lift_norm = math.log(math.sqrt(18))  # ||F(2,1,1)||
        assert a[-1, 0] + 2 * math.log(math.sqrt(6)) == pytest.approx(lift_norm, abs=1e-12)

    def test_zero_steps(self, worked_map):
        phi = parse_poly("z+w+2t")
        x = ProjPoint([1, 2, 3]).coords[None, :]
        a, v = _orbit_arrays(worked_map, x, 0, phi)
        assert a.shape == (2, 1) and not a.any()
        assert np.array_equal(v, np.abs(phi.eval_batch(x))[None, :])

    def test_renormalized_sequence_cauchy(self, worked_map):
        """d^-n a_n has gaps within the geometric tail estimate."""
        M = worked_map.lognorm_sup()
        d = worked_map.degree
        X = np.vstack([ProjPoint([0.3, -0.8, 1.1]).coords, fs_points(50, 13)])
        a, _ = _orbit_arrays(worked_map, X, 12, None, 12)
        assert np.array_equal(a[-1], a[12])
        vals = a[:-1] / float(d) ** np.arange(13)[:, None]
        for n in range(12):
            assert np.all(np.abs(vals[n + 1] - vals[n]) <= M * d ** (-n) / (d - 1) + 1e-12)

    def test_refuses_negative_steps(self, worked_map):
        with pytest.raises(ValueError, match="n must be non-negative"):
            _orbit_arrays(worked_map, fs_points(3, 14), -1)
        with pytest.raises(ValueError, match="n must be non-negative"):
            curve_potential(worked_map, parse_poly("z"), -1, ProjPoint([1, 2, 3]))

    def test_green_memory_does_not_grow_with_steps(self, power_map):
        """green_batch keeps two log-norm rows per point, not one per step: its peak
        over 20,000 points is the same at 5 steps as at 40."""
        X = fs_points(20000, 15)
        peaks = []
        for tol in (1e-1, 1e-12):
            tracemalloc.start()
            try:
                green_batch(power_map, X, tol=tol)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert _tail(power_map, 1e-12)[0] >= 8 * _tail(power_map, 1e-1)[0]
        assert peaks[1] < 1.1 * peaks[0]


def _edge_points(N, seed):
    """fs_points with exact 0 and 1 coordinates: chart rows in t, rows on z = 0, and both."""
    X = fs_points(N, seed)
    X[0::3, 2] = 1.0
    X[1::3, 0] = 0.0
    X[2::3, 1] = 0.0
    X[2::3, 2] = 1.0
    return X


class TestMonomialTable:
    @pytest.mark.parametrize("N", [1, 2, 17, 4096, 4097])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_matches_column_reference(self, d, N):
        """Equal in value; the sign of an exact zero may differ."""
        X = _edge_points(N, 90 + d)
        assert np.array_equal(monomial_table(X, d), table_reference.monomial_table(X, d))

    @pytest.mark.parametrize("N", [1, 17, 4096])
    def test_layout(self, N):
        table = monomial_table(fs_points(N, 91), 3)
        assert table.shape == (N, n_monomials(3)) and table.dtype == np.complex128
        assert table.flags.c_contiguous

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_lift_and_green_match_reference_table(self, d, monkeypatch):
        """Lifts and Green values built on either table agree bit for bit."""
        import greenp2.maps

        X = _edge_points(4096, 92 + d)
        maps = [configuration_map(row, d, 1000) for row in CONFIGURATION_IDS]
        got = [(f.lift(X), f.lift(X[5]), green_batch(f, X, tol=1e-6)) for f in maps]
        monkeypatch.setattr(greenp2.maps, "monomial_table", table_reference.monomial_table)
        want = [(f.lift(X), f.lift(X[5]), green_batch(f, X, tol=1e-6)) for f in maps]
        for g, w in zip(got, want):
            assert all(np.array_equal(u.view(np.uint64), v.view(np.uint64)) for u, v in zip(g, w))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_log_jacobian_matches_per_partial_reference(self, d):
        f = random_valid_map(np.random.default_rng(60 + d), d)
        lift = _chart_lift(ball_points(500, (0.2, -0.1j), 0.3, 61), 2)
        X = lift / np.linalg.norm(lift, axis=1)[:, None]
        # every step's state, not only the last: the values at step k do not depend on n
        for k, got in enumerate(_orbit_log_jacobian(f, X, 3)):
            want = _log_jacobian_reference(f, X, k)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_one_table_per_lift_and_two_per_jacobian_step(self, monkeypatch, worked_map):
        """Each build records its degree and how many earlier tables are still alive."""
        import greenp2.maps
        import greenp2.polys
        import greenp2.potentials

        real = greenp2.polys.monomial_table
        builds, tables = [], []

        def counting(pts, degree):
            builds.append((degree, sum(ref() is not None for ref in tables)))
            table = real(pts, degree)
            tables.append(weakref.ref(table))
            return table

        for mod in (greenp2.polys, greenp2.maps, greenp2.potentials):
            monkeypatch.setattr(mod, "monomial_table", counting)
        X = fs_points(50, 62)
        worked_map.lift(X)
        assert builds == [(2, 0)]
        builds.clear()
        for _ in _orbit_log_jacobian(worked_map, X, 1):
            pass
        # the partials' table is freed before the lift builds its own
        assert builds == [(1, 0), (2, 0)]
        builds.clear()
        volume_sweep(worked_map, (2, (0.4, 0.3), 0.1), 4, 50)
        # one walk of 4 steps, where per-n volume_decay calls walk 1 + 2 + 3 + 4
        assert builds == [(1, 0), (2, 0)] * 4
        builds.clear()
        for n in (1, 2, 3, 4):
            volume_decay(worked_map, (2, (0.4, 0.3), 0.1), n, 50)
        assert builds == [(1, 0), (2, 0)] * 10


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_unit_rows_match_norm_and_division(d):
    """Log norms and unit rows equal np.linalg.norm and true division bit for bit."""
    X = fs_points(4096, 93 + d)
    for row in CONFIGURATION_IDS:
        img = configuration_map(row, d, 1000).lift(X)
        lognorms, units = _unit_rows(img)
        norms = np.linalg.norm(img, axis=1)
        assert np.array_equal(lognorms.view(np.uint64), np.log(norms).view(np.uint64))
        assert np.array_equal(units.view(np.uint64), (img / norms[:, None]).view(np.uint64))


class TestGridOccupancy:
    @pytest.mark.parametrize("grid", [4, 16])
    def test_matches_point_loop(self, grid):
        rng = np.random.default_rng(63)
        clouds = [np.zeros((0, 2), dtype=complex), np.full((5, 2), 0.5 + 0.5j)]
        for n, scale in ((1, 1.0), (300, 0.01), (6000, 1.0), (6000, 30.0)):
            z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            clouds.append(scale * z / rng.standard_normal((n, 1)))  # heavy-tailed norms
        lift = _chart_lift(ball_points(6000, (0.35, 0.1), 0.08, 64), 2)
        *_, (_, _, Y) = _orbit_log_jacobian(lattes_map(2), lift / np.linalg.norm(lift, axis=1)[:, None], 2)
        clouds.append(Y[:, :2] / Y[:, 2:])
        for img in clouds:
            assert _grid_occupancy(img, grid) == loop_grid_occupancy(img, grid)
