"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one pass line per
criterion.
"""

import math
import os
import subprocess
import sys

import numpy as np

from conftest import random_valid_map, sample_critical_points
from direct_reference import jacobian_multiplicity_direct, local_degree_direct
from greenp2 import (
    CONFIGURATION_IDS,
    ProjPoint,
    classify,
    configuration_map,
    dump_map_json,
    exceptional_sets,
    invariant_lines,
    invariant_points,
    parse_poly,
    transition_matrix,
)
from greenp2.multiplicities import (
    contraction_order,
    jacobian_multiplicity,
    local_degree,
    local_degree_step,
    orbit_report,
)
from greenp2.potentials import (
    equidist_distance,
    green,
    green_batch,
    kiselman_decay_scan,
    kiselman_estimate,
    sublevel_volume,
    volume_decay,
)
from greenp2.sampling import fs_points


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_green_closed_form(power_map):
    ev = green(power_map, ProjPoint([2, 1, 1]), tol=1e-6)
    target = math.log(2) - 0.5 * math.log(6)
    assert abs(ev.value - target) <= 1e-6
    _report(1, f"green([2:1:1]) = {ev.value:.8f} vs closed form {target:.8f}")


def test_criterion_02_green_lift_invariance():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10):
        f = random_valid_map(rng)
        pts = fs_points(100, rng)
        g_here = green_batch(f, pts, tol=1e-7)
        lifts = f.lift(pts)
        norms = np.linalg.norm(lifts, axis=1)
        g_image = green_batch(f, lifts / norms[:, None], tol=1e-7)
        err = np.max(np.abs(g_image + np.log(norms) - 2.0 * g_here))
        worst = max(worst, float(err))
    assert worst <= 1e-5
    _report(2, f"lift invariance over 10 maps x 100 points, worst error {worst:.2e}")


def test_criterion_03_inequality_suite():
    rng = np.random.default_rng(303)
    checked = 0
    for trial in range(50):
        d = 2 if trial % 2 == 0 else 3
        f = random_valid_map(rng, d=d)
        for p in sample_critical_points(f, 20, rng):
            mu = jacobian_multiplicity(f, p, 1)
            c = contraction_order(f, p, 1)
            e = local_degree_step(f, p)
            assert 2 * (c - 1) <= mu <= 2 * (e - 1), (d, mu, c, e)
            assert c * c <= e
            assert 0 <= mu <= 3 * (d - 1)
            assert 1 <= e <= d * d
            assert 1 <= c <= d
            checked += 1
    assert checked == 1000
    _report(3, f"{checked} critical points across 50 maps, all inequalities integer-exact")


def test_criterion_04_cocycle_laws(power_map, worked_map):
    rng = np.random.default_rng(404)
    corpus = [
        (power_map, ProjPoint([0, 0, 1])),
        (power_map, ProjPoint([1, 0, 1])),
        (worked_map, ProjPoint([0, 0, 1])),
        (worked_map, ProjPoint([1, 0, 1])),
    ]
    f_rand = random_valid_map(rng)
    corpus.append((f_rand, sample_critical_points(f_rand, 1, rng)[0]))
    pairs = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]
    checked = 0
    for f, p in corpus:
        rep = orbit_report(f, p, 4)
        orbit = f.orbit(p, 4)
        for n, k in pairs:
            # additive law, left side off the composed lift
            lhs_mu = jacobian_multiplicity_direct(f, p, n + k)
            assert lhs_mu == rep.jacobian_orders[n - 1] + sum(rep.jacobian_terms[n : n + k])
            # multiplicative law, left side a local intersection number on the
            # composed lift; its Macaulay rank gap narrows as the lift's degree
            # grows (6e9 at e = 16 on [1:0:1] of z^2:w^2:t^2, about 12 at
            # e = 32, where the count refuses), so it runs up to e = 16
            expected_e = rep.local_degrees[n + k - 1]
            if expected_e <= 16:
                assert local_degree_direct(f, p, n + k) == expected_e
            assert expected_e == rep.local_degrees[n - 1] * int(
                np.prod(rep.degree_steps[n : n + k])
            )
            # supermultiplicative contraction, submultiplicative shifted order
            assert rep.contraction_orders[n + k - 1] >= (
                rep.contraction_orders[n - 1] * rep.contraction_table[(n, k)]
            )
            assert (3 + 2 * rep.jacobian_orders[n + k - 1]) <= (
                3 + 2 * rep.jacobian_orders[n - 1]
            ) * (3 + 2 * sum(rep.jacobian_terms[n : n + k]))
            checked += 1
    _report(4, f"cocycle laws exact on {checked} (map, point, n, k) cases")


def test_criterion_05_worked_example_ground_truth(worked_map):
    corner = ProjPoint([0, 0, 1])
    assert local_degree(worked_map, corner, 1) == 4
    assert jacobian_multiplicity(worked_map, corner, 1) == 2
    assert [contraction_order(worked_map, corner, n) for n in range(1, 6)] == [1] * 5
    sets = exceptional_sets(worked_map)
    assert [L.form.to_string() for L in sets.e1_lines] == ["t"]
    pts = [p for p, _ in sets.e2_points]
    assert len(pts) == 2
    for target in ([1, 0, 0], [0, 1, 0]):
        assert any(p.dist(ProjPoint(target)) < 1e-4 for p in pts)
    assert all(p.dist(corner) > 1e-3 for p in pts)
    _report(5, "worked-example map: e=4, mu=2, flat contraction, E1={t}, E2 the swap orbit")


def test_criterion_06_power_map_structure(power_map):
    lines = invariant_lines(power_map)
    assert sorted(L.form.to_string() for L in lines) == ["t", "w", "z"]
    pts = invariant_points(power_map)
    assert len(pts) == 3
    for c in np.eye(3):
        assert any(p.dist(ProjPoint(c)) < 1e-4 for p in pts)
    tm = transition_matrix(power_map)
    assert np.array_equal(tm.matrix, 2 * np.eye(3, dtype=int))
    assert abs(tm.rho - 2.0) <= 1e-9
    assert np.allclose(tm.perron, np.ones(3))
    row = classify(exceptional_sets(power_map))
    assert row.row_id == "3-3"
    _report(6, "power map: 3 lines, 3 corners, diag(2,2,2), rho=2, perron=(1,1,1), row 3-3")


def test_criterion_07_configuration_round_trip():
    failures = []
    for d in (2, 3):
        for rid in CONFIGURATION_IDS:
            for seed in range(10):
                f = configuration_map(rid, d, rng_seed=1000 + seed)
                row = classify(exceptional_sets(f))
                if row.row_id != rid:
                    failures.append((d, rid, seed, row.row_id))
    assert failures == []
    _report(7, f"classify(generate(row)) = row for all {len(CONFIGURATION_IDS)} rows x 10 seeds at d = 2, 3")


def test_criterion_08_lattes_quotient(lattes):
    rng = np.random.default_rng(808)
    for _ in range(5):
        q = ProjPoint(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        fib = lattes.preimages(q)
        assert fib.complete and fib.total_multiplicity == 4
    sets = exceptional_sets(lattes)
    assert sets.e1_lines == [] and sets.e2_points == []
    assert invariant_points(lattes) == []
    _report(8, "product-quotient map: valid, fibers of size 4, empty exceptional structure")


def test_criterion_09_equidistribution(power_map):
    rep = equidist_distance(power_map, parse_poly("z+w+2t"), 8, 10000, seed=909)
    rows = rep.per_n
    assert rows[-1].l1_distance < 0.02
    for a, b in zip(rows, rows[1:]):
        assert b.l1_distance <= a.l1_distance + 2.0 * (a.stderr + b.stderr)
    rep_inv = equidist_distance(power_map, parse_poly("z"), 8, 10000, seed=909)
    dists = [r.l1_distance for r in rep_inv.per_n]
    assert min(dists) >= 0.1
    assert max(dists) - min(dists) <= 2.0 * max(r.stderr for r in rep_inv.per_n) + 0.01
    _report(
        9,
        f"pullbacks of z+w+2t reach L1 {rows[-1].l1_distance:.4f} at n=8; "
        f"invariant line stalls at {dists[-1]:.3f}",
    )


def test_criterion_10_weighted_density_suite():
    u_w = lambda pts: np.log(np.abs(pts[:, 1]) + 1e-300)
    u_z = lambda pts: np.log(np.abs(pts[:, 0]) + 1e-300)
    for alpha in np.arange(0.1, 1.01, 0.1):
        est = kiselman_estimate(u_w, (0, 0), (float(alpha), 1.0))
        assert abs(est.slope - alpha) <= 0.05
        est = kiselman_estimate(u_z, (0, 0), (float(alpha), 1.0))
        assert abs(est.slope - 1.0) <= 0.05
    a = kiselman_estimate(u_w, (0, 0), (0.4, 1.0)).slope
    b = kiselman_estimate(u_w, (0, 0), (0.8, 2.0)).slope
    assert abs(b - 2.0 * a) <= 0.05 * abs(2.0 * a)
    line_pts = [(0.0, 0.0), (0.0, 0.3), (0.0, -0.2 + 0.4j)]
    table = kiselman_decay_scan(u_w, line_pts, [0.4, 0.2, 0.1, 0.05])
    vals = [v for _, v in table]
    assert all(b <= a + 0.02 for a, b in zip(vals, vals[1:])) and vals[-1] <= 0.1
    _report(10, "weighted densities exact on both axes, homogeneous, and decaying in the scan")


def test_criterion_11_sublevel_exponential_decay():
    c = 2.0
    u = lambda pts: c * np.log(np.abs(pts[:, 0]) + 1e-300)
    t_grid = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
    table = sublevel_volume(u, ((0, 0), (1, 1)), t_grid, 100000, seed=1111)
    ts = np.array([t for t, frac in table])
    fr = np.array([frac for _, frac in table])
    keep = fr > 0
    slope = np.polyfit(ts[keep], np.log(fr[keep]), 1)[0]
    rate = -slope
    assert rate >= 0.9 * (2.0 / c)
    _report(11, f"sublevel decay rate {rate:.3f} >= 0.9 * (2/c) = {0.9 * 2 / c:.3f}")


def test_criterion_12_jacobian_sublevel_scaling():
    f = configuration_map("1-0", 2, rng_seed=1212)
    J = f.lift_jacobian
    scale = J.coeff_norm

    def u(pts):
        n = pts.shape[0]
        X = np.zeros((n, 3), dtype=complex)
        X[:, 0] = 1.0
        X[:, 1] = pts[:, 0]
        X[:, 2] = pts[:, 1]
        return np.log(np.abs(J.eval_batch(X)) / scale + 1e-300)

    # box centered on the invariant line {t = 0} in the z chart; the volume
    # law carries a |log s| factor, so the power is fitted inside that shape
    t_grid = [2.0, 2.5, 3.0, 3.5, 4.0, 4.5]
    table = sublevel_volume(u, ((0.3, 0.0), (0.6, 0.4)), t_grid, 100000, seed=1213)
    ts = np.array([t for t, _ in table])
    fr = np.array([frac for _, frac in table])
    keep = fr > 0
    exponent = -np.polyfit(ts[keep], np.log(fr[keep]) - np.log(ts[keep]), 1)[0]
    d = f.degree
    assert exponent >= 2.0 / (d - 1) - 0.1
    _report(12, f"Jacobian sublevel exponent {exponent:.3f} >= 2/(d-1) - 0.1 = {2/(d-1)-0.1:.1f}")


def test_criterion_13_volume_decay_regimes(power_map, lattes):
    ys = []
    for n in (1, 2, 3, 4):
        rep = volume_decay(power_map, (2, (0.0, 0.0), 0.1), n, 6000, seed=1313)
        ys.append(math.log(math.log(1.0 / rep.occupancy)))
    inner = float(np.mean(np.diff(ys)))
    assert abs(inner - math.log(2)) <= 0.15 * math.log(2)

    ys_l = []
    for n in (1, 2, 3):
        rep = volume_decay(lattes, (2, (0.35, 0.1), 0.08), n, 6000, seed=1313)
        ys_l.append(math.log(max(math.log(1.0 / max(rep.occupancy, 1e-300)), 1e-9)))
    inner_l = float(np.mean(np.diff(ys_l)))
    assert inner_l < (1.0 - 0.15) * math.log(2)
    _report(
        13,
        f"inner decay rate {inner:.3f} ~ log 2 at the invariant point; "
        f"{inner_l:.3f} away from exceptional structure",
    )


def test_criterion_14_cli_determinism(tmp_path):
    env = {**os.environ, "PYTHONPATH": "src"}
    path = tmp_path / "power.json"
    path.write_text(dump_map_json(configuration_map("3-3", 2, 0)))
    commands = [
        ["green", "--map", str(path), "--samples", "4", "--seed", "5"],
        ["equidist", "--map", str(path), "--curve", "z+w+2t", "--n", "3",
         "--samples", "500", "--seed", "5"],
        ["classify", "--map", str(path), "--seed", "5"],
        ["invariants", "--map", str(path), "--seed", "5"],
        ["gen", "table1", "--row", "2-3", "--d", "2", "--seed", "5"],
        ["mult", "--map", str(path), "--n", "2", "--seed", "5"],
        ["lelong", "--map", str(path), "--seed", "5"],
        ["kiselman", "--map", str(path), "--alpha", "0.5,1", "--seed", "5"],
        ["volume", "--map", str(path), "--n", "3", "--seed", "5"],
    ]
    for cmd in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "greenp2.cli", *cmd],
                capture_output=True, env=env,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, cmd
        assert runs[0].returncode == runs[1].returncode
    _report(14, f"{len(commands)} CLI commands byte-identical across repeated seeded runs")
