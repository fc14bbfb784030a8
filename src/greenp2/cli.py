"""Command-line front end: experiment commands over JSON map files.

Identical configuration and seed produce byte-identical output: all
randomness flows through explicitly seeded generators, JSON keys are sorted,
and every numeric report carries its provenance (seed, sample counts,
tolerances) as sibling fields.

Exit codes: 0 success, 2 when numerical-failure flags are present in an
otherwise completed report, 1 on errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import FitUnstable, GreenP2Error, ParseError
from .generators import CONFIGURATION_IDS, configuration_map, lattes_map
from .invariant_sets import classify, exceptional_sets, invariant_points, transition_matrix
from .mapfile import dump_map_json, read_map
from .maps import ProjPoint
from .multiplicities import orbit_report
from .polys import parse_poly
from .potentials import (
    _chart_lift,
    _require_power,
    _tail,
    equidist_distance,
    green_batch,
    kiselman_estimate,
    lelong_estimate,
    volume_sweep,
)
from .sampling import fs_points

CHART_INDEX = {"z": 0, "w": 1, "t": 2}


def _default_seed():
    env = os.environ.get("GREENP2_DEFAULT_SEED")
    return int(env) if env else 0


def _complex_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated complex numbers")
    return tuple(complex(p) for p in parts)


def _float_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated reals")
    return tuple(float(p) for p in parts)


def _cnum(z):
    return [float(z.real), float(z.imag)]


def _point_json(p: ProjPoint):
    return [_cnum(c) for c in p.coords]


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argparse tree, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="greenp2",
        description="Experiments for holomorphic self-maps of the projective plane",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, samples=None, n=None, tol=None, point=None):
        p.add_argument("--map", default="-", help="map JSON path, or - for stdin")
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (env GREENP2_DEFAULT_SEED)")
        if samples is not None:
            p.add_argument("--samples", type=int, default=samples)
        if n is not None:
            p.add_argument("--n", type=int, default=n)
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol)
        if point is not None:
            p.add_argument("--point", type=_complex_pair, default=point)
            p.add_argument("--chart", choices=sorted(CHART_INDEX), default="t")

    p = sub.add_parser("green", help="Green function values at seeded random points")
    common(p, samples=5, tol=1e-6)

    p = sub.add_parser("mult", help="multiplicity report at fixed points and samples")
    common(p, samples=0, n=3)

    p = sub.add_parser("invariants", help="invariant lines/points and transition matrix")
    common(p)

    p = sub.add_parser("classify", help="exceptional-set configuration")
    common(p)

    p = sub.add_parser("equidist", help="curve-pullback equidistribution distances")
    common(p, samples=10000, n=8, tol=1e-6)
    p.add_argument("--curve", default="z+w+2t", help="homogeneous curve polynomial")
    p.add_argument("--csv", default=None, help="write the distance series as CSV")

    p = sub.add_parser("lelong", help="pole order of log|Jacobian| at a chart point")
    common(p, point=(0j, 0j))

    p = sub.add_parser("kiselman", help="weighted density of log|Jacobian| at a chart point")
    common(p, point=(0j, 0j))
    p.add_argument("--alpha", type=_float_pair, default=(1.0, 1.0))

    p = sub.add_parser("volume", help="volume decay of a small ball under iteration")
    common(p, samples=20000, n=3, point=(0.4 + 0j, 0.3 + 0j))
    p.add_argument("--radius", type=float, default=0.1)
    p.add_argument("--csv", default=None, help="write the occupancy series as CSV")

    p = sub.add_parser("gen", help="generate structured maps as JSON")
    p.add_argument("kind", choices=["table1", "lattes-ueda"])
    p.add_argument("--row", default="3-3", help=f"configuration id, one of {', '.join(CONFIGURATION_IDS)}")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    return parser


def _load_map(args):
    if args.map == "-":
        return read_map(sys.stdin)
    return read_map(args.map)


def _emit(args, report, csv_rows=None):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    if csv_rows is not None and args.csv:
        lines = ["n,value,stderr,clip_fraction", *(",".join(map(str, row)) for row in csv_rows)]
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fp:
            fp.write("\n".join(lines) + "\n")
    return 2 if report.get("flags") else 0


def _cmd_green(args, seed):
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    f = _load_map(args)
    pts = fs_points(args.samples, seed)
    values = green_batch(f, pts, tol=args.tol)
    n, tail = _tail(f, args.tol)
    rows = [
        {"point": _point_json(ProjPoint(x)), "value": value, "n_used": n, "tail_bound": tail}
        for x, value in zip(pts, values.tolist())
    ]
    report = {
        "command": "green",
        "degree": f.degree,
        "tol": args.tol,
        "seed": seed,
        "samples": args.samples,
        "sup_log_norm": f.lognorm_sup(),
        "values": rows,
        "flags": [],
    }
    return _emit(args, report)


def _cmd_mult(args, seed):
    if args.samples < 0:
        raise ValueError("--samples must be non-negative")
    f = _load_map(args)
    points = [p for p, _ in f.fixed_points()]
    if args.samples:
        points += [ProjPoint(v) for v in fs_points(args.samples, seed)]
    rows = []
    flags = []
    for p in points:
        rep = orbit_report(f, p, args.n)
        rows.append(
            {
                "point": _point_json(p),
                "jacobian_orders": rep.jacobian_orders,
                "local_degrees": rep.local_degrees,
                "contraction_orders": rep.contraction_orders,
                "estimates": rep.estimates,
                "verdicts": rep.inequality_verdicts,
            }
        )
        if not all(rep.inequality_verdicts.values()):
            flags.append(f"inequality_violation_at_{len(rows) - 1}")
    report = {
        "command": "mult",
        "degree": f.degree,
        "horizon": args.n,
        "seed": seed,
        "extra_samples": args.samples,
        "points": rows,
        "flags": flags,
    }
    return _emit(args, report)


def _cmd_invariants(args, seed):
    f = _load_map(args)
    sets = exceptional_sets(f)
    tm = transition_matrix(f)
    inv_pts = invariant_points(f)
    flags = []
    if not all(sets.line_order_checks):
        flags.append("line_order_check_failed")
    report = {
        "command": "invariants",
        "degree": f.degree,
        "seed": seed,
        "lines": [
            {
                "coeffs": [_cnum(c) for c in L.form.coeffs],
                "lambda": _cnum(L.lam),
                "residual": L.residual,
            }
            for L in sets.e1_lines
        ],
        "line_order_checks": sets.line_order_checks,
        "points": [
            {"point": _point_json(p), "kind": kind} for p, kind in sets.e2_points
        ],
        "assumption_flag": sets.assumption_flag,
        "invariant_points": [_point_json(p) for p in inv_pts],
        "transition": tm.as_dict(),
        "flags": flags,
    }
    return _emit(args, report)


def _cmd_classify(args, seed):
    f = _load_map(args)
    sets = exceptional_sets(f)
    row = classify(sets)
    report = {
        "command": "classify",
        "degree": f.degree,
        "seed": seed,
        "lines": row.n_lines,
        "points": row.n_points,
        "row_id": row.row_id,
        "label": row.label,
        "incidence": row.incidence,
        "note": row.note,
        "flags": [] if row.row_id != "unlisted" else ["unlisted_configuration"],
    }
    return _emit(args, report)


def _cmd_equidist(args, seed):
    f = _load_map(args)
    _require_power(f, args.n, f"--n {args.n}")
    phi = parse_poly(args.curve)
    rep = equidist_distance(f, phi, args.n, args.samples, seed, tol=args.tol)
    flags = [
        f"clip_fraction_exceeded_at_n_{row.n}"
        for row in rep.per_n
        if row.clip_fraction >= 0.05
    ]
    # a flat distance series is a mathematical outcome, not a failure
    notes = ["no_convergence_trend"] if rep.per_n[-1].l1_distance >= 0.1 else []
    report = {
        "command": "equidist",
        "degree": f.degree,
        "curve": args.curve,
        "curve_degree": phi.degree,
        "samples": args.samples,
        "seed": seed,
        "tol": args.tol,
        "notes": notes,
        "rows": [
            {
                "n": row.n,
                "l1_distance": row.l1_distance,
                "stderr": row.stderr,
                "clip_fraction": row.clip_fraction,
            }
            for row in rep.per_n
        ],
        "flags": flags,
    }
    csv_rows = [
        (row.n, row.l1_distance, row.stderr, row.clip_fraction) for row in rep.per_n
    ]
    return _emit(args, report, csv_rows)


def _jacobian_chart_potential(f, chart):
    J = f.lift_jacobian
    scale = max(J.coeff_norm, 1e-300)

    def u(pts):
        return np.log(np.abs(J.eval_batch(_chart_lift(pts, chart))) / scale + 1e-300)

    return u


def _cmd_lelong(args, seed):
    f = _load_map(args)
    chart = CHART_INDEX[args.chart]
    u = _jacobian_chart_potential(f, chart)
    flags = []
    try:
        est = lelong_estimate(u, args.point, seed=seed)
    except FitUnstable as exc:
        est = float("nan")
        flags.append(f"fit_unstable: {exc}")
    report = {
        "command": "lelong",
        "degree": f.degree,
        "potential": "log|Jacobian|",
        "chart": args.chart,
        "point": [_cnum(c) for c in args.point],
        "seed": seed,
        "estimate": est,
        "flags": flags,
    }
    return _emit(args, report)


def _cmd_kiselman(args, seed):
    f = _load_map(args)
    chart = CHART_INDEX[args.chart]
    u = _jacobian_chart_potential(f, chart)
    flags = []
    try:
        est = kiselman_estimate(u, args.point, args.alpha, seed=seed)
        value, resid = est.slope, est.fit_residual
    except FitUnstable as exc:
        value, resid = float("nan"), float("nan")
        flags.append(f"fit_unstable: {exc}")
    report = {
        "command": "kiselman",
        "degree": f.degree,
        "potential": "log|Jacobian|",
        "chart": args.chart,
        "point": [_cnum(c) for c in args.point],
        "weights": list(args.alpha),
        "seed": seed,
        "estimate": value,
        "fit_residual": resid,
        "flags": flags,
    }
    return _emit(args, report)


def _cmd_volume(args, seed):
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    f = _load_map(args)
    _require_power(f, 2 * args.n, f"--n {args.n}")  # the Jacobian bound divides by d^2n
    chart = CHART_INDEX[args.chart]
    rows = [
        {
            "n": rep.n,
            "jacobian_bound": rep.jacobian_bound,
            "jacobian_stderr": rep.jacobian_stderr,
            "occupancy": rep.occupancy,
            "occupancy_cells": rep.occupancy_cells,
        }
        for rep in volume_sweep(f, (chart, args.point, args.radius), args.n, args.samples, seed=seed)
    ]
    flags = []
    if any(r["occupancy"] == 0.0 for r in rows):
        flags.append("occupancy_underflow")
    report = {
        "command": "volume",
        "degree": f.degree,
        "chart": args.chart,
        "center": [_cnum(c) for c in args.point],
        "radius": args.radius,
        "samples": args.samples,
        "seed": seed,
        "rows": rows,
        "flags": flags,
    }
    csv_rows = [(r["n"], r["occupancy"], r["jacobian_stderr"], 0.0) for r in rows]
    return _emit(args, report, csv_rows)


def _cmd_gen(args, seed):
    if args.kind == "table1":
        f = configuration_map(args.row, args.d, seed)
        meta = {"generator": "table1", "row": args.row, "degree": args.d, "seed": seed}
    else:
        f = lattes_map(args.d)
        meta = {"generator": "lattes-ueda", "degree": args.d}
    text = dump_map_json(f, meta)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "green": _cmd_green,
    "mult": _cmd_mult,
    "invariants": _cmd_invariants,
    "classify": _cmd_classify,
    "equidist": _cmd_equidist,
    "lelong": _cmd_lelong,
    "kiselman": _cmd_kiselman,
    "volume": _cmd_volume,
    "gen": _cmd_gen,
}


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        return _COMMANDS[args.command](args, seed)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GreenP2Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
