"""Benchmark runner for greenp2: one seeded workload per process, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload cocycles --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs one untraced pass and then one traced pass, and reports
the per-layer metrics of the set-up plus the traced pass.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md for the workloads, the
metrics and what each should show.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# one BLAS thread: with the default pool, set-up time doubles and wobbles
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cocycles", "structure", "potentials", "cli")
SETUP_PROBES = 2  # extra fresh processes that only set up, for the setup_s median
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import greenp2 from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "greenp2", "__init__.py")):
        sys.exit(f"error: no greenp2 sources under {SRC}")
    sys.path.insert(0, SRC)
    import greenp2

    if os.path.dirname(os.path.dirname(os.path.abspath(greenp2.__file__))) != SRC:
        sys.exit(f"error: greenp2 imported from {greenp2.__file__}, not from {SRC}")
    import workloads

    return workloads


# -- one workload ------------------------------------------------------------------


def run_pass(items, latencies, failures, tracer=None):
    """Run the items in order; returns the pass wall time."""
    from workloads import CheckFailed

    start = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                item.run()
            else:
                tracer.call(f"item.{item.kind}", item.run)
        except CheckFailed as exc:
            failures.append((item.name, f"wrong: {exc}"))
        except Exception as exc:  # an item that raises is a counted failure
            failures.append((item.name, f"raised {type(exc).__name__}: {exc}"))
        latencies.append((item.kind, time.perf_counter() - t0))
    return time.perf_counter() - start


def tail_percentile(items_per_pass):
    """Highest ladder percentile with at least ten of one pass's items beyond it."""
    for p in TAIL_LADDER:
        if items_per_pass * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def setup_probe(name, seed):
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name, "--seed", str(seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
    return float(out.stdout.strip().splitlines()[-1])


def environment(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, sequential items",
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": ",".join(f"{v}={os.environ[v]}" for v in BLAS_VARS),
    }


def end_to_end(setups, passes, latencies, items_per_pass, n_failed):
    """Rows of (name, value, unit, note) for the untraced run."""
    import numpy

    lat = sorted(t for _, t in latencies)
    p_tail = tail_percentile(items_per_pass)
    return [
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} fresh set-ups"),
        ("run_s", statistics.median(passes), "s", f"median of {len(passes)} passes of {items_per_pass} items"),
        ("item_p50_ms", 1e3 * statistics.median(lat), "ms", f"median of {len(lat)} items"),
        ("item_tail_ms", 1e3 * float(numpy.percentile(lat, p_tail)), "ms", f"p{p_tail:g} of {len(lat)} items"),
        ("failed_frac", n_failed / len(lat), "1", f"{n_failed} failed of {len(lat)} attempted"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "peak resident memory"),
    ]


def per_layer(stats, maps, overhead):
    """The per-layer metrics of BENCHMARK.json from the tracer's aggregates."""

    def get(stem, key):
        return stats[stem][key] if stem in stats else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    stems = (
        ("polys.eval_batch", ("calls", "self_s")),
        ("polys.compose", ("self_s",)),
        ("series.mul", ("calls", "self_s")),
        ("series.reciprocal", ("self_s",)),
        ("series.local_multiplicity", ("self_s",)),
        ("roots.roots_univariate", ("calls", "self_s")),
        ("systems.solve_affine_system", ("calls", "self_s", "raised")),
        ("maps.validate", ("self_s",)),
        ("maps.preimages", ("calls", "self_s")),
        ("maps.fixed_points", ("self_s",)),
        ("multiplicities.orbit_report", ("self_s",)),
        ("multiplicities.local_degree_step", ("calls", "self_s")),
        ("invariant_sets.invariant_lines", ("self_s",)),
        ("invariant_sets.exceptional_sets", ("self_s",)),
        ("invariant_sets.invariant_points", ("self_s",)),
        ("invariant_sets.transition_matrix", ("self_s",)),
        ("invariant_sets.detect_linear_critical_components", ("self_s",)),
        ("potentials.green_batch", ("self_s",)),
        ("potentials.equidist_distance", ("self_s",)),
        ("potentials.volume_decay", ("self_s",)),
        ("potentials.sublevel_volume", ("self_s",)),
        ("generators.configuration_map", ("self_s",)),
        ("mapfile.read_map", ("total_s",)),
    )
    for stem, keys in stems:
        for key in keys:
            m[f"{stem}.{key}"] = (get(stem, key), "s" if key.endswith("_s") else "count")
    m["polys.eval_batch.points"] = (get("polys.eval_batch", "count0"), "count")
    m["roots.iterations"] = (get("roots.roots_univariate", "count0"), "count")
    m["roots.nonconverged"] = (get("roots.roots_univariate", "count1"), "count")
    m["maps.preimages.incomplete"] = (get("maps.preimages", "count0"), "count")
    m["maps.fixed_points.calls_per_map"] = (ratio(get("maps.fixed_points", "calls"), maps), "calls/map")
    m["multiplicities.orbit_chart_series.calls_per_point"] = (
        ratio(
            get("multiplicities.orbit_chart_series", "parent:multiplicities.orbit_report"),
            get("multiplicities.orbit_report", "count0"),
        ),
        "calls/point",
    )
    m["multiplicities.preimages_per_degree_step"] = (
        ratio(
            get("maps.preimages", "parent:multiplicities.local_degree_step"),
            get("multiplicities.local_degree_step", "calls"),
        ),
        "calls/step",
    )
    m["invariant_sets.invariant_lines.calls_per_map"] = (
        ratio(get("invariant_sets.invariant_lines", "calls"), maps),
        "calls/map",
    )
    m["potentials.point_steps"] = (
        get("potentials.orbit_arrays", "count0") + get("potentials.orbit_log_jacobian", "count0"),
        "count",
    )
    from tracer import CLI_COMMANDS

    for c in CLI_COMMANDS:
        m[f"cli.{c}.total_s"] = (get(f"cli.{c}", "total_s"), "s")
    m["trace.overhead_s"] = (overhead, "s")
    return m


def timed_run(args, workloads, latencies, failures):
    """Set up three times, then whole passes for --seconds; returns the end-to-end metrics."""
    wl = workloads.build(args.workload, args.seed)
    setups = [time.perf_counter() - T_START]
    setups += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    passes = []
    start = time.perf_counter()
    # closed loop: whole passes until the next one would overrun --seconds
    while not passes or time.perf_counter() - start + statistics.median(passes) <= args.seconds:
        items = wl.new_pass()
        passes.append(run_pass(items, latencies, failures))
    metrics = {}
    for name, value, unit, note in end_to_end(setups, passes, latencies, len(items), len(failures)):
        print(f"{name:<14} {value:>12.6g} {unit:<3} ({note})")
        if name != "failed_frac":  # can read 0, so it is reported through "failed"
            metrics[name] = (value, unit)
    print(f"# set-ups: {' '.join(f'{s:.3f}' for s in setups)} s; passes: {' '.join(f'{p:.3f}' for p in passes)} s")
    return metrics


def traced_run(args, workloads, latencies, failures):
    """Traced set-up, one untraced and one traced pass; returns the per-layer metrics."""
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        wl = workloads.build(args.workload, args.seed)
    setup_spans = len(tracer.spans)
    untraced = run_pass(wl.new_pass(), latencies, failures)
    items = wl.new_pass()
    with tracer:
        traced = run_pass(items, latencies, failures, tracer)
    stats = tracer.layer_stats()
    setup_stats = tracer.layer_stats(0, setup_spans)
    print(f"# passes: untraced {untraced:.3f} s, traced {traced:.3f} s, {len(tracer.spans)} spans")
    print(f"# {'layer':<52} {'calls':>9} {'total_s':>9} {'self_s':>9} {'setup self_s':>13}")
    for stem, st in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        set_self = setup_stats[stem]["self_s"] if stem in setup_stats else 0.0
        print(f"# {stem:<52} {int(st['calls']):>9} {st['total_s']:>9.3f} {st['self_s']:>9.3f} {set_self:>13.3f}")
    for kind, layers in sorted(tracer.self_by_root(setup_spans).items()):
        total = sum(layers.values()) or 1.0
        top = sorted(layers.items(), key=lambda kv: -kv[1])[:4]
        print(f"# {kind} {total:.3f} s: " + ", ".join(f"{stem} {100.0 * v / total:.0f} %" for stem, v in top))
    metrics = per_layer(stats, wl.maps_per_pass, traced - untraced)
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:>12.6g} {unit}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans_path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-spans.json")
    with open(spans_path, "w", encoding="utf-8") as fp:
        json.dump({"stems": [t.stem for t in tracer.targets], "setup_spans": setup_spans,
                   "fields": ["stem index", "parent span", "start s", "end s", "count"],
                   "spans": tracer.spans}, fp)
    print(f"# spans written to {os.path.relpath(spans_path, ROOT)}")
    return metrics


def run_workload(args):
    workloads = import_library()
    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        print(repr(time.perf_counter() - T_START))
        return 0

    print("# env " + json.dumps(environment(args), sort_keys=True))
    latencies, failures = [], []
    run = traced_run if args.trace else timed_run
    metrics = run(args, workloads, latencies, failures)

    kinds = {}
    for kind, t in latencies:
        n, tot = kinds.get(kind, (0, 0.0))
        kinds[kind] = (n + 1, tot + t)
    total_t = sum(t for _, t in latencies) or 1.0
    for kind, (n, tot) in sorted(kinds.items()):
        print(f"# kind {kind:<14} {n:>5} items ({100.0 * n / len(latencies):5.1f} %), {100.0 * tot / total_t:5.1f} % of item time")
    for name, why in failures:
        tag = "known defect" if name in workloads.KNOWN_DEFECTS else "UNEXPECTED"
        print(f"# failed [{tag}] {name}: {why}")

    result = {
        "correct": all(name in workloads.KNOWN_DEFECTS for name, _ in failures),
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


# -- all workloads -------------------------------------------------------------------


def run_all(args):
    """Each workload in its own fresh process, then one summary table."""
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        print(f"## workload {name} (exit {out.returncode})")
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        summary[name] = json.loads(out.stdout.strip().splitlines()[-1])
    names = sorted({m for res in summary.values() for m in res["metrics"]})
    print("## " + " ".join(f"{n:>14}" for n in ("metric",) + WORKLOADS))
    for m in names:
        cells = [summary[w]["metrics"].get(m, {}).get("value") for w in WORKLOADS]
        print("## " + " ".join([f"{m[:14]:>14}"] + [f"{c:>14.6g}" if c is not None else f"{'-':>14}" for c in cells]))
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
