"""Outside tracer: wraps greenp2 functions and methods without editing the library.

A plain function is replaced at every binding site: each attribute of a
loaded ``greenp2`` module that holds it, and each module-level dict value
that holds it, such as the CLI's command table.
A method is replaced on its class.  Each call records one span: the target's
index, the index of the enclosing span, start and end times, and a count
taken from its arguments or return value.  Spans stay in memory; the caller
reads them once, when the run ends, through ``Tracer.layer_stats``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

RAISED = "raised"


def _points(args, out):
    pts = args[1]
    return int(pts.shape[0]) if getattr(pts, "ndim", 1) == 2 else 1


def _root_counts(args, out):
    return (out.iterations, 0 if out.converged else 1)


def _incomplete(args, out):
    return 0 if out.complete else 1


def _horizon(args, out):
    return out.horizon


def _orbit_steps(args, out):
    return int(args[1].shape[0]) * int(args[2])


@dataclass(frozen=True)
class Target:
    """One traced callable: ``stem`` names it in metrics (``<module>.<function>``)."""

    stem: str
    module: str
    path: str  # attribute path inside the module, "Class.method" for methods
    count: Callable | None = None  # (args, return value) -> count(s) stored on the span


def _t(stem, module, path=None, count=None):
    return Target(stem, "greenp2." + module, path or stem.split(".", 1)[1], count)


CLI_COMMANDS = ("green", "mult", "invariants", "classify", "equidist", "lelong", "kiselman", "volume")

TARGETS = (
    _t("polys.eval_batch", "polys", "HomogPoly3.eval_batch", _points),
    _t("polys.compose", "polys", "HomogPoly3.compose"),
    _t("series.mul", "series", "AffineSeries2.__mul__"),
    _t("series.reciprocal", "series", "AffineSeries2.reciprocal"),
    _t("series.local_multiplicity", "series"),
    _t("roots.roots_univariate", "roots", count=_root_counts),
    _t("systems.solve_affine_system", "systems"),
    _t("maps.validate", "maps", "ProjMap.validate"),
    _t("maps.preimages", "maps", "ProjMap.preimages", _incomplete),
    _t("maps.fixed_points", "maps", "ProjMap.fixed_points"),
    _t("multiplicities.orbit_report", "multiplicities", count=_horizon),
    _t("multiplicities.orbit_chart_series", "multiplicities"),
    _t("multiplicities.local_degree_step", "multiplicities"),
    _t("multiplicities.jacobian_multiplicity", "multiplicities"),
    _t("multiplicities.contraction_order", "multiplicities"),
    _t("invariant_sets.invariant_lines", "invariant_sets"),
    _t("invariant_sets.exceptional_sets", "invariant_sets"),
    _t("invariant_sets.classify", "invariant_sets"),
    _t("invariant_sets.invariant_points", "invariant_sets"),
    _t("invariant_sets.transition_matrix", "invariant_sets"),
    _t("invariant_sets.detect_linear_critical_components", "invariant_sets"),
    _t("potentials.green_batch", "potentials"),
    _t("potentials.equidist_distance", "potentials"),
    _t("potentials.volume_decay", "potentials"),
    _t("potentials.sublevel_volume", "potentials"),
    _t("potentials.kiselman_estimate", "potentials"),
    _t("potentials.lelong_estimate", "potentials"),
    _t("potentials.orbit_arrays", "potentials", "_orbit_arrays", _orbit_steps),
    _t("potentials.orbit_log_jacobian", "potentials", "_orbit_log_jacobian", _orbit_steps),
    _t("generators.configuration_map", "generators"),
    _t("generators.lattes_map", "generators"),
    _t("mapfile.read_map", "mapfile"),
) + tuple(_t(f"cli.{c}", "cli", f"_cmd_{c}") for c in CLI_COMMANDS)


class Tracer:
    """Installs span-recording wrappers; ``with tracer:`` scopes the patches."""

    def __init__(self, targets=TARGETS):
        self.targets = list(targets)
        # span: [target index, parent span index or -1, start, end, count or RAISED]
        self.spans = []
        self._stack = []
        self._undo = []

    # -- patching -------------------------------------------------------------

    def _wrap(self, index, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = self.targets[index].count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[3] = clock()
                span[4] = RAISED
                raise
            finally:
                stack.pop()
            span[3] = clock()
            if count is not None:
                span[4] = count(args, out)
            return out

        return wrapper

    def _set(self, owner, name, value):
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "greenp2" or n.startswith("greenp2.")]
        for index, target in enumerate(self.targets):
            module = importlib.import_module(target.module)
            if "." in target.path:
                cls_name, meth = target.path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(index, raw.__func__)))
                else:
                    self._set(cls, meth, self._wrap(index, raw))
                continue
            original = getattr(module, target.path)
            wrapper = self._wrap(index, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)
                    elif isinstance(value, dict) and not name.startswith("__"):
                        for key, entry in list(value.items()):
                            if entry is original:
                                self._set(value, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        return False

    def call(self, stem, fn):
        """Run ``fn()`` inside a span named ``stem`` (the benchmark's own items)."""
        index = next((i for i, t in enumerate(self.targets) if t.stem == stem), None)
        if index is None:
            index = len(self.targets)
            self.targets.append(Target(stem, "", ""))
        return self._wrap(index, fn)()

    # -- aggregation ------------------------------------------------------------

    def _self_times(self, first, last):
        spans = self.spans
        own = [spans[i][3] - spans[i][2] for i in range(first, last)]
        for i in range(first, last):
            parent = spans[i][1]
            if parent >= first:
                own[parent - first] -= spans[i][3] - spans[i][2]
        return own

    def layer_stats(self, first_span=0, last_span=None):
        """Per-stem calls, total_s, self_s and counters over a slice of the spans.

        ``total_s`` skips calls nested inside a call of the same stem, so a
        recursive function is not counted twice; ``self_s`` is a span's
        duration minus the durations of its direct child spans.
        """
        spans = self.spans
        last = len(spans) if last_span is None else last_span
        own = self._self_times(first_span, last)
        stats = defaultdict(lambda: defaultdict(float))
        for i in range(first_span, last):
            idx, parent, start, end, count = spans[i]
            st = stats[self.targets[idx].stem]
            st["calls"] += 1
            st["self_s"] += own[i - first_span]
            p = parent
            while p >= 0 and spans[p][0] != idx:
                p = spans[p][1]
            if p < 0:
                st["total_s"] += end - start
            if count == RAISED:
                st["raised"] += 1
            elif isinstance(count, tuple):
                for k, v in enumerate(count):
                    st[f"count{k}"] += v
            elif count is not None:
                st["count0"] += count
            if parent >= 0:
                st["parent:" + self.targets[spans[parent][0]].stem] += 1
        return stats

    def self_by_root(self, first_span=0):
        """Self time per (outermost span's stem, stem): where each item kind spends its time."""
        spans = self.spans
        own = self._self_times(first_span, len(spans))
        out = defaultdict(lambda: defaultdict(float))
        for i in range(first_span, len(spans)):
            root = i
            while spans[root][1] >= first_span:
                root = spans[root][1]
            out[self.targets[spans[root][0]].stem][self.targets[spans[i][0]].stem] += own[i - first_span]
        return out
