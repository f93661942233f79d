"""Run one bundlemin CLI command in process with timing wrappers installed
around the public functions at each module boundary.

    python3 perfbench/tracer.py OUT_PREFIX COMMAND [CLI ARGS...]

Spans (name, start, end, parent) are kept in memory and written when the
command ends: raw to ``OUT_PREFIX.npz`` and summed per span name (calls,
inclusive seconds, self seconds) with the counters to ``OUT_PREFIX.json``.
The exit code is the command's own.  Needs ``src`` on ``PYTHONPATH``.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable

import numpy as np

from bundlemin import analysis, base_systems, bundles, cli, constructions, graphs, plotting

MODULES = (graphs, base_systems, bundles, constructions, analysis, plotting, cli)

# span name -> (owner, attribute); module functions are replaced in every
# bundlemin module that imported them by name
FUNCTIONS = {
    "graphs.eval_graph_map": (graphs, "eval_graph_map"),
    "graphs.enumerate_circles": (graphs, "enumerate_circles"),
    "graphs.distances_to_many": (graphs.MetricGraph, "distances_to_many"),
    "bundles.apply_skew": (bundles, "apply_skew"),
    "bundles.transport_to": (bundles, "transport_to"),
    "analysis.approximate_minimal_set": (analysis, "approximate_minimal_set"),
    "analysis.thin": (analysis, "_thin_points"),
    "analysis.sampled_set_init": (analysis.SampledSet, "__post_init__"),
    "analysis.fibre_slice": (analysis.SampledSet, "fibre_slice"),
    "analysis.classify_fibre": (analysis, "classify_fibre"),
    "analysis.endpoint_statistics": (analysis, "endpoint_statistics"),
    "analysis.interior_detector": (analysis, "interior_detector"),
    "analysis.typical_fibre_report": (analysis, "typical_fibre_report"),
    "analysis.circles_report": (analysis, "circles_report"),
    "cli.sample_to_csv": (cli, "sample_to_csv"),
    "cli.csv_to_points": (cli, "csv_to_points"),
    "plotting.render_sample_svg": (plotting, "render_sample_svg"),
}

# called with the bound arguments and the result of a traced call
Observer = Callable[[dict, object], None]


class Tracer:
    """Span recorder: parallel arrays indexed by span number."""

    def __init__(self) -> None:
        self.names: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter[str] = Counter()
        self.classify_inputs: set[str] = set()

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        nid = self.names.setdefault(name, len(self.names))
        name_idx, parent, start, end, stack = (
            self.name_idx, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter
        sig = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_idx.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if observe is not None:
                observe(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # counters observed at the boundaries

    def _orbit(self, args: dict, sample) -> None:
        self.counters["analysis.orbit.kept"] += len(sample.points)
        self.counters["analysis.orbit.steps"] += args["n"]

    def _classify_input(self, args: dict, _result) -> None:
        key = repr(([(p.edge, p.t) for p in args["fibre_sample"]], args["delta"])).encode()
        self.classify_inputs.add(hashlib.sha256(key).hexdigest())
        self.counters["analysis.classify_fibre.distinct"] = len(self.classify_inputs)

    def _wrap_base(self, _args: dict, result) -> None:
        # BaseSystem is frozen, so its callable fields are replaced on the
        # built instance; every caller reaches them through that instance
        base = result.system.base
        for field in ("apply", "embedding"):
            object.__setattr__(base, field, self.wrap(f"base_systems.{field}", getattr(base, field)))

    def install(self) -> None:
        observers = {
            "analysis.approximate_minimal_set": self._orbit,
            "analysis.classify_fibre": self._classify_input,
        }
        for name, (owner, attr) in FUNCTIONS.items():
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, observers.get(name))
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        for key, build in list(cli.CONSTRUCTIONS.items()):
            cli.CONSTRUCTIONS[key] = self.wrap("constructions.build", build, self._wrap_base)

    def write(self, prefix: str) -> None:
        names = sorted(self.names, key=self.names.get)
        idx = np.frombuffer(self.name_idx, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        np.savez(prefix + ".npz", names=np.array(names), name_idx=idx, parent=parent,
                 start=start, end=end)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        calls = np.bincount(idx, minlength=len(names))
        total = np.bincount(idx, weights=dur, minlength=len(names))
        own = np.bincount(idx, weights=dur - child, minlength=len(names))
        spans = {n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
                 for i, n in enumerate(names)}
        with open(prefix + ".json", "w") as f:
            json.dump({"spans": spans, "counters": dict(self.counters)}, f, indent=1)


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.write(prefix)


if __name__ == "__main__":
    sys.exit(main())
