"""Span tracing for the traced benchmark run.

The tracer wraps the public functions and methods of each mcflow module
from outside the program: it replaces the module attributes (and every
other module's imported reference to the same function) with timing
wrappers.  Spans live in memory and are written out when the run ends.
The timed runs never install it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import os
import statistics
import sys
import time
import tracemalloc
import weakref

# Modules whose public surface is wrapped.  A module or name that a later
# version of the program drops is skipped, so it shows up as a missing span.
MODULES = (
    "analytic",
    "config",
    "curvature",
    "flow",
    "mesh",
    "monitors",
    "rescale",
    "runner",
    "scenes",
)


class Tracer:
    """Nested wall-clock spans: (name, start, end, parent index)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._last_rings = weakref.WeakKeyDictionary()
        self.ring_hits = 0
        self.ring_calls = 0
        self.ring_miss_s: list[float] = []
        self.diameter_peak_bytes: list[int] = []
        self.snapshot_bytes = 0
        self.trace_bytes = 0

    # -- spans ------------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    # -- wrappers ---------------------------------------------------------
    def wrap(self, fn, name: str):
        probe = {
            "mesh.MeshTopology.ring_neighborhoods": self._ring_probe,
            "monitors.graph_diameter": self._diameter_probe,
            "mesh.write_snapshot": self._snapshot_probe,
            "runner.run": self._run_probe,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return probe(fn, args, kwargs) if probe else fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def _ring_probe(self, fn, args, kwargs):
        # A call is a hit when it returns the very index array that the last
        # call on the same topology and ring returned: the program served a
        # stored result instead of running the BFS again.  This reads what
        # the program returned, not its private cache.
        topo = args[0]
        ring = args[1] if len(args) > 1 else kwargs.get("ring")
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        index = result[0] if isinstance(result, tuple) else result
        last = self._last_rings.setdefault(topo, {})
        self.ring_calls += 1
        if last.get(ring) is index:
            self.ring_hits += 1
        else:
            self.ring_miss_s.append(elapsed)
        last[ring] = index
        return result

    def _diameter_probe(self, fn, args, kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.diameter_peak_bytes.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def _snapshot_probe(self, fn, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        folder = os.path.dirname(os.path.abspath(str(path)))
        before = _dir_bytes(folder)
        try:
            return fn(*args, **kwargs)
        finally:
            self.snapshot_bytes += _dir_bytes(folder) - before

    def _run_probe(self, fn, args, kwargs):
        out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
        try:
            return fn(*args, **kwargs)
        finally:
            path = os.path.join(str(out_dir), "trace.ndjson")
            if os.path.exists(path):
                self.trace_bytes += os.path.getsize(path)

    def install(self, package) -> None:
        """Wrap the public functions and methods of ``package``'s modules."""
        modules = [getattr(package, name, None) for name in MODULES]
        modules = [m for m in modules if inspect.ismodule(m)]
        replaced: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{short}.{attr}")
        # rebind every module-level reference, including `from .x import y`
        loaded = [
            m for key, m in list(sys.modules.items())
            if key == package.__name__ or key.startswith(package.__name__ + ".")
        ]
        for mod in loaded:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr == "__init__" and not dataclasses.is_dataclass(cls):
                name = prefix
            elif attr.startswith("_"):
                continue
            else:
                name = f"{prefix}.{attr}"
            setattr(cls, attr, self.wrap(obj, name))

    # -- reduction --------------------------------------------------------
    def durations(self, names) -> list[float]:
        """Durations (s) of the outermost spans whose name is in ``names``."""
        names = set(names)
        out = []
        for name, start, end, parent in self.spans:
            if name in names and end is not None and not self._has_ancestor(parent, names):
                out.append(end - start)
        return out

    def self_times(self, name: str) -> list[float]:
        child_time: dict[int, float] = {}
        for _, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        return [
            (end - start) - child_time.get(i, 0.0)
            for i, (span_name, start, end, _) in enumerate(self.spans)
            if span_name == name and end is not None
        ]

    def _has_ancestor(self, parent: int, names) -> bool:
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def covered(self, start: float, end: float, prefix_excluded: str = "bench.") -> float:
        """Seconds of [start, end] covered by program spans (not bench spans)."""
        intervals = sorted(
            (max(s, start), min(e, end))
            for name, s, e, _ in self.spans
            if e is not None and not name.startswith(prefix_excluded) and e > start and s < end
        )
        total, cur_s, cur_e = 0.0, None, None
        for s, e in intervals:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            total += cur_e - cur_s
        return total

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh
            )


# Per-layer metrics: (metric prefix, span names).  ``<prefix>.ms`` is the
# median duration per call of the outermost such spans, ``<prefix>.calls``
# the calls per round.
TIMED_LAYERS = (
    ("curvature.jet_forms", ("curvature.jet_forms",)),
    ("curvature.build_frames", ("curvature.build_frames",)),
    ("curvature.second_fundamental_form", ("curvature.second_fundamental_form",)),
    ("curvature.derivative_data", ("curvature.derivative_data",)),
    ("flow.step_semi_implicit", ("flow.step_semi_implicit",)),
    ("flow.laplace_beltrami", ("flow.laplace_beltrami",)),
    ("flow.redistribute", ("flow.redistribute",)),
    ("mesh.validate_immersion", ("mesh.validate_immersion",)),
    ("mesh.MeshTopology", ("mesh.MeshTopology",)),
    ("mesh.ring_neighborhoods", ("mesh.MeshTopology.ring_neighborhoods",)),
    ("mesh.write_snapshot", ("mesh.write_snapshot",)),
    ("mesh.read_snapshot", ("mesh.read_snapshot",)),
    ("rescale.parabolic_rescale", ("rescale.parabolic_rescale",)),
    ("rescale.roundness_metrics", ("rescale.roundness_metrics",)),
    ("monitors.graph_diameter", ("monitors.graph_diameter",)),
    ("monitors.mesh_state_view", ("monitors.mesh_state_view",)),
    ("monitors.inequality_suite", ("monitors.inequality_suite",)),
    ("runner.run_analytic_trace", ("runner.run_analytic_trace",)),
    ("analytic.sobolev_check_zonal", ("analytic.sobolev_check_zonal",)),
    ("scenes.build", ("scenes.build", "config.SceneSpec.build")),
    ("config.load_config", ("config.load_config",)),
)
# Orchestrating functions whose own work (``<name>.self_ms``, minus child
# spans) is reported.
SELF_LAYERS = ("flow.run_until", "runner.run", "runner.rescale_trace", "runner.check_suite")

LAYER_UNITS = {
    "ms": "ms",
    "self_ms": "ms",
    "miss_ms": "ms",
    "calls": "count",
    "per_step": "ratio",
    "hit_ratio": "ratio",
    "snapshot_bytes": "bytes",
    "trace_bytes": "bytes",
    "rss_mb": "MB",
    "uncovered_share": "ratio",
}


def layer_metrics(tracer: Tracer, rounds: int, steps: int) -> dict[str, float]:
    """Per-layer numbers of a traced run of ``rounds`` rounds and ``steps`` flow steps."""
    out: dict[str, float] = {}
    for prefix, names in TIMED_LAYERS:
        durations = tracer.durations(names)
        out[f"{prefix}.ms"] = median_ms(durations)
        out[f"{prefix}.calls"] = len(durations) / rounds
    for name in SELF_LAYERS:
        selfs = tracer.self_times(name)
        out[f"{name}.self_ms"] = median_ms(selfs)
        out[f"{name}.calls"] = len(selfs) / rounds
    fits = len(tracer.durations(("curvature.jet_forms",)))
    out["curvature.jet_forms.per_step"] = fits / steps if steps else 0.0
    calls = tracer.ring_calls
    out["mesh.ring_neighborhoods.miss_ms"] = median_ms(tracer.ring_miss_s)
    out["mesh.ring_neighborhoods.hit_ratio"] = tracer.ring_hits / calls if calls else 0.0
    out["mesh.snapshot_bytes"] = tracer.snapshot_bytes / rounds
    out["runner.trace_bytes"] = tracer.trace_bytes / rounds
    peaks = tracer.diameter_peak_bytes
    out["monitors.graph_diameter.rss_mb"] = max(peaks) / 2 ** 20 if peaks else 0.0
    windows = [(s, e) for name, s, e, _ in tracer.spans if name == "bench.round"]
    total = sum(e - s for s, e in windows)
    covered = sum(tracer.covered(s, e) for s, e in windows)
    out["trace.uncovered_share"] = (total - covered) / total if total else 0.0
    return out


def layer_unit(metric: str) -> str:
    return LAYER_UNITS[metric.rsplit(".", 1)[-1]]


def _dir_bytes(folder: str) -> int:
    try:
        return sum(e.stat().st_size for e in os.scandir(folder) if e.is_file())
    except FileNotFoundError:
        return 0


def median_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0
