"""Spans and Ray per-operator statistics for the traced run.

Nothing here is active in the end-to-end runs.  ``Tracer.install`` wraps a
fixed set of public osmlint functions so each call records a span (name,
start, end, parent), and hooks Ray Data's streaming executor so every
Dataset execution leaves its per-operator summary behind.  ``uninstall``
restores everything.  Spans are kept in memory; ``run.py`` writes them out
when the traced run ends.
"""

from __future__ import annotations

import functools
import time

#: (module, attribute, span name) of every wrapped layer entry point.  The
#: wrappers only time the call.  A function that returns a lazy Dataset
#: (``merge_overall``) gets a span for building it; its execution shows
#: as a ``ray.execute`` span under whatever span later consumes it.
WRAPPED = [
    ("osmlint.pipeline", "collision_keys", "pipeline.collision_keys"),
    ("osmlint.pipeline", "summary_per_map", "pipeline.summary_per_map"),
    ("osmlint.pipeline", "per_check_type", "pipeline.per_check_type"),
    ("osmlint.pipeline", "merge_overall", "pipeline.merge_overall"),
    ("osmlint.report", "render_report", "report.render_report"),
    ("osmlint.geocluster", "mined_eps_pairs", "geocluster.mined_eps_pairs"),
]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ray_stats: list = []
        self._stack: list[int] = []
        self._saved: list = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str):
        return _Span(self, name)

    def total(self, name: str, *, within: str | None = None,
              parent: str | None = None) -> float:
        """Summed duration of every span called ``name``, optionally only
        those under an ancestor called ``within``, or those whose direct
        parent is called ``parent``."""
        out = 0.0
        for i, s in enumerate(self.spans):
            if s["name"] != name:
                continue
            if within is not None and not self._under(i, within):
                continue
            if parent is not None and (
                    s["parent"] is None
                    or self.spans[s["parent"]]["name"] != parent):
                continue
            out += s["end"] - s["start"]
        return out

    def _under(self, sid: int, name: str) -> bool:
        p = self.spans[sid]["parent"]
        while p is not None:
            if self.spans[p]["name"] == name:
                return True
            p = self.spans[p]["parent"]
        return False

    # -- instrumentation ---------------------------------------------------

    def install(self) -> None:
        import importlib

        from ray.data._internal.execution import streaming_executor as se

        for mod_name, attr, span_name in WRAPPED:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, span_name))

        orig = se.StreamingExecutor.shutdown
        self._saved.append((se.StreamingExecutor, "shutdown", orig))
        tracer = self

        @functools.wraps(orig)
        def shutdown(ex, *a, **kw):
            r = orig(ex, *a, **kw)
            stats = getattr(ex, "_final_stats", None)
            # shutdown runs more than once per executor; keep it once and
            # summarize after the op, outside its timing
            if stats is not None and not getattr(ex, "_perfbench_seen", False):
                ex._perfbench_seen = True
                tracer._ray_stats.append(stats)
                tracer.spans.append({
                    "name": "ray.execute", "start": ex._start_time,
                    "end": time.perf_counter(),
                    "parent": tracer._stack[-1] if tracer._stack else None})
            return r
        se.StreamingExecutor.shutdown = shutdown

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, span_name: str):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            with self.span(span_name):
                return fn(*a, **kw)
        return wrapper

    def ray_ops(self) -> list[dict]:
        """One record per operator run of every Dataset execution seen."""
        out, seen = [], set()
        for stats in self._ray_stats:
            self._collect(stats.to_summary(), out, seen)
        return out

    def _collect(self, summary, out: list, seen: set) -> None:
        """A summary carries its parents' operators too, including those of
        a materialized input that ran in an earlier execution; each
        operator run is recorded once, keyed by name and start time."""
        for p in summary.parents:
            self._collect(p, out, seen)
        for o in summary.operators_stats:
            key = (o.operator_name, o.earliest_start_time)
            if key in seen:
                continue
            seen.add(key)
            rows = o.output_num_rows or {}
            out.append({
                "name": o.operator_name,
                "sub": bool(o.is_sub_operator),
                "wall_s": (o.wall_time or {}).get("sum", 0.0),
                "cpu_s": (o.cpu_time or {}).get("sum", 0.0),
                "rows_out": rows.get("sum", 0),
                "block_rows_min": rows.get("min", 0),
                "block_rows_max": rows.get("max", 0),
            })


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.sid = len(t.spans)
        t.spans.append({"name": self.name, "start": time.perf_counter(),
                        "end": None, "parent": parent})
        t._stack.append(self.sid)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.sid]["end"] = time.perf_counter()
        t._stack.pop()
        return False


#: Ray operator classes reported per layer.  Every workload runs each class.
OP_CLASSES = ("read_map", "shuffle", "map")


def op_class(op: dict) -> str | None:
    """read_map: a read with the map stages Ray fused onto it; shuffle: the
    map/reduce sub-operators of a sort, repartition or aggregate; map: a
    stand-alone map stage, in these workloads the per-group kernel after a
    shuffle.  Anything else (a stand-alone write, a row count) is counted
    only in the totals."""
    if op["sub"]:
        return "shuffle"
    if op["name"].startswith("Read"):
        return "read_map"
    if op["name"].startswith(("MapBatches", "Map(", "Filter", "FlatMap")):
        return "map"
    return None


def ray_op_metrics(ops: list[dict]) -> dict:
    """Per-class sums over every Dataset execution of one op."""
    out = {}
    for cls in OP_CLASSES:
        mine = [o for o in ops if op_class(o) == cls]
        out[cls] = {
            "wall_s": sum(o["wall_s"] for o in mine),
            "cpu_s": sum(o["cpu_s"] for o in mine),
            "rows_out": sum(o["rows_out"] for o in mine),
            "block_rows_min": min((o["block_rows_min"] for o in mine),
                                  default=0),
            "block_rows_max": max((o["block_rows_max"] for o in mine),
                                  default=0),
        }
    return out
