# -*- coding: utf-8 -*-
"""Source tripwire: the text, embedding, event, graph, media, raster and
spatial-statistics operators take only their input.  A value an operator
always runs with is a module constant, read on the driver at call time
(tests patch it with ``monkeypatch.setattr``); a keyword option stays
only where two non-test callers pass different values, and each such
survivor is listed here with those two callers."""

import ast
import os

OSMLINT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "osmlint")

MODULES = ("textops", "ann", "eventops", "graph", "media", "raster",
           "geostats", "geocluster")

#: module.function.option -> its two non-test callers
ALLOWED = {
    "ann.read_embeddings.coalesce":
        "topk_neighbors (default split) / topk_neighbors_ivf (coalesced)",
    "ann.topk_neighbors_ivf.nprobe":
        "ann_topk_ivf entry (IVF_NPROBE) / ann_topk_ivf_fullprobe (IVF_K)",
    "ann.knn_graph_ivf.nprobe":
        "knn_graph_ivf entry (IVF_NPROBE) / knn_graph_ivf_fullprobe (IVF_K)",
    "ann.knn_graph_ivf.as_dataset":
        "knn_graph_ivf entry (pandas) / knn_pagerank (Dataset)",
    "eventops.read_events.columns":
        "window_agg (ts, event_type, value) / sessionize (ts, user_id)",
    "graph.cluster_labels.as_dataset":
        "ann.dedup_cosine_clusters (pandas) / geocluster DBSCAN (Dataset)",
    "textops.dedup_clusters.as_dataset":
        "dedup_clusters entry (pandas) / dedup_apply (Dataset)",
    "textops.decontaminate.bloom_prefilter":
        "decontaminate entry (exact) / decontaminate_bloom entry (Bloom)",
    "textops.quality_quantiles_sketch.cap":
        "registry entry (SKETCH_CAP) / its own exact fallback (uncapped)",
}


def keyword_options(src: str, module: str) -> list:
    """``module.function.option`` for every parameter with a default on
    a public module-level function."""
    found = []
    for fn in ast.parse(src).body:
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
            continue
        a = fn.args
        pos = a.posonlyargs + a.args
        names = [p.arg for p in pos[len(pos) - len(a.defaults):]]
        names += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                  if d is not None]
        found += [f"{module}.{fn.name}.{n}" for n in names]
    return found


def test_detector_sees_keyword_defaults():
    src = (
        "def op(sf_dir, tau=0.5, *, cap=4, keep):\n"
        "    return sf_dir\n"
        "def kernel(batch, k):\n"
        "    return batch\n"
        "def _helper(x, y=1):\n"
        "    return x\n"
        "class C:\n"
        "    def m(self, z=2):\n"
        "        return z\n"
        "def outer(sf_dir):\n"
        "    def inner(b, w=3):\n"
        "        return b\n"
        "    return inner\n")
    assert keyword_options(src, "m") == ["m.op.tau", "m.op.cap"]


def test_operators_take_only_their_input():
    found = set()
    for m in MODULES:
        with open(os.path.join(OSMLINT, f"{m}.py"), encoding="utf-8") as f:
            found |= set(keyword_options(f.read(), m))
    extra = sorted(found - set(ALLOWED))
    assert not extra, (
        "make these module constants read on the driver at call time, or "
        "list the option in ALLOWED with two non-test callers that pass "
        "different values: " + repr(extra))
    assert found == set(ALLOWED), sorted(set(ALLOWED) - found)
