# -*- coding: utf-8 -*-
"""Property-based tests (hypothesis): invariants no example table covers.

No Ray needed — these exercise the pure kernels."""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from osmlint import geo, spans, translit

CYR = "".join(translit.CYR_TO_LAT)
LATIN_OUT = set("".join(translit.CYR_TO_LAT.values()))

name_st = st.text(alphabet=CYR + "AaBb -", min_size=0, max_size=24)


@given(name_st)
def test_cyr2lat_removes_all_cyrillic(s):
    out = translit.cyr2lat_str(s)
    assert not any(ch in translit.CYR_TO_LAT for ch in out)
    # unknown chars pass through untouched
    assert all((c in translit.CYR_TO_LAT) or (c in out) for c in s)


@given(name_st)
def test_has_cyrillic_agrees_with_scalar(s):
    vec = bool(translit.has_cyrillic(pd.Series([s]))[0])
    assert vec == any(ch in translit.CYR_TO_LAT for ch in s)


@given(st.floats(-89.99, 89.99), st.floats(-179.99, 179.99),
       st.integers(1, 14))
def test_cell_parent_contains_child(lat, lon, res):
    child = geo.cell_id(np.array([lat]), np.array([lon]), res)[0]
    if res > 1:
        parent = geo.cell_parent(np.array([child]), res)[0]
        direct = geo.cell_id(np.array([lat]), np.array([lon]), res - 1)[0]
        assert parent == direct


@given(st.floats(-89.0, 89.0), st.floats(-179.0, 179.0))
def test_haversine_identity_and_symmetry(lat, lon):
    assert geo.haversine_km(lat, lon, lat, lon) == 0.0
    d1 = geo.haversine_km(lat, lon, 44.0, 20.0)
    d2 = geo.haversine_km(44.0, 20.0, lat, lon)
    assert abs(d1 - d2) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 10**7),                       # osm_id
              st.sampled_from(["node", "way", "relation"]),
              st.one_of(st.none(), name_st),               # name
              st.one_of(st.none(), name_st),               # name_sr
              st.floats(40.0, 47.0), st.floats(13.0, 24.0)),
    min_size=1, max_size=40, unique_by=lambda t: t[0]))
def test_span_roundtrip_random_frames(rows):
    df = pd.DataFrame(rows, columns=["osm_id", "entity_type", "name",
                                     "name_sr", "lat", "lon"])
    df["lat"] = df["lat"].round(7)
    df["lon"] = df["lon"].round(7)
    df["map_slug"] = "prop"
    df["seq"] = np.arange(len(df), dtype=np.int64)
    df["origin"] = "pbf"
    for c in ["name_sr_latn", "place", "is_in_country", "wikipedia",
              "wikidata", "highway", "int_name", "comment",
              "check_description", "vote", "tag_1", "val_1", "media_img"]:
        df[c] = None
    # empty-string names are droppable tags in span encoding; normalize
    for c in ("name", "name_sr"):
        df[c] = df[c].replace("", None)
    df["doc_id"] = ("prop/" + df["entity_type"] + "/"
                    + df["osm_id"].astype(str))
    from osmlint import schema
    flat = pa.Table.from_pandas(df[schema.FLAT_COLUMNS],
                                preserve_index=False)
    enc = spans.encode_table(flat)
    dec = spans.decode_batch(enc)
    back = spans.encode_table(dec)
    assert spans.spans_equal(enc, back)
    got = dec.to_pandas()
    assert list(got["osm_id"]) == list(df["osm_id"])
    assert list(got["name"].fillna("-")) == list(df["name"].fillna("-"))


#: doc_ids the decoder drops: not three parts, a non-integer id (one that
#: passes ``lstrip("-").isdigit()`` but not ``int()``), four parts, null
MALFORMED = ["bogus", "m/way/not_a_number", "m/node/--5", "a/b/3/4", None]


def _docs(doc_ids: list, names: list | None = None) -> pa.Table:
    """One well-formed span list per doc_id: origin, seq = row, geom and
    an optional name tag."""
    from osmlint import schema
    rows = []
    for i, name in enumerate(names or [None] * len(doc_ids)):
        row = [{"kind": "origin", "text": "pbf", "media_ref": "",
                "offset": 0},
               {"kind": "seq", "text": str(i), "media_ref": "", "offset": 1},
               {"kind": "geom", "text": f"Point({20 + i / 8:.7f} 44.0000000)",
                "media_ref": "", "offset": 2}]
        if name is not None:
            row.append({"kind": "tag:name", "text": name, "media_ref": "",
                        "offset": 3})
        rows.append(row)
    return pa.table([pa.array(doc_ids, pa.string()),
                     pa.array(rows, schema.DOCUMENTS.field("spans").type)],
                    schema=schema.DOCUMENTS)


def test_malformed_doc_ids_dropped():
    for bad in MALFORMED:
        out = spans.decode_batch(_docs(["m/node/1", bad, "m/node/2"]))
        assert out["osm_id"].to_pylist() == [1, 2], bad
        assert out["seq"].to_pylist() == [0, 2], bad
    # the rule is per row: a neighbour does not change what is kept
    out = spans.decode_batch(_docs(["a/b/3/4", "m/node/-7"]))
    assert out["osm_id"].to_pylist() == [-7]
    assert spans.decode_batch(_docs(MALFORMED)).num_rows == 0


def test_null_span_kind_ignored():
    t = _docs(["m/node/1"], ["a"])
    spans_type = t.schema.field("spans").type
    row = t["spans"].to_pylist()[0]
    row.insert(0, {"kind": None, "text": "x", "media_ref": None,
                   "offset": 0})
    t = t.set_column(1, "spans", pa.array([row], spans_type))
    out = spans.decode_batch(t)
    assert out.select(["osm_id", "seq", "origin", "name"]).to_pylist() == [
        {"osm_id": 1, "seq": 0, "origin": "pbf", "name": "a"}]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(
    st.one_of(st.builds("m/way/{}".format, st.integers(-10**12, 10**12)),
              st.sampled_from(MALFORMED)),
    st.one_of(st.none(), name_st)), max_size=30), st.data())
def test_decode_independent_of_batch_boundaries(rows, data):
    t = _docs([d for d, _ in rows], [n for _, n in rows])
    cut = data.draw(st.integers(0, len(rows)))
    a, b = t.slice(0, cut), t.slice(cut)
    whole = spans.decode_batch(pa.concat_tables([a, b]))
    parts = pa.concat_tables([spans.decode_batch(a), spans.decode_batch(b)])
    assert whole.equals(parts)


# --- PageRank kernel (graph._pr_local, pure numpy) -------------------------

edge_st = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)),
    min_size=1, max_size=60)


@given(edge_st)
@settings(max_examples=60, deadline=None)
def test_pagerank_mass_conserved_without_dangling(pairs):
    """When every node has an out-edge, total rank mass is exactly
    conserved at 1 each iteration: sum r' = (1-d) + d * sum r."""
    from osmlint.graph import _pr_local
    src = np.array([a for a, _ in pairs] + [b for _, b in pairs],
                   dtype=np.int64)
    dst = np.array([b for _, b in pairs] + [a for a, _ in pairs],
                   dtype=np.int64)
    # symmetrized: every endpoint is a source, so no dangling nodes
    out = _pr_local(src, dst, damping=0.85, iters=10)
    assert abs(out["pagerank"].sum() - 1.0) < 1e-9
    assert (out["pagerank"] > 0).all()


@given(st.integers(2, 12))
@settings(max_examples=20, deadline=None)
def test_pagerank_complete_graph_uniform(n):
    """The complete graph is vertex-transitive: every node holds exactly
    1/n at every iteration."""
    from osmlint.graph import _pr_local
    src, dst = zip(*[(i, j) for i in range(n) for j in range(n) if i != j])
    out = _pr_local(np.array(src), np.array(dst), damping=0.85, iters=7)
    assert np.allclose(out["pagerank"].to_numpy(), 1.0 / n, atol=1e-12)


# --- PQ assignment kernel (ann._pq_assign, pure numpy) ---------------------

@given(st.integers(0, 7), st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_pq_assign_centroid_self_identity(j, ksub):
    """A vector equal to codebook centroid j in every subspace encodes
    to j everywhere (zero distance beats any distinct random centroid)."""
    from osmlint.ann import _pq_assign
    rng = np.random.default_rng(42 + j * 100 + ksub)
    j = j % ksub
    cb = rng.normal(size=(4, ksub, 8))
    vec = cb[:, j, :].reshape(1, 32)
    codes = _pq_assign(vec, cb)
    assert (codes == j).all()
