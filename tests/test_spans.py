# -*- coding: utf-8 -*-
"""Span-sequence invariant: decode -> encode is the identity on the canonical
encoding (the driver-mandated per-row invariant)."""

import pyarrow.parquet as pq

from osmlint import spans


def test_roundtrip_all_maps(synth_small):
    docs = pq.read_table(synth_small + "/docs")
    docs = docs.select(["doc_id", "spans"])
    flat = spans.decode_batch(docs)
    re = spans.encode_table(flat)
    assert spans.spans_equal(docs, re)


def test_decode_columns(synth_small):
    docs = pq.read_table(synth_small + "/docs/map=serbia_pbf")
    flat = spans.decode_batch(docs).to_pandas()
    assert (flat["map_slug"] == "serbia_pbf").all()
    assert flat["entity_type"].isin(["node", "way", "relation"]).all()
    assert flat["lat"].between(40, 48).all()
    assert flat["lon"].between(13, 24).all()
    assert (flat["origin"] == "pbf").all()
    assert flat["seq"].is_monotonic_increasing is False or len(flat) > 0
    # offsets well-formed: spans column round-trips through flagship decode
    assert flat["osm_id"].ge(1_000_000).all()


def test_sophox_spans(synth_small):
    docs = pq.read_table(synth_small + "/docs/map=sophox_adding_name")
    flat = spans.decode_batch(docs).to_pandas()
    assert (flat["origin"] == "sophox").all()
    assert flat["check_description"].notna().all()
    assert (flat["tag_1"] == "name").all()
    assert flat["val_1"].notna().all()


def test_decode_matches_flat_table(synth_small):
    """The decoder against an independent source: ``flat.parquet``, the
    same entities as flat columns (the table the DuckDB oracles read),
    written before the docs were span-encoded."""
    from osmlint import schema
    order = [("doc_id", "ascending"), ("seq", "ascending")]
    docs = pq.read_table(synth_small + "/docs", columns=["doc_id", "spans"])
    got = spans.decode_batch(docs).sort_by(order)
    want = pq.read_table(synth_small + "/flat.parquet",
                         columns=schema.FLAT_COLUMNS).sort_by(order)
    assert got.num_rows == want.num_rows > 0
    assert got.equals(want)
