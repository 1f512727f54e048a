# -*- coding: utf-8 -*-
"""Encode/decode between span-sequence documents and flat columnar batches.

Canonical span encoding of one OSM entity (one document row):

==========================  =============================================
kind                        text / media_ref
==========================  =============================================
``origin``                  'pbf' | 'sophox' (reference entity.origin,
                            src/osm_lint_entity.py:21,50)
``seq``                     source sequence number (decimal string) — makes
                            the reference's dict-accumulation order (last-wins
                            dedup, src/sources/osm_source.py:43) reproducible
                            under parallel reads
``geom``                    'Point(<lon:.7f> <lat:.7f>)'
``tag:<key>``               tag value, in canonical tag order
``media``                   text='<lang>:<title>' media_ref='wiki://<lang>/<t>'
                            for wikipedia; text='<Q>' media_ref='wikidata://<Q>'
                            for wikidata; text='image' media_ref='img://...'
                            for attached imagery (multimodal payload)
``meta:<key>``              sophox #defaultView:Editor metadata
                            (src/sources/sophox_source.py:29-32,47-49)
``suggest:tag_N/val_N``     sophox fix-suggestion pairs
                            (src/sources/sophox_source.py:34-44)
==========================  =============================================

``offset`` is the span's position in the row (0-based).  The per-row
invariant: every transformation preserves span-sequence equality
(kind, text, media_ref, order) — checks flag, they never mutate spans.
``decode → encode`` is the identity on this encoding (tested).

This module is the one reader of the format: the doc_id layout and the
span kinds are known here only (``decode_batch``, ``doc_id_parts``), and
every pass that needs a document's fields decodes it with
``decode_batch``.  Both directions are vectorized: decode flattens the
list column once and builds each flat column as an Arrow ``take`` from the
span texts (one row → span index array per kind); encode builds the flat
span arrays, sorts by (row, canonical order) and reassembles a ListArray
from offsets.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import schema

# tag keys materialized as flat columns (the checks' effective schema,
# reference keys used throughout src/checks.py)
HOT_TAGS = [
    ("name", "name"),
    ("name:sr", "name_sr"),
    ("name:sr-Latn", "name_sr_latn"),
    ("place", "place"),
    ("is_in:country", "is_in_country"),
    ("wikipedia", "wikipedia"),
    ("wikidata", "wikidata"),
    ("highway", "highway"),
    ("int_name", "int_name"),
]
META_KEYS = [("comment", "comment"), ("check_description", "check_description"),
             ("vote", "vote")]
SUGGEST_KEYS = [("tag_1", "tag_1"), ("val_1", "val_1")]

# canonical span order keys
_ORDER = {"origin": 0, "seq": 1, "geom": 2}
for _i, (_k, _c) in enumerate(HOT_TAGS):
    _ORDER["tag:" + _k] = 3 + _i
_MEDIA_BASE = 3 + len(HOT_TAGS)
_ORDER["media:wiki"] = _MEDIA_BASE
_ORDER["media:wikidata"] = _MEDIA_BASE + 1
_ORDER["media:img"] = _MEDIA_BASE + 2
_META_BASE = _MEDIA_BASE + 3
for _i, (_k, _c) in enumerate(META_KEYS):
    _ORDER["meta:" + _k] = _META_BASE + _i
_SUG_BASE = _META_BASE + len(META_KEYS)
for _i, (_k, _c) in enumerate(SUGGEST_KEYS):
    _ORDER["suggest:" + _k] = _SUG_BASE + _i


#: a well-formed doc_id is "<map_slug>/<entity_type>/<osm_id>"
_DOC_ID = r"^[^/]*/[^/]*/-?[0-9]+$"
#: (kind, column) of every span whose text is copied into a flat column
_TEXT_COLUMNS = ([("origin", "origin")]
                 + [("tag:" + k, c) for k, c in HOT_TAGS]
                 + [("meta:" + k, c) for k, c in META_KEYS]
                 + [("suggest:" + k, c) for k, c in SUGGEST_KEYS])


def doc_id_parts(doc_id: pa.Array | pa.ChunkedArray) -> tuple:
    """(map_slug, entity_type, int64 osm_id) Arrow arrays of well-formed
    doc_ids — the one parse of the doc_id layout."""
    parts = pc.split_pattern(doc_id, "/")
    return (pc.list_element(parts, 0), pc.list_element(parts, 1),
            pc.cast(pc.list_element(parts, 2), pa.int64()))


def decode_batch(batch: pa.Table) -> pa.Table:
    """documents(doc_id, spans) -> flat columns (schema.FLAT_COLUMNS).

    Per-row error policy (the reference silently skips entities raising
    AttributeError, src/sources/osm_source.py:33-36): a row whose doc_id
    is null or does not match ``_DOC_ID`` is dropped and the count logged,
    never failing the block.  The rule is per row, so the output does not
    depend on how the table is cut into batches.

    No per-row Python: one list_flatten + list_parent_indices, then each
    column is a ``take`` from the flattened span texts."""
    ok = pc.fill_null(pc.match_substring_regex(batch["doc_id"], _DOC_ID),
                      False)
    n_bad = pc.sum(pc.invert(ok)).as_py() or 0
    if n_bad:
        logging.getLogger(__name__).warning(
            "decode_batch: dropping %d malformed doc_ids", n_bad)
        batch = batch.filter(ok)
    n = batch.num_rows
    doc_id = batch["doc_id"].combine_chunks()
    spans = batch["spans"].combine_chunks()
    flat = pc.list_flatten(spans)
    parents = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
    texts = pc.struct_field(flat, "text")
    # dictionary-encode kinds ONCE: per-kind selection is one int compare;
    # a null kind becomes '', a kind no column reads
    kind_dict = pc.dictionary_encode(
        pc.fill_null(pc.struct_field(flat, "kind"), ""))
    codes = kind_dict.indices.to_numpy(zero_copy_only=False)
    kind_of = {k: i for i, k in enumerate(kind_dict.dictionary.to_pylist())}
    # attached imagery is the 'media' span whose text is 'image'
    img_row = len(kind_of)
    media = np.flatnonzero(codes == kind_of.get("media", -1))
    is_img = pc.equal(texts.take(media), "image").to_numpy(zero_copy_only=False)
    codes = codes.copy()
    codes[media[is_img]] = img_row
    # slot[kind code, row] = index of the row's span of that kind (the last
    # one wins), -1 if none; the extra last row stays -1 for absent kinds.
    # int32 holds every index: a list array's offsets are int32
    slot = np.full((img_row + 2, n), -1, dtype=np.int32)
    slot[codes, parents] = np.arange(len(codes))

    def take(values: pa.Array, code: int) -> pa.Array:
        idx = slot[code]
        return values.take(pa.array(idx, mask=idx < 0))

    def column(kind: str) -> pa.Array:
        return take(texts, kind_of.get(kind, -1))

    map_slug, entity_type, osm_id = doc_id_parts(doc_id)
    cols = {"doc_id": doc_id, "map_slug": map_slug,
            "entity_type": entity_type, "osm_id": osm_id,
            "seq": pc.fill_null(pc.cast(column("seq"), pa.int64()), -1)}
    # geom text is always 'Point(<lon> <lat>)' (see encode_table)
    xy = pc.split_pattern(pc.utf8_slice_codeunits(column("geom"), 6, -1), " ")
    for i, c in enumerate(("lon", "lat")):
        cols[c] = pc.fill_null(pc.cast(pc.list_element(xy, i), pa.float64()),
                               np.nan)
    for kind, c in _TEXT_COLUMNS:
        cols[c] = column(kind)
    # media image refs (not derivable from tags -> must round-trip)
    cols["media_img"] = take(pc.struct_field(flat, "media_ref"), img_row)
    return pa.table([cols[c] for c in schema.FLAT_COLUMNS],
                    names=schema.FLAT_COLUMNS)


def encode_table(flat: pa.Table) -> pa.Table:
    """flat columns -> documents(doc_id, spans) in canonical span order."""
    df = flat.to_pandas()
    n = len(df)
    rows, orders, kinds, texts, medias = [], [], [], [], []

    def emit(mask: np.ndarray, order_key: str, kind, text, media=None):
        idx = np.nonzero(mask)[0]
        if len(idx) == 0:
            return
        rows.append(idx)
        orders.append(np.full(len(idx), _ORDER[order_key], dtype=np.int64))
        kinds.append(np.full(len(idx), kind, dtype=object) if isinstance(kind, str)
                     else np.asarray(kind, dtype=object)[idx])
        texts.append(np.asarray(text, dtype=object)[idx] if not isinstance(text, str)
                     else np.full(len(idx), text, dtype=object))
        medias.append(np.asarray(media, dtype=object)[idx] if media is not None
                      and not isinstance(media, str)
                      else np.full(len(idx), media or "", dtype=object))

    all_rows = np.ones(n, dtype=bool)
    emit(all_rows, "origin", "origin", df["origin"].to_numpy(dtype=object))
    emit(all_rows, "seq", "seq", df["seq"].astype(np.int64).astype(str).to_numpy(dtype=object))
    geom_txt = ("Point(" + df["lon"].map("{:.7f}".format) + " "
                + df["lat"].map("{:.7f}".format) + ")").to_numpy(dtype=object)
    emit(all_rows, "geom", "geom", geom_txt)

    for key, col in HOT_TAGS:
        vals = df[col].to_numpy(dtype=object)
        emit(pd.notna(df[col]).to_numpy(), "tag:" + key, "tag:" + key, vals)

    # media spans derived from wiki/wikidata tags + attached imagery
    wp = df["wikipedia"]
    has_wp = pd.notna(wp).to_numpy()
    wp_ref = ("wiki://" + wp.str.replace(":", "/", n=1)).to_numpy(dtype=object)
    emit(has_wp, "media:wiki", "media", wp.to_numpy(dtype=object), wp_ref)
    wd = df["wikidata"]
    has_wd = pd.notna(wd).to_numpy()
    wd_ref = ("wikidata://" + wd).to_numpy(dtype=object)
    emit(has_wd, "media:wikidata", "media", wd.to_numpy(dtype=object), wd_ref)
    img = df["media_img"]
    has_img = pd.notna(img).to_numpy()
    emit(has_img, "media:img", "media", "image", img.to_numpy(dtype=object))

    for key, col in META_KEYS:
        emit(pd.notna(df[col]).to_numpy(), "meta:" + key, "meta:" + key,
             df[col].to_numpy(dtype=object))
    for key, col in SUGGEST_KEYS:
        emit(pd.notna(df[col]).to_numpy(), "suggest:" + key, "suggest:" + key,
             df[col].to_numpy(dtype=object))

    row = np.concatenate(rows)
    order = np.concatenate(orders)
    kind = np.concatenate(kinds)
    text = np.concatenate(texts)
    media = np.concatenate(medias)
    perm = np.lexsort((order, row))
    row, kind, text, media = row[perm], kind[perm], text[perm], media[perm]

    counts = np.bincount(row, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    # offset-in-row column
    off_in_row = (np.arange(len(row)) - offsets[row]).astype(np.int32)

    struct = pa.StructArray.from_arrays(
        [pa.array(kind, type=pa.string()), pa.array(text, type=pa.string()),
         pa.array(media, type=pa.string()), pa.array(off_in_row, type=pa.int32())],
        fields=list(schema.SPAN_STRUCT),
    )
    spans = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), struct)
    return pa.table({"doc_id": flat["doc_id"], "spans": spans})


def spans_equal(a: pa.Table, b: pa.Table) -> bool:
    """Span-sequence equality (kind, text, media_ref, order) per doc_id."""
    def norm(t: pa.Table):
        idx = pc.sort_indices(t["doc_id"].combine_chunks())
        t = t.take(idx)
        flat = pc.list_flatten(t["spans"].combine_chunks())
        return (t["doc_id"].to_pylist(),
                pc.struct_field(flat, "kind").to_pylist(),
                pc.struct_field(flat, "text").to_pylist(),
                pc.struct_field(flat, "media_ref").to_pylist(),
                pc.list_value_length(t["spans"].combine_chunks()).to_pylist())
    return norm(a) == norm(b)
