# -*- coding: utf-8 -*-
"""Arrow schemas for the engine's tables.

The input table is the driver-mandated interleaved text+media document table
(BASELINE.json ``input_hint``)::

    doc_id: string
    spans:  list<struct<kind:string, text:string, media_ref:string, offset:int32>>

Every OSM entity (reference: src/osm_lint_entity.py:9-58, an open tag dict +
id/type/lat/lon/origin) is one document; tags / geometry / provenance /
sophox metadata / fix suggestions are spans in a canonical order (see
``osmlint.spans``).  Checks are read-only over documents: they *flag* (rows
of the flags table), they never mutate spans.
"""

from __future__ import annotations

import pyarrow as pa

SPAN_STRUCT = pa.struct([
    ("kind", pa.string()),
    ("text", pa.string()),
    ("media_ref", pa.string()),
    ("offset", pa.int32()),
])

DOCUMENTS = pa.schema([
    ("doc_id", pa.string()),
    ("spans", pa.list_(SPAN_STRUCT)),
])

# Decoded flat view produced by spans.decode_batch (engine-internal).
FLAT_COLUMNS = [
    "doc_id", "map_slug", "entity_type", "osm_id", "seq", "lat", "lon",
    "origin", "name", "name_sr", "name_sr_latn", "place", "is_in_country",
    "wikipedia", "wikidata", "highway", "int_name",
    "comment", "check_description", "vote", "tag_1", "val_1", "media_img",
]

# flags table: one row per (map, doc, check) with a non-N/A result
# (reference result model: src/engine.py:62-77; N/A rows are never
# materialized, matching check_all(filter_not_checked=True) src/engine.py:79-86).
FLAGS = pa.schema([
    ("doc_id", pa.string()),
    ("map_name", pa.string()),
    ("osm_id", pa.int64()),
    ("seq", pa.int64()),
    ("display_name", pa.string()),
    ("entity_type", pa.string()),
    ("check_name", pa.string()),
    ("result", pa.string()),       # 'CHECKED_OK' | 'CHECKED_ERROR'
    ("message", pa.string()),
    ("fixable", pa.bool_()),
])

# fixes table: the plan side of the reference's interactive fix mode
# (plan/apply split; reference fix flow src/engine.py:26-47).
FIXES = pa.schema([
    ("doc_id", pa.string()),
    ("map_name", pa.string()),
    ("check_name", pa.string()),
    ("tag", pa.string()),
    ("action", pa.string()),       # 'add' | 'set' | 'delete'
    ("new_value", pa.string()),
    ("message", pa.string()),
])
