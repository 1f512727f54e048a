# -*- coding: utf-8 -*-
"""Multimodal (media span) processing stages.

The interleaved document table carries media as opaque references in
``kind="media"`` spans (``media_ref`` like ``img://<map>/<id>/photo.jpg``
for attached imagery, ``wiki://`` / ``wikidata://`` for linked resources —
see osmlint.spans).  This module is the engine-side plumbing for decoding
and featurizing them:

* schema, batching and output layout are REAL and tested;
* the byte-level decoders are stubs: no image/audio libraries exist in
  this environment, so ``decode_image`` raises ``NotImplementedError``
  unless a deterministic fake is requested.  ``media_features`` uses the
  deterministic fake (pure arithmetic on the entity id) so the pipeline is
  end-to-end runnable AND SQL-verifiable.

Every stage is a fused task stage: the fake codecs hold no state, so no
stage picks its own pool size or batch size.  A real decoder would move
its codec state into an actor pool.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from . import widths
from .pipeline import decoded

try:                                 # pragma: no cover - not in sandbox
    from PIL import Image            # noqa: F401
    HAVE_PIL = True
except ImportError:
    HAVE_PIL = False


def decode_image(payload: bytes):
    """Decode raw image bytes.  STUB: requires an imaging library that is
    not available in this environment."""
    if not HAVE_PIL:
        raise NotImplementedError(
            "image decoding requires PIL; use fake_image_meta for the "
            "deterministic test double")
    raise NotImplementedError("real decode path not exercised in sandbox")


def fake_image_meta(osm_id: np.ndarray):
    """Deterministic stand-in for decode: metadata as pure arithmetic on the
    entity id (SQL-expressible, so the stage has a DuckDB oracle)."""
    osm_id = osm_id.astype(np.int64)
    width = 320 + (osm_id % 7) * 80
    height = 240 + (osm_id % 5) * 60
    n_bytes = width * height * 3
    phash = (osm_id * np.int64(2654435761)) % np.int64(1 << 31)
    return width, height, n_bytes, phash


def media_feature_batch(batch: pa.Table) -> pa.Table:
    df = batch.to_pandas()
    has = df["media_img"].notna()
    sub = df[has]
    width, height, n_bytes, phash = fake_image_meta(sub["osm_id"].to_numpy())
    return pa.table({
        "doc_id": pa.array(sub["doc_id"].to_numpy(dtype=object),
                           type=pa.string()),
        "media_ref": pa.array(sub["media_img"].to_numpy(dtype=object),
                              type=pa.string()),
        "width": pa.array(width, type=pa.int64()),
        "height": pa.array(height, type=pa.int64()),
        "n_bytes": pa.array(n_bytes, type=pa.int64()),
        "phash": pa.array(phash, type=pa.int64()),
    })


def media_features(data_dir: str) -> rd.Dataset:
    """Every attached image span -> decoded metadata row (fake decoder)."""
    ds = decoded(data_dir)
    return ds.map_batches(media_feature_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# resize + frame-sample stages (fake codecs)
# ---------------------------------------------------------------------------

#: thumbnail box of ``media_resize``
MAX_W = 256
MAX_H = 256
#: frame step of ``media_frame_sample``, in seconds
FRAME_EVERY_S = 5


def resize_batch(batch: pa.Table, max_w: int, max_h: int) -> pa.Table:
    """Fit each image inside ``max_w`` × ``max_h`` preserving aspect
    ratio (integer floor), never upscaling.  The pixel work is the
    deterministic fake (dims from ``fake_image_meta``); with a real
    imaging lib only the body of the resize arithmetic changes."""
    df = batch.to_pandas()
    sub = df[df["media_img"].notna()]
    w, h, _, _ = fake_image_meta(sub["osm_id"].to_numpy())
    # scale = min(max_w/w, max_h/h, 1) as exact integer arithmetic:
    # out_w = floor(w * s) via integer mul/div (SQL-expressible)
    use_w = max_w * h <= max_h * w            # width is binding side
    out_w = np.where(use_w, np.minimum(max_w, w), w * max_h // h)
    out_h = np.where(use_w, h * max_w // w, np.minimum(max_h, h))
    no_up = (w <= max_w) & (h <= max_h)
    out_w = np.where(no_up, w, out_w).astype(np.int64)
    out_h = np.where(no_up, h, out_h).astype(np.int64)
    return pa.table({
        "doc_id": pa.array(sub["doc_id"].to_numpy(dtype=object),
                           type=pa.string()),
        "width": pa.array(w, type=pa.int64()),
        "height": pa.array(h, type=pa.int64()),
        "out_w": pa.array(out_w, type=pa.int64()),
        "out_h": pa.array(out_h, type=pa.int64()),
        "out_bytes": pa.array(out_w * out_h * 3, type=pa.int64()),
    })


def media_resize(data_dir: str) -> rd.Dataset:
    """Attached images → aspect-preserving thumbnail dims inside
    ``MAX_W`` × ``MAX_H``."""
    return decoded(data_dir).map_batches(
        resize_batch, batch_format="pyarrow",
        fn_kwargs={"max_w": MAX_W, "max_h": MAX_H})


def frame_sample_batch(batch: pa.Table, every_s: int) -> pa.Table:
    """Video frame sampling plumbing: each media item gets a deterministic
    fake duration (id arithmetic), and one output row per sampled frame at
    ``every_s``-second steps (frame 0 always included) — the EXPLODED
    layout a real ffmpeg-backed sampler would emit."""
    df = batch.to_pandas()
    sub = df[df["media_img"].notna()]
    osm_id = sub["osm_id"].to_numpy().astype(np.int64)
    duration = 5 + (osm_id % 30)                  # seconds, deterministic
    n_frames = duration // every_s + 1
    rows = np.repeat(np.arange(len(sub)), n_frames)
    frame_idx = np.concatenate([np.arange(n) for n in n_frames]) \
        if len(sub) else np.array([], dtype=np.int64)
    return pa.table({
        "doc_id": pa.array(sub["doc_id"].to_numpy(dtype=object)[rows],
                           type=pa.string()),
        "duration_s": pa.array(duration[rows], type=pa.int64()),
        "frame_idx": pa.array(frame_idx.astype(np.int64)),
        "ts_s": pa.array(frame_idx.astype(np.int64) * every_s,
                         type=pa.int64()),
    })


def media_frame_sample(data_dir: str) -> rd.Dataset:
    ds = decoded(data_dir)
    return ds.map_batches(frame_sample_batch, batch_format="pyarrow",
                          fn_kwargs={"every_s": FRAME_EVERY_S})


def media_dedup(data_dir: str) -> rd.Dataset:
    """Media-level dedup: one keeper per perceptual hash — the image
    analog of ``textops.dedup_exact`` (a real pipeline would feed pHash /
    SIFT-bucket signatures here; the deterministic fake codec supplies
    ``phash``, and the same entity image attached under several map
    partitions is the duplicate class this catches).

    Shape: (phash, doc_id) rows only — bytes never shuffle — reduced
    through bounded phash-hash buckets (the widths.REDUCE_BUCKETS
    rule); keeper = lexicographic min doc_id per hash."""
    def keys(batch: pa.Table) -> pa.Table:
        t = media_feature_batch(batch)
        ph = t["phash"].to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": t["doc_id"],
                         "phash": t["phash"],
                         "mb": pa.array(widths.bucket_of(ph),
                                        type=pa.int64())})

    def combine(g: pd.DataFrame) -> pa.Table:
        d = g.groupby("phash", sort=False)["doc_id"] \
            .agg(["min", "size"]).reset_index()
        return pa.table({
            "phash": pa.array(d["phash"].to_numpy(np.int64)),
            "doc_id": pa.array(d["min"].astype(str), type=pa.string()),
            "n_copies": pa.array(d["size"].to_numpy(np.int64))})

    ds = decoded(data_dir)
    return ds.map_batches(keys, batch_format="pyarrow") \
        .groupby("mb").map_groups(combine, batch_format="pandas")
