# -*- coding: utf-8 -*-
"""Ray Data pipelines: read → decode → tile-join → checks → flags → aggregates.

Physical shape (cf. the reference's one-OS-process-per-map execution,
src/main.py:223-232 — here parallelism is per block, map identity is data):

* ``decoded`` is the one decoded read of the document table: every
  operator in the package takes its read → decode [→ dedup] [→ PIP]
  prefix from it, with column pruning (doc_id, spans only) at the read;
* decode + cell indexing are stateless ``map_batches`` tasks over zero-copy
  Arrow batches;
* the PIP tile join and the check kernels are TASK-based ``map_batches``
  stages with a per-worker state cache (``_cached``): Ray fuses the whole
  chain into one task per block, warm workers reuse the STRtree / lookup
  state built from ``ray.put`` broadcasts, and no stage reserves CPUs;
* per-source last-wins dedup (src/sources/osm_source.py:43) is a broadcast
  anti-join — collision keys come from a distributed pre-pass
  (``collision_keys``: ``spans.decode_batch`` → narrow key projection,
  bucket groupby, per-bucket numpy reduce; the driver sees only
  collisions), the big stream never shuffles; the cross-source first-wins
  merge (src/main.py:95-112) is a bucketed keyed shuffle with a
  deterministic ordering column (map_order);
* the report (A1–A3, src/main.py:52-112) is ONE osm_id-bucket shuffle:
  each bucket emits its merged rows plus per-map / per-check partials, so
  the driver only sums partials and never sees the merged rows it drops.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from . import caches
from . import checks as checks_mod
from . import config as config_mod
from . import geo, schema, spans, widths
from .widths import read_blocks

CELL_RES = 8  # quad-cell resolution for locality/grouping (≈0.17° cells)


def to_arrow(df: pd.DataFrame, arrow_schema: pa.Schema | None = None) -> pa.Table:
    """pandas -> Arrow block.  EVERY stage that feeds a Ray Data shuffle
    (groupby / aggregate / sort) must emit Arrow blocks: the sort path over
    pandas blocks is ~25x slower (measured: 2M-row int groupby 269 s pandas
    vs 10.8 s Arrow).  An explicit schema keeps empty blocks type-stable."""
    if arrow_schema is not None:
        t = pa.Table.from_pandas(df, schema=arrow_schema,
                                 preserve_index=False)
    else:
        t = pa.Table.from_pandas(df, preserve_index=False)
    # strip the pandas metadata blob: blocks from different workers then
    # share ONE hashable schema (Ray's schema-dedup otherwise logs
    # "Failed to hash the schemas ... unhashable type: 'dict'")
    return t.replace_schema_metadata(None)


def _resolve(ref):
    """Accept a ray.ObjectRef (broadcast) or a plain object (tests)."""
    if ref is None or isinstance(ref, (pd.DataFrame, dict)):
        return ref
    return ray.get(ref)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def doc_partitions(data_dir: str) -> list[str]:
    """The authoritative map-shard listing of the hive-partitioned docs."""
    docs = os.path.join(data_dir, "docs")
    return sorted(d.split("=", 1)[1] for d in os.listdir(docs)
                  if d.startswith("map="))


def read_documents(data_dir: str) -> rd.Dataset:
    """Pruned read of the interleaved document table: ONLY the
    (doc_id, spans) columns leave storage.  The north-rule input format
    is a Lance table — when ``<data_dir>/docs.lance`` exists it is read
    via ``ray.data.read_lance`` (column projection pushed down the same
    way); this sandbox pre-materializes hive-partitioned parquet and
    does not ship the lance wheel, so the parquet path is the tested
    default and the Lance branch is env-gated like the media codecs."""
    lance_path = os.path.join(data_dir, "docs.lance")
    if os.path.exists(lance_path):
        try:
            import lance  # noqa: F401 — availability probe
        except ImportError as e:
            raise NotImplementedError(
                "docs.lance present but the lance reader is not installed "
                "in this environment; install pylance or materialize the "
                "parquet mirror") from e
        return rd.read_lance(lance_path, columns=["doc_id", "spans"])
    return rd.read_parquet(os.path.join(data_dir, "docs"),
                           columns=["doc_id", "spans"],
                           override_num_blocks=read_blocks())


def decode_and_index(batch: pa.Table) -> pa.Table:
    """spans -> flat columns + quad-cell ids (stateless, vectorized)."""
    flat = spans.decode_batch(batch)
    lat = flat["lat"].to_numpy(zero_copy_only=False)
    lon = flat["lon"].to_numpy(zero_copy_only=False)
    cell = geo.cell_id(lat, lon, CELL_RES)
    mort = geo.morton_cell(lat, lon, CELL_RES)
    flat = flat.append_column("cell_id", pa.array(cell, type=pa.int64()))
    flat = flat.append_column("morton", pa.array(mort, type=pa.int64()))
    return flat


class PipAssign:
    """STRtree point-in-polygon assignment of each doc to a country polygon
    (priority order, first wins) and an okrug tile; built once per worker
    by ``pip_assign_batch``, a task-based ``map_batches`` stage."""

    def __init__(self, countries_ref, tiles_ref):
        countries = _resolve(countries_ref)
        tiles = _resolve(tiles_ref)
        self.countries = countries.sort_values("priority")
        self.c_index = geo.PolygonIndex([
            (r.country,
             [r.minlat, r.minlat, r.maxlat, r.maxlat],
             [r.minlon, r.maxlon, r.maxlon, r.minlon])
            for r in self.countries.itertuples()])
        self.t_index = geo.PolygonIndex([
            (r.tile_name,
             [r.minlat, r.minlat, r.maxlat, r.maxlat],
             [r.minlon, r.maxlon, r.maxlon, r.minlon])
            for r in tiles.itertuples()])
        self.c_names = np.array(list(self.c_index.names) + [None], dtype=object)
        self.t_names = np.array(list(self.t_index.names) + [None], dtype=object)
        self.t_ids = np.append(tiles["tile_id"].to_numpy(), -1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        ci = self.c_index.assign(lat, lon)
        ti = self.t_index.assign(lat, lon)
        batch = batch.append_column("country", pa.array(self.c_names[ci]))
        batch = batch.append_column("tile_id", pa.array(self.t_ids[ti],
                                                        type=pa.int64()))
        batch = batch.append_column("tile_name", pa.array(self.t_names[ti]))
        return batch


class FlagStage:
    """Run every configured map-check suite that reads this batch's map
    partition; emit flags rows (result model src/engine.py:62-86).  Built
    once per worker by ``flag_batch``, a task-based ``map_batches`` stage."""

    def __init__(self, wiki_ref_ref=None, wikidata_ref_ref=None, map_checks=None):
        wiki_ref = _resolve(wiki_ref_ref)
        wikidata_ref = _resolve(wikidata_ref_ref)
        # index lookup tables ONCE per worker; batches only hash-probe
        self.wiki_ref = (wiki_ref.drop_duplicates("title").set_index("title")
                         if wiki_ref is not None else None)
        self.wikidata_ref = (wikidata_ref.set_index("qid")
                             if wikidata_ref is not None else None)
        self.by_slug = {}
        for mc in (map_checks or config_mod.default_map_checks()):
            self.by_slug.setdefault(mc.slug, []).append(mc)

    def flags_for(self, df: pd.DataFrame) -> pd.DataFrame:
        """Flags for one single-map flat DataFrame (all configured suites)."""
        out = []
        have_name = (df["name"].notna() & (df["name"] != "")).to_numpy()
        disp = df["name"].where(pd.Series(have_name, index=df.index),
                                df["osm_id"].astype(str))
        have_sr = df["name_sr"].notna().to_numpy()
        disp = disp.where(~have_sr, disp + " / " + df["name_sr"].fillna(""))
        for slug, grp in ([(df["map_slug"].iat[0], df)]
                          if df["map_slug"].nunique() == 1
                          else df.groupby("map_slug", sort=False)):
            for mc in self.by_slug.get(slug, []):
                ctx = checks_mod.Ctx(grp, mc.serbia_mode,
                                     self.wiki_ref, self.wikidata_ref)
                for fqn in mc.checks:
                    chk = checks_mod.CHECKS[fqn]
                    app, msg = chk.run(ctx)
                    idx = np.nonzero(app)[0]
                    if len(idx) == 0:
                        continue
                    m = msg[idx]
                    iserr = m != ""
                    out.append(pd.DataFrame({
                        "doc_id": grp["doc_id"].to_numpy()[idx],
                        "map_name": mc.map_name,
                        "osm_id": grp["osm_id"].to_numpy()[idx],
                        "seq": grp["seq"].to_numpy()[idx],
                        "display_name": disp.to_numpy()[idx] if grp is df
                        else disp.loc[grp.index].to_numpy()[idx],
                        "entity_type": grp["entity_type"].to_numpy()[idx],
                        "check_name": fqn,
                        "result": np.where(iserr, "CHECKED_ERROR", "CHECKED_OK"),
                        "message": m,
                        "fixable": iserr & chk.fixable,
                    }))
        if not out:
            return schema.FLAGS.empty_table().to_pandas()
        return pd.concat(out, ignore_index=True)

    def __call__(self, batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return to_arrow(self.flags_for(df), schema.FLAGS)


def _cached(tag: str, refs: tuple, builder):
    """Per-worker-process state cache.  Task-based stages + this cache give
    actor-pool state reuse (build once per process) without actor-pool
    costs: no pool spawn per execution, no fixed CPU reservation, and Ray
    can fuse the whole decode→dedup→PIP→checks chain into one task.

    An ObjectRef is keyed by its id string.  A plain object (the
    in-process path passes DataFrames) is keyed by ``id()`` — never by
    ``str()``, which formats the whole frame and prints two long frames
    that differ only in middle rows identically — and is pinned in the
    cached value so its id cannot be reused while the entry lives.  Keyed
    by input identity, the entry can never serve state for regenerated
    inputs (new input ⇒ new ref ⇒ new key)."""
    key = ("stage", tag) + tuple(
        str(r) if isinstance(r, ray.ObjectRef) else id(r) for r in refs)
    return caches.memo(key, lambda: (builder(), [
        r for r in refs if not isinstance(r, ray.ObjectRef)]))[0]


def pip_assign_batch(batch: pa.Table, countries_ref, tiles_ref) -> pa.Table:
    stage = _cached("pip", (countries_ref, tiles_ref),
                    lambda: PipAssign(countries_ref, tiles_ref))
    return stage(batch)


def flag_batch(batch: pa.Table, wiki_ref_ref, wikidata_ref_ref) -> pa.Table:
    stage = _cached("flags", (wiki_ref_ref, wikidata_ref_ref),
                    lambda: FlagStage(wiki_ref_ref, wikidata_ref_ref))
    return stage(batch)


# ---------------------------------------------------------------------------
# wide steps
# ---------------------------------------------------------------------------

_KEY_SCHEMA = pa.schema([("key", pa.int64()), ("seq", pa.int64()),
                         ("_b", pa.int64())])
_DUP_SCHEMA = pa.schema([("key", pa.int64()), ("max_seq", pa.int64())])


def _collision_rows(batch: pa.Table, slug2code: dict,
                    n_buckets: int) -> pa.Table:
    """(key = slug_code<<44 | osm_id, seq, hash bucket) for every
    result-producing doc.  The reference accumulates only entities with >=1
    applicable check (src/sources/osm_source.py:37-43): sophox rows always,
    pbf rows iff place is city/town/village under every shipped suite —
    last-wins competes only among these.  The slug→code map runs over the
    dictionary values, not the rows."""
    flat = spans.decode_batch(batch)
    has_result = pc.fill_null(pc.or_(
        pc.equal(flat["origin"], "sophox"),
        pc.is_in(flat["place"], value_set=pa.array(["city", "town",
                                                     "village"]))),
        False).to_numpy()
    if not has_result.any():
        return _KEY_SCHEMA.empty_table()
    slug_dict = pc.dictionary_encode(flat["map_slug"]).combine_chunks()
    dict_vals = slug_dict.dictionary.to_pylist()
    try:
        lut = np.array([slug2code[s] for s in dict_vals], dtype=np.int64)
    except KeyError:
        missing = sorted(s for s in dict_vals if s not in slug2code)
        raise ValueError(
            f"collision_keys: slugs {missing} not in the "
            "partition list — pass the authoritative docs/ listing")
    codes = lut[slug_dict.indices.to_numpy()[has_result]]
    key = (codes << 44) | flat["osm_id"].to_numpy()[has_result]
    return pa.table({
        "key": pa.array(key, type=pa.int64()),
        "seq": pa.array(flat["seq"].to_numpy()[has_result], type=pa.int64()),
        "_b": pa.array(widths.bucket_of(key, n_buckets), type=pa.int64())})


def _dup_in_bucket(t: pa.Table) -> pa.Table:
    """Per-bucket numpy reduce: emit ONLY keys seen more than once (+ their
    max seq).  Output is O(#collisions in bucket), not O(#docs)."""
    k = t["key"].to_numpy(zero_copy_only=False)
    s = t["seq"].to_numpy(zero_copy_only=False)
    if not len(k):
        return _DUP_SCHEMA.empty_table()
    order = np.argsort(k, kind="stable")
    k, s = k[order], s[order]
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    counts = np.diff(np.r_[starts, len(k)])
    mx = np.maximum.reduceat(s, starts)
    dup = counts > 1
    return pa.table({"key": pa.array(k[starts[dup]], type=pa.int64()),
                     "max_seq": pa.array(mx[dup], type=pa.int64())})


def collision_keys(data_dir: str, slugs: list[str]) -> pd.DataFrame:
    """The SMALL side of the last-wins dedup: (map_slug, osm_id, max_seq)
    for entity ids occurring more than once within a map partition
    (reference keys its accumulator by bare id, last write wins —
    src/sources/osm_source.py:43).

    Fully distributed: a streaming pre-pass decodes each block
    (``spans.decode_batch``) and projects each doc to one 24-byte (key,
    seq, bucket) row (``_collision_rows``), a ``groupby(bucket)`` shuffle
    of those narrow Arrow rows colocates each hash bucket, and the
    per-bucket numpy reduce emits ONLY duplicated keys.  The driver sees
    O(#collisions), never O(#docs); the big decoded stream is neither
    shuffled nor materialized (re-reading the pruned parquet beats pinning
    the whole decode in the object store at scale).

    Every call runs the pre-pass; the engine reads the table through
    ``collision_keys_ref``, which memoizes its broadcast."""
    slug2code = {s: i for i, s in enumerate(slugs)}
    path = os.path.join(data_dir, "docs")
    ds = rd.read_parquet(path, columns=["doc_id", "spans"],
                         override_num_blocks=widths.collision_read_blocks())
    parts = ds.map_batches(_collision_rows, batch_format="pyarrow",
                           fn_kwargs={"slug2code": slug2code,
                                      "n_buckets": widths.n_buckets()})
    # the read is already coalesced to ~1 block/CPU
    # (widths.collision_read_blocks), so the keyed shuffle sees few, fat
    # partial blocks — no repartition barrier needed before it
    dups = parts.groupby("_b").map_groups(
        _dup_in_bucket, batch_format="pyarrow").to_pandas()
    inv = {i: s_ for s_, i in slug2code.items()}
    kk = dups["key"].to_numpy() if len(dups) else np.array([], dtype=np.int64)
    return pd.DataFrame({
        "map_slug": pd.Series([inv[c] for c in (kk >> 44)], dtype=object),
        "osm_id": kk & ((np.int64(1) << 44) - 1),
        "max_seq": (dups["max_seq"].to_numpy() if len(dups)
                    else np.array([], dtype=np.int64))})


def collision_keys_ref(data_dir: str):
    """Broadcast ObjectRef of the whole-table collision table, memoized
    per (docs dir, fingerprint) for the Ray session: chained queries
    (flags -> summary -> merge -> fix_plan) and every lineage shard (the
    key never crosses a shard) share one pre-pass per process.

    The pre-pass runs SYNCHRONOUSLY on the driver before the main pass:
    an overlapped variant (zero-CPU task + per-batch ray.get) was
    measured 30% slower at 32 CPUs (executor contention) and let the
    nested execution ride the blocked-task CPU release at small
    num_cpus — the sequential two-pass shape is both faster at real
    parallelism and honest under resource accounting."""
    path = os.path.join(data_dir, "docs")
    return caches.memo(
        ("collision_keys_ref", path, caches.path_fingerprint(path)),
        lambda: ray.put(collision_keys(data_dir, doc_partitions(data_dir))))


def dedup_filter(batch: pa.Table, collisions_ref) -> pa.Table:
    """Streaming last-wins dedup: drop decoded doc rows superseded by a
    higher-seq doc with the same (map_slug, osm_id).  The collision table is
    broadcast (``ray.put`` once; plasma-local ``ray.get`` per task) — no
    shuffle of the stream."""
    coll = _resolve(collisions_ref)
    if not len(coll):
        return batch
    key = coll.set_index(["map_slug", "osm_id"])["max_seq"]
    idx = pd.MultiIndex.from_arrays([
        batch["map_slug"].to_pandas(), batch["osm_id"].to_pandas()])
    mx = key.reindex(idx).to_numpy()
    seq = batch["seq"].to_numpy(zero_copy_only=False)
    keep = np.isnan(mx) | (seq == mx)
    return batch.filter(pa.array(keep))


def broadcast_refs(data_dir: str) -> dict:
    """Broadcast lookup tables, memoized per (immutable) input dir for the
    Ray session: chained queries over the same dir reuse one set of
    object-store refs instead of re-reading + re-putting per pipeline."""
    def build() -> dict:
        import pyarrow.parquet as pq
        # ray.put starts Ray if it is down; the memo then keys the refs
        # to that new session
        return {name: ray.put(pq.read_table(
                    os.path.join(data_dir, f"{name}.parquet")).to_pandas())
                for name in ("wiki_ref", "wikidata_ref", "tiles",
                             "countries")}
    return caches.memo(
        ("broadcast_refs", data_dir, caches.path_fingerprint(data_dir)),
        build)


def decoded(data_dir: str, *, partition: str | None = None,
            dedup: bool = False, pip: bool = False) -> rd.Dataset:
    """The decoded document table as a lazy Dataset — the ONE decoded
    read of ``docs`` (``collision_keys`` keeps its own coalesced read)
    and the one definition of read → decode [→ dedup] [→ PIP].

    ``partition=None`` reads the whole table (``read_documents``: pruned,
    coalesced to ``widths.read_blocks()``, Lance branch kept);
    ``partition=<slug>`` is an uncoalesced read of that ``map=<slug>``
    shard (the lineage unit of work, and the single-map operators).

    ``dedup`` drops docs superseded last-wins (``dedup_filter``) against
    the whole-table collision table — its key never crosses shards, so a
    shard read dedups against it too, and a process builds it once.
    ``pip`` appends the country / okrug tile assignment.

    Every stage is a TASK-based ``map_batches`` (per-worker state via
    ``_cached``), so Ray fuses the chain and whatever the caller appends
    into one task per block; nothing here executes the Dataset."""
    if partition is None:
        ds = read_documents(data_dir)
    else:
        shard = os.path.join(data_dir, "docs", f"map={partition}")
        ds = rd.read_parquet(shard, columns=["doc_id", "spans"])
    ds = ds.map_batches(decode_and_index, batch_format="pyarrow")
    if dedup:
        coll_ref = collision_keys_ref(data_dir)
        ds = ds.map_batches(dedup_filter, batch_format="pyarrow",
                            fn_kwargs={"collisions_ref": coll_ref})
    if pip:
        refs = broadcast_refs(data_dir)
        ds = ds.map_batches(pip_assign_batch, batch_format="pyarrow",
                            fn_kwargs={"countries_ref": refs["countries"],
                                       "tiles_ref": refs["tiles"]})
    return ds


def flags_dataset(data_dir: str, *,
                  partition: str | None = None) -> rd.Dataset:
    """The flagship lint pipeline as a lazy Dataset: the deduped,
    PIP-assigned ``decoded`` table → checks.

    Dedup is a broadcast anti-join applied BEFORE the check kernels: the
    collision table (small side) comes from a separate streaming narrow
    pre-pass (``collision_keys`` — distributed bucket reduce, driver sees
    only collisions), is broadcast, and applied as a vectorized filter —
    the big stream itself never shuffles and is never materialized.

    ``partition`` restricts the chain to one ``map=<slug>`` shard (see
    ``decoded``)."""
    refs = broadcast_refs(data_dir)
    return decoded(data_dir, partition=partition, dedup=True, pip=True) \
        .map_batches(flag_batch, batch_format="pyarrow",
                     fn_kwargs={"wiki_ref_ref": refs["wiki_ref"],
                                "wikidata_ref_ref": refs["wikidata_ref"]})


# ---------------------------------------------------------------------------
# report aggregations (A1–A3, src/main.py:44-123): one id-bucket pass
# ---------------------------------------------------------------------------

MAP_ORDER = {mc.map_name: i for i, mc in
             enumerate(config_mod.default_map_checks())}

#: A3 rows: the flags plus the map name without its '(source)' suffix
_MERGED = pa.schema(list(schema.FLAGS) + [("map_overall", pa.string())])
#: report-pass rows by ``kind``: "row" a merged A3 row, "map" an A1 partial
#: (map_name; n entities, e errors, f fixable errors), "check" an A2
#: partial (check_name; n results, e non-OK results); unused columns null
_REPORT = pa.schema(list(_MERGED) + [("kind", pa.string())]
                    + [(c, pa.int64()) for c in "nef"])


def _rows(kind: str, n: int, cols: dict) -> pa.Table:
    cols = {**cols, "kind": pa.array([kind] * n, pa.string())}
    return pa.table({f.name: cols.get(f.name, pa.nulls(n, f.type))
                     for f in _REPORT}, schema=_REPORT)


def _report_bucket(t: pa.Table) -> pa.Table:
    """Everything the report needs from one id bucket, which holds every row
    of each of its osm_ids, so each count is exact.  A3 (src/main.py:95-112):
    sorted by (map_overall, osm_id, map_order), the first row of each
    (map_overall, osm_id, check_name) wins and takes display_name /
    entity_type from its entity's first row — 'first' is the deterministic
    config order (the reference's is completion order: documented
    divergence), and the entity key is the bare osm_id, as there.  Over the
    pre-merge rows, A1 (src/main.py:52-76) per map: distinct osm_ids,
    errors, fixable errors; A2 (src/main.py:79-92) per check: results and
    non-OK results."""
    # factorized in Arrow: no Python string per row
    mdict, cdict = (pc.dictionary_encode(t[c]).combine_chunks()
                    for c in ("map_name", "check_name"))
    mcode, maps = mdict.indices.to_numpy(), mdict.dictionary.to_pylist()
    ccode, checks = cdict.indices.to_numpy(), cdict.dictionary
    osm = t["osm_id"].to_numpy()
    err = pc.equal(t["result"], "CHECKED_ERROR").to_numpy()
    nonok = pc.not_equal(t["result"], "CHECKED_OK").to_numpy()
    fix = err & t["fixable"].to_numpy()

    overall = [m.split(" (", 1)[0] for m in maps]
    ocode = pd.factorize(np.array(overall, dtype=object))[0][mcode]
    order = np.array([MAP_ORDER[m] for m in maps], dtype=np.int64)[mcode]
    srt = np.lexsort((order, osm, ocode))
    oc, ids, od = ocode[srt], osm[srt], order[srt]
    new = np.r_[True, (oc[1:] != oc[:-1]) | (ids[1:] != ids[:-1])]
    ent = np.cumsum(new) - 1
    # np.unique sorts stably: the first index of each (entity, check) wins
    _, first = np.unique(ent * len(checks) + ccode[srt], return_index=True)
    rows, lead = srt[first], srt[new][ent[first]]
    kept = t.select([c for c in schema.FLAGS.names
                     if c not in ("display_name", "entity_type")]).take(rows)
    merged = dict(zip(kept.column_names, kept.columns),
                  display_name=t["display_name"].take(lead),
                  entity_type=t["entity_type"].take(lead),
                  map_overall=pa.array(overall).take(mcode[rows]))

    # a map has one map_order, so each (map, osm_id) is one run of the sort
    per_map = mcode[srt[new | np.r_[False, od[1:] != od[:-1]]]]
    m, k = len(maps), len(checks)
    return pa.concat_tables([
        _rows("row", len(rows), merged),
        _rows("map", m, {"map_name": maps,
                         "n": np.bincount(per_map, minlength=m),
                         "e": np.bincount(mcode[err], minlength=m),
                         "f": np.bincount(mcode[fix], minlength=m)}),
        _rows("check", k, {"check_name": checks,
                           "n": np.bincount(ccode, minlength=k),
                           "e": np.bincount(ccode[nonok], minlength=k)})])


def _report_pass(flags: rd.Dataset, project) -> rd.Dataset:
    """The report's one shuffle: ``_report_bucket`` per osm_id hash bucket,
    then ``project`` (``_REPORT`` table -> table) on the workers."""
    n_buckets = widths.n_buckets()

    def bucketed(t: pa.Table) -> pa.Table:
        return t.select(schema.FLAGS.names).append_column("_b", pa.array(
            widths.bucket_of(t["osm_id"].to_numpy(), n_buckets), pa.int64()))

    return (flags.map_batches(bucketed, batch_format="pyarrow")
            .groupby("_b").map_groups(_report_bucket, batch_format="pyarrow")
            .map_batches(project, batch_format="pyarrow"))


def _kind(kind: str, columns: list[str]):
    return lambda t: t.filter(pc.equal(t["kind"], kind)).select(columns)


def _collect(flags: rd.Dataset, *kinds: str) -> pa.Table:
    """The pass's ``kinds`` rows (merged ones only if CHECKED_ERROR) as one
    Arrow table, which ``_frames`` splits by kind before any column meets
    another kind's nulls; an empty sort partition's block has no columns."""
    rows = _report_pass(flags, lambda t: t.filter(pc.and_(
        pc.is_in(t["kind"], pa.array(kinds)), pc.fill_null(
            pc.equal(t["result"], "CHECKED_ERROR"), True))))
    return pa.concat_tables([_REPORT.empty_table()] + [
        b for b in rows.iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows])


def _frames(p: pa.Table) -> tuple[pd.DataFrame, pd.DataFrame, pd.DataFrame]:
    """(A1, A2, A3 rows) of a ``_collect`` table; sums bucket partials."""
    a1 = _kind("map", ["map_name", "n", "e", "f"])(p).to_pandas() \
        .groupby("map_name", as_index=False).sum() \
        .rename(columns={"n": "count_map_checks", "e": "count_map_errors",
                         "f": "count_map_fixable_errors"})
    a2 = _kind("check", ["check_name", "n", "e"])(p).to_pandas() \
        .groupby("check_name", as_index=False).sum() \
        .rename(columns={"n": "count_total_checks", "e": "count_total_errors"})
    a2.insert(1, "explanation", a2["check_name"].map(
        lambda f: checks_mod.CHECKS[f].explanation))
    return a1, a2, _kind("row", _MERGED.names)(p).to_pandas()


def summary_per_map(flags: rd.Dataset) -> pd.DataFrame:
    """A1 (src/main.py:52-76): per map, #entities, #errors, #fixable errors."""
    return _frames(_collect(flags, "map"))[0]


def per_check_type(flags: rd.Dataset) -> pd.DataFrame:
    """A2 (src/main.py:79-92): per check FQN, total results + non-OK count."""
    return _frames(_collect(flags, "check"))[1]


def merge_overall(flags: rd.Dataset) -> rd.Dataset:
    """A3 (src/main.py:95-112), lazy: each entity's checks merged across
    the sources of its overall map (see ``_report_bucket``)."""
    return _report_pass(flags, _kind("row", _MERGED.names))


def report_frames(flags: rd.Dataset) -> tuple[pd.DataFrame, pd.DataFrame,
                                                pd.DataFrame]:
    """(A1, A2, the CHECKED_ERROR rows of A3) from ONE bucket pass."""
    return _frames(_collect(flags, "map", "check", "row"))
