# -*- coding: utf-8 -*-
"""The one in-process memo, content fingerprints, and the one atomic
publish for every on-disk artifact.

Every in-memory cache in the engine (the broadcast collision table and
lookup refs, materialized Datasets, raster bands, per-worker stage state,
loaded checkpoints) is an entry of ``memo``: one dict, scoped to the Ray
session, so

* ``clear_caches()`` is the ONE public reset callers (bench --scaling,
  notebooks) use instead of reaching into module privates,
* an ObjectRef or a materialized Dataset never outlives the session it
  was made in, and
* cache keys carry a CONTENT FINGERPRINT (file sizes + mtimes), so an
  input dir regenerated in-place at the same path can never serve stale
  entries.

On disk, ``publish`` is the only way a directory artifact comes into
being: lineage partitions and synth inputs call it bare, and
``checkpoint`` layers a keyed, purgeable cache under ``ckpt_root()`` on
top of it (the shingle and dupspan postings directly, the pair sets and
the eps-pair mine through ``dataset_checkpoint``).
"""

from __future__ import annotations

import os

#: key -> value of every in-process cache, valid for the session ``_token``
_MEMO: dict = {}
_token = None


def _session():
    """The live Ray session as (node id, job id), or ``None`` when Ray is
    down.  The job id alone is not enough: a local ``ray.init`` after
    ``ray.shutdown`` starts a new node whose first job id is the old one
    again; a reconnect to a running cluster keeps the node and moves the
    job id."""
    import ray
    if not ray.is_initialized():
        return None
    ctx = ray.get_runtime_context()
    return ctx.get_node_id(), ctx.get_job_id()


def _sync() -> None:
    """Empty the memo if the session changed since it was last written."""
    global _token
    tok = _session()
    if tok != _token:
        _MEMO.clear()
        _token = tok


def memo(key: tuple, build):
    """``build()``'s value for ``key``, built once per Ray session.

    ``key`` starts with a tag naming the cache and must cover every input
    the value depends on (a path's ``path_fingerprint``, parameters).
    The memo empties itself when the session changes, so entries holding
    ObjectRefs or materialized Datasets die with their session.  The
    entry is written after ``build()`` returns: a build that starts Ray
    (``ray.put`` auto-inits it) is stored under the new session."""
    _sync()
    if key in _MEMO:
        return _MEMO[key]
    value = build()
    _sync()
    _MEMO[key] = value
    return value


def ckpt_root() -> str:
    """Checkpoint root: ``$OSMLINT_CKPT_DIR`` (point it at a shared
    filesystem / object-store mount on a multi-node cluster so every
    worker and every re-run sees the same artifacts); local tmp is the
    single-node default."""
    import tempfile
    return os.environ.get(
        "OSMLINT_CKPT_DIR",
        os.path.join(tempfile.gettempdir(), "osmlint_ckpt"))


def sealed(out: str) -> bool:
    """Whether ``out`` was published by ``publish`` (carries its seal)."""
    return os.path.exists(os.path.join(out, "_SUCCESS"))


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:         # exists, owned by another user
        pass
    return True


def _sweep_dead_writers(out: str, host: str) -> None:
    """Remove the ``out.tmp.<host>.<pid>.<uuid>`` dirs of writers on this
    host whose pid is gone.  The name is parsed from the right, because a
    hostname may contain dots; other hosts' and live pids' dirs stay."""
    import glob
    import shutil
    prefix = out + ".tmp."
    for tmp in glob.glob(glob.escape(prefix) + "*"):
        parts = tmp[len(prefix):].rsplit(".", 2)
        if len(parts) != 3 or parts[0] != host or not parts[1].isdigit():
            continue
        if not _pid_alive(int(parts[1])):
            shutil.rmtree(tmp, ignore_errors=True)


def publish(out: str, write, *, replace: bool = False) -> str:
    """Atomically publish the directory ``out``: ``write(tmp)`` fills a
    private ``out.tmp.<host>.<pid>.<uuid>`` dir, which is sealed with
    ``_SUCCESS`` and ``os.rename``d into place; returns ``out``.

    ``out`` may live on a shared filesystem that several processes write
    at once.  If it is already sealed our rename loses and counts as a
    hit: the sealed dir is left untouched (same path => same content, by
    the callers' keying) and our temp dir is removed, so two writers'
    fragments never mix.  An unsealed ``out`` is a crashed writer's
    leftover and is replaced.  Before writing, the temp dirs that
    hard-killed (SIGKILL/OOM) writers on this host left beside ``out`` —
    which no ``finally`` of theirs could remove — are deleted; a temp dir
    of a live pid or of another host may be a concurrent writer and is
    left alone.

    ``replace=True`` is for an ``out`` with one writer whose caller
    knows any existing copy is stale (a lineage partition missing from
    the manifest, synth inputs being regenerated): before writing, it
    removes ``out`` and every temp dir beside it."""
    import glob
    import shutil
    import socket
    import uuid
    host = socket.gethostname()
    if replace:
        for stale in glob.glob(glob.escape(out) + ".tmp.*") + [out]:
            shutil.rmtree(stale, ignore_errors=True)
    else:
        _sweep_dead_writers(out, host)
    tmp = f"{out}.tmp.{host}.{os.getpid()}.{uuid.uuid4().hex}"
    os.makedirs(tmp)
    try:
        write(tmp)
        open(os.path.join(tmp, "_SUCCESS"), "w").close()
        try:
            os.rename(tmp, out)
        except OSError:
            if not sealed(out):
                shutil.rmtree(out, ignore_errors=True)
                try:
                    os.rename(tmp, out)
                except OSError:
                    if not sealed(out):    # not a concurrent winner
                        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


#: every checkpoint dir this process created or reused: what
#: ``clear_caches(purge_disk=True)`` deletes
_CKPT_DIRS: set = set()


def _purge_checkpoints() -> None:
    import shutil
    for d in list(_CKPT_DIRS):
        shutil.rmtree(d, ignore_errors=True)
    _CKPT_DIRS.clear()


#: on-disk purgers run by ``clear_caches(purge_disk=True)``.  Only keyed
#: checkpoints are purged: lineage output and synth inputs are published
#: with bare ``publish`` and are never deleted by a cache reset.
_PURGERS: list = [_purge_checkpoints]


def clear_caches(purge_disk: bool = False) -> None:
    """Empty the in-process memo.  ``purge_disk=True`` additionally
    deletes the on-disk checkpoints (for benchmarks that must measure
    genuinely cold runs of checkpoint-backed operators).  In-memory
    clearing never touches disk: a content-keyed checkpoint is a resume
    point, correct to reuse."""
    _MEMO.clear()
    if purge_disk:
        for fn in _PURGERS:
            fn()


def checkpoint(slug: str, key: tuple, write, load=None):
    """Keyed on-disk checkpoint: the sealed dir
    ``<ckpt_root()>/<slug>_<md5(key)>``, built once with ``publish(out,
    write)`` and reused on every later call with the same (slug, key) —
    across ``clear_caches()``, and across PROCESSES when
    ``$OSMLINT_CKPT_DIR`` is shared.  Reusing it is correct, not a
    warm-cache artifact: ``key`` must embed the input fingerprint
    (``path_fingerprint``), a layout version and every parameter that
    shapes the output.

    Returns the dir, or ``load(out)`` when ``load`` is given
    (``dataset_checkpoint`` reads its Dataset back); the loaded value is
    memoized, so ``load`` runs once per sealed dir per session."""
    import hashlib
    full_key = (slug,) + tuple(key)
    out = os.path.join(
        ckpt_root(),
        f"{slug}_" + hashlib.md5(repr(full_key).encode()).hexdigest())
    if not sealed(out):
        # purged or torn: whatever was loaded from it is gone too
        _MEMO.pop(("checkpoint", out), None)
        publish(out, write)
    _CKPT_DIRS.add(out)
    if load is None:
        return out
    return memo(("checkpoint", out), lambda: load(out))


#: bump when the ``dataset_checkpoint`` layout changes — part of the key,
#: so an old-layout checkpoint can never be served to new code.
_DS_CKPT_VERSION = 1


def dataset_checkpoint(slug: str, key: tuple, build,
                       metrics: dict | None = None,
                       metrics_key: str | None = None):
    """A derived Dataset served from a ``checkpoint``: the near-dup pair
    sets and the eps-pair mine.

    ``build()`` returns a ``ray.data.Dataset`` or ``None`` (empty).  The
    result is materialized once, written as parquet under ``data/`` with
    a ``_META.json`` beside it, and always served read back from the
    sealed dir — a cold and a warm call return the same layout, and a
    lost publish race serves the winner.  Returns ``None`` for an empty
    result.

    ``metrics``/``metrics_key``: the cap-skip counters a build records
    under ``metrics[metrics_key]`` are persisted next to the data and
    restored into the CALLER's key on a hit, so a checkpoint hit reports
    the same skip accounting the original build did."""
    import json

    import ray.data as rd

    def write(tmp: str) -> None:
        ds = build()
        if ds is not None:
            ds = ds.materialize()
        empty = ds is None or ds.count() == 0
        if not empty:
            ds.write_parquet(os.path.join(tmp, "data"))
        with open(os.path.join(tmp, "_META.json"), "w") as f:
            json.dump({"empty": empty, "metrics": metrics.get(metrics_key)
                       if metrics is not None else None}, f)

    def load(out: str) -> tuple:
        with open(os.path.join(out, "_META.json")) as f:
            meta = json.load(f)
        ds = None if meta["empty"] \
            else rd.read_parquet(os.path.join(out, "data")).materialize()
        return ds, meta["metrics"]

    ds, stored = checkpoint(slug, (_DS_CKPT_VERSION,) + tuple(key),
                            write, load)
    if metrics is not None and metrics_key is not None:
        metrics[metrics_key] = stored if stored is not None \
            else {"skipped_buckets": 0, "skipped_docs": 0}
    return ds


def file_fingerprint(path: str) -> tuple:
    """(size, mtime_ns) — changes whenever the file is rewritten."""
    st = os.stat(path)
    return (st.st_size, st.st_mtime_ns)


def dir_fingerprint(path: str) -> tuple:
    """Sorted (relpath, size, mtime_ns) of every file under ``path`` —
    a key component that invalidates on any in-place regeneration."""
    out = []
    for root, _, files in os.walk(path):
        for f in files:
            p = os.path.join(root, f)
            st = os.stat(p)
            out.append((os.path.relpath(p, path), st.st_size, st.st_mtime_ns))
    return tuple(sorted(out))


def path_fingerprint(path: str) -> tuple:
    return dir_fingerprint(path) if os.path.isdir(path) \
        else file_fingerprint(path)
