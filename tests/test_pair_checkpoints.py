# -*- coding: utf-8 -*-
"""Verified-pair checkpoint lineage (VERDICT r4 #5): the four near-dup
pair families (minhash / ngram / simhash / winnow) persist their verified
pair sets to content-fingerprinted parquet, so a second sweep over
unchanged input — including across ``clear_caches()`` — skips the bucket
mine and verify join entirely and reads the pairs back, skip counters
included.  ``clear_caches(purge_disk=True)`` deletes them for genuinely
cold runs.

The same file pins the one atomic publish (``caches.publish``) that every
on-disk artifact goes through: checkpoints, lineage partitions and synth
inputs."""

import glob
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from osmlint import caches, textops

SF = "/root/testdata/sf0.001"


def _eq(a: pd.DataFrame, b: pd.DataFrame) -> bool:
    if len(a) != len(b) or list(a.columns) != list(b.columns):
        return False
    pd.testing.assert_frame_equal(a.reset_index(drop=True),
                                  b.reset_index(drop=True))
    return True


def test_pair_checkpoints_skip_recompute(tmp_path, monkeypatch, ray_session):
    monkeypatch.setenv("OSMLINT_CKPT_DIR", str(tmp_path / "ckpt"))
    caches.clear_caches()        # drop handles keyed to the default root

    first = {
        "minhash": textops.minhash_dup_pairs(SF),
        "ngram": textops.ngram_jaccard_pairs(SF),
        "simhash": textops.simhash_dup_pairs(SF),
        "winnow": textops.winnow_dup_pairs(SF),
    }
    metrics = {k: dict(textops.LAST_METRICS[v]) for k, v in {
        "minhash": "dedup_minhash", "ngram": "dedup_ngram_jaccard",
        "simhash": "dedup_simhash", "winnow": "winnow_dup_pairs"}.items()}
    for slug in ("minhash_pairs", "ngram_pairs", "simhash_pairs",
                 "winnow_pairs"):
        dirs = glob.glob(str(tmp_path / "ckpt" / f"{slug}_*"))
        assert dirs, f"no {slug} checkpoint written"
        assert os.path.exists(os.path.join(dirs[0], "_SUCCESS"))

    # memory-only clear: disk checkpoints remain and are authoritative —
    # every build goes through split_cap_sentinels, so booby-trap it to
    # prove the second sweep never re-mines
    caches.clear_caches()
    with pytest.MonkeyPatch.context() as mp:
        def boom(*a, **k):
            raise AssertionError("pair build re-ran despite checkpoint")
        mp.setattr(textops, "split_cap_sentinels", boom)
        assert _eq(textops.minhash_dup_pairs(SF), first["minhash"])
        assert _eq(textops.ngram_jaccard_pairs(SF), first["ngram"])
        assert _eq(textops.simhash_dup_pairs(SF), first["simhash"])
        assert _eq(textops.winnow_dup_pairs(SF), first["winnow"])
        # restored skip counters, not zeros
        assert textops.LAST_METRICS["dedup_minhash"] == metrics["minhash"]
        assert textops.LAST_METRICS["winnow_dup_pairs"] == metrics["winnow"]
        # the second consumer of the SAME pair set (dedup_clusters'
        # metrics_key) hits the same checkpoint and gets the counters
        # under its own key
        ds = textops._minhash_verified_ds(SF, "dedup_clusters")
        assert (ds.count() if ds is not None else 0) == len(first["minhash"])
        assert textops.LAST_METRICS["dedup_clusters"] == metrics["minhash"]

    # purge_disk deletes the pair checkpoints; a cold rebuild reproduces
    caches.clear_caches(purge_disk=True)
    assert not glob.glob(str(tmp_path / "ckpt" / "minhash_pairs_*"))
    assert _eq(textops.minhash_dup_pairs(SF), first["minhash"])


def test_empty_pair_set_checkpoints(tmp_path, monkeypatch, ray_session):
    """An empty verified-pair set is checkpointed too (meta-only, no
    parquet fragments) — the hit path returns the empty frame without
    rebuilding."""
    monkeypatch.setenv("OSMLINT_CKPT_DIR", str(tmp_path / "ckpt"))
    d = tmp_path / "docs"
    d.mkdir()
    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["alpha beta gamma delta epsilon zeta eta theta",
                 "one two three four five six seven eight nine",
                 "cats dogs birds fish mice foxes wolves bears"],
        "lang": ["en"] * 3, "source": ["srcA"] * 3})
    df["n_chars"] = df["text"].str.len()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    caches.clear_caches()
    out1 = textops.minhash_dup_pairs(str(d))
    assert out1.empty
    caches.clear_caches()
    with pytest.MonkeyPatch.context() as mp:
        def boom(*a, **k):
            raise AssertionError("empty pair set rebuilt despite checkpoint")
        mp.setattr(textops, "split_cap_sentinels", boom)
        assert textops.minhash_dup_pairs(str(d)).empty
    caches.clear_caches(purge_disk=True)


def _hook(mp, mod, name, during):
    """Run ``during()`` each time ``mod.name`` is called on the driver."""
    real = getattr(mod, name)

    def wrapped(*a, **k):
        during()
        return real(*a, **k)
    mp.setattr(mod, name, wrapped)


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _run_dataset(env, during):
    import ray.data as rd

    def build():
        during()
        return rd.from_arrow(pa.table({"x": [1, 2]}))
    ds = caches.dataset_checkpoint("race", ("race-input-fp",), build)
    return pd.DataFrame({"x": sorted(r["x"] for r in ds.take_all())})


def _run_eps(env, during):
    from osmlint import geocluster
    with pytest.MonkeyPatch.context() as mp:
        _hook(mp, geocluster, "named_ctv_deduped", during)
        return _sorted(geocluster.mined_eps_pairs(env["synth"]).to_pandas())


def _run_shingles(env, during):
    with pytest.MonkeyPatch.context() as mp:
        _hook(mp, textops, "read_docs", during)
        return _sorted(pq.read_table(textops.shingle_checkpoint(SF))
                       .to_pandas())


def _run_dupspan(env, during):
    with pytest.MonkeyPatch.context() as mp:
        _hook(mp, textops, "read_docs", during)
        return _sorted(pq.read_table(textops.dupspan_checkpoint(SF))
                       .to_pandas())


def _run_lineage(env, during):
    from osmlint import lineage, pipeline
    with pytest.MonkeyPatch.context() as mp:
        _hook(mp, pipeline, "collision_keys_ref", during)
        with pytest.raises(RuntimeError, match="injected failure"):
            lineage.run_resumable(env["synth"], env["lineage"], fail_after=1)
    part = os.path.join(env["lineage"],
                        f"part={lineage.partitions(env['synth'])[0]}")
    return _sorted(pq.read_table(part).to_pandas())


#: every publisher: (checkpoint slug or None for lineage, runner).  Each
#: runner calls ``during()`` from inside its write, before the publish.
CALLERS = {
    "dataset_checkpoint": ("race", _run_dataset),
    "eps_pairs": ("eps_pairs", _run_eps),
    "shingles": ("shingles", _run_shingles),
    "dupspan": ("dupspan", _run_dupspan),
    "lineage": (None, _run_lineage),
}


def _listing(d) -> list:
    return sorted((os.path.relpath(os.path.join(r, f), d),
                   os.path.getsize(os.path.join(r, f)))
                  for r, _, fs in os.walk(d) for f in fs)


@pytest.mark.parametrize("caller", list(CALLERS))
def test_losing_rename_is_cache_hit(caller, tmp_path, monkeypatch,
                                    ray_session, synth_small):
    """Every on-disk artifact goes through one atomic publish.  When a
    concurrent writer seals the same output while our write runs, our
    rename loses and counts as a hit: the winner's sealed dir is left
    exactly as it was (no fragments of two writers mixed) and no temp
    dir litters its parent.  An unsealed dir left by a crashed writer is
    replaced."""
    import shutil

    monkeypatch.setenv("OSMLINT_CKPT_DIR", str(tmp_path / "ckpt"))
    caches.clear_caches()
    env = {"synth": synth_small, "lineage": str(tmp_path / "lineage")}
    slug, run = CALLERS[caller]

    def reset():
        if slug is None:
            shutil.rmtree(env["lineage"])
        else:
            caches.clear_caches(purge_disk=True)

    want = run(env, lambda: None)
    if slug is None:
        from osmlint import lineage
        out = os.path.join(env["lineage"],
                           f"part={lineage.partitions(synth_small)[0]}")
    else:
        [name] = [p for p in os.listdir(caches.ckpt_root())
                  if p.startswith(slug + "_")]
        out = os.path.join(caches.ckpt_root(), name)
    assert os.path.exists(os.path.join(out, "_SUCCESS"))
    winner = str(tmp_path / "winner")
    shutil.copytree(out, winner)
    open(os.path.join(winner, "_WINNER"), "w").close()

    # (a) the concurrent winner seals `out` while our write runs
    reset()
    assert not os.path.exists(out)
    fired = []

    def seal_winner():
        if not fired:
            fired.append(True)
            shutil.copytree(winner, out)
    got = run(env, seal_winner)
    assert fired
    assert _listing(out) == _listing(winner)
    assert not [p for p in os.listdir(os.path.dirname(out)) if ".tmp." in p]
    pd.testing.assert_frame_equal(got, want)

    # (b) a crashed writer's unsealed dir is replaced
    reset()
    os.makedirs(out)
    with open(os.path.join(out, "part-crashed.parquet"), "wb") as f:
        f.write(b"torn write")
    got = run(env, lambda: None)
    names = {p for p, _ in _listing(out)}
    assert "_SUCCESS" in names and "part-crashed.parquet" not in names
    assert not [p for p in os.listdir(os.path.dirname(out)) if ".tmp." in p]
    pd.testing.assert_frame_equal(got, want)
    caches.clear_caches(purge_disk=True)


def test_purge_disk_spares_lineage_and_synth(tmp_path, monkeypatch,
                                            ray_session):
    """``clear_caches(purge_disk=True)`` deletes the keyed checkpoints —
    eps pairs, shingles, dupspan postings, verified pair sets — and never
    lineage output or synth inputs, even when they live under the same
    checkpoint root."""
    from osmlint import geocluster, lineage, synth

    root = tmp_path / "ckpt"
    monkeypatch.setenv("OSMLINT_CKPT_DIR", str(root))
    caches.clear_caches()
    d = synth.generate(0.001, base=str(root / "synth"))
    geocluster.mined_eps_pairs(d)
    textops.shingle_checkpoint(SF)
    textops.dupspan_checkpoint(SF)
    textops.minhash_dup_pairs(SF)
    out = str(root / "lineage")
    with pytest.raises(RuntimeError, match="injected failure"):
        lineage.run_resumable(d, out, fail_after=1)
    part = os.path.join(out, f"part={lineage.partitions(d)[0]}")
    slugs = ("eps_pairs_", "shingles_", "dupspan_", "minhash_pairs_")
    for s in slugs:
        [name] = [p for p in os.listdir(root) if p.startswith(s)]
        assert os.path.exists(os.path.join(root, name, "_SUCCESS"))
    synth_files = _listing(d)
    part_files = _listing(part)

    caches.clear_caches(purge_disk=True)
    assert not [p for p in os.listdir(root) if p.startswith(slugs)]
    assert _listing(d) == synth_files and "_SUCCESS" in dict(synth_files)
    assert _listing(part) == part_files and "_SUCCESS" in dict(part_files)
    assert lineage.load_manifest(out)


def test_synth_replaces_killed_writer_litter(tmp_path):
    """Synth inputs have one writer: generating them removes the temp
    dir a hard-killed earlier generate left beside the output, and
    ``force`` replaces a sealed output."""
    from osmlint import synth

    base = str(tmp_path / "synth")
    out = synth.synth_dir(0.001, base)
    torn = out + ".tmp.1.dead"
    os.makedirs(os.path.join(torn, "docs"))
    assert synth.generate(0.001, base=base) == out
    assert caches.sealed(out)
    assert not [p for p in os.listdir(base) if ".tmp." in p]
    files = _listing(out)
    open(os.path.join(out, "stale"), "w").close()
    synth.generate(0.001, base=base, force=True)
    assert _listing(out) == files


def test_one_disk_purger():
    """Tripwire: every on-disk cache is a ``caches.checkpoint``, so with
    every osmlint module imported exactly one purger is registered."""
    import importlib
    import pkgutil

    import osmlint
    for mi in pkgutil.iter_modules(osmlint.__path__):
        importlib.import_module(f"osmlint.{mi.name}")
    assert len(caches._PURGERS) == 1


def test_publish_sweeps_only_dead_local_writers(tmp_path, monkeypatch):
    """A hard-killed writer's ``out.tmp.<host>.<pid>.<uuid>`` dir is
    removed by the next publish on the same host; a live pid's dir and
    another host's dir may be concurrent writers and stay.  The host name
    carries dots, so the temp name must be parsed from the right."""
    import socket
    import subprocess
    import sys

    host = "worker-3.rack.example"
    monkeypatch.setattr(socket, "gethostname", lambda: host)
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()
    out = str(tmp_path / "ck")
    litter = {
        "dead": f"{out}.tmp.{host}.{dead.pid}.aa",
        "live": f"{out}.tmp.{host}.{os.getpid()}.bb",
        "other_host": f"{out}.tmp.other.{host}.{dead.pid}.cc",
    }
    for d in litter.values():
        os.makedirs(os.path.join(d, "part"))

    def write(tmp: str) -> None:
        name = os.path.basename(tmp)
        assert name.startswith(f"ck.tmp.{host}.{os.getpid()}.")
        open(os.path.join(tmp, "x"), "w").close()

    caches.publish(out, write)
    assert caches.sealed(out)
    assert not os.path.exists(litter["dead"])
    assert os.path.isdir(litter["live"])
    assert os.path.isdir(litter["other_host"])
