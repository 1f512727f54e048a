# -*- coding: utf-8 -*-
"""The one parallelism-width policy (``osmlint/widths.py``): a CPU read
that fails loudly without Ray, the widths pinned at 1 and 4 CPUs,
results that do not depend on the CPU count, and a source tripwire that
keeps every width decision in that one module."""

import os
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from osmlint import graph, pipeline, textops, widths

PKG = pathlib.Path(__file__).resolve().parents[1] / "osmlint"


def test_cpus_raises_without_ray(monkeypatch):
    import ray
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    with pytest.raises(RuntimeError, match=r"ray\.init"):
        widths.cpus()
    with pytest.raises(RuntimeError):
        widths.read_blocks()


def test_cpus_reads_the_session(ray_session):
    import ray
    assert widths.cpus() == int(ray.cluster_resources()["CPU"])


@pytest.mark.parametrize("n_cpus", [1, 4])
def test_widths_pinned(monkeypatch, n_cpus):
    """Every width the benchmark workloads (1 CPU) and the test session
    (4 CPUs) reach keeps the value it had before the policy moved here."""
    monkeypatch.setattr(widths, "cpus", lambda: n_cpus)
    assert widths.read_blocks() == 16
    assert pipeline.read_blocks() == 16
    assert widths.collision_read_blocks() == 16
    assert widths.n_buckets() == 64
    assert widths.shuffle_blocks() == 16
    assert widths.REDUCE_BUCKETS == 256
    assert widths.join_partitions(10_000, 128) == 4
    assert widths.join_partitions(10_000, 50_000) == 1
    assert widths.join_partitions(1_000_000, 1 << 16) == 4


def test_bucket_of_is_bit_identical():
    """Bucket assignment is pinned to the hashes the engine always used:
    the golden-ratio multiplicative hash for ints, pandas' unsalted
    ``hash_array`` for strings."""
    ints = np.array([0, 1, 2, 3, 12345, -7, 2 ** 40 + 3, 987654321012],
                    dtype=np.int64)
    assert widths.bucket_of(ints).tolist() == \
        [0, 121, 243, 109, 226, 171, 130, 171]
    assert widths.bucket_of(ints, 64).tolist() == \
        [0, 57, 51, 45, 34, 43, 2, 43]
    strs = np.array(["a", "Beograd", "Novi Sad", "", "ž"], dtype=object)
    assert widths.bucket_of(strs).tolist() == [208, 200, 50, 70, 12]
    assert widths.bucket_of(strs, 16).tolist() == [0, 8, 2, 6, 12]
    assert widths.bucket_of(ints).dtype == np.int64
    assert widths.bucket_of(strs).dtype == np.int64


def test_byte_blocks(tmp_path):
    f = tmp_path / "x.bin"
    f.write_bytes(b"\0" * 1000)
    assert widths.byte_blocks(str(f)) == 1
    assert widths.byte_blocks(str(tmp_path)) == 1


# ---------------------------------------------------------------------------
# results do not depend on width
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def flags_ds(ray_session, synth_small):
    return pipeline.flags_dataset(synth_small).materialize()


@pytest.fixture(scope="module")
def dup_corpus(tmp_path_factory, ray_session):
    """400 groups of 5 identical docs: a 1,600-doc drop set, so the
    anti-join's partition count differs between 1 and 32 CPUs."""
    rng = np.random.default_rng(11)
    vocab = np.array([f"w{i}" for i in range(20_000)])
    rows = []
    for g in range(400):
        text = " ".join(rng.choice(vocab, 12))
        rows += [(g * 10 + i, text, "en", "srcA") for i in range(5)]
    df = pd.DataFrame(rows, columns=["doc_id", "text", "lang", "source"])
    df["n_chars"] = df["text"].str.len()
    d = tmp_path_factory.mktemp("widthcorpus")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    return str(d)


def _stars() -> pd.DataFrame:
    """Three 250-leaf stars: enough edges that the closure's join width
    follows the CPU count, and fewer clusters than join partitions."""
    hubs = np.repeat(np.array([0, 1_000, 2_000]), 250)
    leaves = hubs + np.tile(np.arange(1, 251), 3)
    return pd.DataFrame({"doc_a": hubs, "doc_b": leaves})


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_results_do_not_depend_on_width(flags_ds, dup_corpus, monkeypatch):
    edges = rd.from_pandas(_stars()).repartition(8)
    monkeypatch.setattr(textops, "DROP_BROADCAST_MAX", 0)
    out = {}
    for n_cpus in (1, 32):
        monkeypatch.setattr(widths, "cpus", lambda n=n_cpus: n)
        with monkeypatch.context() as m:
            m.setattr(graph, "SMALL_EDGES", 0)
            labels = graph.cluster_labels(edges)
        out[n_cpus] = (
            pipeline.summary_per_map(flags_ds),
            pipeline.per_check_type(flags_ds),
            _sorted(pipeline.merge_overall(flags_ds).to_pandas()),
            labels,
            textops.dedup_apply(dup_corpus),
            (widths.shuffle_blocks(), widths.join_partitions(2 * 750, 256),
             widths.join_partitions(1_600, 256)))
    narrow, wide = out[1], out[32]
    # the two runs really were shaped differently
    assert narrow[-1] != wide[-1]
    for a, b in zip(narrow[:-1], wide[:-1]):
        pd.testing.assert_frame_equal(a, b)
    assert narrow[3]["cluster_size"].tolist() == [251] * 753
    assert len(narrow[4]) == 400                # one keeper per group


# ---------------------------------------------------------------------------
# source tripwire: every width decision has one home
# ---------------------------------------------------------------------------

def _sources() -> dict:
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted(PKG.glob("*.py"))}


def test_one_home_for_widths():
    src = _sources()
    assert [n for n, s in src.items() if "cluster_resources" in s] \
        == ["widths.py"]
    assert sorted(n for n, s in src.items()
                  if "0x9E3779B97F4A7C15" in s) == ["ann.py", "widths.py"]
    # in ann.py it mixes the LSH group key, which is a key, not a bucket
    assert src["ann.py"].count("0x9E3779B97F4A7C15") == 1
    for name, s in src.items():
        assert "OSMLINT_REDUCE_BUCKETS" not in s, name
        assert "join_fanout" not in s, name
        assert 'globals()["' not in s, name
