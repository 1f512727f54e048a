# -*- coding: utf-8 -*-
"""Lineage (kill-and-resume) and report-rendering tests."""

import html as _html
import os
import re

import pandas as pd
import pyarrow.parquet as pq
import pytest

from osmlint import caches, lineage, pipeline, report


def _all_flags(out_dir):
    dfs = [pq.read_table(d).to_pandas()
           for d in lineage.partition_dirs(out_dir)]
    return pd.concat(dfs, ignore_index=True)


def test_kill_and_resume(ray_session, synth_small, tmp_path):
    out = str(tmp_path / "flags_out")
    # crash after 3 partitions
    with pytest.raises(RuntimeError, match="injected failure"):
        lineage.run_resumable(synth_small, out, fail_after=3)
    m1 = lineage.load_manifest(out)
    assert len(m1) == 3
    # resume: finishes the rest, never re-runs the first 3
    stamps = {k: v["finished_at"] for k, v in m1.items()}
    manifest = lineage.run_resumable(synth_small, out)
    assert set(manifest) == set(lineage.partitions(synth_small))
    for k, s in stamps.items():
        assert manifest[k]["finished_at"] == s
    # resumed output equals a single-shot run
    got = _all_flags(out)
    exp = pipeline.flags_dataset(synth_small).to_pandas()
    key = ["map_name", "doc_id", "check_name"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True)[sorted(got.columns)],
        exp.sort_values(key).reset_index(drop=True)[sorted(exp.columns)],
        check_dtype=False)
    # metrics present per partition
    assert all(v["flags"] > 0 and v["wall_s"] >= 0 for v in manifest.values())


def test_collision_table_per_slug_is_the_shard_brute_force(ray_session,
                                                          synth_small):
    """Every lineage shard dedups against the whole-table collision table.
    That is sound because the key is (map_slug, osm_id): the whole table
    restricted to one slug is exactly the collisions found in that shard
    alone, for a slug with collisions and for slugs with none."""
    d = synth_small
    got = pipeline.collision_keys(d, pipeline.doc_partitions(d))
    flat = pq.read_table(os.path.join(d, "flat.parquet"),
                         columns=["map_slug", "osm_id", "seq", "origin",
                                  "place"]).to_pandas()
    has_result = (flat["origin"].eq("sophox")
                  | flat["place"].isin(["city", "town", "village"]))
    sizes = {}
    for slug in pipeline.doc_partitions(d):
        shard = flat[has_result & flat["map_slug"].eq(slug)]
        g = shard.groupby(["map_slug", "osm_id"])["seq"].agg(["size", "max"])
        exp = sorted((s, int(i), int(m)) for (s, i), m
                     in g.loc[g["size"] > 1, "max"].items())
        mine = got[got["map_slug"] == slug]
        assert sorted(zip(mine["map_slug"], mine["osm_id"].astype(int),
                          mine["max_seq"].astype(int))) == exp, slug
        sizes[slug] = len(exp)
    assert any(sizes.values()) and not all(sizes.values()), sizes


def test_one_collision_prepass_per_process(ray_session, synth_small,
                                           tmp_path, monkeypatch):
    """A crash pass and its resume in one process run the collision
    pre-pass once, not once per shard."""
    calls = []
    real = pipeline.collision_keys

    def counted(*a, **k):
        calls.append(a)
        return real(*a, **k)
    monkeypatch.setattr(pipeline, "collision_keys", counted)
    caches.clear_caches()
    out = str(tmp_path / "flags_out")
    with pytest.raises(RuntimeError, match="injected failure"):
        lineage.run_resumable(synth_small, out, fail_after=3)
    manifest = lineage.run_resumable(synth_small, out)
    assert set(manifest) == set(lineage.partitions(synth_small))
    assert len(calls) == 1, len(calls)


def test_resume_replaces_stale_partitions(ray_session, synth_small, tmp_path):
    """The manifest is the authority on lineage output.  On resume, a
    partition it lacks is rewritten even when a sealed dir of that name
    exists (an out dir reused over regenerated input, or a crash between
    publish and the manifest save), and the temp dir a hard-killed writer
    left beside a partition is removed.  Readers see exactly the
    manifest's partitions."""
    out = str(tmp_path / "flags_out")
    with pytest.raises(RuntimeError, match="injected failure"):
        lineage.run_resumable(synth_small, out, fail_after=1)
    slugs = lineage.partitions(synth_small)
    rows = pq.read_table(os.path.join(out, f"part={slugs[0]}"))
    # a sealed partition of earlier input, missing from the manifest
    stale = os.path.join(out, f"part={slugs[1]}")
    os.makedirs(stale)
    pq.write_table(rows, os.path.join(stale, "part-old.parquet"))
    open(os.path.join(stale, "_SUCCESS"), "w").close()
    # a SIGKILLed writer's temp dir: no finally of its own removed it
    torn = os.path.join(out, f"part={slugs[2]}.tmp.1.dead")
    os.makedirs(torn)
    pq.write_table(rows, os.path.join(torn, "part-0.parquet"))

    manifest = lineage.run_resumable(synth_small, out)
    assert not [d for d in os.listdir(out) if ".tmp." in d]
    assert "part-old.parquet" not in os.listdir(stale)
    dirs = lineage.partition_dirs(out)
    assert dirs == sorted(os.path.join(out, f"part={s}") for s in slugs)
    got = pd.concat([pq.read_table(d).to_pandas() for d in dirs],
                    ignore_index=True)
    assert len(got) == sum(v["flags"] for v in manifest.values())
    files = lineage.partition_files(out)
    assert {os.path.dirname(f) for f in files} == set(dirs)
    assert sum(pq.read_metadata(f).num_rows for f in files) == len(got)
    exp = pipeline.flags_dataset(synth_small).to_pandas()
    key = ["map_name", "doc_id", "check_name"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True)[sorted(got.columns)],
        exp.sort_values(key).reset_index(drop=True)[sorted(exp.columns)],
        check_dtype=False)


_MAP_ROW = re.compile(r"<tr class='b'><td>(.*?)</td><td>(\d+)</td>"
                      r"<td>(\d+)</td><td>(\d+)</td></tr>")
_CHECK_ROW = re.compile(r"<tr class='b'><td>(.*?)</td><td>(.*?)</td>"
                        r"<td>(\d+)</td><td>(\d+)</td></tr>", re.S)
_ERR_ROW = re.compile(r"<tr class='b'><td><a href='https://www\.openstreetmap"
                      r"\.org/(.*?)/(\d+)'>(.*?)</a></td><td>(.*?)</td>"
                      r"<td>(.*?)</td></tr>", re.S)
_ERR_SECTION = re.compile(r"<div class='section'><h3 id='(.*?)'>")


def _report_content(text):
    """(map rows, check rows, {section: sorted error rows}) of a report.
    Error rows are sorted because rows that tie on display name may come
    in any order."""
    un = _html.unescape
    _, rest = text.split("<a name='Countries'>", 1)
    maps, rest = rest.split("<a name='Rules'>", 1)
    checks, errs = rest.split("<a name='Errors'>", 1)
    secs = _ERR_SECTION.split(errs)
    return (
        [(un(m[1]), int(m[2]), int(m[3]), int(m[4]))
         for m in _MAP_ROW.finditer(maps)],
        [(un(m[1]), un(m[2]), int(m[3]), int(m[4]))
         for m in _CHECK_ROW.finditer(checks)],
        {un(name): sorted((un(m[1]), int(m[2]), un(m[3]), un(m[4]), un(m[5]))
                          for m in _ERR_ROW.finditer(body))
         for name, body in zip(secs[1::2], secs[2::2])})


def _oracle_report_content(d):
    import duckdb

    from osmlint import oracle_sql
    con = duckdb.connect()
    a1 = con.execute(oracle_sql.lint_summary_per_map_sql(d)).df()
    a2 = con.execute(oracle_sql.lint_per_check_type_sql(d)).df()
    a3 = con.execute(oracle_sql.lint_merge_overall_sql(d)).df()
    err = a3[a3["result"] == "CHECKED_ERROR"]
    return (
        [(r.map_name, r.count_map_checks, r.count_map_errors,
          r.count_map_fixable_errors) for r in a1.itertuples()],
        [(r.check_name, r.explanation, r.count_total_checks,
          r.count_total_errors) for r in a2.itertuples()],
        {overall: sorted((str(r.entity_type), r.osm_id, str(r.display_name),
                          str(r.check_name), str(r.message))
                         for r in g.itertuples())
         for overall, g in err.groupby("map_overall", sort=True)})


def test_report_render(ray_session, synth_small, tmp_path):
    p = str(tmp_path / "report.html")
    report.write_report(synth_small, p)
    html = open(p).read()
    # the report's content is the oracle's A1, A2 and A3 error rows, and
    # write_report leaves no flags scratch dir behind
    maps, checks, errors = _report_content(html)
    exp_maps, exp_checks, exp_errors = _oracle_report_content(synth_small)
    assert len(exp_maps) > 1 and len(exp_errors) > 1
    assert maps == exp_maps
    assert checks == exp_checks
    assert list(errors) == list(exp_errors)
    assert errors == exp_errors
    root = caches.ckpt_root()
    assert not (os.path.isdir(root) and [
        n for n in os.listdir(root) if n.startswith("flags_")])
    # reference template structure (src/templates/report_template.html):
    # Summary / By countries / By check type / Errors sections
    assert "Serbian OSM lint - Results" in html
    assert "<a name='Summary'></a>Summary" in html
    assert "By countries" in html and "By check type" in html
    assert "Serbia checks (PBF)" in html
    assert "checks.WikipediaEntryExistsCheck" in html
    # entity cells link to the OSM object (template line 99)
    assert "https://www.openstreetmap.org/node/" in html
    # entities sorted by display name within an Errors section (A4);
    # A6: only error rows are listed
    sec = html.split("<h3 id='Serbia checks'>", 1)[1].split("</table>")[0]
    names = re.findall(r"<a href='[^']*'>([^<]*)</a>", sec)
    assert names == sorted(names)


def test_cell_sorted_layout(ray_session, synth_small, tmp_path):
    out = str(tmp_path / "sorted")
    files = lineage.write_cell_sorted(synth_small, out, num_files=4)
    assert len([f for f in files if f.endswith(".parquet")]) >= 1
    t = pq.read_table(out, columns=["morton"])
    m = t["morton"].to_numpy()
    # globally sorted across the whole layout (files read in name order)
    import numpy as np
    assert (np.diff(m) >= 0).all()


def test_job_entry_workers_import_from_any_cwd(synth_small, tmp_path):
    """The job entrypoint ships ``osmlint`` to its workers: run from an
    unrelated cwd with no ``PYTHONPATH``, the map workers still import
    it, and the report renders from the lineage output it wrote."""
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "RAY_ADDRESS")}
    cwd = tmp_path / "elsewhere"
    cwd.mkdir()
    res = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "job_entry.py"),
         "--data", synth_small, "--out", str(tmp_path / "out"), "--report"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr[-3000:]
    assert '"partitions"' in res.stdout
    assert os.path.getsize(tmp_path / "out" / "report.html") > 0
