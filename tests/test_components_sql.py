# -*- coding: utf-8 -*-
"""``oracle_sql.components_ctes`` — the one connected-components closure
of the DuckDB oracles.

Its labels are checked against a Python union-find on small ``VALUES``
edge tables: no edges, a lone self-loop, a long path (many rounds), two
dense blobs joined by a long chain, and random sparse graphs.  The
source tripwire keeps the closure in one place: no other function in
``oracle_sql.py`` may spell a recursive ``cc(`` walk or an unrolled
``lab{t}`` round chain."""

import ast
import os
import re

import duckdb
import numpy as np
import pytest

from osmlint import oracle_sql

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "osmlint", "oracle_sql.py")


def _edges_sql(edges) -> str:
    if not edges:
        return "SELECT 0::BIGINT AS a, 0::BIGINT AS b WHERE false"
    rows = ", ".join(f"({int(a)}, {int(b)})" for a, b in edges)
    return f"SELECT a::BIGINT, b::BIGINT FROM (VALUES {rows}) t(a, b)"


def _nodes_sql(nodes) -> str:
    rows = ", ".join(f"({int(n)})" for n in nodes)
    return f"SELECT n::BIGINT FROM (VALUES {rows}) t(n)"


def _closure(edges, nodes=None) -> tuple[dict, int]:
    """(node -> label, rounds run) from the helper's SQL."""
    ctes = oracle_sql.components_ctes(
        _edges_sql(edges), None if nodes is None else _nodes_sql(nodes))
    con = duckdb.connect()
    labels = dict(con.execute(
        f"WITH RECURSIVE {ctes} SELECT node, l FROM labels").fetchall())
    rows = con.execute(f"WITH RECURSIVE {ctes} SELECT count(*) FROM cc") \
        .fetchone()[0]
    return labels, (rows // len(labels) - 1 if labels else 0)


def _union_find(edges, nodes=()) -> dict:
    """node -> minimum node id of its component."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    for n in nodes:
        find(n)
    for a, b in edges:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in parent}


def test_no_edges_no_labels():
    assert _closure([]) == ({}, 0)


def test_lone_self_loop():
    assert _closure([(7, 7)])[0] == {7: 7}


def test_long_path_runs_to_its_fixpoint():
    """A 400-node path with shuffled ids: labels meet only after more
    propagate-and-jump rounds than a fixed 48-round chain would run."""
    ids = np.random.default_rng(3).permutation(400) + 1000
    edges = list(zip(ids[:-1], ids[1:]))
    labels, rounds = _closure(edges)
    assert labels == _union_find(edges)
    assert set(labels.values()) == {1000}
    assert rounds > 48


def test_dense_blobs_joined_by_a_chain():
    """Two 12-cliques joined by a 60-edge chain, a separate pair, and
    isolated nodes that only ``nodes`` brings in."""
    blob_a, blob_b = range(500, 512), range(100, 112)
    edges = [(a, b) for blob in (blob_a, blob_b)
             for a in blob for b in blob if a < b]
    chain = [511] + list(range(900, 959)) + [100]
    edges += list(zip(chain[:-1], chain[1:]))
    edges += [(3000, 3001)]
    isolated = [7, 2000]
    nodes = sorted({n for e in edges for n in e} | set(isolated))
    labels, _ = _closure(edges, nodes)
    assert labels == _union_find(edges, nodes)
    assert labels[958] == labels[511] == 100
    assert labels[7] == 7 and labels[3001] == 3000


@pytest.mark.parametrize("seed", range(4))
def test_random_sparse_graphs(seed):
    rng = np.random.default_rng(seed)
    n = 300
    edges = list(zip(rng.integers(0, n, 240).tolist(),
                     rng.integers(0, n, 240).tolist()))
    nodes = list(range(n))
    assert _closure(edges, nodes)[0] == _union_find(edges, nodes)
    assert _closure(edges)[0] == _union_find(edges)


# ---------------------------------------------------------------------------
# source tripwire: one connected-components closure in oracle_sql.py
# ---------------------------------------------------------------------------

_CLOSURE = re.compile(r"\bcc\s*\(|\blab\{")


def closure_spellings(src: str) -> list[str]:
    """Names of the functions, other than ``components_ctes``, whose
    source spells a ``cc(`` walk or a ``lab{t}`` round chain."""
    return sorted(
        f.name for f in ast.walk(ast.parse(src))
        if isinstance(f, ast.FunctionDef) and f.name != "components_ctes"
        and _CLOSURE.search(ast.get_source_segment(src, f)))


def test_detector_sees_closure_spellings():
    src = '''
def walk(t):
    return f"""WITH RECURSIVE cc(n, l) AS (SELECT n, n FROM nodes
  UNION SELECT e.b, cc.l FROM cc JOIN edges e ON e.a = cc.n)"""

def rounds(r):
    return ",".join(f"lab{t} AS (SELECT * FROM p{t})" for t in range(r))

def components_ctes(e):
    return f"cc(node, l, changed) AS ({e})"

def fine(x):
    return "SELECT acc(x) FROM lab"
'''
    assert closure_spellings(src) == ["rounds", "walk"]


def test_only_the_helper_spells_a_closure():
    with open(SRC, encoding="utf-8") as f:
        offenders = closure_spellings(f.read())
    assert not offenders, (
        "label connected components only through "
        f"oracle_sql.components_ctes; found: {offenders}")
