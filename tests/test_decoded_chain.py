# -*- coding: utf-8 -*-
"""Source tripwire: the read → decode → dedup → PIP chain of the document
table has ONE definition, ``pipeline.decoded``.  No other ``osmlint``
module may name the chain's stage functions or read the ``docs`` table
with ``read_parquet`` itself — a second spelling of the chain is where a
change to dedup or PIP gets made in one place and missed in another."""

import ast
import glob
import os
import re

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "osmlint")
STAGES = re.compile(r"\b(decode_and_index|dedup_filter|pip_assign_batch)\b")


def _is_docs_path(node: ast.AST, docs_names: set) -> bool:
    """Does the expression build a path with a ``docs`` component, directly
    or through a name assigned from such a path?"""
    for n in ast.walk(node):
        if isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and "docs" in n.value.split("/"):
            return True
        if isinstance(n, ast.Name) and n.id in docs_names:
            return True
    return False


def docs_reads(src: str) -> list[int]:
    """Line numbers of ``read_parquet`` calls on a ``docs`` path."""
    tree = ast.parse(src)
    assigns = [n for n in ast.walk(tree) if isinstance(n, ast.Assign)]
    docs_names: set = set()
    grew = True
    while grew:
        grew = False
        for a in assigns:
            if not _is_docs_path(a.value, docs_names):
                continue
            for t in a.targets:
                if isinstance(t, ast.Name) and t.id not in docs_names:
                    docs_names.add(t.id)
                    grew = True
    hits = []
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        f = n.func
        name = f.attr if isinstance(f, ast.Attribute) else \
            getattr(f, "id", None)
        args = list(n.args) + [k.value for k in n.keywords]
        if name == "read_parquet" and any(_is_docs_path(a, docs_names)
                                          for a in args):
            hits.append(n.lineno)
    return sorted(hits)


def test_detector_sees_inline_and_named_docs_reads():
    src = (
        "def a(d):\n"
        "    return rd.read_parquet(os.path.join(d, 'docs'))\n"
        "def b(d, s):\n"
        "    shard = os.path.join(d, 'docs', f'map={s}')\n"
        "    return rd.read_parquet(shard, columns=['doc_id'])\n"
        "def c(d):\n"
        "    return rd.read_parquet(os.path.join(d, 'documents.parquet'))\n")
    assert docs_reads(src) == [2, 5]


def test_only_pipeline_spells_the_decoded_chain():
    offenders = {}
    for path in sorted(glob.glob(os.path.join(PKG, "**", "*.py"),
                                 recursive=True)):
        if os.path.relpath(path, PKG) == "pipeline.py":
            continue
        with open(path, encoding="utf-8") as f:
            src = f.read()
        names = sorted({m.group(1) for m in STAGES.finditer(src)})
        reads = docs_reads(src)
        if names or reads:
            offenders[os.path.relpath(path, PKG)] = {
                "stage_names": names, "docs_read_parquet_lines": reads}
    assert not offenders, (
        "read the document table through pipeline.decoded: " +
        repr(offenders))
