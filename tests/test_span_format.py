# -*- coding: utf-8 -*-
"""Source tripwire: the span format has ONE decoder, ``osmlint/spans.py``.
No other ``osmlint`` module may take the span list apart (``list_flatten``,
``list_parent_indices``, ``struct_field``) or split a ``doc_id`` itself — a
second parser is where a change to the format gets made in one place and
missed in the other, or where a malformed row is kept by one pass and
dropped by another.  Modules read the decoded columns, or
``spans.doc_id_parts`` for a doc_id column of their own."""

import ast
import glob
import os

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "osmlint")
SPAN_KERNELS = {"list_flatten", "list_parent_indices", "struct_field"}
SPLITS = {"split", "rsplit", "split_pattern", "split_pattern_regex"}


def _call_name(node: ast.Call):
    f = node.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _is_doc_id(e: ast.AST, names: set) -> bool:
    """Is the expression a doc_id value: the ``"doc_id"`` column, a name
    containing ``doc_id`` or bound from a doc_id value, or a method /
    attribute / subscript chain on one?"""
    while True:
        if isinstance(e, ast.Name):
            return "doc_id" in e.id or e.id in names
        if isinstance(e, ast.Attribute):
            if "doc_id" in e.attr:
                return True
            e = e.value
        elif isinstance(e, ast.Subscript):
            if isinstance(e.slice, ast.Constant) and e.slice.value == "doc_id":
                return True
            e = e.value
        elif isinstance(e, ast.Call):
            e = e.func
        else:
            return False


def _scope(node: ast.AST):
    """The nodes of one function (or the module) body, without the bodies
    of the functions nested in it: a doc_id name is local to its scope."""
    todo = list(ast.iter_child_nodes(node))
    while todo:
        n = todo.pop()
        yield n
        if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            todo.extend(ast.iter_child_nodes(n))


def format_parses(src: str) -> list[tuple[int, str]]:
    """(line, call) of every span-kernel call and every doc_id split."""
    tree = ast.parse(src)
    hits = []
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]:
        nodes = list(_scope(scope))
        binds = [(n.targets, n.value) for n in nodes
                 if isinstance(n, ast.Assign)]
        binds += [([n.target], n.iter) for n in nodes
                  if isinstance(n, (ast.For, ast.comprehension))]
        names: set = set()
        grew = True
        while grew:
            grew = False
            for targets, value in binds:
                if not _is_doc_id(value, names):
                    continue
                for t in targets:
                    if isinstance(t, ast.Name) and t.id not in names:
                        names.add(t.id)
                        grew = True
        for n in nodes:
            if not isinstance(n, ast.Call):
                continue
            name = _call_name(n)
            receiver = [n.func.value] if isinstance(n.func,
                                                    ast.Attribute) else []
            if name in SPAN_KERNELS or (name in SPLITS and any(
                    _is_doc_id(a, names) for a in receiver + n.args)):
                hits.append((n.lineno, name))
    return sorted(hits)


# the second span parser this tripwire replaced (pipeline._collision_proj)
# and the per-row doc_id split of the decoder before it
_OLD_COLLISION_PROJ = '''
def _collision_proj(batch, slug2code, n_buckets):
    parts = pc.split_pattern(batch["doc_id"].combine_chunks(), "/")
    slug_dict = pc.dictionary_encode(pc.list_element(parts, 0))
    spans_col = batch["spans"].combine_chunks()
    flat = pc.list_flatten(spans_col)
    parents = pc.list_parent_indices(spans_col).to_numpy()
    kind_dict = pc.dictionary_encode(pc.struct_field(flat, "kind"))
    texts = pc.struct_field(flat, "text")
'''
_OLD_ROW_SPLIT = '''
def decode_batch(batch):
    doc_id = batch["doc_id"].combine_chunks()
    did = doc_id.to_numpy(zero_copy_only=False)
    split3 = [s.split("/") for s in did]
    parts = df["doc_id"].str.split("/", expand=True)
    words = df["name"].str.split(" ")
'''


def test_detector_flags_the_old_collision_parser():
    assert format_parses(_OLD_COLLISION_PROJ) == [
        (3, "split_pattern"), (6, "list_flatten"),
        (7, "list_parent_indices"), (8, "struct_field"),
        (9, "struct_field")]
    # a split of a name bound from a doc_id, and of the column itself;
    # not a split of another column
    assert format_parses(_OLD_ROW_SPLIT) == [(5, "split"), (6, "split")]


def test_only_spans_parses_the_span_format():
    offenders = {}
    for path in sorted(glob.glob(os.path.join(PKG, "**", "*.py"),
                                 recursive=True)):
        rel = os.path.relpath(path, PKG)
        if rel == "spans.py":
            continue
        with open(path, encoding="utf-8") as f:
            hits = format_parses(f.read())
        if hits:
            offenders[rel] = hits
    assert not offenders, (
        "read documents through spans.decode_batch (doc_id columns through "
        "spans.doc_id_parts): " + repr(offenders))
