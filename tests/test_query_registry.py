# -*- coding: utf-8 -*-
"""Source tripwire: a query is named once, as its ``ray_queries()`` entry
in ``osmlint/queries.py``.  An entry points at the operator itself, so
the module holds no forwarding function (a ``def`` whose body is only
``return op(...)``) and no function-local ``from . import`` — a second
spelling of a query is where a fixed argument changes in one place and
not in the other."""

import ast
import os

QUERIES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "osmlint", "queries.py")


def _is_forwarder(fn: ast.FunctionDef) -> bool:
    """Is the body, after an optional docstring and imports, a single
    ``return <call>``?"""
    body = list(fn.body)
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    body = [s for s in body
            if not isinstance(s, (ast.Import, ast.ImportFrom))]
    return len(body) == 1 and isinstance(body[0], ast.Return) \
        and isinstance(body[0].value, ast.Call)


def registry_offenders(src: str) -> dict:
    """Module-level forwarders by name, and the line of every
    function-local ``from . import``."""
    tree = ast.parse(src)
    forwarders = sorted(n.name for n in tree.body
                        if isinstance(n, ast.FunctionDef) and _is_forwarder(n))
    local_imports = sorted(
        s.lineno for n in tree.body if isinstance(n, ast.FunctionDef)
        for s in ast.walk(n)
        if isinstance(s, ast.ImportFrom) and s.level > 0)
    return {"forwarders": forwarders, "local_imports": local_imports}


def test_detector_sees_forwarders_and_local_imports():
    src = (
        "from . import textops\n"
        "def a(sf_dir):\n"
        "    return textops.a(sf_dir)\n"
        "def b(sf_dir):\n"
        "    '''Doc.'''\n"
        "    from . import ann\n"
        "    return ann.b(sf_dir, k=5)\n"
        "def c(sf_dir):\n"
        "    df = textops.c(sf_dir)\n"
        "    return df.sort_values('x')\n"
        "def d(op):\n"
        "    def run(sf_dir):\n"
        "        from .geo import cell_id\n"
        "        return op(cell_id(sf_dir))\n"
        "    return run\n"
        "def e():\n"
        "    return CONST\n")
    assert registry_offenders(src) == {"forwarders": ["a", "b"],
                                       "local_imports": [6, 13]}


def test_queries_module_is_only_the_registry():
    with open(QUERIES, encoding="utf-8") as f:
        offenders = registry_offenders(f.read())
    assert offenders == {"forwarders": [], "local_imports": []}, (
        "register a query as one ray_queries() entry pointing at its "
        "operator: " + repr(offenders))
