"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship lint pipeline (read span docs → decode →
STRtree PIP tile join → check kernels → last-wins dedup) on the sf0.001
synthetic Serbia-extent document table.  ``queries()`` exposes every
implemented pipeline/operator (SURVEY.md §2 + scale extensions);
``oracle_sql()`` the matching DuckDB SQL.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; driver checks rows>=0."""
    from osmlint import queries
    return queries.ray_queries()["lint_flags"]("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from osmlint import queries as q
    return q.ray_queries()


def oracle_sql() -> dict[str, str]:
    from osmlint import queries as q
    return q.oracle_queries()
