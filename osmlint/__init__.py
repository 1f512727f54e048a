"""osmlint — a Ray-Data-native spatial validate-and-flag (lint) engine.

From-scratch re-expression of the capabilities of
stalker314314/serbian-osm-lint (reference at /root/reference, read-only)
as vectorized span-document kernels composed into ray.data.Dataset
pipelines.  Nothing in this package calls ray.init()/ray.shutdown();
sessions are owned by bench.py / tests / the driver.
"""

__version__ = "0.1.0"

from .caches import clear_caches  # noqa: E402  (public cache reset)


def runtime_env() -> dict:
    """``ray.init(runtime_env=...)`` for the entry points that own their
    session: ships this package to every worker, so workers import
    ``osmlint`` whatever the driver's cwd or ``PYTHONPATH``."""
    import os
    return {"py_modules": [os.path.dirname(os.path.abspath(__file__))]}
