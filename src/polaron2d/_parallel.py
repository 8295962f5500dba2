"""Serial map over work items, kept as a named seam.

The package is single-threaded.  ``parallel_map`` stays at its two call
sites (the gamma scan and the C grid scan) because the benchmark tracer
(``perfbench/tracing.py``, ``Tracer.install``) wraps
``polaron2d._parallel.parallel_map`` by name.  Its spans count the work
items and split ``inner_integral`` calls into grid-scan calls and
refinement calls.
"""

from __future__ import annotations

__all__ = ["parallel_map"]


def parallel_map(fn, items) -> list:
    """``[fn(x) for x in items]``."""
    return [fn(x) for x in items]
