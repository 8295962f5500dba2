"""Deterministic order-preserving parallel map.

Work items must be pure functions of their inputs; results are collected
in input order, so the output is identical for any thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

__all__ = ["parallel_map"]


def parallel_map(fn, items, threads: int = 1) -> list:
    """``[fn(x) for x in items]``, spread over ``threads`` worker threads.

    Items go to the workers in about 4 * threads contiguous chunks, so the
    per-task overhead stays small when items are many and cheap.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    size = -(-len(items) // (4 * threads))
    chunks = [items[i:i + size] for i in range(0, len(items), size)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return [y for chunk in pool.map(lambda c: [fn(x) for x in c], chunks)
                for y in chunk]
