"""Sequential inner loops, compiled with numba when it is importable.

Only one loop lives here: assigning backward merger depths to levels when
drawing a stationary state. Everything else in the package vectorizes in
numpy. The pure-python twins are kept callable so the compiled kernels can
be equivalence-tested against them; both paths produce bit-identical output
from the same input arrays.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # numba is optional
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


def assign_levels_py(n: int, targets: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """Reference implementation of the depth-to-level assignment.

    Walking backward from the sampling time, the step with m unresolved
    levels resolves the (targets[step]-1)-th smallest of them (targets[step]
    is in [2, m]) at depth depths[step]. Steps run m = n, n-1, ..., 2.
    Returns depths indexed by level: entry j is the depth of level j+2.
    """
    unresolved = list(range(2, n + 1))
    out = np.empty(n - 1)
    for step in range(n - 1):
        level = unresolved.pop(int(targets[step]) - 2)
        out[level - 2] = depths[step]
    return out


@njit(cache=True)
def _assign_levels_fenwick(n, targets, depths, out):  # pragma: no cover
    # Fenwick tree over positions 1..n-1 (position p holds level p+1);
    # find-kth plus a point decrement gives O(log n) per deletion.
    size = n - 1
    tree = np.zeros(size + 1, dtype=np.int64)
    for i in range(1, size + 1):
        tree[i] = i & (-i)
    top = 1
    while top * 2 <= size:
        top *= 2
    for step in range(n - 1):
        rank = targets[step] - 1  # k-th smallest unresolved, 1-indexed
        idx = 0
        mask = top
        rem = rank
        while mask:
            nxt = idx + mask
            if nxt <= size and tree[nxt] < rem:
                idx = nxt
                rem -= tree[nxt]
            mask //= 2
        pos = idx + 1
        out[pos] = depths[step]  # level = pos + 1, stored at level - 2 = pos - 1
        j = pos
        while j <= size:
            tree[j] -= 1
            j += j & (-j)
    return out


def assign_levels(n: int, targets: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """Depth-to-level assignment; compiled when numba is present."""
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    depths = np.ascontiguousarray(depths, dtype=np.float64)
    if targets.shape != (n - 1,) or depths.shape != (n - 1,):
        raise ValueError("targets and depths must have length n - 1")
    if not HAVE_NUMBA:
        return assign_levels_py(n, targets, depths)
    out = np.empty(n, dtype=np.float64)  # scratch indexed by position, slot 0 unused
    _assign_levels_fenwick(n, targets, depths, out)
    return out[1:].copy()
