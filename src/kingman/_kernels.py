"""The depth-to-level assignment used to draw a stationary state.

Everything else in the package vectorizes in numpy. HAVE_NUMBA is always
False: nothing here is compiled, and the flag stays only because the
benchmark's environment stamp reads it.
"""

from __future__ import annotations

import numpy as np

HAVE_NUMBA = False


def assign_levels(n: int, targets: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """Assign backward merger depths to levels.

    Walking backward from the sampling time, the step with m unresolved
    levels resolves the (targets[step]-1)-th smallest of them (targets[step]
    is in [2, m]) at depth depths[step]. Steps run m = n, n-1, ..., 2.
    Returns depths indexed by level: entry j is the depth of level j+2.
    """
    if np.shape(targets) != (n - 1,) or np.shape(depths) != (n - 1,):
        raise ValueError("targets and depths must have length n - 1")
    unresolved = list(range(2, n + 1))
    out = np.empty(n - 1)
    steps = zip(np.asarray(targets, dtype=np.int64).tolist(),
                np.asarray(depths, dtype=np.float64).tolist())
    for target, depth in steps:
        out[unresolved.pop(target - 2) - 2] = depth
    return out
