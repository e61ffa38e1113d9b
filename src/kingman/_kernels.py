"""Stub kept for the benchmark's environment probe.

Nothing in the package is compiled or imports this module. The
benchmark harness (`perfbench/run.py`) imports it to stamp whether the
kernels run compiled, so HAVE_NUMBA stays, always False, until that
harness next changes and drops the stamp.
"""

HAVE_NUMBA = False
