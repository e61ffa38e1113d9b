"""Event-driven simulator of the Kingman look-down particle system.

The package has three layers:

* engine: :mod:`kingman.rng` (splittable seeded streams),
  :mod:`kingman.lookdown` (finite-N event logs and their backward
  resolution, infinite-level line sampling), :mod:`kingman.treelength`
  (exact tree-length paths replayed from event logs, and an independent
  backward-reconstruction oracle);
* statistics: :mod:`kingman.stats` (quadratic variation, KS machinery,
  Poissonity and independence checks, scaling fits);
* harness: :mod:`kingman.experiments` (seeded experiment runners emitting
  verdict reports) and :mod:`kingman.cli`.
"""

__version__ = "0.1.0"
