"""Show that deaths of level-k lines arrive like a rate k-1 Poisson stream.

Lines born on level k die at the moment they are pushed above the
truncation horizon. Collecting the death times over many independent
windows, three signatures of a Poisson process should appear: the mean
count matches (k-1) * window length, the dispersion index of the counts
sits near one, and the inter-death gaps look exponential. Counts on
different levels should also be uncorrelated.
"""

import numpy as np

from kingman import lookdown, stats
from kingman.rng import derive_stream_id, make_stream

SEED = 7
WINDOW = (0.0, 5.0)
REPS = 200
SHOW_LEVELS = (3, 8, 20)
CORR_LEVELS = range(2, 11)


def replicate(level, rep):
    stream = make_stream(SEED, derive_stream_id(17, level * 1000 + rep))
    return lookdown.sample_infinite_deaths(level, WINDOW, stream, tol=1e-3)


def main():
    span = WINDOW[1] - WINDOW[0]
    # Each (level, rep) is drawn once; the shown levels and the correlated
    # ones overlap.
    levels = sorted(set(SHOW_LEVELS) | set(CORR_LEVELS))
    samples = {level: [replicate(level, r) for r in range(REPS)] for level in levels}
    print(f"{REPS} windows of length {span} per level")
    print()
    print("  level  expected  mean    count z  dispersion  gap KS rej")
    for level in SHOW_LEVELS:
        suite = stats.poisson_suite(samples[level])
        print(
            f"  {level:>5d}  {suite.expected_count:8.1f}  {suite.mean_count:6.2f}"
            f"  {suite.count_z:+7.2f}  {suite.dispersion_index:10.3f}"
            f"  {suite.gap_rejection_fraction:10.3f}"
        )

    counts = np.array([[s.count for s in samples[level]] for level in CORR_LEVELS]).T
    indep = stats.independence_check(counts, list(CORR_LEVELS))
    print()
    print(f"levels {CORR_LEVELS.start}..{CORR_LEVELS.stop - 1}: "
          f"max |pairwise count correlation| = {indep.max_abs_correlation:.3f}")


if __name__ == "__main__":
    main()
