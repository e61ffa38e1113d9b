"""Compare the evolved length law against fresh static genealogies.

The total tree length of a stationary N-line ensemble has the classical
fixed-time law: mean twice the (N-1)-th harmonic number, and for large N
the centered value l/2 - ln N is approximately Gumbel. Evolving a
stationary ensemble forward in time must preserve that law exactly.
This script checks both statements numerically.
"""

import math

import numpy as np

from kingman import lookdown, stats, treelength
from kingman.rng import derive_stream_id, make_stream

SEED = 2
N = 100
EVOLVE_SPAN = 0.5
REPS = 1500


def evolved_lengths():
    out = np.empty(REPS)
    for r in range(REPS):
        stream = make_stream(SEED, derive_stream_id(23, r))
        births = lookdown.stationary_births(N, 0.0, stream)
        log = lookdown.simulate_events(N, (0.0, EVOLVE_SPAN), stream)
        final = lookdown.resolve_final_state(log, births)
        out[r] = treelength.tree_length(final, EVOLVE_SPAN)
    return out


def main():
    harmonic = sum(1.0 / j for j in range(1, N))
    stream = make_stream(SEED, 1)
    static = treelength.sample_static_kingman_length(N, stream, size=REPS)
    evolved = evolved_lengths()

    print(f"N = {N}, {REPS} replicates per arm")
    print(f"expected mean 2*h_{N - 1} = {2 * harmonic:.4f}")
    print()
    print("  arm       mean     sd")
    for name, arr in [("static", static), ("evolved", evolved)]:
        print(f"  {name:<8s}  {arr.mean():6.3f}  {arr.std(ddof=1):5.3f}")

    ks = stats.ks_test_two_sample(static, evolved)
    print()
    print(f"two-sample KS static vs evolved: D = {ks.statistic:.4f}, "
          f"p = {ks.p_value:.3f}")

    # Large-N centering: l/2 - ln N against the Gumbel curve.
    big_n = 10_000
    big = treelength.sample_static_kingman_length(
        big_n, make_stream(SEED, 2), size=800
    )
    centered = big / 2.0 - math.log(big_n)
    gks = stats.ks_test(centered, stats.gumbel_cdf)
    print(f"N = {big_n}: KS of l/2 - ln N vs Gumbel: D = {gks.statistic:.4f}, "
          f"p = {gks.p_value:.3f}")


if __name__ == "__main__":
    main()
