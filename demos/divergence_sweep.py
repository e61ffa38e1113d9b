"""Watch the sum of squared life lengths grow without bound.

Every line born on level k in a fixed window contributes the square of
its life length to a running sum S(K) once k <= K. Each level adds a
finite amount, but the level contributions shrink too slowly for the
total to converge: the running sum grows like 4 * span * ln K. The
sweep below fits that log slope on a geometric grid of truncation
levels.
"""

from kingman import experiments

SEED = 0
K_GRID = (8, 32, 128, 512, 2048)
REPS = 40


def main():
    report = experiments.run_divergence(seed=SEED, k_grid=K_GRID, reps=REPS)

    table = report.table("s_k")
    print(f"window length 1, {REPS} replicates")
    print()
    print("  K      mean S(K)  se     exact E[S(K)]")
    for k, mean, se, expected, _ in table["rows"]:
        print(f"  {k:<5.0f}  {mean:9.3f}  {se:5.3f}  {expected:9.3f}")

    fit = report.verdict("slope_matches_log_divergence")
    print()
    print(f"fitted slope of mean S(K) against ln K: {fit.observed:.3f}")
    print(f"divergence-rate prediction: {fit.expected:.1f}")
    print("every line's squared life length is eventually counted, and the")
    print("running total never settles: each decade of levels adds about")
    print(f"{fit.observed * 2.303:.1f} more to the sum.")


if __name__ == "__main__":
    main()
