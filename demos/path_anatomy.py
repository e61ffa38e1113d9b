"""Walk through one short run of the line ensemble, event by event.

Starts a small ensemble from its stationary law, replays every
reproduction event in a window, and shows how the total tree length
moves: a deterministic upward drift of slope N between events, and a
downward jump at each event equal to the age of the line that exits
through the top level (plus a root correction when the exiting birth
time was the oldest one).
"""

import numpy as np

from kingman import lookdown, treelength
from kingman.rng import make_stream

N = 8
WINDOW = (0.0, 1.5)
SEED = 11


def main():
    stream = make_stream(SEED, 0)
    start = lookdown.stationary_births(N, WINDOW[0], stream)
    log = lookdown.simulate_events(N, WINDOW, stream)
    path = treelength.build_path(start, log)

    print(f"ensemble of N={N} lines, window {WINDOW}, {log.n_events} events")
    print(f"initial length l(0) = {path.eval(np.array([0.0]))[0] :.6f}")
    print()
    # Without a root fix the jump is the exiting line's age; with one it
    # also takes off the stem down to the next-oldest birth.
    print(f"  {'time':>7s}  {'target':>6s}  {'jump':>9s}  root fix")
    for ev_time, tgt, size, root in zip(
        log.times, log.targets, path.jump_sizes, path.root_flags,
    ):
        mark = "yes" if root else ""
        print(f"  {ev_time:7.4f}  {tgt:>6d}  {-size:+9.4f}  {mark}")

    # Between events the length grows at slope exactly N: every one of the
    # N lines ages at unit speed.
    t_left = log.times[0]
    mid = 0.5 * (WINDOW[0] + t_left)
    v0, vm = path.eval(np.array([WINDOW[0], mid]))
    slope = (vm - v0) / (mid - WINDOW[0])
    print()
    print(f"drift slope before the first event: {slope:.12f} (exact N = {N})")

    total_jump = path.jump_sizes.sum()
    v_end = path.final_value
    drift = N * (WINDOW[1] - WINDOW[0])
    print(f"final length     {v_end:.6f}")
    print(f"identity check   l(0) + N*span - sum(jumps) "
          f"= {v0 + drift - total_jump:.6f}")

    # The same quantity from an independent route: the births at the end of
    # the window resolved backward from the event log, with no forward
    # replay at all.
    births = lookdown.resolve_final_state(log, start)
    replayed = treelength.tree_length(births, WINDOW[1])
    print(f"replayed length  {replayed:.6f}")


if __name__ == "__main__":
    main()
