"""Deterministic, splittable random streams.

Every random draw in this package flows through an :class:`RngStream`. A
stream is identified by the pair ``(root_seed, stream_id)`` of 64-bit
integers; distinct stream ids give statistically independent streams, and a
stream is single-owner: it is consumed sequentially by exactly one component.

Generator backbone: numpy PCG64 seeded through ``SeedSequence([root_seed,
stream_id])``, which hashes both words with its 128-bit entropy mixer.
Structured ids (experiment ordinal, replicate index) are first flattened
through :func:`mix64` (SplitMix64 finalizer) so nearby inputs land on
well-separated ids. The generator identity string recorded in every output
file is :data:`GENERATOR_ID`.

Exponential draws made directly by this module use the inverse CDF,
``-ln(U)/rate`` with ``U`` uniform on (0, 1], so the event-time stream is
reproducible from the documented draw order alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GENERATOR_ID",
    "RngStream",
    "make_stream",
    "mix64",
    "derive_stream_id",
    "sample_poisson_times",
]

GENERATOR_ID = "pcg64:seedseq(root_seed,stream_id)"

_MASK64 = (1 << 64) - 1

logger = logging.getLogger(__name__)


def mix64(z: int) -> int:
    """SplitMix64 finalizer, the documented 64-bit mixing function.

    Reference constants from Steele, Lea and Flood's SplitMix64. Known
    vectors: mix64(0) = 0xE220A8397B1DCDAF, mix64(1) = 0x910A2DEC89025CC1.
    """
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_stream_id(ordinal: int, replicate: int) -> int:
    """Mix (experiment ordinal, replicate index) into one 64-bit stream id.

    The two indices are packed as ``(ordinal << 32) | replicate`` before
    mixing; both must fit in 32 bits, which every caller in this package
    satisfies by a wide margin.
    """
    if not (0 <= ordinal < 2**32 and 0 <= replicate < 2**32):
        raise ValueError("ordinal and replicate must fit in 32 bits")
    return mix64((ordinal << 32) | replicate)


@dataclass
class RngStream:
    """A single-owner random stream derived from (root_seed, stream_id)."""

    root_seed: int
    stream_id: int
    generator: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (("root_seed", self.root_seed), ("stream_id", self.stream_id)):
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
            if not 0 <= value < 2**64:
                raise ValueError(f"{name} must fit in an unsigned 64-bit word")
        ss = np.random.SeedSequence([int(self.root_seed), int(self.stream_id)])
        self.generator = np.random.Generator(np.random.PCG64(ss))

    def exponentials(self, rate: float, size: int) -> np.ndarray:
        """Vector of Exp(rate) draws via -ln(U)/rate, U in (0, 1].

        U = 1 - random() reflects numpy's [0, 1) uniforms; each step runs
        in place, and ln(U)/(-rate) is exactly -(ln(U)/rate).
        """
        if rate <= 0.0 or not math.isfinite(rate):
            raise ValueError(f"rate must be positive and finite, got {rate}")
        draws = self.generator.random(size)
        np.subtract(1.0, draws, out=draws)
        np.log(draws, out=draws)
        draws /= -rate
        return draws


def make_stream(root_seed: int, stream_id: int) -> RngStream:
    """Create the stream identified by (root_seed, stream_id)."""
    return RngStream(root_seed=root_seed, stream_id=stream_id)


def sample_poisson_times(
    stream: RngStream, rate: float, window: tuple[float, float]
) -> np.ndarray:
    """Arrival times of a homogeneous Poisson process on (a, b].

    Gaps are i.i.d. Exp(rate) drawn by inverse CDF and accumulated from the
    window start; the overshoot past b is discarded. By memorylessness,
    concatenating calls on adjacent windows from a continuing stream has the
    same law as a single call on the union window.

    Returns a strictly increasing float64 array within (a, b]. In the
    (measure-zero, float-rounding) case of a repeated time, the later time is
    moved up to the next double above its predecessor and a warning is
    logged; a ValueError is raised if that pushes a time past b, where the
    window's doubles are too coarse for the rate.
    """
    a, b = float(window[0]), float(window[1])
    if rate <= 0.0 or not math.isfinite(rate):
        raise ValueError(f"rate must be positive and finite, got {rate}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("window endpoints must be finite")
    if a > b:
        raise ValueError(f"window start {a} exceeds end {b}")
    if a == b:
        return np.empty(0, dtype=np.float64)

    span = b - a
    expected = rate * span
    chunks: list[np.ndarray] = []
    total = 0.0
    # Draw in slabs sized to overshoot the window in one pass almost surely;
    # top up in the rare shortfall.
    chunk_size = max(16, int(expected + 4.0 * math.sqrt(expected) + 16.0))
    while True:
        gaps = stream.exponentials(rate, chunk_size)
        chunks.append(gaps)
        total += float(gaps.sum())
        if total > span:
            break
        chunk_size = max(16, chunk_size // 4)
    times = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    np.cumsum(times, out=times)
    times += a
    times = times[:np.searchsorted(times, b, "right")]

    # Enforce strict increase. Ties arise only through float rounding, so
    # the neighbour comparison, which copies no arrival, almost always
    # finds none and the repair never runs.
    if times.size and (times[0] <= a or np.any(times[1:] <= times[:-1])):
        ties = _repair_ties(times, a, b)
        logger.warning("perturbed %d tied Poisson arrival times by one ulp", ties)
    return times


def _order_keys(x: np.ndarray) -> np.ndarray:
    """int64 keys that order finite doubles as their values do, one apart
    per ulp: a double's bits when non-negative, -2**63 - bits when negative
    (so -0.0 and 0.0 share the key 0)."""
    keys = x.view(np.int64).copy()
    negative = keys < 0
    keys[negative] = np.int64(-2**63) - keys[negative]
    return keys


def _repair_ties(times: np.ndarray, a: float, b: float) -> int:
    """Lift each time, in place, to max(itself, the next double above its
    repaired predecessor), a preceding the first; return how many moved.

    In :func:`_order_keys` that is key'_i = max(key_i, key'_{i-1} + 1), so
    key'_i - i is the running maximum of key_i - i: one pass, however long
    a run of ties is. A moved key that is not positive is the image of a
    negative double (0 comes after -5e-324 as -0.0, as np.nextafter has it).
    Raises ValueError, moving nothing, if the last time would pass b.
    """
    keys = _order_keys(np.concatenate(([a], times)))
    steps = np.arange(keys.size, dtype=np.int64)
    lifted = np.maximum.accumulate(keys - steps)
    lifted += steps
    past = int(np.count_nonzero(lifted > _order_keys(np.array([b]))[0]))
    if past:
        raise ValueError(
            f"the doubles of window ({a!r}, {b!r}] are too coarse to separate "
            f"tied Poisson arrivals: {past} repaired times would pass its end"
        )
    moved = np.flatnonzero(lifted != keys)
    new = lifted[moved]
    negative = new <= 0
    new[negative] = np.int64(-2**63) - new[negative]
    times[moved - 1] = new.view(np.float64)
    return moved.size
