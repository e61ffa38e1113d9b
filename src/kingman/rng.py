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
    perturbed upward by one ulp and a warning is logged.
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

    # Enforce strict increase. Ties can arise only through float rounding,
    # so the loop below runs on (almost always zero) offending indices,
    # found by comparing neighbours without copying the arrivals.
    ties = 0
    while times.size:
        bad = np.flatnonzero(times[1:] <= times[:-1]) + 1
        if times[0] <= a:
            bad = np.insert(bad, 0, 0)
        if bad.size == 0:
            break
        for idx in bad:
            floor = times[idx - 1] if idx > 0 else a
            if times[idx] <= floor:
                times[idx] = np.nextafter(floor, math.inf)
                ties += 1
    if ties:
        logger.warning("perturbed %d tied Poisson arrival times by one ulp", ties)
        times = times[times <= b]
    return times
