"""Injectable randomness for every mechanism in the library.

All noise (and all synthetic-data sampling) flows through a NoiseSource so
that runs replay bit-exactly from a seed, and so tests can swap in the
zero-noise oracle.  The generator is Philox, a 64-bit-seeded counter-based
PRNG; Gaussian and Laplace draws are produced by inverse-CDF transforms of
uniform 53-bit-mantissa variates rather than rejection sampling, keeping the
draw count per call fixed.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .errors import InvalidParameterError

# Smallest uniform we feed to an inverse CDF; ndtri stays finite here.
_U_FLOOR = 1e-300


def _mix64(x: int) -> int:
    """splitmix64 finalizer; decorrelates derived seeds."""
    x &= 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class NoiseSource:
    """Seeded counter-based randomness, or the zero-noise test oracle.

    A NoiseSource is single-consumer: do not share one instance across
    concurrent callers.  Use :meth:`child` to derive independent streams
    (e.g. one per coordinate) from a parent seed.

    Zero-noise mode returns 0 for every Gaussian and Laplace draw.  It voids
    every privacy guarantee and exists only so tests can compare mechanism
    outputs against their noiseless counterparts.  Uniform draws still work
    in that mode (they drive model sampling in attack harnesses, which is
    not privacy noise).
    """

    def __init__(self, seed: int = 0, zero_noise: bool = False):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.zero_noise = bool(zero_noise)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    @classmethod
    def zero(cls) -> "NoiseSource":
        """The zero-noise oracle. Test use only; no privacy."""
        return cls(seed=0, zero_noise=True)

    def child(self, index: int) -> "NoiseSource":
        """Derive an independent stream for a parallel sub-task.

        The child seed is the parent seed XORed with the mixed index, so
        distinct indices give decorrelated streams and the derivation is
        reproducible without consuming parent state.
        """
        return NoiseSource(seed=self.seed ^ _mix64(index + 1),
                           zero_noise=self.zero_noise)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform draw(s) on [low, high), one 64-bit word per double.

        On [0, 1) the draw is returned as is, with no scaled copy: for u in
        [0, 1), 0.0 + 1.0*u == u exactly.  Consecutive calls read the
        stream one call of their total size would read.
        """
        u = self._gen.random(size)
        if low == 0.0 and high == 1.0:
            return u
        return low + (high - low) * u

    def gaussian(self, std: float, size=None):
        """Centered Gaussian draw(s) with the given standard deviation.

        Like ``laplace``, this is a textbook floating-point sampler: an
        inverse CDF of a 53-bit uniform, scaled and added to the true value.
        Mironov (CCS 2012) showed that such samplers leak through their low
        bits: which doubles a noised output can take depends on the value it
        hides, so one release can tell neighbouring inputs apart.  A
        discrete sampler (e.g. Canonne, Kamath and Steinke's discrete
        Gaussian) would close this and remains a follow-up.
        """
        if not std >= 0:
            raise InvalidParameterError(f"std must be >= 0, got {std}")
        if self.zero_noise:
            return 0.0 if size is None else np.zeros(size)
        u = np.minimum(np.maximum(self._gen.random(size), _U_FLOOR), 1.0 - 1e-16)
        return std * ndtri(u)

    def laplace(self, scale: float, size=None):
        """Centered Laplace draw(s) via inverse CDF of a uniform; the
        floating-point caveat of ``gaussian`` applies."""
        if not scale >= 0:
            raise InvalidParameterError(f"scale must be >= 0, got {scale}")
        if self.zero_noise:
            return 0.0 if size is None else np.zeros(size)
        u = np.minimum(np.maximum(self._gen.random(size), _U_FLOOR), 1.0 - 1e-16)
        # u - 1/2 is symmetric about 0; sign(v) * log(1 - 2|v|) inverts the CDF.
        v = u - 0.5
        return -scale * np.sign(v) * np.log1p(-2.0 * np.abs(v))

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)
