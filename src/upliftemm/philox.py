"""Counter-based randomness: Philox4x32-10 in numpy and its transforms.

Every draw of the engine is addressed, not streamed.  The Philox key is
the 64-bit master seed (low word, high word); the counter is (draw index
j, role id, stream id low word, stream id high word).  One counter gives
four 32-bit words, read as two doubles in [0, 1) of 53 bits each, so
draw j of path k under a role is computed directly, for every path of a
block in one kernel call (Salmon, Moraes, Dror and Shaw, "Parallel
Random Numbers: As Easy as 1, 2, 3", SC'11); a thinning candidate reads
one counter.  The transforms below are inversions or fixed-count maps,
with no rejection, so a path consumes the same counters however many
paths are drawn with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1
_MASK32 = 0xFFFFFFFF
_MULT = (0xD2511F53, 0xCD9E8D57)
_WEYL = (0x9E3779B9, 0xBB67AE85)
_ROUNDS = 10

ROLE_IDS = {"brownian": 1, "event_times": 2, "count": 4, "inner": 5}


def philox4x32(counter, key):
    """Philox4x32-10 of four (broadcastable) arrays of 32-bit counter
    words under a pair of 32-bit key words: four uint64 arrays of 32-bit
    output words.  Each round multiplies into 64-bit products, which
    cannot overflow a uint64."""
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in counter)
    shape = np.broadcast(c0, c1, c2, c3).shape
    k0, k1 = (int(k) & _MASK32 for k in key)
    for r in range(_ROUNDS):
        if r:
            k0 = (k0 + _WEYL[0]) & _MASK32
            k1 = (k1 + _WEYL[1]) & _MASK32
            p0 = c0 * _MULT[0]
            p1 = c2 * _MULT[1]
        else:  # the first products, and so every word after them, take the broadcast shape
            p0 = np.multiply(c0, _MULT[0], out=np.empty(shape, dtype=np.uint64))
            p1 = np.multiply(c2, _MULT[1], out=np.empty(shape, dtype=np.uint64))
        c0 = p1 >> 32
        c0 ^= c1
        c0 ^= k0
        c2 = p0 >> 32
        c2 ^= c3
        c2 ^= k1
        c1 = p1 & _MASK32
        c3 = p0 & _MASK32
    return c0, c1, c2, c3


def _unit(hi, lo, out=None) -> np.ndarray:
    """The top 53 of 64 bits as a double in [0, 1 - 2**-53].  Arrays
    ``hi`` and ``lo`` are overwritten."""
    hi <<= 21
    lo >>= 11
    hi |= lo
    return np.multiply(hi, 2.0**-53, out=out)


def uniforms(seed: int, role, j, stream_ids) -> np.ndarray:
    """(2, ...) doubles in [0, 1) of counters (j, role, stream id) under
    ``seed``, over the broadcast shape of ``role``, ``j`` and
    ``stream_ids``.  ``role`` is a role name or an array of role ids, so
    one call can draw several roles."""
    seed &= MASK64
    sid = np.asarray(stream_ids, dtype=np.uint64)
    role = ROLE_IDS[role] if isinstance(role, str) else role
    w = philox4x32((j, role, sid & _MASK32, sid >> 32), (seed, seed >> 32))
    u = np.empty((2, *w[0].shape))
    _unit(w[0], w[1], out=u[0, ...])
    _unit(w[2], w[3], out=u[1, ...])
    return u


def box_muller(u: np.ndarray) -> np.ndarray:
    """(n, 2) standard normals from (2, n) uniforms: a pair per column.
    ``1 - u[0]`` lies in [2**-53, 1], so the radius' log is finite."""
    radius = np.sqrt(-2.0 * np.log1p(-u[0]))
    angle = (2.0 * np.pi) * u[1]
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)


@dataclass(frozen=True)
class PoissonTable:
    """A Poisson count's CDF and its bucket index, for draws by inversion
    with indexed search (Chen and Asau, 1974; Devroye, *Non-Uniform Random
    Variate Generation*, 1986, III.2.4).  ``index[b]`` is the count of
    every uniform in [b, b + 1) / len(index) when no CDF entry lies in
    that bucket, else -1."""

    cdf: np.ndarray
    index: np.ndarray


def poisson_cdf(mean: float) -> PoissonTable:
    """The table of a Poisson count with non-negative ``mean``.
    Probabilities are formed in log space, so a large mean does not
    underflow exp(-mean); the CDF reaches 15 deviations past the mean,
    beyond which the mass is far below a double's resolution, and is
    scaled to end at exactly 1.  With mean 0 every count is 0.

    The index has n buckets, a power of two with at least eight per CDF
    entry up to 2**16 (512 KB).  An entry e = cdf * n (exact) is at or
    below bucket b's left edge b iff ceil(e) <= b, and one that is not an
    integer splits bucket floor(e)."""
    cdf = np.ones(1)
    if mean > 0.0:
        top = int(mean + 15.0 * math.sqrt(mean) + 30.0)
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(top + 1)])
        log_pmf = np.arange(top + 1) * math.log(mean) - mean - log_fact
        cdf = np.cumsum(np.exp(log_pmf))
        cdf /= cdf[-1]
    n = 1 << min((8 * cdf.size - 1).bit_length(), 16)
    e = cdf * n
    index = np.cumsum(np.bincount(np.ceil(e).astype(np.intp), minlength=n + 1)[:n])
    index[np.floor(e[e != np.floor(e)]).astype(np.intp)] = -1
    return PoissonTable(cdf, index)


def poisson_counts(table: PoissonTable, u: np.ndarray) -> np.ndarray:
    """The count whose CDF step covers each uniform in [0, 1): the number
    of CDF entries at or below it.  A uniform's bucket gives the count,
    and only in a bucket that an entry splits is the CDF searched."""
    counts = table.index[(u * table.index.size).astype(np.intp)]
    split = counts < 0
    if split.any():
        counts[split] = np.searchsorted(table.cdf, u[split], side="right")
    return counts
