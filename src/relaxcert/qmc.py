"""Scrambled Sobol and Halton points in plain numpy.

:func:`sobol` returns the bits of
``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed).random_base2(m)`` and
:func:`halton` those of ``scipy.stats.qmc.Halton(d, scramble=True,
seed=seed).random(n)``: the same draws from ``np.random.default_rng(seed)``
in the same order, and the same float operations.  Importing
``scipy.stats`` loads every distribution, about 20 MB and 0.3 s in a fresh
interpreter, for what is here a few array operations.

Sobol points use the Joe–Kuo direction numbers (SIAM J. Sci. Comput. 30,
2008) extended by the Bratley–Fox recursion (ACM TOMS 14, 1988), with a
random lower-triangular linear matrix scramble and a digital shift; Halton
points use Owen's random permutations of the digits (arXiv:1706.02808).
"""

from __future__ import annotations

import importlib.util
import math
import os
from functools import lru_cache

import numpy as np

SOBOL_BITS = 30  # scipy's default resolution: at most 2**30 points
_MSB_FIRST = np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint32)


@lru_cache(maxsize=64)
def _direction_numbers(d: int) -> np.ndarray:
    """The ``(d, SOBOL_BITS)`` unscrambled direction numbers, bit ``29 - j``
    leading in column ``j``, from the table scipy ships beside
    ``scipy.stats`` (found without executing that package)."""
    spec = importlib.util.find_spec("scipy.stats")
    path = os.path.join(spec.submodule_search_locations[0],
                        "_sobol_direction_numbers.npz")
    with np.load(path) as table:
        poly, vinit = table["poly"], table["vinit"]
    if not 1 <= d <= len(poly):
        raise ValueError(f"Sobol dimension {d} is outside 1..{len(poly)}, "
                         "the rows of the direction-number table")
    poly, vinit = poly[:d], vinit[:d]
    deg = np.array([int(p).bit_length() - 1 for p in poly])
    # taps[r, k]: coefficient k + 1 of row r's primitive polynomial
    tap = np.arange(vinit.shape[1])
    taps = np.where(tap < deg[:, None],
                    poly[:, None] >> np.maximum(deg[:, None] - 1 - tap, 0) & 1, 0)
    v = np.zeros((d, SOBOL_BITS), dtype=np.int64)
    v[:, :vinit.shape[1]] = vinit
    v[0] = 1  # the first coordinate is the van der Corput sequence
    for j in range(1, SOBOL_BITS):
        rows = np.flatnonzero((deg >= 1) & (deg <= j))
        new = v[rows, j - deg[rows]]
        for k in range(min(j, vinit.shape[1])):
            new ^= taps[rows, k] * (v[rows, j - k - 1] << (k + 1))
        v[rows, j] = new
    v = (v << _MSB_FIRST).astype(np.uint32)
    v.setflags(write=False)
    return v


def sobol(d: int, m: int, seed=None) -> np.ndarray:
    """The first ``2**m`` points of the scrambled ``d``-dimensional Sobol
    sequence, a ``(2**m, d)`` array in ``[0, 1)``."""
    if not 0 <= m <= SOBOL_BITS:
        raise ValueError(f"Sobol points come in 2**m for m in 0..{SOBOL_BITS}, "
                         f"got m = {m}")
    v = _direction_numbers(d)
    rng = np.random.default_rng(seed)
    bits = 1 << np.arange(SOBOL_BITS, dtype=np.uint32)
    shift = rng.integers(0, 2, size=(d, SOBOL_BITS), dtype=np.uint32) @ bits
    ltm = np.tril(rng.integers(0, 2, size=(d, SOBOL_BITS, SOBOL_BITS),
                               dtype=np.uint32))
    ltm[:, np.arange(SOBOL_BITS), np.arange(SOBOL_BITS)] = 1
    # bit 29 - p of a scrambled number is the parity of row p of its matrix
    # (bit 29 - q at column q) and'ed with the unscrambled number
    rows = ltm @ (bits[_MSB_FIRST])
    parity = np.bitwise_count(rows[:, :, None] & v[:, None, :]) & 1
    scrambled = (parity.astype(np.uint32) << _MSB_FIRST[:, None]).sum(
        axis=1, dtype=np.uint32)
    # Gray-code order: point i + 1 flips the direction number at the
    # trailing-ones count of i
    i = np.arange((1 << m) - 1)
    quasi = np.empty((1 << m, d), dtype=np.uint32)
    quasi[0] = shift
    quasi[1:] = scrambled[:, np.bitwise_count(i ^ (i + 1)) - 1].T
    np.bitwise_xor.accumulate(quasi, axis=0, out=quasi)
    return quasi * 2.0 ** -SOBOL_BITS


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def halton(d: int, n: int, seed=None) -> np.ndarray:
    """The first ``n`` points of the scrambled ``d``-dimensional Halton
    sequence, an ``(n, d)`` array in ``[0, 1)``."""
    rng = np.random.default_rng(seed)
    sample = np.empty((n, d))
    for col, base in enumerate(_first_primes(d)):
        # one permutation of the digits per position 1 - base**-k < 1 resolves
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1,
                          axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q, seq, b2r = np.arange(n), np.zeros(n), 1.0 / base
        for perm in perms:
            seq += perm[q % base] * b2r
            q //= base
            b2r /= base
        sample[:, col] = seq
    return sample
