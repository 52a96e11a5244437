"""Python's ``repr`` of many float64 values at once, in numpy array arithmetic.

:func:`repr_text` gives each value's ``repr`` text as a fixed-width row of
ASCII bytes padded with NUL, so a writer that drops the NUL bytes from a
buffer of such rows writes what one ``repr`` call per value would.

The digits are the shortest decimal in the value's rounding interval, the
closest such decimal when several have that length, and the even one on an
exact tie, which is what ``repr`` prints.  An integer below ``2**53`` is its
own digits; any other value goes through Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020) in the paper's form: the decimal one
digit shorter is tried at every length, and subnormals take the common path.
Java's ``Double.toString`` adds a two-digit minimum and a subnormal branch,
and prints ``4.9e-324`` where ``repr`` prints ``5e-324``.  The one
multiplication per interval bound, a 126-bit power of ten times a 63-bit
integer, is built from 32-bit limbs on ``uint64`` arrays.  Only arrays enter
integer arithmetic: numpy warns when a ``uint64`` scalar wraps, and wrapping
is what the limb products rely on.

The layout is ``repr``'s: scientific when the decimal point falls at
``decpt <= -4`` or ``decpt > 16`` digits from the first digit, with a signed
exponent of at least two digits, and positional otherwise, with ``.0``
after an integer.  A row is built as three little-endian 64-bit words, so
moving text by a different number of bytes in each row is a shift per word.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

WIDTH = 24  # bytes per row: len(repr(-1.7976931348623157e308))
_BATCH = 4096  # values formatted at once; their temporaries take about 1.6 MiB
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k that Schubfach scales by
_DECPT_MIN, _DECPT_MAX = -323, 309  # those of 5e-324 and of the largest double
_DIGITS = 17  # at most 17 significant digits tell two doubles apart
_POW10 = 10 ** np.arange(_DIGITS + 1, dtype=np.uint64)
_M32, _M63 = np.uint64(2**32 - 1), np.uint64(2**63 - 1)
# added to 4c: the rounding interval's lower bound, the value and the upper
# bound, in quarter units
_QUARTERS = np.array([[2**64 - 2], [0], [2]], dtype=np.uint64)

# K rows of text are a (3, K) array of words, word i holding bytes 8i to
# 8i + 7.  Column m of _PREFIX has the first m bytes set, column m of _BYTE
# byte m alone.
_WORDS = np.arange(3)[:, None]
_PREFIX = np.array([[(1 << 8 * min(max(m - 8 * i, 0), 8)) - 1 for m in range(WIDTH + 1)]
                    for i in range(3)], dtype=np.uint64)
_BYTE = _PREFIX[:, 1:] ^ _PREFIX[:, :-1]
_ONES = np.uint64(0x0101010101010101)
_ZEROS = np.array([[0x3030303030303030], [0x3030303030303030], [0x30]], dtype=np.uint64)


def _word(text: str) -> np.uint64:
    """``text``, at most eight ASCII bytes, as a word."""
    return np.uint64(int.from_bytes(text.encode("ascii"), "little"))


@lru_cache(maxsize=1)
def _exponents() -> np.ndarray:
    """The exponent texts ``e-324`` .. ``e+308`` as words, for ``decpt``
    from ``-323`` to ``309``."""
    table = np.array([_word(f"e{decpt - 1:+03d}") for decpt in range(_DECPT_MIN, _DECPT_MAX + 1)],
                     dtype=np.uint64)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=1)
def _g_table() -> np.ndarray:
    """``(6, 617)`` ``uint64`` columns for ``k = -324 .. 292``: ``g >> 63``;
    its low and high 32 bits; those of ``g & (2**63 - 1)``; and ``r`` as
    two's complement, where ``10**-k = β 2**r`` with ``2**125 <= β <
    2**126`` and ``g = floor(β) + 1``."""
    columns = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 126
            g = (p >> r if r >= 0 else p << -r) + 1
        else:  # 10**k is no power of two, so its inverse's β is below 2**126
            p = 10**k
            r = -125 - p.bit_length()
            g = (1 << -r) // p + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        columns.append((g1, g1 & 2**32 - 1, g1 >> 32, g0 & 2**32 - 1, g0 >> 32, r % 2**64))
    table = np.array(columns, dtype=np.uint64).T.copy()
    table.flags.writeable = False
    return table


def _mulhi(a0, a1, b0, b1) -> np.ndarray:
    """The high 64 bits of the 128-bit products of ``uint64`` arrays, each
    given as its low and high 32 bits."""
    mid = a1 * b0 + (a0 * b0 >> np.uint64(32))  # each sum stays below 2**64
    return (a1 * b1 + (mid >> np.uint64(32))
            + (a0 * b1 + (mid & _M32) >> np.uint64(32)))


def _schubfach(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest decimals ``d 10**k`` of positive nonzero doubles, as
    ``uint64`` and ``int64`` arrays, from their bit patterns."""
    t = bits & np.uint64(2**52 - 1)
    bq = (bits >> np.uint64(52)).astype(np.int64)
    c = t | (bq > 0) * np.uint64(2**52)
    q = np.maximum(bq, 1) - 1075  # v = c 2**q
    # the interval reaches a quarter unit lower where the exponent steps down
    irregular = (t == 0) & (bq > 1)
    k = (q * 661_971_961_083 - 274_743_187_321 * irregular) >> 41
    g1, g1_lo, g1_hi, g0_lo, g0_hi, r = np.take(_g_table(), k - _K_MIN, axis=1)
    cp = (c << np.uint64(2)) + _QUARTERS
    cp[0] += irregular
    cp <<= q.astype(np.uint64) + r + np.uint64(127)  # by 1 to 4: cp < 2**60
    # g cp / 2**127 rounded to odd, its last bit set when it is no integer,
    # so comparisons with integers keep their outcome; g is g1 2**63 + g0
    c_lo, c_hi = cp & _M32, cp >> np.uint64(32)
    x1 = _mulhi(g0_lo, g0_hi, c_lo, c_hi)
    y0, y1 = g1 * cp, _mulhi(g1_lo, g1_hi, c_lo, c_hi)  # g1 cp = y1 2**64 + y0
    z = (y0 >> np.uint64(1)) + x1
    vbl, vb, vbr = y1 + (z >> np.uint64(63)) | ((z & _M63) + _M63) >> np.uint64(63)
    # an odd c leaves the interval's bounds out, as round-half-even does
    vbl += c & np.uint64(1)
    vbr -= c & np.uint64(1)
    s = vb >> np.uint64(2)
    sp10 = s // np.uint64(10) * np.uint64(10)
    upin = vbl <= sp10 << np.uint64(2)
    wpin = sp10 + np.uint64(10) << np.uint64(2) <= vbr
    uin = vbl <= s << np.uint64(2)
    win = s + np.uint64(1) << np.uint64(2) <= vbr
    # s + 1 is the closer to v, or as close and even
    up = vb + (s & np.uint64(1)) > (s << np.uint64(2)) + np.uint64(2)
    d = np.where(upin != wpin, sp10 + wpin * np.uint64(10),
                 s + np.where(uin != win, win, up))
    return d, k


def _later(words: np.ndarray, count) -> np.ndarray:
    """The rows of ``words`` moved ``count`` bytes later, at most seven,
    one count for all rows or one per row; bytes past the end drop."""
    bits = np.asarray(count).astype(np.uint64) << np.uint64(3)
    out = words << bits
    out[1:] |= words[:-1] >> np.uint64(64) - bits
    return out


def repr_text(values: np.ndarray) -> np.ndarray:
    """A ``(len(values), WIDTH)`` ``uint8`` array whose row ``i`` is
    ``repr(float(values[i]))`` in ASCII, padded with NUL bytes; made a
    batch of values at a time, so the temporaries do not grow with them."""
    x = np.asarray(values, dtype=np.float64).ravel()
    text = np.empty((len(x), WIDTH), dtype=np.uint8)
    rows = text.view("<u8")
    for lo in range(0, len(x), _BATCH):
        rows[lo:lo + _BATCH] = _words(x[lo:lo + _BATCH]).T
    return text


def _words(x: np.ndarray) -> np.ndarray:
    """The ``repr`` text of each value of ``x`` as a row of words."""
    finite = np.isfinite(x)
    a = np.where(finite, np.abs(x), 0.0)
    # |x| = d 10**e with d below 10**17; decpt is where the decimal point
    # falls, counted in digits from the first
    whole = (a == np.floor(a)) & (a < 2.0**53)
    d, e = _schubfach(a.view(np.uint64))
    d = np.where(whole, np.minimum(a, 2.0**53).astype(np.uint64), d)
    width = np.searchsorted(_POW10[1:], d, side="right") + 1
    decpt = width + np.where(whole, 0, e)

    # the digits of d left-aligned in bytes 0-16: as values, as ASCII
    # (full), and as ASCII up to the last nonzero digit, then NUL (shown)
    d *= np.take(_POW10, _DIGITS - width)
    head = d // np.uint64(10**9)
    tail = d - head * np.uint64(10**9)
    ten = tail // np.uint64(10)
    x8 = np.stack([head, ten])  # eight digits each; then four, two and one per lane
    hi = x8 // np.uint64(10**4)
    x8 = hi | x8 - hi * np.uint64(10**4) << np.uint64(32)
    hi = x8 * np.uint64(10486) >> np.uint64(20) & np.uint64(0x0000007F0000007F)
    x8 = hi | x8 - hi * np.uint64(100) << np.uint64(16)
    hi = x8 * np.uint64(103) >> np.uint64(10) & np.uint64(0x000F000F000F000F)
    digits = np.concatenate([hi | x8 - hi * np.uint64(10) << np.uint64(8),
                             (tail - ten * np.uint64(10))[None]])
    full = digits | _ZEROS
    seen = digits + np.uint64(0x7F7F7F7F7F7F7F7F) >> np.uint64(7) & _ONES
    seen[0] |= np.uint64(1)  # the first digit shows, so 0 is "0"
    seen[1] |= (seen[2] != 0) * _ONES
    seen[0] |= (seen[1] != 0) * _ONES
    for bits in (8, 16, 32):
        seen |= seen >> np.uint64(bits)
    shown = digits | seen * np.uint64(ord("0"))
    n = (seen * _ONES >> np.uint64(56)).sum(axis=0).astype(np.int64)

    # positional when -3 <= decpt <= 16: the digits, with zeros up to the
    # point, a dot after the first decpt and at least one digit after it;
    # below 1 they follow "0." and -decpt zeros.  Scientific otherwise: a
    # digit, a dot and the other digits if there are more, and the exponent
    sci = (decpt <= -4) | (decpt > 16)
    point = np.where(sci, 1, np.maximum(decpt, 1))
    zeros = np.where(sci, 0, point - decpt)  # "0" and -decpt zeros
    size = np.where(sci, n, np.maximum(n, decpt + 1))
    body = _later(full & np.take(_PREFIX, size, axis=1, mode="clip"), zeros)
    body[0] |= np.take(_PREFIX[0], zeros) & _ZEROS[0]
    dotted = size + zeros > 1
    upto = np.take(_PREFIX, point, axis=1)
    text = (body & upto | _later(body & ~upto, 1)
            | np.take(_BYTE, point, axis=1) & dotted * np.uint64(ord(".") * 0x0101010101010101))
    exponent = sci * np.take(_exponents(), decpt - _DECPT_MIN, mode="clip")
    after = size + dotted  # the first byte after the digits
    text |= _later((after >> 3 == _WORDS) * exponent, after & 7)
    if not finite.all():
        for name, hit in (("inf", np.isinf(x)), ("nan", np.isnan(x))):
            text[:, hit] = [[_word(name)], [0], [0]]
    minus = np.signbit(x) & ~np.isnan(x)
    text = _later(text, minus)
    text[0] |= minus * _word("-")
    return text
