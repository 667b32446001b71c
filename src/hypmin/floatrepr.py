"""`repr` of whole float64 arrays: the shortest digits that round-trip.

`slots(values, specials)` spells each entry of a 1-d float64 or int64 array
as `repr` spells its Python value, as one row of ASCII bytes padded with
NULs.  For a finite nonzero float the digits and the decimal exponent come
from Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020),
in exact 64-bit integer arithmetic on the whole array: the shortest decimal
in the value's rounding interval and, of two, the one nearer the value,
then the one with the even last digit.  That is what `repr` prints (David
Gay's shortest mode).  Python's layout rules then place the digits.  Zeros,
NaNs, infinities and integer cells, which need no digit search, take their
text from `repr`, or from `specials`.

One departure from the paper: it widens a value below C_TINY = 3 * 2**-1074
to two digits, and it tries one digit fewer only from three digits up, as
Java's `Double.toString` wants at least two digits.  Here one digit fewer is
tried at every length, so 5e-324 is `5e-324`, as `repr` has it.
"""

from __future__ import annotations

import functools

import numpy as np

# the longest repr of a float64, '-2.2250738585072014e-308', is 24 characters
WIDTH = 24

_K_MIN, _K_MAX = -324, 292  # the decimal exponents k that the table covers
_C_MIN = 2**52  # the hidden bit of a normal float64
_U32 = np.uint64(2**32 - 1)
_MASK_63 = np.uint64(2**63 - 1)
_INF = np.uint64(0x7FF << 52)


def _flog10pow2(q, irregular):
    """floor(log10(2**q)), or floor(log10(3/4 * 2**q)) where `irregular`."""
    return (q * 661971961083 - irregular * 274743187321) >> 41


def _flog2pow10(e):
    """floor(log2(10**e))."""
    return (e * 913124641741) >> 38


@functools.cache
def _g():
    """(g1, g0) for k in [K_MIN, K_MAX]: g = floor(10**-k * 2**(125 - flog2pow10(-k))) + 1,
    so 2**125 <= g < 2**126, split as g1 = g >> 63 and g0 = g mod 2**63.
    Built on first use."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        if k > 0:
            g.append((1 << shift) // 10**k + 1)
        else:
            g.append((10**-k << shift if shift >= 0 else 10**-k >> -shift) + 1)
    return np.array([[x >> 63 for x in g], [x & (2**63 - 1) for x in g]], np.uint64)


def _product(a, b):
    """(high, low): the 64-bit words of the 128-bit products a * b of uint64
    arrays, b broadcast against each row of a."""
    a0, a1 = a & _U32, a >> 32
    b0, b1 = b & _U32, b >> 32
    lo_hi, hi_lo = a0 * b1, a1 * b0
    mid = (a0 * b0) >> 32
    mid += lo_hi & _U32
    mid += hi_lo & _U32
    high = a1 * b1
    high += lo_hi >> 32
    high += hi_lo >> 32
    high += mid >> 32
    return high, a * b


def _plus(p, g, shift):
    """The 128-bit products p = (high, low) plus g * 2**shift, 0 < shift < 64."""
    low = p[1] + (g << shift)
    return p[0] + (g >> (64 - shift)) + (low < p[1]), low


def _minus(p, g, shift):
    """The 128-bit products p = (high, low) minus g * 2**shift, 0 < shift < 64."""
    d = g << shift
    return p[0] - (g >> (64 - shift)) - (p[1] < d), p[1] - d


def _rop(p):
    """Schubfach's rop, g * cp * 2**-127 rounded to odd, from the 128-bit
    products p = (high, low) of g1 * cp (row 0) and g0 * cp (row 1)."""
    high, low = p
    z = low[0] >> 1
    z += high[1]
    vb = high[0] + (z >> 63)
    z &= _MASK_63
    z += _MASK_63
    vb |= z >> 63
    return vb


def digits(bits):
    """(f, k): the shortest decimal f * 10**k that rounds to the float64
    whose magnitude has the bit pattern in `bits` (uint64, finite and
    nonzero), the nearer of two, then the one with even f.  f (uint64) is
    below 10**17 and may end in zeros; k is int64.  Other bit patterns give
    some f < 10**18 and k in [-324, 292]."""
    bq = bits >> 52
    c = bits & np.uint64(_C_MIN - 1)
    c |= np.minimum(bq, 1) << 52
    q = np.maximum(bq, 1).view(np.int64) - 1075
    # c = 2**52 above the smallest normal: the interval's lower half is narrower
    irregular = (c == _C_MIN) & (bq > 1)
    k = _flog10pow2(q, irregular)
    h = (q + _flog2pow10(-k) + 2).view(np.uint64)  # in [2, 5]
    g = _g().take(k - _K_MIN, axis=1)  # rows g1 and g0
    p = _product(g, c << (h + 2))  # g * cp, cp = 4c << h
    vb = _rop(p)
    # the interval's ends, from cp + 2 << h and cp - 2 << h (cp - 1 << h where irregular)
    vbr = _rop(_plus(p, g, h + 1))
    vbl = _rop(_minus(p, g, h + 1 - irregular))
    # an odd c leaves the interval's ends out
    odd = c & 1
    vbl += odd
    vbr -= odd
    s = vb >> 2
    # one digit fewer: sp or sp + 10, of which at most one lies in the interval
    sp = s // 10
    sp *= 10
    up = vbl <= sp << 2
    wp = (sp + 10) << 2 <= vbr
    # else s or s + 1: the one inside, or the nearer, or the even one
    mid = (s << 2) + 2
    t = ((s + 1) << 2 <= vbr) & ((vbl > s << 2) | (vb > mid) | ((vb == mid) & (s & 1).astype(bool)))
    s += t
    np.copyto(s, sp, where=up)
    sp += 10
    np.copyto(s, sp, where=wp)
    return s, k


# A slot is WIDTH bytes of text and the NULs after it.  While the text is
# built it is a (3, n) array: row i holds word i of each slot, whose bytes
# are read in little-endian order.
_ZEROS = np.uint64(int.from_bytes(b"0" * 8, "little"))
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_SUFFIX = 5  # 'e', the exponent's sign and at most three digits


def _words(text_of_byte):
    """(3, WIDTH + 1) uint64: column b holds the words of the slot text_of_byte(b)."""
    slots = [int.from_bytes(text_of_byte(b), "little") for b in range(WIDTH + 1)]
    return np.array([[s >> 64 * i & (2**64 - 1) for s in slots] for i in range(3)], np.uint64)


_LOW = _words(lambda b: b"\xff" * b)  # the low b bytes
_DOTS = _words(lambda b: b"\0" * b + b".")  # '.' at byte b
# the bytes before the first digit: '-' if negative, then n zeros
_LEADS = np.array([int.from_bytes(sign + b"0" * n, "little") for sign in (b"", b"-") for n in range(5)], np.uint64)


def _decimal8(x):
    """uint64 words whose bytes, in little-endian order, are the eight
    decimal digits (0 to 9) of each x < 10**8."""
    hi = x // 10000
    v = hi | (x - hi * 10000) << 32  # two 4-digit lanes of 32 bits
    q = (v * 10486 >> 20) & np.uint64(0x0000007F0000007F)  # lane // 100
    v = q | (v - q * 100) << 16  # four 2-digit lanes of 16 bits
    q = (v * 103 >> 10) & np.uint64(0x000F000F000F000F)  # lane // 10
    return q | (v - q * 10) << 8


def _shift_bytes(words, bits):
    """The slots `words` with their bytes moved towards the end by `bits` < 64 bits (uint64)."""
    out = words << bits
    out[1:] |= words[:-1] >> (64 - bits)
    return out


def _spell(f, k, negative):
    """(slots, lengths): (len(f), WIDTH) uint8 text of each value
    (-1)**negative * f * 10**k, f < 10**17, as repr spells it, and its length."""
    ndig = np.searchsorted(_POW10[1:], f, side="right") + 1
    f = f * _POW10.take(17 - ndig)  # 17 digits, the first nonzero
    e = k + ndig - 1  # the exponent of the first digit
    # the digits as text: words of 8, 8 and 1 digits
    text = np.empty((3, len(f)), np.uint64)
    text[0] = f // 10**9
    f -= text[0] * 10**9
    text[1] = f // 10
    text[2] = f - text[1] * 10
    text[:2] = _decimal8(text[:2])
    # significant digits: those before the trailing zeros; the digits of a
    # word (bytes 0 to 9) end with the byte of its highest set bit
    used = (np.frexp(text.astype(np.float64))[1] + 7) >> 3
    significant = np.maximum(np.maximum(used[0], (8 + used[1]) * (used[1] > 0)), 17 * used[2])
    text[:2] += _ZEROS
    text[2] += ord("0")
    exponent = (e < -4) | (e >= 16)
    # '-', then for -4 <= e < 0 the -e zeros of '0.000', then the digits ...
    zeros = -e * ((e < 0) & ~exponent)
    text = _shift_bytes(text, ((negative + zeros) * 8).view(np.uint64))
    text[0] |= _LEADS.take(negative * 5 + zeros)
    # ... with '.' after the first digit, or after the e + 1 of 0 <= e < 16 ...
    point = negative + 1 + e * ((e >= 0) & ~exponent)
    head = text & _LOW.take(point, axis=1)
    text = _shift_bytes(text ^ head, np.uint64(8))
    text |= head
    text |= _DOTS.take(point, axis=1)
    # ... cut after the last significant digit, where a fixed value keeps '.0'
    length = negative + np.where(exponent, significant + (significant > 1), np.maximum(significant + 1, e + 3) + zeros)
    text &= _LOW.take(length, axis=1)
    slots = text.T.astype("<u8", order="C").view(np.uint8)
    # then 'e', the exponent's sign and at least two of its digits
    rows = np.flatnonzero(exponent)
    e = e[rows]
    magnitude = np.abs(e)
    three = magnitude >= 100
    ones, tens = magnitude % 10 + ord("0"), magnitude // 10 % 10 + ord("0")
    figures = np.where(three, (magnitude // 100 + ord("0")) | tens << 8 | ones << 16, tens | ones << 8)
    suffix = ord("e") | np.where(e < 0, ord("-"), ord("+")) << 8 | figures << 16
    at = rows * WIDTH + length[rows]
    slots.ravel()[at[:, None] + np.arange(_SUFFIX)] = suffix.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :_SUFFIX]
    length[rows] += 4 + three
    return slots, length


def slots(values, specials):
    """(text, lengths): row i of the (len(values), WIDTH) uint8 array `text`
    is repr of values[i] as a Python value, in ASCII, padded with NULs, and
    lengths[i] its length.  `values` is a 1-d int64 or float64 array.  Where
    `specials` (a dict, or None) has an entry for the repr of a NaN or an
    infinity, that entry is its text."""
    if values.dtype != np.float64:
        return _from_repr(values.tolist(), specials)
    bits = values.view(np.uint64)
    magnitude = bits & _MASK_63
    text, lengths = _spell(*digits(magnitude), (bits >> 63).view(np.int64))
    # zeros, NaNs and infinities: no digits to search
    other = np.flatnonzero((magnitude == 0) | (magnitude >= _INF))
    if other.size:
        text[other], lengths[other] = _from_repr(values[other].tolist(), specials)
    return text, lengths


def _from_repr(values, specials):
    """`slots` of the Python values `values`, from their repr."""
    text = list(map(repr, values))
    if specials is not None:
        text = [specials.get(t, t) for t in text]
    lengths = np.array(list(map(len, text)), np.intp)
    return np.array(text, dtype=f"S{WIDTH}").view(np.uint8).reshape(len(text), WIDTH), lengths
