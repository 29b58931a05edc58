"""CSV text of float64 blocks, byte for byte what joining ``repr`` writes.

``format_block(block)`` equals
``"".join(",".join(map(repr, row)) + "\\n" for row in block.tolist())``
encoded as ASCII ``bytes``, with no Python float or string per field.  The
digits of every finite value, integers included, are Schubfach's (R.
Giulietti, "The Schubfach way to render doubles", 2020; the JDK's
``Double.toString``), the shortest decimal that reads back to v and the
closest on a tie, in 64-bit integer arithmetic over uint64 arrays; without
Java's two-digit minimum, the one-digit shortening is tried for every
s >= 10.  A normal value's digit string has 16 or 17 digits, so its count
is one compare; only zeros, subnormals, infinities and nan, picked by
their biased exponent (0 or 0x7FF), are counted digit by digit on a side
path, which also gives a zero, an infinity or nan f = 0 before their text
is written.  Each field is laid out once in its own 25-place slot of a
uint8 array of (fields x 25 places): sign, digits and point from place 0 (a
lone digit in exponent notation takes no point), then an exponent's
``e+XX`` or ``e-XXX`` right after the digits.  Its length follows from its
last digit, its point and its exponent's width, and one assignment through
an overlapping view of the output, a 25-byte item at every byte, copies
each slot whole to its field's offset.  numpy assigns a 1-D integer index
in index order, though it does not document it, so each field overwrites
the unused tail of the slot before it; the tests pin that order at every
pair of field lengths.  The separators are written last.  The tables are
built on first use, and no BLAS routine is called, so a forked child may
format.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_U = np.uint64
_LOW32, _LOW63 = _U(2**32 - 1), _U(2**63 - 1)
_FRACTION, _EXPONENT = _U(2**52 - 1), _U(0x7FF << 52)
_K_MIN = -324  # decimal exponents k of the 10**-k table run from -324 to 292
_WIDTH = 25  # the longest field, "-1.2345678901234567e-308", and its separator


@cache
def _tables():
    """g = floor(10**-k 2**-r) + 1, r = floor(-k log2(10)) - 125, as its high
    and its low 63 bits in two contiguous arrays (``np.take`` from each is
    several times faster than a column gather from one 2-D table); powers of
    ten; suffixes e-324 to e+308; nan, -inf, inf."""
    g = []
    for k in range(_K_MIN, 293):
        r = (-k * 913124641741 >> 38) - 125
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        g.append((num << max(-r, 0)) // (den << max(r, 0)) + 1)
    suffix = b"".join((b"e%+03d" % x).ljust(5, b"\0") for x in range(-324, 309))
    special = b"".join(name.ljust(4, b"\0") for name in (b"nan", b"-inf", b"inf"))
    tables = (
        np.array([x >> 63 for x in g], np.uint64),
        np.array([x & (2**63 - 1) for x in g], np.uint64),
        np.array([10**i for i in range(18)], np.uint64),
        np.frombuffer(suffix, "V5"),
        np.frombuffer(special, np.uint8).reshape(3, 4),
    )
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _mulhi(a, b_low, b_high):
    """High word of a b from 32-bit limbs; a < 2**63 and b < 2**60 keep the
    cross products' sum below 2**64."""
    a_low, a_high = a & _LOW32, a >> _U(32)
    cross = a_low * b_high + a_high * b_low
    low = ((a_low * b_low) >> _U(32)) + (cross & _LOW32)
    return a_high * b_high + (cross >> _U(32)) + (low >> _U(32))


def _round_odd(words):
    """Schubfach's rop, g cp 2**-127 rounded to odd, from the products
    g1 cp = y1 2**64 + y0 and g0 cp = x1 2**64 + x0, g = g1 2**63 + g0."""
    y1, y0, x1, _ = words
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _LOW63) + _LOW63) >> _U(63))


def _moved(words, g1, g0, shift):
    """The products at cp + 2**shift from those at cp, carries included."""
    y1, y0, x1, x0 = words
    up = _U(64) - shift
    y0n, x0n = y0 + (g1 << shift), x0 + (g0 << shift)
    return y1 + (g1 >> up) + (y0n < y0), y0n, x1 + (g0 >> up) + (x0n < x0), x0n


def _decimal(bits):
    """(f, e): |v| = f 10**e for the bits of each normal or subnormal v, f
    of 16 or 17 digits for a normal v; a zero's, infinity's or nan's f and e
    mean nothing, but every table index stays in range."""
    biased = (bits >> _U(52)) & _U(0x7FF)
    fraction = bits & _FRACTION
    c = fraction | (np.minimum(biased, 1) << _U(52))
    q = np.maximum(biased, 1).view(np.int64) - 1075
    irregular = (fraction == 0) & (biased > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + (-k * 913124641741 >> 38) + 2).view(np.uint64)
    g_high, g_low = _tables()[:2]
    row = k - _K_MIN
    g1, g0 = np.take(g_high, row), np.take(g_low, row)
    # the products at the rounding interval's lower end, then at v and at
    # its upper end, 2**h (irregular spacing) or 2**(h + 1) apart
    cp = ((c << _U(2)) - _U(2) + irregular) << h
    low, high = cp & _LOW32, cp >> _U(32)
    at_lower = (_mulhi(g1, low, high), g1 * cp, _mulhi(g0, low, high), g0 * cp)
    at_v = _moved(at_lower, g1, g0, h + _U(1) - irregular)
    odd = c & _U(1)
    vbl, vb = _round_odd(at_lower) + odd, _round_odd(at_v)
    vbr = _round_odd(_moved(at_v, g1, g0, h + _U(1))) - odd
    s = vb >> _U(2)
    # one digit shorter when exactly one of 10 s' and 10 s' + 10 is in range
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    short = (upin != ((sp10 + _U(10)) << _U(2) <= vbr)) & (s >= _U(10))
    uin, win = vbl <= s << _U(2), (s + _U(1)) << _U(2) <= vbr
    mid = (s << _U(2)) + _U(2)
    take_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & _U(1)) == 0)))
    f = np.where(short, sp10 + _U(10) * ~upin, s + ~take_s)
    return f, k


def format_block(block: np.ndarray) -> bytes:
    """The rows of ``block``, ',' between fields and '\\n' after each row."""
    rows, cols = block.shape
    m, width = rows * cols, _WIDTH
    if not m:
        return b"\n" * rows
    bits = np.ascontiguousarray(block, np.float64).view(np.uint64).ravel()
    pow10, suffix, special = _tables()[2:]
    f, e = _decimal(bits)
    # a normal value's s = floor(c 2**q / 10**k), c in [2**52, 2**53) and
    # 2**q / 10**k in [1, 10) (up to 40/3 on irregular spacing), so its f
    # has 16 or 17 digits; f17 holds them as 17 digits, the first nonzero
    short = f < _U(10**16)
    f17, x = np.where(short, f * _U(10), f), e + 16 - short  # |v| = d.ddd 10**x
    # zeros, subnormals, infinities and nan (biased exponent 0 or 0x7FF) are
    # counted digit by digit, a zero, an infinity or nan as f = 0 and x = 0
    bad = side = np.flatnonzero((bits & _EXPONENT) - _U(1 << 52) >= _U(0x7FE << 52))
    if side.size:
        side_bits = bits[side]
        finite = (side_bits & _EXPONENT) != _EXPONENT
        nonzero = finite & ((side_bits & _LOW63) != 0)
        side_f = f[side] * nonzero
        n_digits = np.searchsorted(pow10[1:17], side_f, "right") + 1
        f17[side] = side_f * pow10[17 - n_digits]
        x[side] = e[side] * nonzero + n_digits - 1
        bad = side[~finite]
    neg = (bits >> _U(63)).astype(np.uint8)
    fixed = (x + 4).view(np.uint64) < _U(20)  # -4 <= x < 16
    # the 24 digits of f17 10**(7 - s), s = the sign's place and the zeros of
    # 0.000ddd, in three 8-digit parts halved down to one digit a row
    s = neg + np.where(fixed, np.maximum(-x, 0), 0)
    scale = pow10[9 + s]
    top = f17 // scale
    rest = (f17 - top * scale) * pow10[7 - s]
    middle = rest // _U(10**8)
    parts = np.empty((3, m), np.uint32)
    parts[0], parts[1], parts[2] = top, middle, rest - middle * _U(10**8)
    digits = np.empty((width, m), np.uint8)
    digits[0] = 0  # row 0 stands before the string
    # the last halving writes the digits in place, rows 1-24
    for div, halves in (
        (10000, np.empty((3, 2, m), np.uint16)),
        (100, np.empty((6, 2, m), np.uint8)),
        (10, digits[1:].reshape(12, 2, m)),
    ):
        high = parts // div
        halves[:, 0], halves[:, 1] = high, parts - high * div
        parts = halves.reshape(2 * len(halves), m)
    last = ((parts != 0) * np.arange(1, width, dtype=np.uint8)[:, None]).max(axis=0)
    # the point follows the integer part, or the first digit unless it is
    # the only one; a lone digit's point goes to place 24, past its field
    point = np.where(fixed, np.maximum(x, 0) + neg, np.where(last > neg + 1, neg, width - 2)).astype(np.uint8)
    # the field's bytes before its separator: up to the last nonzero digit,
    # in fixed notation up to one after the point at least, and the point
    length = np.where(fixed, np.maximum(last, point + 2), last) + (point < width - 2)
    digits += np.uint8(48)
    # character p: digit p up to the point's place, then digit p - 1, and
    # '.' over the first of those
    at, before = digits[1:], digits[:-1]
    place = np.arange(width - 1, dtype=np.uint8)[:, None]
    text = np.empty((m, width), np.uint8)
    text[:, :-1] = (before + (at - before) * (place <= point)).T
    text.ravel()[np.arange(1, m * width, width) + point] = ord(".")
    text[:, 0] -= 3 * neg  # the sign's '0' becomes '-'
    exp = np.flatnonzero(~fixed)
    if exp.size:  # e+XX or e-XXX as one 5-byte item right after the digits
        np.ndarray((m * width - 4,), suffix.dtype, text, 0, (1,))[exp * width + length[exp]] = suffix[x[exp] + 324]
        length[exp] += np.uint8(4) + (np.abs(x[exp]) >= 100)
    if bad.size:
        name = np.where(bits[bad] & _FRACTION, 0, 2 - neg[bad])
        text[bad, :4] = special[name]
        length[bad] = 3 + (name == 1)
    # every slot copied whole to its field's offset, in index order, so
    # each field overwrites the unused tail of the one before (see above)
    stop = np.cumsum(length + np.uint8(1), dtype=np.intp)
    total = int(stop[-1])
    out = np.empty(total + width, np.uint8)
    slot = f"V{width}"
    np.ndarray((total + 1,), slot, out, 0, (1,))[stop - length - 1] = text.view(slot).ravel()
    out[stop - 1] = ord(",")
    out[stop[cols - 1 :: cols] - 1] = ord("\n")
    return out[:total].tobytes()
