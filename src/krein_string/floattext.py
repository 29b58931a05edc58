"""CSV text of float64 blocks, byte for byte what joining ``repr`` writes.

``format_block(block)`` equals
``"".join(",".join(map(repr, row)) + "\\n" for row in block.tolist())``
encoded as ASCII ``bytes``, with no Python float or string per field.  The
digits of every finite value, integers included, are Dragonbox's (J. Jeon,
"Dragonbox: A New Floating-Point Binary-to-Decimal Conversion Algorithm",
2020), the shortest decimal that reads back to v and the closest on a tie,
in 64-bit integer arithmetic over uint64 arrays.  Each value takes one
product through 32-bit limbs, z = floor((2c + 1) 2**beta phi / 2**128) of
its significand c with a 128-bit power of ten: the rounding interval's
right end in units of 10**(e - 2), e = floor(q log10 2) for v = c 2**q.
With r = z mod 1000 and delta the interval's width in those units (100 to
999), r < delta keeps 10 (z // 1000) and r > delta the nearest at ten
times the scale.  One ``np.flatnonzero`` subset settles the rest: r == 0,
where an odd c's right end is out if z is exact; r == delta, where the
left end decides; and z - delta/2 halfway between two candidates, where
the parity of y = v 10**(2 - e) decides and an integral y goes to the even
digit; the last two from a second product, of 2c - 1 and 2c.  Powers of
two, whose interval is shorter below than above, take digits that
Dragonbox's shorter-interval case gives when the tables are built.  A
normal value's f has 16 or 17 digits, so its count is one compare; only
zeros, subnormals, infinities and nan, picked by their biased exponent (0
or 0x7FF), are counted digit by digit on a side path, which also gives a
zero, an infinity or nan f = 0 before their text is written.  Each field
is laid out once in its own 25-place slot of a uint8 array of (fields x 25
places): sign, digits and point from place 0 (a lone digit in exponent
notation takes no point), then an exponent's ``e+XX`` or ``e-XXX`` right
after the digits.  Its length follows from its last digit, its point and
its exponent's width, and one assignment through an overlapping view of
the output, a 25-byte item at every byte, copies each slot whole to its
field's offset.  numpy assigns a 1-D integer index in index order, though
it does not document it, so each field overwrites the unused tail of the
slot before it; the tests pin that order at every pair of field lengths.
The separators are written last.  The tables are built on first use, and
no BLAS routine is called, so a forked child may format.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_U = np.uint64
_LOW32, _LOW63 = _U(2**32 - 1), _U(2**63 - 1)
_FRACTION, _EXPONENT = _U(2**52 - 1), _U(0x7FF << 52)
_WIDTH = 25  # the longest field, "-1.2345678901234567e-308", and its separator


@cache
def _core_tables():
    """For each biased exponent b, q = max(b, 1) - 1075: e = floor(q log10 2);
    the high and low words of Dragonbox's phi_j = ceil(10**j 2**(127 -
    floor(j log2 10))), j = 2 - e; beta = q + floor(j log2 10), 6 to 9; and
    delta = floor(phi_high 2**(beta - 63)), the rounding interval's width
    2**q 10**j rounded down, 100 to 999.  Then, for b >= 2, the digits f and
    the exponent of 2**(q + 52) by Dragonbox's shorter interval, from 2**q
    (2**52 - 1/4) to 2**q (2**52 + 1/2), in its uint64 arithmetic."""
    phi, log2 = [], []
    for j in range(-292, 327):
        log2.append((10**j).bit_length() - 1 if j >= 0 else -(10**-j).bit_length())
        phi.append(-(-(10 ** max(j, 0) << max(127 - log2[-1], 0)) // (10 ** max(-j, 0) << max(log2[-1] - 127, 0))))
    phi_high = np.array([x >> 64 for x in phi], np.uint64)
    phi_low = np.array([x & (2**64 - 1) for x in phi], np.uint64)
    log2 = np.array(log2)
    q = np.maximum(np.arange(2048), 1) - 1075
    e = (q * 661971961083) >> 41
    row = 294 - e  # j = 2 - e
    high, beta = phi_high[row], (q + log2[row]).astype(np.uint64)
    # the shorter interval at 10**-k, k = floor(q log10 2 - log10(4/3))
    k = (q * 661971961083 - 274743187321) >> 41
    p, shift = phi_high[292 - k], (11 - q - log2[292 - k]).astype(np.uint64)
    # the left end rounded up: it is an integer, and in, at q = 2 and 3 only
    left = ((p - (p >> _U(54))) >> shift) + ((q < 2) | (q > 3))
    right = (p + (p >> _U(53))) >> shift
    y = ((p >> (shift - _U(1))) + _U(1)) >> _U(1)  # 2**(q + 52) 10**-k rounded half up
    tie = (q == -77) & ((y & _U(1)) == 1)  # the one tie goes to the even digit
    y = y - tie + (~tie & (y < left))
    ten = right // _U(10) * _U(10)
    tables = (e, high, phi_low[row], beta, high >> (_U(63) - beta), np.where(ten >= left, ten, y), k)
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


@cache
def _text_tables():
    """Powers of ten; suffixes e-324 to e+308; nan, -inf, inf."""
    suffix = b"".join((b"e%+03d" % x).ljust(5, b"\0") for x in range(-324, 309))
    special = b"".join(name.ljust(4, b"\0") for name in (b"nan", b"-inf", b"inf"))
    tables = (
        np.array([10**i for i in range(18)], np.uint64),
        np.frombuffer(suffix, "V5"),
        np.frombuffer(special, np.uint8).reshape(3, 4),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _mulhi(a, b):
    """High word of the 128-bit product a b, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U(32), b & _LOW32, b >> _U(32)
    t = a1 * b0 + ((a0 * b0) >> _U(32))
    w = a0 * b1 + (t & _LOW32)
    return a1 * b1 + (t >> _U(32)) + (w >> _U(32))


def _decimal(bits):
    """(f, e): |v| = f 10**e for the bits of each normal or subnormal v, f
    of 16 or 17 digits for a normal v; a zero's, infinity's or nan's f and e
    mean nothing, but every table index stays in range."""
    e_of, high_of, low_of, beta_of, delta_of, pow2_f, pow2_e = _core_tables()
    biased = ((bits >> _U(52)) & _U(0x7FF)).view(np.int64)
    fraction = bits & _FRACTION
    c = fraction | (np.minimum(biased, 1).view(np.uint64) << _U(52))
    e = np.take(e_of, biased)
    high, low, beta, delta = (np.take(t, biased) for t in (high_of, low_of, beta_of, delta_of))
    # z = floor(u phi / 2**128) at the interval's right end u = (2c + 1) 2**beta
    u = ((c << _U(1)) | _U(1)) << beta
    low_product = u * high
    middle = low_product + _mulhi(u, low)
    z = _mulhi(u, high) + (middle < low_product)
    s = z // _U(1000)
    r = z - s * _U(1000)
    # r < delta: 10 s is in the interval; r > delta: the nearest to y = z -
    # delta/2 at 10 times the scale, dist / 100 past 10 s
    dist = r + _U(50) - (delta >> _U(1))
    d = dist // _U(100)
    f = s * _U(10) + d * (r > delta)
    # settled apart: r == 0, r == delta, dist / 100 exact, powers of two
    rare = np.flatnonzero((dist == d * _U(100)) | (r == delta) | (r == 0) | (c == _U(1 << 52)))
    if rare.size:
        b, c, s, r, beta, delta, high, low = (x[rare] for x in (biased, c, s, r, beta, delta, high, low))
        odd = c & _U(1)
        # parity and integrality of floor(2f 2**beta phi / 2**128) at the left
        # end 2f = 2c - 1 (row 0) and at v, 2f = 2c (row 1)
        two_f = (c << _U(1)) - np.array([[1], [0]], np.uint64)
        top = two_f * high + _mulhi(two_f, low)
        parity = (top >> (_U(64) - beta)) & _U(1)
        integral = ((top << beta) | ((two_f * low) >> (_U(64) - beta))) == 0
        # an odd c's right end is out: z - 1000 goes to the small divisor
        excluded = (r == 0) & (middle[rare] == 0) & (odd == 1)
        s -= excluded
        r[excluded] = 1000
        # r == delta: 10 s is in unless the left end, out for an odd c, is past it
        small = (r > delta) | ((r == delta) & (parity[0] == 0) & ~(integral[0] & (odd == 0)))
        dist = r + _U(50) - (delta >> _U(1))
        d = dist // _U(100)
        f_rare = s * _U(10) + d * small
        # dist / 100 exact: floor(y) is z - delta/2, whose parity dist has, or
        # one less, as y's parity tells; a tie goes to the even digit
        f_rare -= small & (dist == d * _U(100)) & ((parity[1] ^ dist) | (integral[1] & f_rare)) & _U(1)
        f[rare] = f_rare
        pow2 = (c == _U(1 << 52)) & (b > 1)
        if pow2.any():
            f[rare[pow2]], e[rare[pow2]] = pow2_f[b[pow2]], pow2_e[b[pow2]]
    return f, e


def format_block(block: np.ndarray) -> bytes:
    """The rows of ``block``, ',' between fields and '\\n' after each row."""
    rows, cols = block.shape
    m, width = rows * cols, _WIDTH
    if not m:
        return b"\n" * rows
    bits = np.ascontiguousarray(block, np.float64).view(np.uint64).ravel()
    pow10, suffix, special = _text_tables()
    f, e = _decimal(bits)
    # a normal value's f is about c 2**q / 10**e, c in [2**52, 2**53) and
    # 2**q / 10**e in [1, 10) (4/3 to 40/3 for a power of two), so it has
    # 16 or 17 digits; f17 holds them as 17 digits, the first nonzero
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
