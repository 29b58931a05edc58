import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krein_string.floattext import _decimal, format_block


def repr_join(block):
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist()).encode()


def both_signs(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=96),
    st.integers(min_value=1, max_value=6),
)
def test_raw_bit_patterns_match_repr(patterns, cols):
    # any 64-bit pattern: normals, subnormals, zeros, infinities, every NaN
    bits = np.array(patterns * cols, dtype=np.uint64).reshape(-1, cols)
    block = bits.view(np.float64)
    assert format_block(block) == repr_join(block)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=1, max_value=2046),
            st.integers(min_value=0, max_value=2**52 - 1),
        ),
        min_size=1,
        max_size=64,
    )
)
def test_a_normal_value_has_16_or_17_digits(fields):
    # format_block's fast path counts no digits: it takes a normal value's f
    # to have 16 or 17 of them, whatever the sign, exponent and fraction
    bits = np.array([sign << 63 | biased << 52 | fraction for sign, biased, fraction in fields], np.uint64)
    f, _ = _decimal(bits)
    assert np.all((f >= 10**15) & (f < 10**17)), f


RNG = np.random.default_rng(53)
SWEEPS = {
    "powers of two": with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
    "powers of ten": with_neighbours([float(f"1e{k}") for k in range(-323, 309)]),
    "first subnormals": np.arange(1, 3001, dtype=np.uint64).view(np.float64),
    "integers": np.arange(3001, dtype=np.float64),
    # integers below 2**53 take Schubfach's digits like every other value
    "integers below 2**53": RNG.integers(0, 2**53, 20000).astype(np.float64),
    "integers times 2**k": np.ldexp(RNG.integers(1, 2**20, (200, 1)).astype(np.float64), np.arange(53)).ravel(),
    "notation edges": with_neighbours([1e16, 1e-4]),
    "limits": [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, np.inf, np.nan],
    # the fast path's normals with the side path's zeros, subnormals, inf and
    # nan (and two exact normals) spliced in every fifth field
    "side path among normals": np.insert(
        np.exp(RNG.uniform(np.log(1e-20), np.log(1e17), 6000)),
        np.arange(5, 6000, 5),
        np.resize(
            [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 1e-310, np.inf, -np.inf, np.nan, 2.0**-1022, 0.5], 1199
        ),
    ),
}


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_matches_repr_at_both_signs(name):
    values = both_signs(SWEEPS[name])
    for cols in (1, 7):
        block = values[: len(values) // cols * cols].reshape(-1, cols)
        assert format_block(block) == repr_join(block), (name, cols)


def test_shortest_closest_digits():
    # the one-digit shortening at s >= 10 and the subnormals Java pads
    block = np.array([[5e-324, 1e-323, 0.1, 0.3, 2.0**-1074 * 3, 9007199254740993.0, 1e23]])
    assert format_block(block) == b"5e-324,1e-323,0.1,0.3,1.5e-323,9007199254740992.0,1e+23\n"


def test_layout_of_each_notation():
    # lone exponent digits (no point) first, in the middle and last; the
    # longest fixed and exponent fields; nan and -inf ending a row
    block = np.array(
        [
            [-0.0, 100.0, -1e15, 1e16, 0.0001, -1.5e-05, 1e-310],
            [np.nan, -np.inf, np.inf, 0.5, -2.0, 7e22, 12.0],
            [5e-324, -0.00012345678901234567, 1e-05, -1.2345678901234567e-308, 3.0, 0.25, 1e16],
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, np.nan],
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -np.inf],
        ]
    )
    assert format_block(block) == (
        b"-0.0,100.0,-1000000000000000.0,1e+16,0.0001,-1.5e-05,1e-310\n"
        b"nan,-inf,inf,0.5,-2.0,7e+22,12.0\n"
        b"5e-324,-0.00012345678901234567,1e-05,-1.2345678901234567e-308,3.0,0.25,1e+16\n"
        b"1.0,2.0,3.0,4.0,5.0,6.0,nan\n"
        b"1.0,2.0,3.0,4.0,5.0,6.0,-inf\n"
    )


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_blocks(shape):
    block = np.empty(shape)
    assert format_block(block) == repr_join(block) == b"\n" * shape[0]


# one or more values for every repr length from 3 to 24 characters
CATALOGUE = [
    np.nan, np.inf, 0.0, 0.5,
    -np.inf, -0.0, 12.5,
    1e16, 1e-05,
    5e-324, 0.0001, -7e22,
    -5e-324, 3.14159,
    -1.5e-05, -271.828,
    -2.5e-100, 1.25e100,
    123456.789,
    299792458.0,
    -299792458.0,
    -12345.678901,
    6.02214076e23, 0.000123456789,
    1.602176634e-19,
    -1.602176634e-19,
    0.123456789012345,
    0.3333333333333333, 1e15,
    -0.6666666666666666, -1e15,
    0.012345678901234567,
    -0.012345678901234567,
    1.2345678901234567e20,
    2.2250738585072014e-308, 1.7976931348623157e308, -0.00012345678901234567,
    -1.2345678901234567e-308,
]  # fmt: skip


def test_packed_neighbours():
    # each field is packed right after the one before, over the unused tail
    # of that one's 25 places, so every length must sit next to every other,
    # within a row and across a row's end
    assert {len(repr(v)) for v in CATALOGUE} == set(range(3, 25))
    first, second = np.meshgrid(CATALOGUE, CATALOGUE)
    pairs = np.column_stack([first.ravel(), second.ravel()]).ravel()
    for cols in (1, 2, 7):
        block = np.resize(pairs, (-(-len(pairs) // cols), cols))
        assert format_block(block) == repr_join(block), cols
    # 3 and 4 characters: each field's slot reaches over the next five
    short = np.random.default_rng(36).choice([np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5, 1.0, -2.0, 12.5], (400, 7))
    assert format_block(short) == repr_join(short)
