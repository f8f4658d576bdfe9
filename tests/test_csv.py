"""The columnar CSV codec against the row-at-a-time formatter it replaced."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pretense import core
from pretense.core import (
    PartialSumSeries,
    SEQUENTIAL,
    csv_chunks,
    read_series_csv,
    series_csv,
)
from pretense.errors import InvalidArgumentError

from conftest import table_csv
from oracles import reference_csv

TOP = 2.0**53
EDGES = [
    0.0, -0.0, math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    TOP, -TOP, TOP - 1, -(TOP - 1), math.nextafter(TOP, math.inf), TOP + 2,
    1e16, math.nextafter(1e16, 0), -1e16, 1e-4, math.nextafter(1e-4, 0), -1e-4,
    4096.0, -4096.0, 4097.0, -4097.0, 0.5, -0.5, 1.5e308, 1.7976931348623157e308,
]


def _from_bits(b: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", b))[0]


# quiet and signalling, positive and negative: every NaN is one distinct
# value to np.unique and one "nan" cell
NAN_PAYLOADS = [_from_bits(b) for b in (
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
    0x7FF0000000000001, 0xFFF4000000000000, 0xFFFFFFFFFFFFFFFF,
)]
EDGES += NAN_PAYLOADS

bit_patterns = st.integers(0, 2**64 - 1).map(_from_bits)
cells = st.one_of(
    bit_patterns,
    st.sampled_from(EDGES),
    st.integers(-2**13, 2**13).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _complex(re, im):
    v = np.empty(len(re), dtype=np.complex128)
    v.real, v.imag = re, im
    return v


def _write(xs, values):
    return "".join(csv_chunks(xs, values))


def _assert_same_text(xs, values):
    try:
        want = reference_csv(xs, values)
    except OverflowError:
        with pytest.raises(OverflowError):
            _write(xs, values)
        return
    assert _write(xs, values) == want


@given(st.sampled_from((1, 3, 64)), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_writer_matches_reference_on_any_bits(block, repeated, data):
    n = data.draw(st.sampled_from((0, 1, block - 1, block, block + 1, 2 * block + 1)))
    # repeated: every cell from a pool of a few values, so chunks hold
    # repeated non-integers, infinities and NaN payloads
    pool = cells
    if repeated:
        pool = st.sampled_from(data.draw(st.lists(
            st.one_of(cells, st.sampled_from(NAN_PAYLOADS + [math.inf, -math.inf])),
            min_size=1, max_size=4)))
    rows = data.draw(st.lists(st.tuples(pool, pool, pool), min_size=n, max_size=n))
    xs = np.array([r[0] for r in rows], dtype=np.float64)
    values = _complex([r[1] for r in rows], [r[2] for r in rows])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "BLOCK", block)
        _assert_same_text(xs, values)


@pytest.mark.parametrize("n", [0, 1, core.BLOCK - 1, core.BLOCK, core.BLOCK + 1])
def test_writer_matches_reference_at_default_block(n):
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2**64, size=(3, n), dtype=np.uint64).view(np.float64)
    values = _complex(bits[1], bits[2])
    finite = np.isfinite(np.abs(values)) | ~np.isfinite(bits[1]) | ~np.isfinite(bits[2])
    xs, values = bits[0][finite], values[finite]
    _assert_same_text(xs, values)
    ints = rng.integers(-6000, 6000, size=(3, n)).astype(np.float64)
    _assert_same_text(ints[0], _complex(ints[1], ints[2]))


def test_table_csv_matches_reference_on_value_tables(sieve_1e4):
    from pretense.constructions import dirichlet_character, standard_spec

    for spec in (standard_spec("liouville"), dirichlet_character(7, 1)):
        t = core.evaluate(spec, sieve_1e4)
        assert table_csv(t) == reference_csv(range(1, t.limit + 1), t.values[1:])


@given(cells, cells)
@example(math.inf, NAN_PAYLOADS[3])  # np.hypot gives NaN beside a signalling NaN
@example(NAN_PAYLOADS[4], -math.inf)
@settings(max_examples=500, deadline=None)
def test_abs_column_is_abs_complex(re, im):
    """|v| has the bits of Python's abs(complex), and overflows where it does."""
    v = complex(re, im)
    try:
        want = abs(v)
    except OverflowError:
        with pytest.raises(OverflowError):
            _write([1.0], [v])
        return
    text = _write([1.0], [v])
    got = float(text.splitlines()[1].split(",")[3])
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_overflowing_modulus_raises():
    with pytest.raises(OverflowError, match="absolute value too large"):
        series_csv(PartialSumSeries(np.array([1.0, 2.0]),
                                    _complex([1.0, 1.5e308], [0.0, 1.5e308]), SEQUENTIAL))
    # an infinite part is not an overflow: abs gives inf
    assert _write([1.0], _complex([math.inf], [1.0])).endswith("1,inf,1,inf\n")


def _canonical(a):
    """What the text keeps of a float64 array: -0.0 is written "0"."""
    return np.where(a == 0, 0.0, a)


def _same_bits(a, b):
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@given(st.lists(st.tuples(cells, cells, cells), max_size=40), st.sampled_from((1, 3, 64)))
@settings(max_examples=100, deadline=None)
def test_read_inverts_write(rows, block):
    xs = np.array([r[0] for r in rows], dtype=np.float64)
    re = np.array([r[1] for r in rows], dtype=np.float64)
    im = np.array([r[2] for r in rows], dtype=np.float64)
    series = PartialSumSeries(xs, _complex(re, im), SEQUENTIAL)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "BLOCK", block)
        try:
            text = series_csv(series)
        except OverflowError:
            return
    back = read_series_csv(text)
    assert back.sums.dtype == np.complex128 and back.sums.size == len(rows)
    assert _same_bits(back.checkpoints, _canonical(xs))
    assert _same_bits(back.sums.real, _canonical(re))
    assert _same_bits(back.sums.imag, _canonical(im))


def test_read_keeps_signed_zeros_and_infinities():
    """Parts are set one by one: re + 1j*im would turn -0.0 into 0.0 and
    (x, inf) into (nan, inf)."""
    text = ("n_or_x,re,im,abs\n"
            "1,-0.0,-0.0,0\n"
            "2,0.5,inf,inf\n"
            "3,-inf,-0.0,inf\n"
            "4,-0.0,-inf,inf\n")
    back = read_series_csv(text)
    want = np.array([[-0.0, -0.0], [0.5, math.inf], [-math.inf, -0.0], [-0.0, -math.inf]])
    assert back.sums.real.tobytes() == want[:, 0].tobytes()
    assert back.sums.imag.tobytes() == want[:, 1].tobytes()
    assert back.checkpoints.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_read_skips_blank_lines_and_accepts_crlf():
    text = "\n  \nn_or_x,re,im,abs\r\n\r\n1,2,3,4\r\n \t \r\n5,6,7,8\r\n\n"
    back = read_series_csv(text)
    assert back.checkpoints.tolist() == [1.0, 5.0]
    assert back.sums.tolist() == [2 + 3j, 6 + 7j]
    empty = read_series_csv("n_or_x,re,im,abs\n")
    assert empty.checkpoints.size == 0 and empty.sums.dtype == np.complex128


@pytest.mark.parametrize("text", [
    "",
    "1,2,3,4\n",
    "x,re,im,abs\n1,2,3,4\n",
    "n_or_x,re,im,abs\n1,abc,3,4\n",
    "n_or_x,re,im,abs\n1,2,3\n",
    "n_or_x,re,im,abs\n1,2,3,4\n1,2,3\n",
    "n_or_x,re,im,abs\n1,2,3,4,5\n",
    "n_or_x,re,im,abs\n1,2,3,4,\n",
    "n_or_x,re,im,abs\n1,,3,4\n",
    "n_or_x,re,im,abs\n1,2,3,4\r5,6,7\n",
])
def test_read_rejects_malformed_text(text):
    with pytest.raises(InvalidArgumentError):
        read_series_csv(text)


number_text = st.one_of(
    cells.map(repr), st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["", " ", "abc", "nan", "-inf", "1e999", "0x1p3", "1_0", "--1", "\x00"]),
)
row_text = st.lists(number_text, min_size=0, max_size=6).map(",".join)
csv_like = st.tuples(
    st.sampled_from(["n_or_x,re,im,abs", "n_or_x,re", "", "n_or_x"]),
    st.lists(row_text, max_size=8),
    st.sampled_from(["\n", "\r\n", "\r"]),
).map(lambda t: t[2].join([t[0], *t[1]]))


@given(st.one_of(st.text(), csv_like))
@settings(max_examples=300, deadline=None)
def test_read_returns_or_raises_invalid_argument(text):
    try:
        back = read_series_csv(text)
    except InvalidArgumentError:
        return
    assert back.checkpoints.shape == back.sums.shape
    assert back.sums.dtype == np.complex128
