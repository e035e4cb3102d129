"""Vectorized `%.9g` text for the CSV artifacts.

`format_rows(values)` returns, for a 2-D float64 array, exactly the bytes of
`",".join("%.9g" % x for x in row) + "\\n"` for every row, which is also what
`np.savetxt(fh, values, fmt="%.9g", delimiter=",")` writes. `write_rows`
streams a large array to a file in chunks of rows: `_threads.ordered` formats
the chunks on the ISACSIM_THREADS workers and writes each as soon as it and
every chunk before it are ready, so one worker writes while another formats.

Each value is laid out in a 32-byte field of four little-endian words:

    byte  0       sign: "-" or nothing
    bytes 1..5    "0.000": the "0." and leading zeros of 1e-4 <= |x| < 1e-1
    byte  6       first significant digit d0
    bytes 8..23   ".d1.d2.d3.d4" and ".d5.d6.d7.d8"
    bytes 24..28  "e+dd" / "e-ddd": the exponent of scientific notation
    byte  29      separator: "," or, after the last column, "\\n"

A mask row chosen by (notation, decimal exponent, significant digits) keeps
the bytes `%g` prints and zeroes the rest; `np.compress` then deletes the
zero bytes from the fields' uint8 view. The numpy calls that do a chunk's
work release the interpreter lock, so chunks format in parallel, and the file
takes the resulting uint8 array as it is, without a copy to `bytes`.

Digits come from scaling: with e = floor(log10|x|), m = |x| * 10**(8 - e)
lies in [1e8, 1e9) and rint(m) is the 9-digit mantissa. The power comes from
a correctly rounded table, so m carries at most two roundings, below
2.3e-7 at m < 1e9. Whenever m lies within 1e-6 of a rounding tie, the
rounding is not decided from m. Such a value, a mantissa that is not 9
digits, and any non-finite value or one outside [1e-280, 1e280] other than
zero are formatted by Python's own `"%.9g" % x` and copied into their fields.
"""

from __future__ import annotations

import numpy as np

from ._threads import ordered

DIGITS = 9
_LOW, _HIGH = 1e-280, 1e280  # |x| whose scaling power 10**(8 - e) is a normal float
_E_MIN, _E_MAX = -290, 290   # decimal exponents the tables cover
_TIE_WINDOW = 1e-6           # > the 2.3e-7 scaling error at m < 1e9
_FIELD = 32                  # bytes per value, four uint64 words
CHUNK_VALUES = 1 << 15       # values formatted per block by write_rows
_SPAN = _FIELD << 11         # bytes whose zeros one compress call deletes

_DOT, _ZERO, _MINUS = ord("."), ord("0"), ord("-")


def _word(byte_values) -> int:
    return int.from_bytes(bytes(byte_values), "little")


def _digit_pairs() -> tuple[np.ndarray, np.ndarray]:
    """For n in [0, 10**4): the word ".a.b.c.d" of n's four digits, and
    the number of trailing zeros of those digits (4 for n = 0)."""
    n = np.arange(10_000, dtype=np.uint64)
    words = np.zeros(10_000, dtype=np.uint64)
    trailing = np.zeros(10_000, dtype=np.intp)
    for i, place in enumerate((1000, 100, 10, 1)):
        digit = (n // np.uint64(place)) % np.uint64(10)
        words |= np.uint64(_DOT) << np.uint64(16 * i)
        words |= (digit + np.uint64(_ZERO)) << np.uint64(16 * i + 8)
        trailing += n % np.uint64(10 * place) == 0
    return words, trailing


def _exponent_words() -> np.ndarray:
    """Word 3 of the field for each exponent: "e", its sign, and two or
    three digits (a missing hundreds digit is a zero byte)."""
    words = []
    for e in range(_E_MIN, _E_MAX + 1):
        hundreds, rest = divmod(abs(e), 100)
        words.append(
            _word(
                [
                    ord("e"),
                    ord("-" if e < 0 else "+"),
                    _ZERO + hundreds if hundreds else 0,
                    _ZERO + rest // 10,
                    _ZERO + rest % 10,
                ]
            )
        )
    return np.array(words, dtype=np.uint64)


_FIXED_EXPONENTS = range(-4, DIGITS)  # %g prints these exponents without "e"
_SCIENTIFIC = len(_FIXED_EXPONENTS)   # mask class of scientific notation


def _masks() -> np.ndarray:
    """(class, significant digits - 1) -> the field's four mask words."""
    table = np.zeros((_SCIENTIFIC + 1, DIGITS, 4), dtype=np.uint64)
    for cls in range(_SCIENTIFIC + 1):
        for nd in range(1, DIGITS + 1):
            keep = bytearray(_FIELD)
            keep[0] = keep[6] = 0xFF  # sign (a zero byte when positive), d0
            if cls == _SCIENTIFIC:
                kept_digits = nd
                dot_before = 1 if nd > 1 else None
                keep[24:29] = b"\xff" * 5
            else:
                e = _FIXED_EXPONENTS[cls]
                if e < 0:  # "0." and -e-1 zeros ahead of d0
                    keep[1 : 2 - e] = b"\xff" * (1 - e)
                    kept_digits, dot_before = nd, None
                else:  # integer part d0..de, then any fraction
                    kept_digits = max(e + 1, nd)
                    dot_before = e + 1 if nd > e + 1 else None
            for k in range(1, kept_digits):
                keep[7 + 2 * k] = 0xFF
            if dot_before is not None:
                keep[6 + 2 * dot_before] = 0xFF
            table[cls, nd - 1] = np.frombuffer(bytes(keep), dtype="<u8")
    return table.reshape(-1, 4)


_PAIRS, _TRAILING = _digit_pairs()
_EXPONENTS = _exponent_words()
_MASKS = _masks()
# per decimal exponent e, at index e - _E_MIN: the scaling power 10**(8 - e),
# correctly rounded (decimal literals are), and the mask row of a 9-digit
# value, from which each trailing zero digit steps back one row
_SCALE = np.array([float(f"1e{8 - e}") for e in range(_E_MIN, _E_MAX + 1)])
_ROWS = np.array(
    [
        (e - _FIXED_EXPONENTS.start if e in _FIXED_EXPONENTS else _SCIENTIFIC) * DIGITS
        + DIGITS - 1
        for e in range(_E_MIN, _E_MAX + 1)
    ],
    dtype=np.intp,
)
_PREFIX = _word(b"\x000.000")
_COMMA, _NEWLINE = np.uint64(ord(",") << 40), np.uint64(ord("\n") << 40)


def _fields(x: np.ndarray) -> np.ndarray:
    """(n,) float64 -> (n, 4) uint64 fields without separators.

    Several chunks are formatted at a time, so each per-value temporary is
    deleted, or reused in place, once it has been read.
    """
    mag = np.abs(x)
    zero = mag == 0.0
    slow = mag >= _LOW
    slow &= mag <= _HIGH
    np.logical_not(slow, out=slow)  # outside the range, NaN or zero
    np.copyto(mag, 1.0, where=slow)  # so e = 0 for these
    slow ^= zero  # a zero goes the fast way
    e = np.log10(mag)
    np.floor(e, out=e)
    e = e.astype(np.intp)
    e -= _E_MIN  # the index into the per-exponent tables
    m = np.take(_SCALE, e)
    m *= mag
    del mag
    mant = np.rint(m)
    m -= mant
    np.abs(m, out=m)
    slow |= m > 0.5 - _TIE_WINDOW
    del m
    # 9.999999995 and up rounds to 10 digits; log10 may also misjudge a
    # power of ten by one
    slow |= mant < 1e8
    slow |= mant >= 1e9
    mant[zero] = 0.0  # printed as "0" (its exponent is already 0)
    del zero
    low = mant.astype(np.intp)
    del mant

    mid = low // 10_000
    low -= mid * 10_000
    d0 = mid // 10_000
    mid -= d0 * 10_000
    row = np.take(_ROWS, e)
    row -= np.take(_TRAILING, low)
    short = np.flatnonzero(low == 0)  # the last four digits are all zeros
    row[short] -= _TRAILING[mid[short]]
    out = np.take(_MASKS, row, axis=0)
    del row, short

    word = d0.astype(np.uint64)
    del d0
    word += np.uint64(_ZERO)
    word <<= np.uint64(48)
    word |= np.uint64(_PREFIX)
    np.bitwise_or(word, np.uint64(_MINUS), out=word, where=np.signbit(x))
    out[:, 0] &= word
    np.take(_PAIRS, mid, out=word)
    out[:, 1] &= word
    np.take(_PAIRS, low, out=word)
    out[:, 2] &= word
    np.take(_EXPONENTS, e, out=word)
    out[:, 3] &= word

    for i in np.flatnonzero(slow):
        out[i] = np.frombuffer(("%.9g" % x[i]).encode().ljust(_FIELD, b"\0"), dtype="<u8")
    return out


def _text(x: np.ndarray) -> np.ndarray:
    """The CSV text of a 2-D float64 array, as a uint8 array."""
    rows, cols = x.shape
    fields = _fields(x.reshape(-1)).reshape(rows, cols, 4)
    fields[:, :-1, 3] |= _COMMA
    fields[:, -1, 3] |= _NEWLINE
    raw = fields.astype("<u8", copy=False).reshape(-1).view(np.uint8)
    # a span at a time, so compress's int64 indices stay small
    spans = np.split(raw, range(_SPAN, raw.size, _SPAN))
    return np.concatenate([np.compress(span != 0, span) for span in spans])


def format_rows(values) -> bytes:
    """CSV text of a 2-D array: per row, "%.9g" of each value joined by
    commas, then a newline."""
    return _text(np.asarray(values, dtype=np.float64)).tobytes()


def write_rows(fh, values):
    """Write `format_rows(values)` to the binary file `fh`, a block of
    about CHUNK_VALUES values (whole rows) at a time.

    The blocks are formatted on the ISACSIM_THREADS workers and written in
    row order, each as soon as it and every block before it are ready.
    """
    x = np.asarray(values, dtype=np.float64)
    step = max(1, CHUNK_VALUES // x.shape[1])
    starts = range(0, x.shape[0], step)
    ordered(lambda k: _text(x[starts[k] : starts[k] + step]), fh.write, len(starts))
