"""Vectorized `%.9g` text for the CSV artifacts.

`format_rows(values)` returns, for a 2-D float64 array, exactly the bytes of
`",".join("%.9g" % x for x in row) + "\\n"` for every row, which is also what
`np.savetxt(fh, values, fmt="%.9g", delimiter=",")` writes. `write_rows`
streams a large array to a file in chunks of rows: `_threads.ordered` formats
the chunks on the ISACSIM_THREADS workers and writes each as soon as it and
every chunk before it are ready, so one worker writes while another formats.

Each value is laid out in a 24-byte field of three little-endian words:

    byte  0       sign: "-" or nothing
    bytes 1..5    "0.000": the "0." and leading zeros of 1e-4 <= |x| < 1e-1
    byte  6       first significant digit d0
    byte  7       "." after d0
    bytes 8..15   the digits d1..d8
    bytes 16..20  "e+dd" / "e-ddd": the exponent of scientific notation
    byte  21      separator: "," or, after the last column, "\\n"

Fixed notation from 10 up (exponents 1..8) prints the dot after de, not
after d0: for those values byte 7 holds d1 and bytes 8..15 hold d2..de, the
dot and d(e+1)..d8, shifted in place. A mask row chosen by (notation,
decimal exponent, significant digits) keeps the bytes `%g` prints and the
separator, and zeroes the rest; the chunk's text is then its fields'
nonzero bytes, which one `nonzero` and one `take` over the whole chunk's
uint8 view gather. A chunk takes about fifty numpy calls, each over the
whole chunk and each releasing the interpreter lock.

Memory: each worker formats in one `_Scratch` of 67 bytes a value (the
fields, five 8-byte planes of temporaries that later hold the keep mask and
the text, and three flag rows), made by the calling thread before any
worker starts and reused for every chunk the worker formats, so no chunk
allocates or faults in per-value arrays of its own. The only per-chunk
allocation is `nonzero`'s int64 index, 8 bytes per text byte (at most 17
text bytes a value). A table1 map's chunks of about 32 K values give a
worker about 2.1 MB of scratch and at most 4.5 MB of index, a CI map's
chunks of about 16 K values half that (`chunk_rows`). The file takes each
chunk's text as the uint8 view it is, without a copy to `bytes`.

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
# The per-exponent tables hold e = 0 .. _E_MAX, then _E_MIN .. -1, so that e
# itself indexes them: take's "wrap" mode reads a negative e from the end.
_TABLE_EXPONENTS = [*range(_E_MAX + 1), *range(_E_MIN, 0)]
_TIE_WINDOW = 1e-6           # > the 2.3e-7 scaling error at m < 1e9
_FIELD = 24                  # bytes per value, three uint64 words
CHUNK_VALUES = 1 << 15       # values per chunk of an array of LARGE_ARRAY values or more
LARGE_ARRAY = 1 << 20        # smaller arrays take chunks of CHUNK_VALUES // 2
_SEPARATOR = 21              # the separator's byte in the field

_DOT, _ZERO, _MINUS = ord("."), ord("0"), ord("-")


def _word(byte_values) -> int:
    return int.from_bytes(bytes(byte_values), "little")


def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """For n in [0, 10**4): n's four digits as ASCII in bytes 0..3 of a
    word, most significant first, and the number of trailing zeros of those
    digits (4 for n = 0)."""
    n = np.arange(10_000, dtype=np.uint64)
    words = np.zeros(10_000, dtype=np.uint64)
    trailing = np.zeros(10_000, dtype=np.intp)
    for i, place in enumerate((1000, 100, 10, 1)):
        digit = (n // np.uint64(place)) % np.uint64(10)
        words |= (digit + np.uint64(_ZERO)) << np.uint64(8 * i)
        trailing += n % np.uint64(10 * place) == 0
    return words, trailing


def _exponent_words() -> np.ndarray:
    """Word 3 of the field for each exponent of _TABLE_EXPONENTS: "e", its
    sign, two or three digits (a missing hundreds digit is a zero byte) and
    the comma."""
    words = []
    for e in _TABLE_EXPONENTS:
        hundreds, rest = divmod(abs(e), 100)
        words.append(
            _word(
                [
                    ord("e"),
                    ord("-" if e < 0 else "+"),
                    _ZERO + hundreds if hundreds else 0,
                    _ZERO + rest // 10,
                    _ZERO + rest % 10,
                    ord(","),
                ]
            )
        )
    return np.array(words, dtype=np.uint64)


_FIXED_EXPONENTS = range(-4, DIGITS)  # %g prints these exponents without "e"


def _mask_class(e: int) -> int:
    """0 for scientific notation, then one class per fixed exponent; the
    exponents 1..8, whose dot lies among the digits, come last."""
    return 1 + e - _FIXED_EXPONENTS.start if e in _FIXED_EXPONENTS else 0


_INNER_DOT_ROW = _mask_class(1) * DIGITS  # the first mask row of exponent 1


def _masks() -> np.ndarray:
    """(class, significant digits - 1) -> the field's three mask words."""
    table = np.zeros((len(_FIXED_EXPONENTS) + 1, DIGITS, 3), dtype=np.uint64)
    for e in [None, *_FIXED_EXPONENTS]:
        for nd in range(1, DIGITS + 1):
            keep = bytearray(_FIELD)
            # sign (a zero byte when positive), d0 and the separator
            keep[0] = keep[6] = keep[_SEPARATOR] = 0xFF
            tail = nd - 1  # bytes kept from byte 8 on: d1..d(nd-1)
            if e is None:  # scientific: d0, any fraction, the exponent
                keep[7] = 0xFF if nd > 1 else 0
                keep[16:21] = b"\xff" * 5
            elif e < 0:  # "0." and -e-1 zeros ahead of d0
                keep[1 : 2 - e] = b"\xff" * (1 - e)
            elif e == 0:
                keep[7] = 0xFF if nd > 1 else 0
            else:  # d0, d1 in byte 7, d2..de, then "." and any fraction
                keep[7] = 0xFF
                tail = e - 1 + (nd - e if nd > e + 1 else 0)
            keep[8 : 8 + tail] = b"\xff" * tail
            table[0 if e is None else _mask_class(e), nd - 1] = np.frombuffer(
                bytes(keep), dtype="<u8"
            )
    return table.reshape(-1, 3)


_DIGIT_WORDS, _TRAILING = _digit_words()
_EXPONENTS = _exponent_words()
_MASKS = _masks()
# per decimal exponent e: the scaling power 10**(8 - e), correctly rounded
# (decimal literals are), and the mask row of a 9-digit value, from which
# each trailing zero digit steps back one row
_SCALE = np.array([float(f"1e{8 - e}") for e in _TABLE_EXPONENTS])
_ROWS = np.array(
    [_mask_class(e) * DIGITS + DIGITS - 1 for e in _TABLE_EXPONENTS], dtype=np.intp
)
# per first digit d0: word 0 of the field, "0.000", d0 and the dot
_LEAD = np.array(
    [_word(b"\x000.000" + bytes([_ZERO + d, _DOT])) for d in range(10)], dtype=np.uint64
)
# per exponent e in 1..8, for the digits word d1..d8: the bytes that take
# d2..de after a shift by one byte, the dot in the byte after them, and the
# bytes of d(e+1)..d8, which stay in place
_INNER_LOW = np.array([0] + [(1 << 8 * (e - 1)) - 1 for e in range(1, 9)], dtype=np.uint64)
_INNER_DOT = np.array([0] + [_DOT << 8 * (e - 1) for e in range(1, 9)], dtype=np.uint64)
_INNER_HIGH = np.array(
    [0] + [~((1 << 8 * e) - 1) & (1 << 64) - 1 for e in range(1, 9)], dtype=np.uint64
)
_NOT_BYTE_7 = np.uint64((1 << 56) - 1)
_COMMA, _NEWLINE = np.uint64(ord(",") << 40), np.uint64(ord("\n") << 40)  # in word 2


class _Scratch:
    """The buffers one worker formats its chunks of up to n values in, kept
    from chunk to chunk so that no chunk allocates (or faults in) a
    per-value array of its own.

    `fields` holds the (n, 3) fields. `planes` holds five rows of n float64:
    the temporaries of `_fields`, then the chunk's keep mask (one byte per
    field byte, 24 per value) and, over the part of the mask already read,
    the chunk's text (at most 17 bytes a value). `flags` holds three rows
    of n booleans.
    """

    def __init__(self, n: int):
        self.fields = np.empty((n, 3), dtype=np.uint64)
        self.planes = np.empty((5, n))
        self.flags = np.empty((3, n), dtype=bool)


def _fields(x: np.ndarray, s: _Scratch) -> np.ndarray:
    """(n,) float64 -> (n, 3) uint64 fields, a view of s.fields, each ending
    in a comma. Every temporary is a row of s.planes or s.flags."""
    n = x.size
    out = s.fields[:n]
    mag, m, e, low, mid = s.planes[:, :n]
    e, low, mid = e.view(np.intp), low.view(np.intp), mid.view(np.intp)
    zero, slow, t = s.flags[:, :n]
    np.abs(x, out=mag)
    np.equal(mag, 0.0, out=zero)
    np.clip(mag, _LOW, _HIGH, out=m)  # NaN stays NaN
    np.not_equal(m, mag, out=slow)  # outside the range, NaN or zero
    np.copyto(mag, 1.0, where=slow)  # so e = 0 for these
    slow ^= zero  # a zero goes the fast way
    np.log10(mag, out=m)
    np.floor(m, out=m)
    np.copyto(e, m, casting="unsafe")
    # every e lies in [_E_MIN, _E_MAX] and every other index in its table,
    # so "wrap" and "clip" never move one; they only spare numpy a checked
    # copy of `out`
    np.take(_SCALE, e, out=m, mode="wrap")
    m *= mag
    mant = mag
    np.rint(m, out=mant)
    m -= mant
    np.abs(m, out=m)
    np.greater(m, 0.5 - _TIE_WINDOW, out=t)
    slow |= t
    # 9.999999995 and up rounds to 10 digits; log10 may also misjudge a
    # power of ten by one
    np.less(mant, 1e8, out=t)
    slow |= t
    np.greater_equal(mant, 1e9, out=t)
    slow |= t
    np.copyto(mant, 0.0, where=zero)  # printed as "0" (its exponent is already 0)
    np.copyto(low, mant, casting="unsafe")

    # planes 0 and 1 are free: mid takes d0 and the next four digits first
    tmp, row = s.planes[0, :n].view(np.intp), s.planes[1, :n].view(np.intp)
    np.floor_divide(low, 10_000, out=mid)
    np.multiply(mid, 10_000, out=tmp)
    low -= tmp
    np.take(_ROWS, e, out=row, mode="wrap")
    np.take(_TRAILING, low, out=tmp, mode="clip")
    row -= tmp
    np.equal(low, 0, out=t)
    short = np.flatnonzero(t)  # the last four digits are all zeros
    if short.size:
        row[short] -= _TRAILING[mid[short] % 10_000]
    np.greater_equal(row, _INNER_DOT_ROW, out=t)
    inner = np.flatnonzero(t)  # fixed notation from 10 up: the dot follows de
    np.take(_MASKS, row, axis=0, out=out, mode="clip")
    d0 = tmp
    np.floor_divide(mid, 10_000, out=d0)
    np.multiply(d0, 10_000, out=row)
    mid -= row
    digits, word = row.view(np.uint64), low.view(np.uint64)
    np.take(_DIGIT_WORDS, low, out=digits, mode="clip")  # d5..d8
    digits <<= np.uint64(32)
    np.take(_DIGIT_WORDS, mid, out=word, mode="clip")  # d1..d4
    digits |= word
    lead = mid.view(np.uint64)
    np.take(_LEAD, d0, out=lead, mode="clip")
    sign = d0.view(np.uint64)
    np.right_shift(x.view(np.uint64), np.uint64(63), out=sign)
    sign *= np.uint64(_MINUS)
    lead |= sign
    if inner.size:  # byte 7 takes d1; d2..de move down a byte, before the dot
        d, k = digits[inner], e[inner]
        lead[inner] = (lead[inner] & _NOT_BYTE_7) | ((d & np.uint64(0xFF)) << np.uint64(56))
        shifted = (d >> np.uint64(8)) & _INNER_LOW[k]
        digits[inner] = shifted | _INNER_DOT[k] | (d & _INNER_HIGH[k])
    out[:, 0] &= lead
    out[:, 1] &= digits
    np.take(_EXPONENTS, e, out=word, mode="wrap")
    out[:, 2] &= word

    for i in np.flatnonzero(slow):
        text = ("%.9g" % x[i]).encode().ljust(_SEPARATOR, b"\0") + b",\0\0"
        out[i] = np.frombuffer(text, dtype="<u8")
    return out


def _text(x: np.ndarray, s: _Scratch) -> np.ndarray:
    """The CSV text of a 2-D float64 array of at most s's n values, as a
    uint8 view of s.planes.

    One pass marks the fields' nonzero bytes, `nonzero` lists them and
    `take` copies them into the mask's own memory, which `nonzero` has read
    by then: three calls for the whole chunk.
    """
    rows, cols = x.shape
    fields = _fields(np.ravel(x), s)
    fields.reshape(rows, cols, 3)[:, -1, 2] ^= _COMMA ^ _NEWLINE
    raw = fields.reshape(-1).view(np.uint8)
    keep = s.planes.reshape(-1).view(bool)[: raw.size]
    np.not_equal(raw, 0, out=keep)
    kept = keep.nonzero()[0]
    return np.take(raw, kept, out=keep.view(np.uint8)[: kept.size], mode="clip")


def format_rows(values) -> bytes:
    """CSV text of a 2-D array: per row, "%.9g" of each value joined by
    commas, then a newline."""
    x = np.asarray(values, dtype=np.float64)
    return _text(x, _Scratch(x.size)).tobytes()


def chunk_rows(rows: int, cols: int) -> int:
    """Rows per chunk of a rows x cols array in write_rows: about
    CHUNK_VALUES values when the array holds LARGE_ARRAY values or more,
    half that otherwise, and at least one row.

    Every chunk costs about fifty numpy calls whatever its size, so a large
    map (table1's 7 M values) takes the larger chunks. After the call, a
    worker thread's malloc arena keeps the largest `nonzero` index it
    allocated resident, 8 bytes per text byte of a chunk, so a small map (a
    CI run's) takes the smaller ones.
    """
    per_chunk = CHUNK_VALUES if rows * cols >= LARGE_ARRAY else CHUNK_VALUES // 2
    return max(1, per_chunk // cols)


def write_rows(fh, values):
    """Write `format_rows(values)` to the binary file `fh`, `chunk_rows`
    rows at a time.

    The chunks are formatted on the ISACSIM_THREADS workers and written in
    row order, each as soon as it and every chunk before it are ready. Each
    worker formats in its own `_Scratch`, made on the calling thread.
    """
    x = np.asarray(values, dtype=np.float64)
    rows, cols = x.shape
    step = chunk_rows(rows, cols)
    starts = range(0, rows, step)
    ordered(
        lambda k, s: _text(x[starts[k] : starts[k] + step], s),
        fh.write,
        len(starts),
        scratch=lambda: _Scratch(min(step, rows) * cols),
    )
