"""Vectorized `%.9g` text for the CSV artifacts.

`write_rows(fh, values)` writes, for a 2-D float64 array, exactly the bytes
of `",".join("%.9g" % x for x in row) + "\\n"` for every row, which is also
what `np.savetxt(fh, values, fmt="%.9g", delimiter=",")` writes. It streams
the flat array in spans of values, cut by the array's size alone and blind
to its rows: `_threads.ordered` formats the spans on the ISACSIM_THREADS
workers and writes each as soon as it and every span before it are ready,
so one worker writes while another formats. A span puts the newline after
every value of the last column, wherever the span starts and ends.

Each value is laid out in a 24-byte field of three little-endian words:

    byte  0       sign: "-" or nothing
    byte  6       first significant digit d0
    byte  7       "." after d0
    bytes 8..15   the digits d1..d8
    bytes 16..23  the tail, from byte 16: "e+dd," or "e-ddd," in scientific
                  notation, "," alone in fixed notation; after the last
                  column its comma becomes "\\n"

Two fixed notations move digits. From 10 up (exponents 1..8) the dot follows
de, not d0: byte 7 holds d1 and bytes 8..15 hold d2..de, the dot and
d(e+1)..d8, shifted in place. Below 1 (exponents -1..-4) no dot follows
d0: d0 sits in byte 7, after "0." and the -e-1 zeros ahead of it, which
end at byte 6 (bytes 6+e..6). A mask row chosen by (decimal exponent,
significant digits) keeps the bytes of words 0 and 1 that `%g` prints and
zeroes the rest; the last word keeps all its bytes, since its table entry
is zero past the tail. The span's text is then its fields' nonzero bytes,
which one boolean-mask subscript (`raw[keep]`) copies out. That copy costs
a step per run of kept bytes. After its sign, a value is one run when its
mantissa has nine digits, "0." and its zeros included, else two, as a
shorter mantissa ends before byte 16; a nine-digit integer (exponent 8) is
two as well, as it leaves out the dot in byte 15. A span takes about fifty
numpy calls, each over the whole span and each releasing the interpreter
lock.

Memory: each worker formats in one `_Scratch` of 67 bytes a value (the
fields, five 8-byte planes of temporaries that later hold the keep mask,
and three flag rows), made by the calling thread before any worker starts
and reused for every span the worker formats, so no span allocates or
faults in per-value arrays of its own. A span allocates its text, a fresh
array of at most 17 bytes a value (12 to 19 bytes a value of the whole
span, index and temporaries included, on the maps of a run), which the
file takes as it is, without a copy to `bytes`; a span of values from 10
up in fixed notation alone allocates up to 48 bytes a value, for the
digit shifts of that subset. Every array goes out in spans of
CHUNK_VALUES (32 K) values, whatever its shape: a worker needs about 2.1
MB of scratch and at most 0.6 MB of text for a table1 map or a single row
of millions of values alike.

Digits come from scaling: with e = floor(log10|x|), m = |x| * 10**(8 - e)
lies in [1e8, 1e9) and rint(m) is the 9-digit mantissa. The power comes from
a correctly rounded table, so m carries at most two roundings, below
2.3e-7 at m < 1e9. Whenever m lies within 1e-6 of a rounding tie, the
rounding is not decided from m. Such a value, a mantissa that is not 9
digits, and any non-finite value or one outside [1e-280, 1e280] other than
zero are formatted by Python's own `"%.9g," % x`, right-aligned in their
fields, so that the comma is byte 23.
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
CHUNK_VALUES = 1 << 15       # values per span
_FIXED_EXPONENTS = range(-4, DIGITS)  # %g prints these exponents without "e"

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
    """The field's last word for each exponent of _TABLE_EXPONENTS: the
    value's tail from the word's first byte, "e", the exponent's sign, two or
    three digits and the comma, or for an exponent of fixed notation the comma
    alone. Its bytes past the tail are zero."""
    tails = ["," if e in _FIXED_EXPONENTS else f"e{e:+03d}," for e in _TABLE_EXPONENTS]
    return np.array([_word(t.encode()) for t in tails], dtype=np.uint64)


def _mask_class(e: int) -> int:
    """One class per fixed exponent, in order, so that the exponents 1..8,
    whose dot lies among the digits, come last. Scientific notation keeps the
    bytes that exponent 0 keeps, and shares its class."""
    return (e if e in _FIXED_EXPONENTS else 0) - _FIXED_EXPONENTS.start


_INNER_DOT_ROW = _mask_class(1) * DIGITS  # the first mask row of exponent 1


def _masks() -> np.ndarray:
    """(class, significant digits - 1) -> the field's three mask words: the
    bytes of words 0 and 1 that %g prints, and an all-ones last word."""
    table = np.zeros((len(_FIXED_EXPONENTS), DIGITS, _FIELD), dtype=np.uint8)
    # sign (a zero byte when positive), byte 6 (d0, or below 1 the lead's
    # last byte) and the tail
    table[..., [0, 6]] = table[..., 16:] = 0xFF
    for e in _FIXED_EXPONENTS:
        for nd in range(1, DIGITS + 1):
            keep = table[_mask_class(e), nd - 1]
            tail = nd - 1  # bytes kept from byte 8 on: d1..d(nd-1)
            if e < 0:  # "0." and -e-1 zeros, then d0 in byte 7
                keep[6 + e : 8] = 0xFF
            elif e == 0:  # d0, and a dot before any fraction
                keep[7] = 0xFF if nd > 1 else 0
            else:  # d0, d1 in byte 7, d2..de, then "." and any fraction
                keep[7] = 0xFF
                tail = e - 1 + (nd - e if nd > e + 1 else 0)
            keep[8 : 8 + tail] = 0xFF
    return table.view("<u8").reshape(-1, 3)


def _lead_words() -> tuple[np.ndarray, np.ndarray]:
    """Word 0 of the field at index c * 10 + d0, for lead class c and first
    digit d0, and for each exponent of _TABLE_EXPONENTS the first index of
    its class. Class 0 holds d0 and the dot in bytes 6 and 7; class c = 1..4,
    fixed notation of exponent -c, holds "0." and c - 1 zeros ending at byte
    6, then d0 in byte 7, so that its text up to d0 is one run of bytes."""
    words = []
    for c in range(1 - _FIXED_EXPONENTS.start):
        for d in range(10):
            if c == 0:
                words.append(_word([0] * 6 + [_ZERO + d, _DOT]))
            else:
                words.append(_word((b"0." + b"0" * (c - 1)).rjust(7, b"\0") + bytes([_ZERO + d])))
    base = [-10 * e if e in _FIXED_EXPONENTS and e < 0 else 0 for e in _TABLE_EXPONENTS]
    return np.array(words, dtype=np.uint64), np.array(base, dtype=np.intp)


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
# per lead class and first digit d0: word 0 of the field (see _lead_words),
# and per decimal exponent e the first index of e's lead class
_LEAD, _LEAD_BASE = _lead_words()
# per exponent e in 1..8, for the digits word d1..d8: the bytes that take
# d2..de after a shift by one byte, the dot in the byte after them, and the
# bytes of d(e+1)..d8, which stay in place
_INNER_LOW = np.array([0] + [(1 << 8 * (e - 1)) - 1 for e in range(1, 9)], dtype=np.uint64)
_INNER_DOT = np.array([0] + [_DOT << 8 * (e - 1) for e in range(1, 9)], dtype=np.uint64)
_INNER_HIGH = np.array(
    [0] + [~((1 << 8 * e) - 1) & (1 << 64) - 1 for e in range(1, 9)], dtype=np.uint64
)
_NOT_BYTE_7 = np.uint64((1 << 56) - 1)


class _Scratch:
    """The buffers one worker formats its spans of up to n values in, kept
    from span to span so that no span allocates (or faults in) a per-value
    array of its own.

    `fields` holds the (n, 3) fields. `planes` holds five rows of n float64:
    the temporaries of `_fields`, then the span's keep mask (one byte per
    field byte, 24 per value). `flags` holds three rows of n booleans.
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
    lead, at = mid.view(np.uint64), low  # low's digits are in `digits` now
    np.take(_LEAD_BASE, e, out=at, mode="wrap")
    at += d0
    np.take(_LEAD, at, out=lead, mode="clip")
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
        out[i] = np.frombuffer(("%.9g," % x[i]).encode().rjust(_FIELD, b"\0"), dtype="<u8")
    return out


def _text(x: np.ndarray, first_col: int, cols: int, s: _Scratch) -> np.ndarray:
    """The CSV text of a flat span of at most s's n values from an array of
    `cols` columns, whose first value lies in column `first_col`, as a new
    uint8 array: every value of the last column ends in a newline.

    One pass marks the fields' nonzero bytes in s.planes and one boolean-mask
    subscript copies them out, run by run of kept bytes: two calls for the
    whole span, and no index of the kept bytes.
    """
    fields = _fields(x, s)
    # the last column's last words, whose one comma is the separator
    last = fields[(cols - 1 - first_col) % cols :: cols, 2:].view(np.uint8)
    last[last == ord(",")] = ord("\n")
    raw = fields.reshape(-1).view(np.uint8)
    keep = s.planes.reshape(-1).view(bool)[: raw.size]
    np.not_equal(raw, 0, out=keep)
    return raw[keep]


def write_rows(fh, values):
    """Write the CSV text of the 2-D array `values` to the binary file `fh`:
    per row, "%.9g" of each value joined by commas, then a newline.

    The flat array goes out in spans of CHUNK_VALUES values, whatever its
    size or shape: every span costs about fifty numpy calls whatever its
    size, and allocates only its own text. The spans are formatted on the
    ISACSIM_THREADS workers and written in order, each as soon as it and
    every span before it are ready. Each worker formats in its own
    `_Scratch`, made on the calling thread.
    """
    x = np.asarray(values, dtype=np.float64)
    cols = x.shape[1]
    flat = x.reshape(-1)
    span = CHUNK_VALUES
    starts = range(0, flat.size, span)
    ordered(
        lambda k, s: _text(flat[starts[k] : starts[k] + span], starts[k] % cols, cols, s),
        fh.write,
        len(starts),
        scratch=lambda: _Scratch(min(span, flat.size)),
    )
