"""Vectorized `%.9g` text for the CSV artifacts.

`format_rows(values)` returns, for a 2-D float64 array, exactly the bytes of
`",".join("%.9g" % x for x in row) + "\\n"` for every row, which is also what
`np.savetxt(fh, values, fmt="%.9g", delimiter=",")` writes. `write_rows`
streams a large array through it in chunks of rows.

Each value is laid out in a 32-byte field of four little-endian words:

    byte  0       sign: "-" or nothing
    bytes 1..5    "0.000": the "0." and leading zeros of 1e-4 <= |x| < 1e-1
    byte  6       first significant digit d0
    bytes 8..23   ".d1.d2.d3.d4" and ".d5.d6.d7.d8"
    bytes 24..28  "e+dd" / "e-ddd": the exponent of scientific notation
    byte  29      separator: "," or, after the last column, "\\n"

A mask row chosen by (notation, decimal exponent, significant digits) keeps
the bytes `%g` prints and zeroes the rest; the zero bytes are then deleted.

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

DIGITS = 9
_LOW, _HIGH = 1e-280, 1e280  # |x| whose scaling power 10**(8 - e) is a normal float
_E_MIN, _E_MAX = -290, 290   # decimal exponents the tables cover
_TIE_WINDOW = 1e-6           # > the 2.3e-7 scaling error at m < 1e9
_FIELD = 32                  # bytes per value, four uint64 words
CHUNK_VALUES = 1 << 15       # values formatted per block by write_rows

_DOT, _ZERO, _MINUS = ord("."), ord("0"), ord("-")


def _word(byte_values) -> int:
    return int.from_bytes(bytes(byte_values), "little")


def _digit_pairs() -> tuple[np.ndarray, np.ndarray]:
    """For n in [0, 10**4): the word ".a.b.c.d" of n's four digits, and
    the number of trailing zeros of those digits (4 for n = 0)."""
    n = np.arange(10_000, dtype=np.uint64)
    words = np.zeros(10_000, dtype=np.uint64)
    trailing = np.zeros(10_000, dtype=np.int64)
    for i, place in enumerate((1000, 100, 10, 1)):
        digit = (n // np.uint64(place)) % np.uint64(10)
        words |= np.uint64(_DOT) << np.uint64(16 * i)
        words |= (digit + np.uint64(_ZERO)) << np.uint64(16 * i + 8)
        trailing += (n % np.uint64(10 * place) == 0).astype(np.int64)
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
# 10**k for the scaling, each correctly rounded (decimal literals are)
_POW10_MIN = 8 - _E_MAX
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_MIN, 9 - _E_MIN)])
_PREFIX = _word(b"\x000.000")
_COMMA, _NEWLINE = np.uint64(ord(",") << 40), np.uint64(ord("\n") << 40)


def _fields(x: np.ndarray) -> np.ndarray:
    """(n,) float64 -> (n, 4) uint64 fields without separators."""
    mag = np.abs(x)
    zero = mag == 0.0
    ok = (mag >= _LOW) & (mag <= _HIGH)
    safe = np.where(ok, mag, 1.0)
    e = np.floor(np.log10(safe)).astype(np.int64)
    m = safe * _POW10[8 - e - _POW10_MIN]
    mant = np.rint(m)
    slow = (
        ~(ok | zero)
        | (np.abs(m - mant) > 0.5 - _TIE_WINDOW)
        # 9.999999995 and up rounds to 10 digits; log10 may also misjudge
        # a power of ten by one
        | (mant < 1e8)
        | (mant >= 1e9)
    )
    mant[zero] = 0.0  # printed as "0" (e is already 0: safe is 1.0)
    mi = mant.astype(np.int32)

    high = mi // 10_000
    low = mi - high * 10_000
    d0 = high // 10_000
    mid = high - d0 * 10_000
    digits = DIGITS - _TRAILING[low] - (low == 0) * _TRAILING[mid]
    fixed = (e >= _FIXED_EXPONENTS.start) & (e < _FIXED_EXPONENTS.stop)
    cls = np.where(fixed, e - _FIXED_EXPONENTS.start, _SCIENTIFIC)

    out = np.take(_MASKS, cls * DIGITS + digits - 1, axis=0)
    out[:, 0] &= (
        np.uint64(_PREFIX)
        | (d0.astype(np.uint64) + np.uint64(_ZERO)) << np.uint64(48)
        | np.signbit(x).astype(np.uint64) * np.uint64(_MINUS)
    )
    out[:, 1] &= _PAIRS[mid]
    out[:, 2] &= _PAIRS[low]
    out[:, 3] &= _EXPONENTS[e - _E_MIN]

    for i in np.flatnonzero(slow):
        out[i] = np.frombuffer(("%.9g" % x[i]).encode().ljust(_FIELD, b"\0"), dtype="<u8")
    return out


def format_rows(values) -> bytes:
    """CSV text of a 2-D array: per row, "%.9g" of each value joined by
    commas, then a newline."""
    x = np.asarray(values, dtype=np.float64)
    rows, cols = x.shape
    fields = _fields(x.reshape(-1)).reshape(rows, cols, 4)
    fields[:, :-1, 3] |= _COMMA
    fields[:, -1, 3] |= _NEWLINE
    return fields.astype("<u8", copy=False).tobytes().translate(None, b"\0")


def write_rows(fh, values):
    """Write `format_rows(values)` to the binary file `fh`, a block of
    about CHUNK_VALUES values (whole rows) at a time."""
    x = np.asarray(values, dtype=np.float64)
    step = max(1, CHUNK_VALUES // x.shape[1])
    for start in range(0, x.shape[0], step):
        fh.write(format_rows(x[start : start + step]))
