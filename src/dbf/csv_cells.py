"""CSV text of float64 cells: the bytes of format(x, ".17g"), written by numpy array passes.

A run's CSV holds 17 significant digits per cell, so that a reader gets the
double back exactly.  Python's "%.17g" (Gay's correctly rounded dtoa, ties
to even) costs about a microsecond per cell; CellText produces the same
bytes for a block of rows in a few dozen array passes:

1. Exponent.  For 1e-6 <= |x| < 1e16 the decimal exponent E of |x| is the
   decade of its binade's smallest double, plus one where |x| reaches the
   next power of ten, found by an exact comparison with the smallest double
   at or above that power.
2. Digits.  With k = 16 - E in [1, 22], 10^k is an exact double and
   Dekker's two-product gives p + lo = |x| 10^k exactly (Numer. Math. 18,
   1971).  p >= 2^53 is an even integer, so N = p + rint(lo) is the
   17-digit integer rounded with ties to even, as dtoa rounds.  N never
   reaches 10^17: the largest double below each power of ten in the range
   is more than half a unit of the 17th digit below it.
3. Text.  N is split into its leading digit and four 4-digit groups, read
   as ASCII words from a table whose second half holds each group with its
   trailing zeros as NUL bytes.  A cell is laid out in a row of 13
   words: sign and "0.00" prefix, leading digit, integer digits, point,
   fraction digits, "e-0X" and the separator.  Masks chosen by E keep the
   integer digits of the full groups and the fraction digits of the
   trimmed ones, and every byte a cell does not use is NUL.  Dropping the
   NUL bytes of a block leaves its cells' text in order.

Zero is written "0" or "-0".  Cells outside [1e-6, 1e16), nan and inf are
formatted by Python and written into their rows before the NUL bytes are
dropped.  The tables are built at import, which cli defers to its first
write, so that they and the numpy code building them add no resident
memory to the solve.
"""

from __future__ import annotations

import math

import numpy as np


def _ceil_decade(e: int) -> float:
    """The smallest double >= 10**e, found with exact integer comparisons."""

    def below(v: float) -> bool:
        num, den = v.as_integer_ratio()
        return num * 10 ** max(-e, 0) < den * 10 ** max(e, 0)

    v = 10.0 ** e
    while below(v):
        v = math.nextafter(v, math.inf)
    while not below(math.nextafter(v, 0.0)):
        v = math.nextafter(v, 0.0)
    return v


E_MIN, E_MAX = -6, 15  # the decimal exponents of the cells formatted in numpy
LOW, HIGH = _ceil_decade(E_MIN), 1e16  # cells with LOW <= |x| < HIGH are formatted in numpy
# Biased binary exponents of LOW and of the largest double below HIGH.
BINADES = range(math.frexp(LOW)[1] + 1022, math.frexp(HIGH)[1] + 1023)
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter into 26-bit halves
_WORDS = 13  # a cell's row: head (2), integer groups (4), point, fraction groups (4), exponent, separator
_LAYOUT_WORDS = 13  # a layout row: head (2), integer masks (4), fraction masks (4), point, exponent, point 1
# Scratch bytes per cell of CellText: five float rows, two int64 rows, the index, five flags, two
# copies of the groups, the layout row, the text row and its NUL mask, and the text.
CELL_BYTES = 5 * 8 + 2 * 8 + 8 + 5 + 2 * 4 * 4 + _LAYOUT_WORDS * 4 + 2 * _WORDS * 4 + _WORDS * 2


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(4, b"\0"), "little")


def _layout(e: int, negative: bool) -> list:
    """The layout row of exponent e and a sign: the head words before the leading digit (which
    takes byte 2 of the second), the masks of the integer and of the fraction digits in the four
    groups, the point after the groups, the exponent, and the point after the leading digit."""
    if e < -4:  # d.ddde-0X
        n_int, prefix = 1, b""  # n_int digits before the point
    elif e < 0:  # 0.00ddd
        n_int, prefix = 0, b"0." + b"0" * (-e - 1)
    else:
        n_int, prefix = e + 1, b""
    head = ((b"-" if negative else b"") + prefix).rjust(6, b"\0")
    keep = [(1 << 8 * min(max(n_int - 1 - 4 * j, 0), 4)) - 1 for j in range(4)]
    return ([_word(head[:4]), _word(head[4:])] + keep + [0xFFFFFFFF ^ m for m in keep]
            + [_word(b"." if n_int > 1 else b""), _word(b"e-%02d" % -e if e < -4 else b""),
               _word(b"\0\0\0." if n_int == 1 else b"")])


# Per binade: the smallest double >= 10^(E0 + 1), E0 the decade of the binade's smallest double.
_FIRST = [math.floor((b - 1023) * math.log10(2)) for b in BINADES]
_NEXT_DECADE = np.array([_ceil_decade(e + 1) for e in _FIRST])
# Per (binade, reached next decade): E, and 10^(16 - E) with its high and low halves.
_EXPONENT = np.clip(np.stack([_FIRST, np.add(_FIRST, 1)], axis=1).ravel(), E_MIN, E_MAX)
_P10 = 10.0 ** (16 - _EXPONENT)
_P10_HI = _SPLIT * _P10 - (_SPLIT * _P10 - _P10)
_P10_LO = _P10 - _P10_HI
# ASCII words of 0000..9999, then the same words with trailing zeros as NUL bytes.
_DIGITS = (np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10).astype(np.uint8)
_TRAILING = np.logical_and.accumulate(_DIGITS[:, ::-1] == 0, axis=1)[:, ::-1]
_GROUPS = np.where(np.array([False, True])[:, None, None] & _TRAILING, np.uint8(0), _DIGITS + np.uint8(ord("0")))
_GROUPS = _GROUPS.view("<u4").ravel()
# Per (E, sign): a layout row.
_LAYOUT = np.array([_layout(e, s) for e in range(E_MIN, E_MAX + 1) for s in (False, True)], dtype=np.uint32)


class CellText:
    """CSV text of float64 blocks of at most `rows` rows of n_cols cells: ',' between a row's cells,
    '\\n' after its last.  The scratch arrays are allocated once and reused for every block."""

    def __init__(self, rows: int, n_cols: int):
        cells = rows * n_cols
        self.fl = np.empty((5, cells))
        self.ints = np.empty((2, cells), np.int64)
        self.index = np.empty(cells, np.intp)
        self.flags = np.empty((5, cells), bool)
        self.groups = np.empty((2, 4, cells), np.uint32)
        self.layout = np.empty((cells, _LAYOUT_WORDS), np.uint32)
        self.rows = np.zeros((cells, _WORDS), "<u4")
        sep = self.rows[:, -1].reshape(-1, n_cols)
        sep[:, :-1], sep[:, -1] = _word(b","), _word(b"\n")
        self.keep = np.empty(cells * _WORDS * 4, bool)
        self.text = np.empty(cells * _WORDS * 2, np.uint8)

    def __call__(self, block: np.ndarray) -> np.ndarray:
        """The text of a C-contiguous float64 block, as a uint8 view into the scratch."""
        x = block.reshape(-1)
        n = x.size
        a, p, lo, t, u = self.fl[:, :n]
        g = self.fl[1:, :n].view(np.int64)  # the digit groups, once p, lo, t and u are spent
        N, M = self.ints[:, :n]
        i = self.index[:n]
        ok, zero, z = self.flags[0, :n], self.flags[1, :n], self.flags[2:, :n]
        full, trimmed = self.groups[:, :, :n]
        lay, w = self.layout[:n], self.rows[:n]
        np.abs(x, out=a)
        np.equal(a, 0.0, out=zero)
        np.less(a, HIGH, out=ok)
        ok &= np.greater_equal(a, LOW, out=z[0])
        # Zero, written as 1 with the leading digit 0, and the cells Python formats are worked as 1.0.
        np.copyto(a, 1.0, where=np.logical_not(ok, out=z[0]))
        # 1. The exponent, as an index into the (binade, reached next decade) tables.
        np.right_shift(a.view(np.int64), 52, out=i)
        i -= BINADES.start
        np.take(_NEXT_DECADE, i, out=t)
        i <<= 1
        i += np.greater_equal(a, t, out=z[0])
        # 2. p + lo = a 10^(16 - E) exactly (Dekker): u and a become the halves of a.
        np.take(_P10, i, out=t)
        np.multiply(a, t, out=p)
        np.multiply(a, _SPLIT, out=u)
        np.subtract(u, a, out=lo)
        u -= lo
        a -= u
        np.take(_P10_HI, i, out=t)
        np.multiply(u, t, out=lo)
        lo -= p
        t *= a
        lo += t
        np.take(_P10_LO, i, out=t)
        u *= t
        lo += u
        t *= a
        lo += t
        np.copyto(N, p, casting="unsafe")
        np.rint(lo, out=lo)
        np.copyto(M, lo, casting="unsafe")
        N += M
        # The layout row: 2 (E - E_MIN) + sign.
        np.take(_EXPONENT, i, out=i)
        i -= E_MIN
        i <<= 1
        i += np.signbit(x, out=z[0])
        np.take(_LAYOUT, i, axis=0, out=lay)
        # 3. N = d 10^16 + g0 10^12 + g1 10^8 + g2 10^4 + g3, M = d.
        np.floor_divide(N, 10**8, out=M)
        np.multiply(M, 10**8, out=g[0])
        N -= g[0]
        np.floor_divide(N, 10**4, out=g[2])
        np.multiply(g[2], 10**4, out=g[3])
        np.subtract(N, g[3], out=g[3])
        np.floor_divide(M, 10**4, out=N)
        np.multiply(N, 10**4, out=g[1])
        np.subtract(M, g[1], out=g[1])
        np.floor_divide(N, 10**4, out=M)
        np.multiply(M, 10**4, out=g[0])
        np.subtract(N, g[0], out=g[0])
        np.take(_GROUPS, g, out=full)
        # z[j]: the groups after group j are zero, so the trailing zeros of group j end the digits.
        np.equal(g[3], 0, out=z[2])
        np.equal(g[2], 0, out=z[1])
        z[1] &= z[2]
        np.equal(g[1], 0, out=z[0])
        z[0] &= z[1]
        np.add(g[:3], 10000, out=g[:3], where=z)
        g[3] += 10000
        np.take(_GROUPS, g, out=trimmed)
        # The text row: head, leading digit, integer digits, point, fraction digits, exponent.
        w[:, 0] = lay[:, 0]
        M += ord("0")
        M -= zero
        M <<= 16
        np.bitwise_or(M, lay[:, 1], out=w[:, 1], casting="unsafe")
        for j in range(4):
            np.bitwise_and(full[j], lay[:, 2 + j], out=w[:, 2 + j])
            np.bitwise_and(trimmed[j], lay[:, 6 + j], out=w[:, 7 + j])
        # A point only where a fraction digit is left.
        fraction = np.bitwise_or(w[:, 7], w[:, 8], out=full[0])
        fraction |= w[:, 9]
        fraction |= w[:, 10]
        frac = np.not_equal(fraction, 0, out=z[0])
        np.multiply(lay[:, 10], frac, out=w[:, 6], casting="unsafe")
        np.multiply(lay[:, 12], frac, out=M, casting="unsafe")
        np.bitwise_or(w[:, 1], M, out=w[:, 1], casting="unsafe")
        w[:, 11] = lay[:, 11]
        # Python's own text for the other cells, NUL-padded over all but the separator word.
        wb, python = w.view(np.uint8), np.flatnonzero(~(ok | zero))
        if python.size:
            joined = ("%.17g," * python.size) % tuple(x[python].tolist())
            text = np.array(joined.split(",")[:-1], dtype=f"S{4 * _WORDS - 4}")
            wb[python, :-4] = text.view(np.uint8).reshape(-1, 4 * _WORDS - 4)
        flat = wb.reshape(-1)
        keep = np.not_equal(flat, 0, out=self.keep[:flat.size])
        return np.compress(keep, flat, out=self.text[:np.count_nonzero(keep)])
