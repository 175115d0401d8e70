"""CellText writes the bytes of format(x, ".17g") for every double, checked against Python's format."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dbf import cli, csv_cells
from dbf.csv_cells import BINADES, CELL_BYTES, E_MAX, E_MIN, HIGH, LOW, CellText, _ceil_decade
from dbf.dbf_model import COLUMN_CHUNK_BYTES


def python_text(values, n_cols: int) -> bytes:
    rows = np.asarray(values, dtype=float).reshape(-1, n_cols)
    return "".join(",".join(format(float(x), ".17g") for x in row) + "\n" for row in rows).encode()


def numpy_text(values, n_cols: int, block_rows: int | None = None) -> bytes:
    rows = np.asarray(values, dtype=float).reshape(-1, n_cols)
    block_rows = block_rows or len(rows)
    text = CellText(block_rows, n_cols)
    return b"".join(text(rows[r:r + block_rows]).tobytes() for r in range(0, len(rows), block_rows))


def neighbours(values) -> list:
    return [y for x in values for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]


def exact_ties(rng) -> list:
    """Doubles m 2^-j, m odd, whose exact decimal has 18 significant digits ending in 5, so that
    17 digits round half to even; from 1e16 down to 1e-6."""
    ties = []
    for j in range(1, 24):
        lo = -(-(2**j * 10 ** max(17 - j, 0)) // 10 ** max(j - 17, 0))
        hi = min(2**j * 10 ** max(18 - j, 0) // 10 ** max(j - 18, 0), 2**53)
        if lo < hi:
            ties += [math.ldexp(int(m) | 1, -j) for m in rng.integers(lo, hi, 400)]
    return [x for x in ties if len(Decimal(x).as_tuple().digits) == 18]


CASES = (
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
     math.nan, math.inf, -math.inf, 0.5, 0.1, 1.0, 100.0, 1e15, 123456.789, -2.5e-6]
    + neighbours([LOW, HIGH, 1e-6, 1e-7, 1e16])
    + neighbours([10.0 ** e for e in range(-8, 19)] + [-(10.0 ** e) for e in range(-8, 19)])
    + neighbours([math.ldexp(1.0, q) for q in range(-24, 56)])
    + [9.9999999999999999 * 10.0 ** e for e in range(-8, 17)]
)


def test_cases_match_python_format():
    assert [x for x in CASES if numpy_text([x], 1) != python_text([x], 1)] == []
    assert numpy_text(CASES, 1) == python_text(CASES, 1)


def test_exact_ties_round_half_even():
    ties = exact_ties(np.random.default_rng(7))
    assert len(ties) > 4000
    signed = ties + [-x for x in ties]
    assert numpy_text(signed, 1) == python_text(signed, 1)


def test_seventeen_digits_never_carry_to_the_next_decade():
    # The largest double below each power of ten in [LOW, HIGH) rounds to 9.99..., so the
    # 17-digit integer stays below 10^17 and E needs no correction after rounding.
    for e in range(E_MIN + 1, E_MAX + 2):
        below = math.nextafter(_ceil_decade(e), 0.0)
        assert format(below, ".16e").startswith("9."), e


def test_binade_decades_are_exact():
    # Every binade in the range starts in the decade floor(q log10 2), q = b - 1023.
    for b in BINADES:
        q = b - 1023
        e0 = math.floor(q * math.log10(2))
        assert Fraction(10) ** e0 <= Fraction(2) ** q < Fraction(10) ** (e0 + 1)


@settings(max_examples=300)
@given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 6), st.integers(1, 4))
def test_any_doubles_match_python_format(values, n_cols, block_rows):
    values += [0.0] * (-len(values) % n_cols)
    assert numpy_text(values, n_cols, block_rows) == python_text(values, n_cols)


@settings(max_examples=300)
@given(st.lists(st.floats(min_value=-HIGH, max_value=HIGH, exclude_min=True, exclude_max=True),
                min_size=1, max_size=60))
def test_doubles_in_the_numpy_range_match_python_format(values):
    assert numpy_text(values, 1) == python_text(values, 1)


def test_random_bit_patterns_match_python_format():
    values = np.random.default_rng(3).integers(0, 2**64 - 1, 60000, dtype=np.uint64).view(np.float64)
    assert numpy_text(values, 6, 1000) == python_text(values, 6)


def test_scratch_is_counted_by_cell_bytes():
    text = CellText(4, 3)
    scratch = sum(v.nbytes for v in vars(text).values() if isinstance(v, np.ndarray))
    assert scratch == 4 * 3 * CELL_BYTES


def test_run_output_formats_bounded_blocks(tmp_path, monkeypatch):
    # write_run_output sizes its row blocks so that their scratch stays within COLUMN_CHUNK_BYTES.
    made = []

    def recording(rows, n_cols):
        made.append((rows, n_cols))
        return CellText(rows, n_cols)

    monkeypatch.setattr(csv_cells, "CellText", recording)
    assert cli.cmd_run("scenarios/generalized_memory.json", str(tmp_path)) == cli.EXIT_OK
    (rows, n_cols), = made
    assert 1 < rows < 4096 and rows * n_cols * CELL_BYTES <= COLUMN_CHUNK_BYTES
