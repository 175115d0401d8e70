"""The solve window: rows from TimeGrid.zero_index on, exact zeros before."""

import numpy as np
import pytest

from dbf.evo_solver import WrongCase, _apply_symbol_time, causal_resolvent
from dbf.paper import AbstractIVP, delay_symbol, solve_fixed_point, weak_residual
from dbf.weighted_time import MaterialSymbol, TimeGrid, WeightedSignal


@pytest.mark.parametrize("t_start, dt, n, expected", [
    (0.0, 0.1, 8, 0),
    (-1e-10, 0.1, 8, 0),
    (-0.25, 0.1, 8, 3),
    (-1.0, 0.1, 5, 5),
])
def test_zero_index(t_start, dt, n, expected):
    grid = TimeGrid(t_start=t_start, dt=dt, n_samples=n)
    assert grid.zero_index == expected
    assert grid.zero_index == np.count_nonzero(grid.times < -1e-9)


def test_zero_index_leaves_equality_and_hash_alone():
    a, b = TimeGrid(-0.25, 0.1, 8), TimeGrid(-0.25, 0.1, 8)
    before = hash(a)
    assert a.zero_index == 3
    assert a == b and hash(a) == before == hash(b)
    assert a != TimeGrid(-0.15, 0.1, 8)


def _clean_and_poisoned(rng, grid, shape):
    clean = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    clean[:grid.zero_index] = 0.0
    poisoned = clean.copy()
    poisoned[:grid.zero_index] = np.nan
    return clean, poisoned


def _assert_window_only(out_clean, out_poisoned, grid):
    assert out_clean.tobytes() == out_poisoned.tobytes()
    pre = out_poisoned[:grid.zero_index].view(float)
    assert np.all(pre == 0.0) and not np.any(np.signbit(pre))
    assert np.all(np.isfinite(out_poisoned))


@pytest.mark.parametrize("shape_tail", [(2,), (3, 2)])
def test_causal_resolvent_never_reads_rows_before_zero(rng, shape_tail):
    grid = TimeGrid(t_start=-0.25, dt=0.05, n_samples=40)
    A = np.array([[0.0, -1.3], [1.3, 0.0]], dtype=np.complex128)
    clean, poisoned = _clean_and_poisoned(rng, grid, (grid.n_samples,) + shape_tail)
    _assert_window_only(causal_resolvent(A, clean, grid), causal_resolvent(A, poisoned, grid), grid)


def test_polynomial_symbol_never_reads_rows_before_zero(rng):
    grid = TimeGrid(t_start=-0.25, dt=0.05, n_samples=40)
    coeffs = [rng.standard_normal((2, 2)) for _ in range(3)]
    sym = MaterialSymbol(dim=2, poly_coeffs=coeffs)
    clean, poisoned = _clean_and_poisoned(rng, grid, (grid.n_samples, 3, 2))
    _assert_window_only(_apply_symbol_time(sym, clean, grid), _apply_symbol_time(sym, poisoned, grid), grid)


def test_delay_symbol_is_rejected_in_the_time_domain():
    # A delay would read rows before t = 0; it acts only through weighted_time.apply_symbol.
    grid = TimeGrid(t_start=-1.0, dt=0.01, n_samples=1024, pad_fraction=0.25)
    sym = delay_symbol(-0.1, 0.5 * np.array([[0.0, -1.0], [1.0, 0.0]]))
    zero = WeightedSignal(grid, 2.0, np.zeros((grid.n_samples, 2), dtype=np.complex128))
    p = AbstractIVP(dim=2, M0=np.eye(2), M1=sym, A=np.zeros((2, 2)), source=zero, W0=np.array([1.0, 0.0]))
    with pytest.raises(WrongCase, match="polynomial"):
        solve_fixed_point(p, 2.0)
    with pytest.raises(WrongCase, match="polynomial"):
        weak_residual(p, zero)
    with pytest.raises(WrongCase, match="polynomial"):
        _apply_symbol_time(sym, zero.samples, grid)
