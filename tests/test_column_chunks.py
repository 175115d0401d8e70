"""Column passes over solved series: bit for bit the whole-array results, in bounded memory.

The closed form, the causality and finiteness checks and the weak residual
run over column chunks of about COLUMN_CHUNK_BYTES each.  Every per-column
value must equal the one of a single pass over all columns, and the pass
must not build full (n, m) temporaries.
"""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import single_mode
from dbf import cli
from dbf.curl_spectral import FieldPair, SpectralField, build_basis
from dbf.dbf_model import (
    COLUMN_CHUNK_BYTES,
    DBFScenario,
    GeneralizedScenario,
    PairSeries,
    column_chunks,
    solve,
)
from dbf.evo_solver import rotation_closed_form
from dbf.paper import recover_DB, verify_dbf_equation
from dbf.weighted_time import MaterialSymbol, TimeGrid

MB = 1e6
SOURCED = [5, 17, 40, 77]
# Both grids hold t = 0 as a sample: at row 20 for "aligned" and at the odd row 21 for "unaligned",
# so the rows before t = 0, which the residual skips, are even and odd in number.
GRIDS = {
    "aligned": TimeGrid(t_start=-0.1, dt=0.005, n_samples=1300, pad_fraction=0.25),
    "unaligned": TimeGrid(t_start=-0.105, dt=0.005, n_samples=1300, pad_fraction=0.25),
}


def loaded_pair(table, rng) -> FieldPair:
    e = rng.standard_normal(table.n_modes) + 1j * rng.standard_normal(table.n_modes)
    h = rng.standard_normal(table.n_modes) + 1j * rng.standard_normal(table.n_modes)
    return FieldPair(SpectralField(table, e), SpectralField(table, h))


def source_on(table, grid, modes, rng, t0=0.4) -> PairSeries:
    """A Gaussian on every given mode but the last, which carries a step; zero before t = 0."""
    z, columns = grid.zero_index, {}
    t = grid.times[z:]
    for i in modes:
        wave = np.exp(-((t - t0) ** 2) / 0.02) if i != modes[-1] else np.ones_like(t)
        e, h = np.zeros((2, grid.n_samples), dtype=np.complex128)
        e[z:] = (rng.standard_normal() + 1j * rng.standard_normal()) * wave
        h[z:] = (rng.standard_normal() + 1j * rng.standard_normal()) * wave
        columns[i] = (e, h)
    return single_mode.source_series(table, grid, columns)


def solved(law: str, grid_name: str, sourced: bool):
    table, grid, rng = build_basis(2), GRIDS[grid_name], np.random.default_rng(20261018)
    W0 = loaded_pair(table, rng)
    source = source_on(table, grid, SOURCED, rng) if sourced else None
    if law == "dbf":
        s = DBFScenario(epsilon=1.5, mu=0.5, eta=0.15, nu=3.0, K=2, grid=grid, W0=W0, source_J=source)
        return s, solve(s, "exact")
    g = GeneralizedScenario(kappa0=np.diag([2.5, 2.5]), Mstar0=np.diag([1.0, 0.5]), nu=9.0, K=2, grid=grid, W0=W0,
                            kappa1=MaterialSymbol(dim=2, poly_coeffs=[np.diag([0.4, 0.4])]), source_J=source)
    return g, solve(g, "auto")


def columns_of(history, s, cols):
    """The given columns of a solved history and its scenario, as the attributes the residual reads."""
    pair = lambda a, b: SimpleNamespace(e_part=SimpleNamespace(coeffs=a[cols]), h_part=SimpleNamespace(coeffs=b[cols]))
    src = None
    if s.source_J is not None:
        loaded = np.nonzero(np.isin(cols, s.source_J.modes))[0]  # positions within cols
        columns = np.searchsorted(s.source_J.modes, cols[loaded])
        src = SimpleNamespace(modes=loaded, samples=s.source_J.samples[:, columns])
    sub = SimpleNamespace(grid=history.grid, table=SimpleNamespace(eigenvalues=history.table.eigenvalues[cols]),
                          **{name: getattr(history, name)[:, cols] for name in ("E", "H", "D", "B")})
    return sub, SimpleNamespace(nu=s.nu, source_J=src, W0=pair(s.W0.e_part.coeffs, s.W0.h_part.coeffs))


class TestColumnChunks:
    @pytest.mark.parametrize("n_rows", [1, 2, 700, 800, 10**6])
    @pytest.mark.parametrize("n_cols", [0, 1, 2, 3, 77, 78, 79, 157, 771])
    def test_slices_partition_the_columns(self, n_rows, n_cols):
        chunks = column_chunks(n_rows, n_cols)
        width = max(2, COLUMN_CHUNK_BYTES // (16 * n_rows))
        assert [i for c in chunks for i in range(n_cols)[c]] == list(range(n_cols))
        assert all(c.stop - c.start <= width + 1 for c in chunks)
        assert all(c.stop - c.start > 1 for c in chunks) or n_cols == 1

    def test_width_at_the_benchmark_size(self):
        # About 1 MB of complex rows: 78 columns of 800 samples.
        assert column_chunks(800, 771)[0] == slice(0, 78)


class TestResidualIsBitIdentical:
    @pytest.mark.parametrize("law", ["dbf", "generalized"])
    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    @pytest.mark.parametrize("sourced", [False, True])
    def test_against_whole_array_oracle(self, law, grid_name, sourced):
        s, history = solved(law, grid_name, sourced)
        z = history.grid.zero_index
        w = COLUMN_CHUNK_BYTES // (16 * (history.grid.n_samples - z))
        assert 2 <= w and 2 * w + 1 <= history.table.n_modes
        value = verify_dbf_equation(history, s)
        assert value == oracles.dbf_weak_residual(history, s) == history.diagnostics["weak_residual"]
        others = np.random.default_rng(7).permutation(np.setdiff1d(np.arange(history.table.n_modes), SOURCED))
        order = np.concatenate([SOURCED, others])
        for m in (1, w - 1, w, w + 1, 2 * w + 1):
            sub, sub_s = columns_of(history, s, order[:m])
            assert verify_dbf_equation(sub, sub_s) == oracles.dbf_weak_residual(sub, sub_s), m


class TestEnergyIsBitIdentical:
    """The energy the fold sums over a piece's whole width has the bits of one pass over the stored table."""

    def test_classical_every_mode_loaded(self):
        table, grid = build_basis(4), TimeGrid(t_start=-0.05, dt=0.0025, n_samples=1000, pad_fraction=0.5)
        s = DBFScenario(epsilon=1.5, mu=0.5, eta=0.15, nu=1.0, K=4, grid=grid,
                        W0=loaded_pair(table, np.random.default_rng(8)))
        assert len(column_chunks(grid.n_samples, table.n_modes)) > 10
        history = solve(s, "exact")
        assert history.energy.tobytes() == oracles.material_energy_series(history, s).tobytes()

    def test_memory_law_with_cross_terms(self):
        # A complex off-diagonal Mstar0 weighs conj(E) H, and k_cross couples the modes of each wavevector.
        table, grid = build_basis(2), GRIDS["unaligned"]
        g = GeneralizedScenario(kappa0=np.diag([2.5, 2.5]), Mstar0=np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]]),
                                nu=9.0, K=2, grid=grid, W0=loaded_pair(table, np.random.default_rng(9)),
                                kappa1=MaterialSymbol(dim=2, poly_coeffs=[np.diag([0.4, 0.4])]),
                                k_cross=np.array([0.3, 0.1, 0.2]))
        history = solve(g, "auto")
        assert history.energy.tobytes() == oracles.material_energy_series(history, g).tobytes()

    @pytest.mark.parametrize("law", ["dbf", "generalized"])
    def test_zero_data(self, law):
        s, _ = solved(law, "aligned", False)
        zero = SpectralField(s.table, np.zeros(s.table.n_modes))
        s = dataclasses.replace(s, W0=FieldPair(zero, zero))
        history = solve(s, "exact" if law == "dbf" else "auto")
        assert history.energy.tobytes() == oracles.material_energy_series(history, s).tobytes()
        assert history.energy.tobytes() == bytes(history.energy.nbytes)  # every sample +0.0


class TestClosedFormIsBitIdentical:
    def test_columns_match_one_call_over_all_columns(self):
        table, grid = build_basis(3), TimeGrid(t_start=-0.25, dt=0.0025, n_samples=800, pad_fraction=0.5)
        rng = np.random.default_rng(11)
        source = source_on(table, grid, [3, 50, 151, 368], rng, t0=1.0)
        s = DBFScenario(epsilon=1.5, mu=0.5, eta=0.15, nu=1.0, K=3, grid=grid, W0=loaded_pair(table, rng),
                        source_J=source)
        assert len(column_chunks(grid.n_samples, table.n_modes)) > 4
        history = solve(s, "exact")
        assert not history.diagnostics["kernel_modes"] and not history.diagnostics["near_kernel_modes"]
        factors = 1.0 + s.eta * table.eigenvalues
        w0 = np.stack([s.W0.e_part.coeffs, s.W0.h_part.coeffs], axis=1) / factors[:, None]
        idx, samples = s.source_J.modes, s.source_J.samples
        E, H = rotation_closed_form(s.epsilon, s.mu, table.eigenvalues / factors, w0, grid,
                                    (idx, samples / factors[idx, None]))
        for name, expected in zip("EHDB", (E, H) + recover_DB(E, H, s)):
            assert np.asarray(getattr(history, name)).tobytes() == expected.tobytes(), name


@pytest.fixture(scope="module")
def verify_sized():
    """The dbf verify benchmark size: 771 modes, 800 samples, a Gaussian on 37 modes."""
    table, grid = build_basis(4), TimeGrid(t_start=-0.25, dt=0.0025, n_samples=800, pad_fraction=0.5)
    rng = np.random.default_rng(4)
    source = source_on(table, grid, list(rng.choice(table.n_modes, 37, replace=False)) + [0], rng, t0=1.0)
    s = DBFScenario(epsilon=1.0, mu=1.0, eta=0.15, nu=1.0, K=4, grid=grid, W0=loaded_pair(table, rng),
                    source_J=source)
    return s, solve(s, "exact")


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak of memory allocated while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    def test_residual_peak(self, verify_sized):
        s, history = verify_sized
        assert history.table.n_modes == 771
        value, peak = traced_peak(verify_dbf_equation, history, s)
        assert value == history.diagnostics["weak_residual"]
        assert peak <= 16 * MB, f"{peak / MB:.1f} MB"

    def test_closed_form_peak_beyond_its_output(self, verify_sized):
        # The stored solve, closed form and diagnostics fold, beyond the E and H it stores.
        s, history = verify_sized
        out, peak = traced_peak(solve, s, "exact")
        assert out.E.tobytes() == history.E.tobytes()
        beyond = peak - out.E.nbytes - out.H.nbytes
        assert beyond <= 16 * MB, f"{beyond / MB:.1f} MB"

    def test_solve_dbf_peak(self, verify_sized):
        # The history holds E and H, 19.7 MB; D and B are scaled where they are read.
        s, history = verify_sized
        out, peak = traced_peak(solve, s, "exact")
        assert out.E.tobytes() == history.E.tobytes()
        assert peak <= 32 * MB, f"{peak / MB:.1f} MB"

    def test_stored_memory_law_peak(self):
        # A memory law with k_cross at K = 3, every mode loaded: 123 wavevector blocks of three modes each.  The
        # stored solve holds E, H, D and B in table order and no second, block-ordered copy of them.
        table, grid = build_basis(3), TimeGrid(t_start=-0.05, dt=0.0005, n_samples=800, pad_fraction=0.25)
        g = GeneralizedScenario(kappa0=np.diag([2.5, 2.5]), Mstar0=np.diag([1.0, 0.5]), nu=9.0, K=3, grid=grid,
                                W0=loaded_pair(table, np.random.default_rng(3)), k_cross=np.array([0.3, 0.1, 0.2]),
                                kappa1=MaterialSymbol(dim=2, poly_coeffs=[np.diag([0.4, 0.4])]))
        history, peak = traced_peak(solve, g, "auto")
        stored = sum(a.nbytes for a in (history.E, history.H, history.D, history.B))
        assert table.n_modes == 369 and stored == 4 * 800 * 369 * 16
        assert peak <= 1.5 * stored, f"{peak / stored:.2f} times the stored fields"

    def test_writer_peak(self, tmp_path):
        # run's writer reads the energy and the tracked modes of the solve's fold: beyond its ~1 MB of formatting
        # scratch it forms no (n, m) temporary, where a whole-table energy pass formed conj(E) H, one field.
        table, grid = build_basis(3), TimeGrid(t_start=-0.05, dt=0.0005, n_samples=1600, pad_fraction=0.25)
        g = GeneralizedScenario(kappa0=np.diag([2.5, 2.5]), Mstar0=np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]]),
                                nu=9.0, K=3, grid=grid, W0=loaded_pair(table, np.random.default_rng(3)),
                                kappa1=MaterialSymbol(dim=2, poly_coeffs=[np.diag([0.4, 0.4])]))
        history = solve(g, "auto")
        assert history.tracked.size == table.n_modes
        doc = {"material": {"model": "generalized"}, "method": "auto"}
        _, peak = traced_peak(cli.write_run_output, history, doc, str(tmp_path), "memory")
        assert peak <= 0.5 * history.E.nbytes, f"{peak / history.E.nbytes:.2f} fields"

    def test_flux_reads_match_recover_db(self, verify_sized):
        s, history = verify_sized
        D, B = recover_DB(history.E, history.H, s)
        chunk = column_chunks(*history.E.shape)[1]
        for key in ((slice(None), chunk), 400, (slice(None), [770, 3, 0, 3]), (slice(100, 200), 5)):
            assert history.D[key].tobytes() == D[key].tobytes(), key
            assert history.B[key].tobytes() == B[key].tobytes(), key
