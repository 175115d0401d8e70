"""Tests for operator material laws: memory terms and cross coupling."""

import re
import warnings

import numpy as np
import pytest

import oracles
import single_mode
from dbf import dbf_model
from dbf.curl_spectral import SpectralField, FieldPair
from dbf.dbf_model import (
    DBFScenario,
    GeneralizedScenario,
    HypothesisViolated,
    NeumannDiverges,
    solve,
)
from dbf.paper import cross_coupling_matrix, synthesize_on_grid
from dbf.weighted_time import MaterialSymbol, TimeGrid, WeightedSignal, weighted_norm

I2 = np.eye(2)
GRID = TimeGrid(t_start=-1.0, dt=0.01, n_samples=1024, pad_fraction=0.25)
BETA_GRID = TimeGrid(t_start=-1.0, dt=1e-3, n_samples=4096, pad_fraction=0.25)
CROSS_GRID = TimeGrid(t_start=-1.0, dt=2e-3, n_samples=2048, pad_fraction=0.25)


def field_pair(table, entries) -> FieldPair:
    e = np.zeros(table.n_modes, dtype=np.complex128)
    h = np.zeros(table.n_modes, dtype=np.complex128)
    for i, (ev, hv) in entries.items():
        e[i] = ev
        h[i] = hv
    return FieldPair(SpectralField(table, e), SpectralField(table, h))


class TestScenarioValidation:
    def make(self, table, **kw):
        defaults = dict(kappa0=2.0 * I2, Mstar0=I2, nu=3.0, K=table.K,
                        grid=GRID, W0=field_pair(table, {}))
        defaults.update(kw)
        return GeneralizedScenario(**defaults)

    def test_two_by_two_kept_as_given(self, table_k1):
        M = np.array([[2.0, 1j], [-1j, 3.0]])
        g = self.make(table_k1, kappa0=M, Mstar0=M)
        for got in (g.kappa0, g.Mstar0):
            assert got.dtype == np.complex128
            np.testing.assert_array_equal(got, M)

    @pytest.mark.parametrize("name", ["kappa0", "Mstar0"])
    @pytest.mark.parametrize("n", [3, 6])
    def test_other_shapes_rejected(self, table_k1, name, n):
        with pytest.raises(ValueError, match=rf"^{name} must be a 2x2 matrix, got shape \({n}, {n}\)$"):
            self.make(table_k1, **{name: np.eye(n)})

    def test_delay_symbol_rejected(self, table_k1):
        delayed = MaterialSymbol(dim=2, delays=[(-0.5, 0.1 * np.eye(2))])
        with pytest.raises(ValueError, match="polynomial"):
            self.make(table_k1, kappa1=delayed)

    def test_wrong_symbol_dim_rejected(self, table_k1):
        with pytest.raises(ValueError, match="dim 2"):
            self.make(table_k1, Mstar1=MaterialSymbol(dim=6, poly_coeffs=[np.eye(6)]))

    def test_non_hermitian_kappa_rejected(self, table_k1):
        with pytest.raises(ValueError):
            self.make(table_k1, kappa0=np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_indefinite_mstar_rejected(self, table_k1):
        with pytest.raises(ValueError):
            self.make(table_k1, Mstar0=np.diag([1.0, -0.5]))

    def test_zero_cross_vector_normalizes_to_none(self, table_k1):
        g = self.make(table_k1, k_cross=np.zeros(3))
        assert g.k_cross is None

    def test_invalid_method_rejected(self, table_k1):
        with pytest.raises(ValueError):
            solve(self.make(table_k1), "bogus")
        classical = DBFScenario(epsilon=1.0, mu=1.0, eta=0.5, nu=3.0, K=table_k1.K, grid=GRID,
                                W0=field_pair(table_k1, {}))
        with pytest.raises(ValueError, match=re.escape(str(dbf_model.DBF_METHODS))):
            solve(classical, "auto")


class TestDegenerateConsistency:
    def test_matches_classical_solver(self, table_k1):
        eta, eps, mu = 0.5, 1.5, 0.75
        ip = table_k1.position((1, 0, 0), "plus")
        im = table_k1.position((0, 1, 0), "minus")
        ig = table_k1.position((0, 0, 1), "grad")
        W0 = field_pair(table_k1, {ip: (1.0, 0.0), im: (0.0, -0.5j), ig: (0.3, 0.2)})
        classical = DBFScenario(epsilon=eps, mu=mu, eta=eta, nu=3.0, K=1,
                                grid=GRID, W0=W0)
        general = GeneralizedScenario(kappa0=(1.0 / eta) * I2,
                                      Mstar0=eta * np.diag([eps, mu]),
                                      nu=3.0, K=1, grid=GRID, W0=W0)
        a = solve(classical, "exact")
        b = solve(general, "auto")
        for x, y in ((a.E, b.E), (a.H, b.H), (a.D, b.D), (a.B, b.B)):
            assert np.max(np.abs(x - y)) <= 1e-8
        assert b.diagnostics["iterations"] == 0
        assert b.diagnostics["q0_sup"] == 0.0


class TestMemoryTerm:
    def test_matches_dense_reference(self, table_k1):
        beta, nu = 0.4, 3.0
        kappa0 = 2.0 * I2
        Mstar0 = np.diag([1.0, 0.5])
        i = table_k1.position((1, 0, 0), "plus")
        w0 = np.array([1.0, 0.0], dtype=np.complex128)
        g = GeneralizedScenario(kappa0=kappa0, Mstar0=Mstar0, nu=nu, K=1,
                                grid=BETA_GRID, W0=field_pair(table_k1, {i: (w0[0], w0[1])}),
                                kappa1=MaterialSymbol(dim=2, poly_coeffs=[beta * I2]))
        history = solve(g, "auto", fp_tol=1e-12)
        pos = BETA_GRID.times >= -1e-12
        n_pos = int(pos.sum())
        stride = 10
        u, v = oracles.generalized_beta_rk4(kappa0, Mstar0, beta, 1.0, w0,
                                            BETA_GRID.dt / stride, stride * (n_pos - 1))
        u = u[::stride]
        v = v[::stride]
        assert np.max(np.abs(history.E[pos, i] - u[:, 0])) < 1e-6
        assert np.max(np.abs(history.H[pos, i] - u[:, 1])) < 1e-6
        assert np.max(np.abs(history.D[pos, i] - v[:, 0])) < 1e-6
        assert np.max(np.abs(history.B[pos, i] - v[:, 1])) < 1e-6
        assert 0.0 < history.diagnostics["q0_sup"] < 1.0
        assert history.diagnostics["causality_sup"] <= 1e-12

    def test_integrator_takes_constant_memory(self, table_k1):
        # Constant kappa1 and no Mstar1 leave M1 = lambda N0 J + N0 kappa1 Mstar0
        # constant, so the exponential integrator solves the memory law.
        beta, kappa0, Mstar0 = 0.4, 2.0 * I2, np.diag([1.0, 0.5])
        i = table_k1.position((1, 0, 0), "plus")
        g = GeneralizedScenario(kappa0=kappa0, Mstar0=Mstar0, nu=3.0, K=1, grid=BETA_GRID,
                                W0=field_pair(table_k1, {i: (1.0, 0.0)}),
                                kappa1=MaterialSymbol(dim=2, poly_coeffs=[beta * I2]))
        history = solve(g, "integrator")
        pos = BETA_GRID.times >= -1e-12
        stride = 10
        u, v = oracles.generalized_beta_rk4(kappa0, Mstar0, beta, 1.0, np.array([1.0, 0.0]),
                                            BETA_GRID.dt / stride, stride * (int(pos.sum()) - 1))
        for solved, oracle in ((history.E, u[:, 0]), (history.H, u[:, 1]), (history.D, v[:, 0]), (history.B, v[:, 1])):
            assert np.max(np.abs(solved[pos, i] - oracle[::stride])) <= 1e-5

    def test_integrator_takes_polynomial_memory(self, table_k1):
        # A kappa1 of degree 1 and an Mstar1 make M1 quadratic; integrator and auto
        # step every such group with the same exact propagator.
        i = table_k1.position((0, 1, 0), "plus")
        g = GeneralizedScenario(kappa0=2.0 * I2, Mstar0=np.diag([1.0, 0.6]), nu=3.0, K=1, grid=GRID,
                                W0=field_pair(table_k1, {i: (1.0, -0.3j)}),
                                kappa1=MaterialSymbol(dim=2, poly_coeffs=[0.3 * I2, 0.04 * I2]),
                                Mstar1=MaterialSymbol(dim=2, poly_coeffs=[np.diag([0.1, 0.05])]))
        stepped, auto = solve(g, "integrator"), solve(g, "auto")
        for a, b in ((stepped.E, auto.E), (stepped.H, auto.H), (stepped.D, auto.D), (stepped.B, auto.B)):
            assert a.tobytes() == b.tobytes()
        assert stepped.diagnostics["weak_residual"] <= 1e-9

    def test_stiff_mode_matches_unreduced_law(self, table_k3):
        # lambda = -sqrt(6) leaves kappa0 + lambda = 0.05 I: the reduced memory law
        # N0 kappa1 is 8 times kappa1, and the solve must not truncate anything.
        grid = TimeGrid(t_start=-0.05, dt=0.001, n_samples=300, pad_fraction=0.25)
        i = table_k3.position((1, 1, 2), "minus")
        lam = float(table_k3.eigenvalues[i])
        assert lam == pytest.approx(-np.sqrt(6.0))
        w0 = np.array([0.7 - 0.2j, 0.4 + 0.5j])
        kappa0, kappa1, Mstar0 = 2.5 * I2, [0.4 * I2], np.diag([1.0, 0.5])
        g = GeneralizedScenario(kappa0=kappa0, Mstar0=Mstar0, nu=9.0, K=3, grid=grid,
                                W0=field_pair(table_k3, {i: tuple(w0)}),
                                kappa1=MaterialSymbol(dim=2, poly_coeffs=kappa1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            history = solve(g, "auto")
        z = grid.zero_index
        # The trapezoid march is the discrete law the un-reduced oracle solves.
        u = oracles.unreduced_trapezoid_solve(kappa0, kappa1, Mstar0, [], lam, w0,
                                              np.zeros((grid.n_samples - z, 2)), grid.dt)
        marched = single_mode.march_ivp(single_mode.generalized_block(g, i))[z:]
        assert np.max(np.abs(marched - u)) <= 1e-12 * np.max(np.abs(u))
        # auto steps the law exactly: RK4 at dt/40 is the reference.
        stride = 40
        rk4, _ = oracles.generalized_beta_rk4(kappa0, Mstar0, 0.4, lam, w0, grid.dt / stride,
                                              stride * (grid.n_samples - z - 1))
        solved = np.stack([history.E[z:, i], history.H[z:, i]], axis=1)
        assert np.max(np.abs(solved - rk4[::stride])) <= 1e-11 * np.max(np.abs(rk4))

    def test_polynomial_memory_matches_unreduced_law(self, table_k1):
        # A non-diagonal kappa1 of degree 1 and an Mstar1 give M1 terms of degree 0 to 2.
        grid = TimeGrid(t_start=-0.1, dt=0.002, n_samples=400, pad_fraction=0.25)
        i = table_k1.position((0, 1, 0), "plus")
        lam = float(table_k1.eigenvalues[i])
        kappa0, Mstar0 = 2.0 * I2, np.array([[1.0, 0.2j], [-0.2j, 0.6]])
        kappa1 = [np.array([[0.3, 0.1], [-0.05, 0.2]]), np.array([[0.0, 0.04], [0.02, -0.03]])]
        Mstar1 = [np.array([[0.1, 0.02], [0.0, 0.05]])]
        z = grid.zero_index
        e, h = np.zeros((2, grid.n_samples), dtype=np.complex128)
        e[z:], h[z:] = np.sin(3.0 * grid.times[z:]), 0.5j
        source = single_mode.source_series(table_k1, grid, {i: (e, h)})
        w0 = np.array([1.0, -0.3j])
        g = GeneralizedScenario(kappa0=kappa0, Mstar0=Mstar0, nu=3.0, K=1, grid=grid,
                                W0=field_pair(table_k1, {i: tuple(w0)}), source_J=source,
                                kappa1=MaterialSymbol(dim=2, poly_coeffs=kappa1),
                                Mstar1=MaterialSymbol(dim=2, poly_coeffs=Mstar1))
        history = solve(g, "auto")
        j = np.stack([e[z:], h[z:]], axis=1)
        u = oracles.unreduced_trapezoid_solve(kappa0, kappa1, Mstar0, Mstar1, lam, w0, j, grid.dt)
        marched = single_mode.march_ivp(single_mode.generalized_block(g, i))[z:]
        assert np.max(np.abs(marched - u)) <= 1e-12 * np.max(np.abs(u))
        # The sampled sin source is linear between samples only to second order, so
        # auto and the trapezoid law differ by their O(dt^2) errors (each about 1.1e-6
        # from a dt/32 solve).
        solved = np.stack([history.E[z:, i], history.H[z:, i]], axis=1)
        assert np.max(np.abs(solved - u)) <= 2e-7 * np.max(np.abs(u))  # measured 1.14e-7

    @pytest.mark.parametrize("kappa1,Mstar1", [
        ([np.diag([0.4, 0.0])], [np.diag([0.0, 0.1])]),  # kappa1 Mstar1 = 0: P has a zero top order
        ([np.diag([0.4, 0.0]), np.zeros((2, 2))], []),  # a kappa1 list ending in a zero coefficient
    ])
    @pytest.mark.parametrize("method", ["auto", "integrator"])
    def test_zero_top_order_of_product_symbol(self, table_k1, kappa1, Mstar1, method):
        # The propagator sizes its state from M1 and reads the flux off it with P, so both
        # must drop the same trailing zero orders.
        grid = TimeGrid(t_start=-0.1, dt=0.002, n_samples=400, pad_fraction=0.25)
        i = table_k1.position((0, 1, 0), "plus")
        z, w0 = grid.zero_index, np.array([1.0, -0.3j])
        g = GeneralizedScenario(kappa0=2.0 * I2, Mstar0=I2, nu=3.0, K=1, grid=grid,
                                W0=field_pair(table_k1, {i: tuple(w0)}),
                                kappa1=MaterialSymbol(dim=2, poly_coeffs=kappa1),
                                Mstar1=MaterialSymbol(dim=2, poly_coeffs=Mstar1) if Mstar1 else None)
        history = solve(g, method)
        u = oracles.unreduced_trapezoid_solve(2.0 * I2, kappa1, I2, Mstar1, float(table_k1.eigenvalues[i]), w0,
                                              np.zeros((grid.n_samples - z, 2)), grid.dt)
        solved = np.stack([history.E[z:, i], history.H[z:, i]], axis=1)
        # The propagator steps the law exactly, the oracle by the trapezoid rule: O(dt^2) apart.
        assert np.max(np.abs(solved - u)) <= 3e-8 * np.max(np.abs(u))  # measured 9.1e-9 and 7.4e-9
        # The flux pair at t = 0+ is W0.
        assert np.allclose([history.D[z, i], history.B[z, i]], w0, rtol=0, atol=1e-14)

    def test_explicit_fixed_point_agrees_with_auto(self, table_k1):
        i = table_k1.position((1, 0, 0), "minus")
        g = GeneralizedScenario(kappa0=2.0 * I2, Mstar0=I2, nu=3.0, K=1,
                                grid=GRID, W0=field_pair(table_k1, {i: (0.0, 1.0)}),
                                kappa1=MaterialSymbol(dim=2, poly_coeffs=[0.3 * I2]))
        fixed = solve(g, "fixed_point", fp_tol=1e-12)
        # Picard converges to the trapezoid law, which the march solves directly.
        marched = single_mode.march_ivp(single_mode.generalized_block(g, i))
        diff = np.concatenate([marched[:, :1] - fixed.E[:, i:i + 1], marched[:, 1:] - fixed.H[:, i:i + 1]], axis=1)
        assert weighted_norm(WeightedSignal(GRID, 3.0, diff)) < 1e-10


class TestCrossCoupling:
    KC = np.array([0.0, 0.0, 0.1])

    def test_matrix_is_skew_hermitian(self, table_k1):
        X = cross_coupling_matrix(self.KC, table_k1)
        assert np.max(np.abs(X + np.conj(X.T))) <= 1e-14

    def test_matrix_is_blockwise_in_wavevector(self, table_k1):
        X = cross_coupling_matrix(self.KC, table_k1)
        kv = table_k1.kvectors
        for i in range(table_k1.n_modes):
            for j in range(table_k1.n_modes):
                if tuple(kv[i]) != tuple(kv[j]):
                    assert abs(X[i, j]) <= 1e-14

    def test_constant_block_entries(self, table_k1):
        # k x x-hat = |k| y-hat for k along z, and constants quadrature exactly.
        X = cross_coupling_matrix(self.KC, table_k1)
        cx = table_k1.position((0, 0, 0), "const", 0)
        cy = table_k1.position((0, 0, 0), "const", 1)
        cz = table_k1.position((0, 0, 0), "const", 2)
        assert X[cy, cx] == pytest.approx(0.1, abs=1e-15)
        assert X[cx, cy] == pytest.approx(-0.1, abs=1e-15)
        assert abs(X[cz, cx]) <= 1e-15

    def test_matches_per_mode_quadrature(self, table_k1):
        # Independent assembly from synthesized fields, mode pair by mode pair.
        X = cross_coupling_matrix(self.KC, table_k1)
        n_grid = 8
        idx = [table_k1.position((1, 0, 0), "plus"),
               table_k1.position((1, 0, 0), "minus"),
               table_k1.position((1, 0, 0), "grad")]
        vals = []
        for j in idx:
            c = np.zeros(table_k1.n_modes, dtype=np.complex128)
            c[j] = 1.0
            vals.append(synthesize_on_grid(SpectralField(table_k1, c), n_grid).reshape(-1, 3))
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                crossed = np.cross(self.KC, vals[b])
                entry = np.mean(np.sum(np.conj(vals[a]) * crossed, axis=1))
                assert abs(X[i, j] - entry) <= 1e-13

    def test_joint_solve_matches_dense_reference(self, table_k1):
        nu = 4.0
        kappa0 = 2.0 * I2
        i = table_k1.position((1, 0, 0), "plus")
        g = GeneralizedScenario(kappa0=kappa0, Mstar0=I2, nu=nu, K=1,
                                grid=CROSS_GRID, W0=field_pair(table_k1, {i: (1.0, 0.0)}),
                                k_cross=self.KC)
        history = solve(g, "auto", fp_tol=1e-12)
        assert history.diagnostics["causality_sup"] <= 1e-12
        assert history.diagnostics["initial_value_error"] <= 10 * CROSS_GRID.dt
        energy = history.energy
        assert np.all(np.isfinite(energy))

        X = cross_coupling_matrix(self.KC, table_k1)
        m = table_k1.n_modes
        w0_big = np.zeros(2 * m, dtype=np.complex128)
        w0_big[2 * i] = 1.0
        pos = CROSS_GRID.times >= -1e-12
        n_pos = int(pos.sum())
        stride = 5
        ref = oracles.joint_kcross_rk4(kappa0, I2, table_k1.eigenvalues, X,
                                       w0_big, CROSS_GRID.dt / stride,
                                       stride * (n_pos - 1))
        ref = ref[::stride]
        early = CROSS_GRID.times[pos] <= 2.5
        for col, arr in ((0, history.E), (1, history.H)):
            got = arr[pos][early]
            want = ref[early][:, col::2]
            assert np.max(np.abs(got - want)) < 1e-5

    @pytest.mark.parametrize("method", ["auto", "fixed_point"])
    def test_sourced_blocks_match_dense_reference(self, table_k1, method):
        # A step source on two modes of one wavevector and on one const mode: each
        # block is sourced in some of its slots only, the others stay zero there.
        nu, kappa0 = 4.0, 2.0 * I2
        plus, grad = table_k1.position((1, 0, 0), "plus"), table_k1.position((1, 0, 0), "grad")
        const = table_k1.position((0, 0, 0), "const", 1)
        step = np.zeros(CROSS_GRID.n_samples)
        step[CROSS_GRID.zero_index:] = 1.0
        loads = {plus: (1.0, 0.0), grad: (0.0, 0.5), const: (0.3, -0.2j)}
        g = GeneralizedScenario(kappa0=kappa0, Mstar0=I2, nu=nu, K=1, grid=CROSS_GRID,
                                W0=field_pair(table_k1, {plus: (1.0, 0.0)}), k_cross=self.KC,
                                source_J=single_mode.source_series(
                                    table_k1, CROSS_GRID, {i: (e * step, h * step) for i, (e, h) in loads.items()}))
        history = solve(g, method)
        assert history.diagnostics["causality_sup"] == 0.0

        m = table_k1.n_modes
        w0_big, j_big = np.zeros((2, 2 * m), dtype=np.complex128)
        w0_big[2 * plus] = 1.0
        for i, (e, h) in loads.items():
            j_big[2 * i:2 * i + 2] = e, h
        pos = CROSS_GRID.times >= -1e-12
        stride = 5
        ref = oracles.joint_kcross_rk4(kappa0, I2, table_k1.eigenvalues, cross_coupling_matrix(self.KC, table_k1),
                                       w0_big, CROSS_GRID.dt / stride, stride * (int(pos.sum()) - 1), j_big)[::stride]
        early = CROSS_GRID.times[pos] <= 2.5
        for col, arr in ((0, history.E), (1, history.H)):
            assert np.max(np.abs(arr[pos][early] - ref[early][:, col::2])) < 1e-5

    def test_memory_blocks_match_unreduced_law(self, table_k1, monkeypatch):
        # k_cross with kappa1 and Mstar1: every group handed to the propagator, marched by the
        # trapezoid rule, solves the un-reduced law of its wavevector block.
        grid = TimeGrid(t_start=-0.1, dt=0.005, n_samples=220, pad_fraction=0.25)
        kappa0, Mstar0 = np.array([[2.5, 0.3], [0.3, 2.2]]), np.diag([1.0, 0.5])
        kappa1 = [np.array([[0.3, 0.1], [-0.05, 0.2]]), np.array([[0.0, 0.04], [0.02, -0.03]])]
        Mstar1, kc = [np.array([[0.1, 0.02], [0.0, 0.05]])], np.array([0.3, 0.1, 0.2])
        m, z = table_k1.n_modes, grid.zero_index
        rng = np.random.default_rng(16)
        w0 = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
        plus, const = table_k1.position((1, 0, 0), "plus"), table_k1.position((0, 0, 0), "const", 1)
        wave = np.zeros(grid.n_samples)
        wave[z:] = np.sin(3.0 * grid.times[z:])
        loads = {plus: (wave, 0.5j * wave), const: (0.3 * wave, -0.2 * wave)}
        g = GeneralizedScenario(kappa0=kappa0, Mstar0=Mstar0, nu=3.0, K=1, grid=grid,
                                W0=field_pair(table_k1, {i: tuple(w0[i]) for i in range(m)}),
                                kappa1=MaterialSymbol(dim=2, poly_coeffs=kappa1),
                                Mstar1=MaterialSymbol(dim=2, poly_coeffs=Mstar1), k_cross=kc,
                                source_J=single_mode.source_series(table_k1, grid, loads))
        calls, propagate = [], dbf_model.solve_propagator_blocks
        monkeypatch.setattr(dbf_model, "solve_propagator_blocks",
                            lambda *args: calls.append(args) or propagate(*args))
        solve(g, "auto")
        # Every block has data, so the groups arrive in block order, one block each.
        blocks = [np.flatnonzero(np.all(table_k1.kvectors == k, axis=1)) for k in
                  dict.fromkeys(map(tuple, table_k1.kvectors))]
        assert len(calls) == len(blocks)
        j = np.zeros((grid.n_samples - z, m, 2), dtype=np.complex128)
        for i, (e, h) in loads.items():
            j[:, i] = np.stack([e[z:], h[z:]], axis=1)
        for (M0, M1, f, w0_reduced, _, _), idx in zip(calls, blocks):
            amps = table_k1.amplitudes[idx]
            X = np.kron(np.conj(amps) @ np.cross(kc, amps).T, I2)
            u = oracles.unreduced_trapezoid_block_solve(kappa0, kappa1, Mstar0, Mstar1, table_k1.eigenvalues[idx],
                                                        X, w0[idx].ravel(), j[:, idx].reshape(-1, 2 * len(idx)),
                                                        grid.dt)
            marched = single_mode.solve_march_blocks(M0, M1, f, w0_reduced, grid)[z:, 0]
            assert np.max(np.abs(marched - u)) <= 5e-14 * np.max(np.abs(u))  # measured 5.1e-15 to 1.8e-14

    def test_wavevector_blocks_match_dense_reference_k2(self, table_k2):
        # Data on the const modes and on two wavevectors; every other block
        # carries none and must stay exactly zero.
        nu, kappa0 = 8.0, 2.5 * I2
        kc = np.array([0.3, -0.2, 0.4])
        grid = TimeGrid(t_start=-0.1, dt=2e-3, n_samples=768, pad_fraction=0.25)
        entries = {
            table_k2.position((0, 0, 0), "const", 0): (1.0, 0.0),
            table_k2.position((0, 0, 0), "const", 2): (0.0, 0.5j),
            table_k2.position((1, 0, 0), "plus"): (0.5, -0.3),
            table_k2.position((1, 1, 0), "minus"): (0.2j, 0.4),
            table_k2.position((1, 1, 0), "grad"): (0.3, 0.1),
        }
        g = GeneralizedScenario(kappa0=kappa0, Mstar0=I2, nu=nu, K=2, grid=grid,
                                W0=field_pair(table_k2, entries), k_cross=kc)
        history = solve(g, "auto")
        assert history.diagnostics["iterations"] == 0
        assert history.diagnostics["causality_sup"] <= 1e-12

        w0_big = np.zeros(2 * table_k2.n_modes, dtype=np.complex128)
        for i, (ev, hv) in entries.items():
            w0_big[2 * i:2 * i + 2] = ev, hv
        pos = grid.times >= -1e-12
        stride = 5
        ref = oracles.joint_kcross_rk4(kappa0, I2, table_k2.eigenvalues,
                                       cross_coupling_matrix(kc, table_k2), w0_big,
                                       grid.dt / stride, stride * (int(pos.sum()) - 1))[::stride]
        early = grid.times[pos] <= 1.0
        for col, arr in ((0, history.E), (1, history.H)):
            assert np.max(np.abs(arr[pos][early] - ref[early][:, col::2])) < 1e-5
        loaded = {int(i) for i in np.nonzero(np.any(history.E != 0, axis=0))[0]}
        kv = table_k2.kvectors
        assert {tuple(kv[i]) for i in loaded} == {(0, 0, 0), (1, 0, 0), (1, 1, 0)}


class TestHypothesisGuards:
    def test_singular_shift_raises(self, table_k1, table_k2):
        # kappa0 = I puts -1 in the spectrum proxy at the lambda = -1 modes.
        i = table_k1.position((1, 0, 0), "plus")
        g = GeneralizedScenario(kappa0=I2, Mstar0=I2, nu=3.0, K=1,
                                grid=GRID, W0=field_pair(table_k1, {i: (1.0, 0.0)}))
        with pytest.raises(HypothesisViolated, match="singular"):
            solve(g, "auto")
        # Two singular eigenvalues, -sqrt(2) and -1, are listed in sorted order.
        i = table_k2.position((1, 1, 0), "plus")
        g = GeneralizedScenario(kappa0=np.diag([1.0, np.sqrt(2.0)]), Mstar0=I2, nu=3.0, K=2,
                                grid=GRID, W0=field_pair(table_k2, {i: (1.0, 0.0)}))
        with pytest.raises(HypothesisViolated, match=r"eigenvalue\(s\) \[-1\.41421356\d*, -1\.0\];"):
            solve(g, "auto")

    def test_margin_reported(self, table_k1):
        i = table_k1.position((1, 0, 0), "plus")
        g = GeneralizedScenario(kappa0=2.0 * I2, Mstar0=I2, nu=3.0, K=1,
                                grid=GRID, W0=field_pair(table_k1, {i: (1.0, 0.0)}))
        history = solve(g, "auto")
        assert history.diagnostics["hypothesis_margin"] == pytest.approx(1.0, abs=1e-12)

    def test_large_memory_at_low_nu_diverges(self, table_k1):
        i = table_k1.position((1, 0, 0), "plus")
        g = GeneralizedScenario(kappa0=2.0 * I2, Mstar0=I2, nu=2.0, K=1,
                                grid=GRID, W0=field_pair(table_k1, {i: (1.0, 0.0)}),
                                kappa1=MaterialSymbol(dim=2, poly_coeffs=[20.0 * I2]))
        # Every eigenvalue fails the gate; the message names the least.
        with pytest.raises(NeumannDiverges, match=r"lambda=-1\.0; increase nu"):
            solve(g, "auto")
