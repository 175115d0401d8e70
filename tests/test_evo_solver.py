"""Tests for the abstract causal IVP solvers and their verifiers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from dbf import dbf_model, evo_solver
from dbf.curl_spectral import FieldPair, SpectralField
from dbf.dbf_model import GeneralizedScenario, solve
from dbf.evo_solver import (
    NoConvergence,
    NotContractive,
    WrongCase,
    solve_fixed_point_blocks,
    solve_propagator_blocks,
)
from dbf.paper import (
    AbstractIVP,
    delay_symbol,
    semigroup_apply,
    sobolev_norm,
    solve_fixed_point,
    solve_integrator,
    solve_modal_exact,
    verify_causality,
    verify_initial_value,
    verify_regularity_ode,
    weak_residual,
)
from dbf.weighted_time import MaterialSymbol, TimeGrid, WeightedSignal, weighted_norm
from single_mode import solve_march_blocks
from test_solve_window import _assert_window_only, _clean_and_poisoned

NU = 2.0
# Solvers work in the time domain (no circular transforms), so the only grid
# constraints are dt for discretization error and nu for contraction.
FP_GRID = TimeGrid(t_start=-1.0, dt=1.0 / 1024, n_samples=8192, pad_fraction=0.25)
EXACT_GRID = TimeGrid(t_start=-1.0, dt=0.01, n_samples=1024, pad_fraction=0.25)

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def zero_source(grid: TimeGrid, dim: int, nu: float = NU) -> WeightedSignal:
    return WeightedSignal(grid, nu, np.zeros((grid.n_samples, dim), dtype=np.complex128))


def step_source(grid: TimeGrid, amplitude, start: float = 0.0, nu: float = NU) -> WeightedSignal:
    a = np.atleast_1d(np.asarray(amplitude, dtype=np.complex128))
    samples = np.zeros((grid.n_samples, a.size), dtype=np.complex128)
    samples[grid.times >= start - 1e-9] = a
    return WeightedSignal(grid, nu, samples)


def sampled_source(grid: TimeGrid, func, dim: int, nu: float = NU) -> WeightedSignal:
    samples = np.zeros((grid.n_samples, dim), dtype=np.complex128)
    mask = grid.times >= -1e-9
    samples[mask] = np.array([func(t) for t in grid.times[mask]])
    return WeightedSignal(grid, nu, samples)


def make_ivp(M0, coupling, A, source, W0) -> AbstractIVP:
    W0 = np.asarray(W0, dtype=np.complex128)
    dim = W0.size
    if coupling is None:
        sym = MaterialSymbol(dim=dim)
    else:
        sym = MaterialSymbol(dim=dim, poly_coeffs=[np.asarray(coupling, dtype=np.complex128)])
    return AbstractIVP(dim=dim, M0=np.asarray(M0), M1=sym, A=np.asarray(A), source=source, W0=W0)


def random_skew(rng: np.random.Generator, dim: int) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (G - G.conj().T) / 2.0


class TestAbstractIVP:
    def test_rejects_nonhermitian_m0(self):
        src = zero_source(EXACT_GRID, 2)
        with pytest.raises(ValueError):
            make_ivp([[1.0, 0.5], [0.0, 1.0]], None, np.zeros((2, 2)), src, [1.0, 0.0])

    def test_rejects_indefinite_m0(self):
        src = zero_source(EXACT_GRID, 2)
        with pytest.raises(ValueError):
            make_ivp(np.diag([1.0, -1.0]), None, np.zeros((2, 2)), src, [1.0, 0.0])

    def test_rejects_nonskew_a(self):
        src = zero_source(EXACT_GRID, 2)
        with pytest.raises(ValueError):
            make_ivp(np.eye(2), None, np.eye(2), src, [1.0, 0.0])

    def test_rejects_noncausal_source(self):
        samples = np.ones((EXACT_GRID.n_samples, 2), dtype=np.complex128)
        src = WeightedSignal(EXACT_GRID, NU, samples)
        with pytest.raises(ValueError):
            make_ivp(np.eye(2), None, np.zeros((2, 2)), src, [1.0, 0.0])

    def test_rejects_channel_mismatch(self):
        src = zero_source(EXACT_GRID, 3)
        with pytest.raises(ValueError):
            make_ivp(np.eye(2), None, np.zeros((2, 2)), src, [1.0, 0.0])


class TestSemigroup:
    def test_zero_generator_is_step(self):
        w0 = np.array([1.0, -2.0 + 0.5j])
        sig = semigroup_apply(np.eye(2), np.zeros((2, 2)), w0, EXACT_GRID, NU)
        mask = EXACT_GRID.times >= -1e-9
        assert np.max(np.abs(sig.samples[mask] - w0[None, :])) < 1e-14
        assert np.all(sig.samples[~mask] == 0)

    def test_rotation_components(self):
        sig = semigroup_apply(np.eye(2), J2, np.array([1.0, 0.0]), EXACT_GRID, NU)
        mask = EXACT_GRID.times >= -1e-9
        t = EXACT_GRID.times[mask]
        expect = np.stack([np.cos(t), -np.sin(t)], axis=1)
        assert np.max(np.abs(sig.samples[mask] - expect)) < 1e-12

    def test_matches_closed_form_oracle(self):
        w0 = np.array([0.3 - 0.4j, 1.1 + 0.2j])
        sig = semigroup_apply(np.eye(2), J2, w0, EXACT_GRID, NU)
        expect = oracles.rotation_solution(1.0, 1.0, 1.0, w0, EXACT_GRID.times)
        assert np.max(np.abs(sig.samples - expect)) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    def test_norm_preservation(self, seed):
        rng = np.random.default_rng(seed)
        A = random_skew(rng, 4)
        w0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        sig = semigroup_apply(np.eye(4), A, w0, EXACT_GRID, NU)
        mask = EXACT_GRID.times >= -1e-9
        norms = np.linalg.norm(sig.samples[mask], axis=1)
        assert np.max(np.abs(norms - np.linalg.norm(w0))) < 1e-10

    def test_weighted_energy_preserved(self):
        # |sqrt(M0) u(t)| is constant, so the M0-weighted energy is too.
        M0 = np.diag([2.0, 0.5])
        w0 = np.array([1.0, 1.0j])
        sig = semigroup_apply(M0, J2, w0, EXACT_GRID, NU)
        mask = EXACT_GRID.times >= -1e-9
        u = sig.samples[mask]
        energy = np.einsum("ti,ij,tj->t", np.conj(u), M0, u).real
        assert np.max(np.abs(energy - energy[0])) < 1e-10 * energy[0]

    def test_exactly_zero_before_zero(self):
        sig = semigroup_apply(np.eye(2), J2, np.array([1.0, 0.0]), EXACT_GRID, NU)
        assert verify_causality(sig) == 0.0


class TestFixedPoint:
    def test_memoryless_converges_in_one_iteration(self):
        w0 = np.array([1.0, 0.5j])
        p = make_ivp(np.eye(2), None, J2, zero_source(EXACT_GRID, 2), w0)
        report = solve_fixed_point(p, NU)
        assert report.iterations == 1
        ref = semigroup_apply(np.eye(2), J2, w0, EXACT_GRID, NU)
        assert np.max(np.abs(report.solution.samples - ref.samples)) < 1e-13

    def test_scalar_step_response(self):
        alpha = 0.5
        p = make_ivp([[1.0]], [[alpha]], [[0.0]], step_source(FP_GRID, [1.0]), [0.0])
        report = solve_fixed_point(p, NU, tol=1e-12)
        mask = FP_GRID.times >= -1e-9
        expect = oracles.scalar_step_response(alpha, FP_GRID.times[mask])
        err = np.max(np.abs(report.solution.samples[mask, 0] - expect))
        assert err < 1e-6
        assert report.final_residual < 1e-5
        assert report.contraction_estimate == pytest.approx(alpha / NU)

    @pytest.mark.parametrize("factor", [2.0, 4.0, 8.0])
    def test_geometric_ratio_bound(self, factor):
        sup_m1 = 0.6
        nu = factor * sup_m1
        rng = np.random.default_rng(7)
        w0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        p = make_ivp(np.eye(2), sup_m1 * J2, np.zeros((2, 2)),
                     step_source(FP_GRID, [0.4, -0.2], nu=nu), w0)
        report = solve_fixed_point(p, nu, tol=1e-12)
        bound = sup_m1 / nu
        assert report.update_ratios, "expected at least two updates"
        assert max(report.update_ratios) <= bound * 1.1

    def test_not_contractive_raises(self):
        p = make_ivp(np.eye(2), 2.5 * J2, np.zeros((2, 2)),
                     zero_source(EXACT_GRID, 2), [1.0, 0.0])
        with pytest.raises(NotContractive):
            solve_fixed_point(p, NU)

    def test_no_convergence_raises(self):
        p = make_ivp(np.eye(2), 1.8 * J2, np.zeros((2, 2)),
                     zero_source(EXACT_GRID, 2), [1.0, 0.0])
        with pytest.raises(NoConvergence):
            solve_fixed_point(p, NU, max_iter=3, tol=1e-14)

    def test_strong_causality_of_shifted_source(self):
        start = 1.0
        p = make_ivp(np.eye(2), 0.5 * J2, np.zeros((2, 2)),
                     step_source(FP_GRID, [1.0, 0.3], start=start), [0.0, 0.0])
        report = solve_fixed_point(p, NU, tol=1e-12)
        before = FP_GRID.times < start - 1e-9
        assert np.max(np.abs(report.solution.samples[before])) == 0.0
        assert verify_causality(report) == 0.0

    def test_zero_data_zero_solution(self):
        p = make_ivp(np.eye(2), 0.5 * J2, np.zeros((2, 2)),
                     zero_source(EXACT_GRID, 2), [0.0, 0.0])
        report = solve_fixed_point(p, NU)
        assert np.all(report.solution.samples == 0)
        assert report.final_residual == 0.0


MEMORY_LAW = dict(kappa0=np.diag([2.5, 2.5]), kappa1=MaterialSymbol(dim=2, poly_coeffs=[np.diag([0.4, 0.4])]),
                  Mstar0=np.diag([1.0, 0.5]))
MEMORY_GRID = TimeGrid(t_start=-0.05, dt=0.0005, n_samples=512, pad_fraction=0.25)


def memory_law_scenario(table, nu, grid=MEMORY_GRID, **extra) -> GeneralizedScenario:
    """The memory law with a seeded random jump on every mode."""
    rng = np.random.default_rng(11)
    e, h = (rng.standard_normal(table.n_modes) + 1j * rng.standard_normal(table.n_modes) for _ in range(2))
    return GeneralizedScenario(nu=nu, K=table.K, grid=grid, W0=FieldPair(SpectralField(table, e), SpectralField(table, h)),
                               **MEMORY_LAW, **extra)


def random_group(rng, dim, n_coeffs, n_blocks, grid):
    """A random selfadjoint M0, polynomial M1 and causal data for n_blocks blocks."""
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    M0 = X @ X.conj().T + dim * np.eye(dim)
    M1 = MaterialSymbol(dim=dim, poly_coeffs=[rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                                              for _ in range(n_coeffs)])
    source = rng.standard_normal((grid.n_samples, n_blocks, dim)) + 1j * rng.standard_normal((grid.n_samples, n_blocks, dim))
    source[:grid.zero_index] = 0.0
    return M0, M1, source, rng.standard_normal((n_blocks, dim)) + 1j * rng.standard_normal((n_blocks, dim))


class TestMarch:
    @pytest.mark.parametrize("k_cross", [None, [0.3, 0.1, 0.2]], ids=["memory_2x2", "k_cross_6x6"])
    def test_matches_picard_limit(self, table_k1, monkeypatch, k_cross):
        # The march solves the system whose fixed point Picard approaches, so at
        # a Picard tolerance of 1e-13 only the Picard stop error separates them.
        grid = TimeGrid(t_start=-0.1, dt=0.001, n_samples=512, pad_fraction=0.25)
        g = memory_law_scenario(table_k1, 3.0, grid, k_cross=k_cross)
        groups = []

        def record(*args):
            groups.append(args)
            return solve_propagator_blocks(*args)

        monkeypatch.setattr(dbf_model, "solve_propagator_blocks", record)
        solve(g, "auto")
        assert {args[1].dim for args in groups} == {2 if k_cross is None else 6}
        for M0, M1, source, w0, *_ in groups:
            marched = solve_march_blocks(M0, M1, source, w0, grid)
            picard = solve_fixed_point_blocks(M0, M1, np.zeros_like(M0), source, w0, grid, g.nu, tol=1e-13)[0]
            assert np.max(np.abs(marched - picard)) <= 1e-12 * np.max(np.abs(picard))

    @pytest.mark.parametrize("dim, n_coeffs", [(2, 3), (6, 2), (2, 0)])
    def test_stacked_columns_match_one_block_calls(self, rng, dim, n_coeffs):
        M0, M1, source, w0 = random_group(rng, dim, n_coeffs, 5, MEMORY_GRID)
        stacked = solve_march_blocks(M0, M1, source, w0, MEMORY_GRID)
        for b in range(5):
            alone = solve_march_blocks(M0, M1, source[:, b:b + 1], w0[b:b + 1], MEMORY_GRID)
            assert alone.tobytes() == np.ascontiguousarray(stacked[:, b:b + 1]).tobytes()

    def test_never_reads_rows_before_zero(self, rng):
        grid = TimeGrid(t_start=-0.25, dt=0.05, n_samples=40)
        M0, M1, _, w0 = random_group(rng, 2, 3, 3, grid)
        clean, poisoned = _clean_and_poisoned(rng, grid, (grid.n_samples, 3, 2))
        _assert_window_only(solve_march_blocks(M0, M1, clean, w0, grid),
                            solve_march_blocks(M0, M1, poisoned, w0, grid), grid)

    def test_scalar_step_response(self):
        alpha = 0.5
        M1 = MaterialSymbol(dim=1, poly_coeffs=[np.array([[alpha]])])
        source = step_source(FP_GRID, [1.0]).samples[:, None]
        u = solve_march_blocks(np.eye(1), M1, source, np.zeros((1, 1)), FP_GRID)[:, 0, 0]
        mask = FP_GRID.times >= -1e-9
        assert np.max(np.abs(u[mask] - oracles.scalar_step_response(alpha, FP_GRID.times[mask]))) < 1e-6

    def test_rejects_delays(self):
        M1 = delay_symbol(-0.1, np.eye(2))
        with pytest.raises(WrongCase):
            solve_march_blocks(np.eye(2), M1, np.zeros((EXACT_GRID.n_samples, 1, 2)), np.ones((1, 2)), EXACT_GRID)

    def test_auto_solves_where_picard_is_not_contractive(self, table_k2):
        # At nu = 3 the lambda = -2 group's contraction estimate is 1.6, so Picard
        # cannot start.  Neither the law nor the march uses nu, so the nu = 8 solve
        # gives the same bytes, also late in the long dt = 0.01 window, where a
        # nu-dependent truncation of the law would grow like t^p / p!.
        for grid in (MEMORY_GRID, TimeGrid(t_start=-0.05, dt=0.01, n_samples=900, pad_fraction=0.25)):
            g3 = memory_law_scenario(table_k2, 3.0, grid)
            with pytest.raises(NotContractive):
                solve(g3, "fixed_point")
            h3 = solve(g3, "auto")
            h8 = solve(memory_law_scenario(table_k2, 8.0, grid), "auto")
            for a, b in ((h3.E, h8.E), (h3.H, h8.H), (h3.D, h8.D), (h3.B, h8.B)):
                assert a.tobytes() == b.tobytes()


class TestPropagator:
    @pytest.mark.parametrize("scale", [0.0, 0.5, 4.0, 60.0], ids=["zero", "small", "below_theta13", "above_theta13"])
    def test_expm_matches_scipy(self, rng, scale):
        from scipy.linalg import expm

        A = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        A *= scale / max(np.linalg.norm(A, 1), 1e-300)
        assert np.linalg.norm(A, 1) == pytest.approx(scale)
        ref = expm(A)
        assert np.max(np.abs(evo_solver._expm(A) - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dim, n_coeffs", [(2, 3), (6, 2), (2, 0)])
    def test_stacked_columns_match_one_block_calls(self, rng, dim, n_coeffs):
        M0, M1, source, w0 = random_group(rng, dim, n_coeffs, 5, MEMORY_GRID)
        lift = [rng.standard_normal((dim, dim)) for _ in range(n_coeffs + 1)]
        stacked = solve_propagator_blocks(M0, M1, source, w0, MEMORY_GRID, lift)
        for b in range(5):
            alone = solve_propagator_blocks(M0, M1, source[:, b:b + 1], w0[b:b + 1], MEMORY_GRID, lift)
            for one, many in zip(alone, stacked):
                assert one.tobytes() == np.ascontiguousarray(many[:, b:b + 1]).tobytes()

    def test_never_reads_rows_before_zero(self, rng):
        grid = TimeGrid(t_start=-0.25, dt=0.05, n_samples=40)
        M0, M1, _, w0 = random_group(rng, 2, 3, 3, grid)
        lift = [rng.standard_normal((2, 2)) for _ in range(4)]
        clean, poisoned = _clean_and_poisoned(rng, grid, (grid.n_samples, 3, 2))
        for out_clean, out_poisoned in zip(solve_propagator_blocks(M0, M1, clean, w0, grid, lift),
                                           solve_propagator_blocks(M0, M1, poisoned, w0, grid, lift)):
            _assert_window_only(out_clean, out_poisoned, grid)

    def test_rejects_delays(self):
        M1 = delay_symbol(-0.1, np.eye(2))
        with pytest.raises(WrongCase):
            solve_propagator_blocks(np.eye(2), M1, np.zeros((EXACT_GRID.n_samples, 1, 2)), np.ones((1, 2)), EXACT_GRID)

    def test_memory_jump_data_matches_refined_solve(self, table_k2):
        # Jump data is stepped exactly, so a solve at dt/8 agrees up to roundoff;
        # the trapezoid march it replaced was 6e-7 apart.
        fine_grid = TimeGrid(t_start=-0.05, dt=MEMORY_GRID.dt / 8, n_samples=800 + 8 * 411 + 1)
        coarse = solve(memory_law_scenario(table_k2, 9.0), "auto")
        fine = solve(memory_law_scenario(table_k2, 9.0, fine_grid), "auto")
        z, zf = MEMORY_GRID.zero_index, fine_grid.zero_index
        assert fine_grid.times[zf] == 0.0 and MEMORY_GRID.n_samples - z == 412
        for a, b in ((coarse.E, fine.E), (coarse.H, fine.H), (coarse.D, fine.D), (coarse.B, fine.B)):
            assert np.max(np.abs(a[z:] - b[zf::8])) <= 1e-11 * np.max(np.abs(b))
        assert coarse.diagnostics["weak_residual"] <= 1e-11

    def test_delayed_step_source_matches_closed_form(self):
        # A step is held from its first nonzero sample on, as the closed form takes it;
        # ramping into an onset after t = 0 over one cell was 3.2e-3 off.
        w0, amp, c = np.array([1.0, 0.5]), np.array([0.2, -0.3]), 2.0 / 3.0
        p = make_ivp(np.diag([1.5, 0.5]), c * J2, np.zeros((2, 2)), step_source(EXACT_GRID, amp, 0.5), w0)
        assert np.max(np.abs(solve_integrator(p, NU).samples - solve_modal_exact(p, NU).samples)) <= 1e-12

    def test_skew_a_folds_into_order_zero(self):
        # The rotation c J given as the skew A is the same operator as M1 = c J.
        w0, amp, c = np.array([1.0, 0.5]), np.array([0.2, -0.3]), 2.0 / 3.0
        M0 = np.diag([1.5, 0.5])
        as_skew = solve_integrator(make_ivp(M0, None, c * J2, step_source(EXACT_GRID, amp), w0), NU)
        exact = solve_modal_exact(make_ivp(M0, c * J2, np.zeros((2, 2)), step_source(EXACT_GRID, amp), w0), NU)
        assert np.max(np.abs(as_skew.samples - exact.samples)) <= 1e-12


class TestModalExact:
    def test_zero_coupling_gives_constant(self):
        eps, mu = 2.0, 0.5
        w0 = np.array([1.0, -1.0 + 2.0j])
        p = make_ivp(np.diag([eps, mu]), None, np.zeros((2, 2)),
                     zero_source(EXACT_GRID, 2), w0)
        sig = solve_modal_exact(p, NU)
        mask = EXACT_GRID.times >= -1e-9
        expect = np.array([w0[0] / eps, w0[1] / mu])
        np.testing.assert_array_equal(sig.samples[mask], np.broadcast_to(expect, (mask.sum(), 2)))
        assert np.all(sig.samples[~mask] == 0)

    def test_rotation_matches_rk4_oracle(self):
        c = 2.0 / 3.0
        w0 = np.array([1.0, 0.25 - 0.5j])
        p = make_ivp(np.eye(2), c * J2, np.zeros((2, 2)), zero_source(EXACT_GRID, 2), w0)
        sig = solve_modal_exact(p, NU)
        dt_fine = 1e-4
        n_steps = 50000
        ref = oracles.dbf_mode_rk4(1.0, 1.0, c, w0, dt_fine, n_steps)
        stride = int(round(EXACT_GRID.dt / dt_fine))
        mask = np.nonzero(EXACT_GRID.times >= -1e-9)[0]
        worst = 0.0
        for j, i in enumerate(mask):
            k = j * stride
            if k >= len(ref):
                break
            worst = max(worst, float(np.max(np.abs(sig.samples[i] - ref[k]))))
        assert worst < 1e-8

    def test_energy_conservation(self):
        eps, mu, c = 1.5, 0.75, 2.0 / 3.0
        w0 = np.array([0.8, -0.6j])
        p = make_ivp(np.diag([eps, mu]), c * J2, np.zeros((2, 2)),
                     zero_source(EXACT_GRID, 2), w0)
        sig = solve_modal_exact(p, NU)
        mask = EXACT_GRID.times >= -1e-9
        u = sig.samples[mask]
        energy = eps * np.abs(u[:, 0]) ** 2 + mu * np.abs(u[:, 1]) ** 2
        assert np.max(np.abs(energy - energy[0])) <= 1e-12 * energy[0]

    def test_step_source_matches_rk4_oracle(self):
        eps, mu, c = 1.5, 0.5, 2.0 / 3.0
        w0 = np.array([0.2 + 0.1j, -0.4])
        amp = np.array([0.3, -0.1])
        p = make_ivp(np.diag([eps, mu]), c * J2, np.zeros((2, 2)),
                     step_source(EXACT_GRID, amp), w0)
        sig = solve_modal_exact(p, NU)
        dt_fine = 1e-4
        ref = oracles.dbf_mode_rk4(eps, mu, c, w0, dt_fine, 50000, forcing=lambda t: amp)
        stride = int(round(EXACT_GRID.dt / dt_fine))
        mask = np.nonzero(EXACT_GRID.times >= -1e-9)[0]
        worst = 0.0
        for j, i in enumerate(mask):
            k = j * stride
            if k >= len(ref):
                break
            worst = max(worst, float(np.max(np.abs(sig.samples[i] - ref[k]))))
        assert worst < 1e-8

    def test_smooth_source_duhamel_fallback(self):
        eps, mu, c = 1.0, 1.0, 0.8
        w0 = np.array([0.0, 0.0])
        amp = np.array([1.0, 0.5])

        def forcing(t):
            return amp * (1.0 - np.cos(t)) * np.exp(-0.2 * t)

        p = make_ivp(np.diag([eps, mu]), c * J2, np.zeros((2, 2)),
                     sampled_source(EXACT_GRID, forcing, 2), w0)
        sig = solve_modal_exact(p, NU)
        dt_fine = 1e-4
        ref = oracles.dbf_mode_rk4(eps, mu, c, w0, dt_fine, 50000, forcing=forcing)
        stride = int(round(EXACT_GRID.dt / dt_fine))
        mask = np.nonzero(EXACT_GRID.times >= -1e-9)[0]
        worst = 0.0
        for j, i in enumerate(mask):
            k = j * stride
            if k >= len(ref):
                break
            worst = max(worst, float(np.max(np.abs(sig.samples[i] - ref[k]))))
        assert worst < 1e-6

    def test_wrong_case_rejections(self):
        src = zero_source(EXACT_GRID, 2)
        with pytest.raises(WrongCase):
            solve_modal_exact(make_ivp(np.eye(2), None, J2, src, [1.0, 0.0]), NU)
        with pytest.raises(WrongCase):
            solve_modal_exact(
                make_ivp(np.eye(2), [[0.0, 0.5], [0.5, 0.0]], np.zeros((2, 2)), src, [1.0, 0.0]),
                NU,
            )
        sym = MaterialSymbol(dim=2, delays=[(-0.1, 0.5 * J2)], radius=1.0)
        p3 = AbstractIVP(dim=2, M0=np.eye(2), M1=sym, A=np.zeros((2, 2)), source=src,
                         W0=np.array([1.0, 0.0]))
        with pytest.raises(WrongCase):
            solve_modal_exact(p3, NU)


class TestIntegrator:
    def test_second_order_against_exact(self):
        eps, mu, c = 1.0, 1.0, 2.0 / 3.0
        w0 = np.array([1.0, 0.5])
        amp = np.array([0.2, -0.3])
        errs = []
        for scale in (1, 2):
            grid = TimeGrid(t_start=-1.0, dt=1.0 / (256 * scale),
                            n_samples=2048 * scale, pad_fraction=0.25)
            p = make_ivp(np.diag([eps, mu]), c * J2, np.zeros((2, 2)),
                         step_source(grid, amp), w0)
            approx = solve_integrator(p, NU)
            exact = solve_modal_exact(p, NU)
            errs.append(float(np.max(np.abs(approx.samples - exact.samples))))
        # The step source is linear between samples, so the propagator is exact up to roundoff.
        assert max(errs) <= 1e-12

    def test_wrong_case_on_memory_symbol(self):
        sym = MaterialSymbol(dim=2, delays=[(-0.1, 0.5 * J2)], radius=1.0)
        p = AbstractIVP(dim=2, M0=np.eye(2), M1=sym, A=np.zeros((2, 2)),
                        source=zero_source(EXACT_GRID, 2), W0=np.array([1.0, 0.0]))
        with pytest.raises(WrongCase):
            solve_integrator(p, NU)


class TestVerifiers:
    def test_initial_value_semigroup(self):
        M0 = np.diag([2.0, 0.5])
        w0 = np.array([1.0, -1.0j])
        sig = semigroup_apply(M0, J2, w0, EXACT_GRID, NU)
        assert verify_initial_value(sig, M0, w0) <= 1e-10

    def test_initial_value_fixed_point_budget(self):
        w0 = np.array([1.0, -1.0])
        p = make_ivp(np.eye(2), 0.5 * J2, np.zeros((2, 2)),
                     zero_source(FP_GRID, 2), w0)
        report = solve_fixed_point(p, NU, tol=1e-12)
        budget = 10.0 * FP_GRID.dt * 0.5 * np.linalg.norm(w0)
        assert report.initial_value_error <= budget

    def test_initial_value_zero_datum(self):
        p = make_ivp(np.eye(2), 0.5 * J2, np.zeros((2, 2)),
                     step_source(FP_GRID, [1.0, 0.0]), [0.0, 0.0])
        report = solve_fixed_point(p, NU, tol=1e-12)
        assert verify_initial_value(report, np.eye(2), np.zeros(2)) <= 1e-10

    def test_regularity_split_exact_zero(self):
        w0 = np.array([1.0, 2.0])
        sig = semigroup_apply(np.eye(2), np.zeros((2, 2)), w0, EXACT_GRID, NU)
        assert verify_regularity_ode(sig, np.eye(2), w0) == 0.0

    def test_regularity_split_small_on_transformed_block(self):
        M0 = np.diag([2.0, 0.5])
        w0 = np.array([1.0, 2.0])
        sig = semigroup_apply(M0, np.zeros((2, 2)), w0, EXACT_GRID, NU)
        assert verify_regularity_ode(sig, M0, w0) <= 1e-12

    def test_regularity_split_stable_raw_divergent(self):
        alpha, w0 = 0.5, np.array([1.0])
        split_norms, raw_norms = [], []
        for scale in (1, 2, 4):
            grid = TimeGrid(t_start=-1.0, dt=1.0 / (256 * scale),
                            n_samples=2048 * scale, pad_fraction=0.25)
            p = make_ivp([[1.0]], [[alpha]], [[0.0]], zero_source(grid, 1), w0)
            report = solve_fixed_point(p, NU, tol=1e-12)
            split_norms.append(verify_regularity_ode(report, p.M0, w0))
            raw_norms.append(sobolev_norm(report.solution, 1))
        for coarse, fine in zip(split_norms, split_norms[1:]):
            assert fine <= 1.5 * coarse
        for coarse, fine in zip(raw_norms, raw_norms[1:]):
            assert fine >= 1.3 * coarse

    def test_regularity_wrong_case(self):
        sig = semigroup_apply(np.eye(2), J2, np.array([1.0, 0.0]), EXACT_GRID, NU)
        with pytest.raises(WrongCase):
            verify_regularity_ode(sig, np.eye(2), np.array([1.0, 0.0]), A=J2)

    def test_causality_zero_data(self):
        p = make_ivp(np.eye(2), None, np.zeros((2, 2)), zero_source(EXACT_GRID, 2), [0.0, 0.0])
        report = solve_fixed_point(p, NU)
        assert verify_causality(report) == 0.0


class TestCrossMethod:
    def test_method_agreement(self):
        eps, mu, c = 1.5, 0.5, 2.0 / 3.0
        w0 = np.array([1.0, -0.5])
        amp = np.array([0.2, 0.1])
        nu = 4.0
        p = make_ivp(np.diag([eps, mu]), c * J2, np.zeros((2, 2)),
                     step_source(FP_GRID, amp, nu=nu), w0)
        tol = 1e-10
        exact = solve_modal_exact(p, nu)
        fixed = solve_fixed_point(p, nu, tol=tol).solution
        stepped = solve_integrator(p, nu)
        budget = max(1e-6, 10 * tol)
        # The iterative solver terminates on the weighted norm, so agreement
        # is measured there; raw late-time gaps amplify by exp(nu (t - t0)).
        assert weighted_norm(WeightedSignal(exact.grid, exact.nu, exact.samples - fixed.samples)) < budget
        assert weighted_norm(WeightedSignal(exact.grid, exact.nu, exact.samples - stepped.samples)) < budget

    @given(seed=st.integers(0, 2**32 - 1))
    def test_linearity_of_exact_solver(self, seed):
        rng = np.random.default_rng(seed)
        eps, mu, c = 1.0, 2.0, 0.5
        M0 = np.diag([eps, mu])
        a = complex(rng.standard_normal(), rng.standard_normal())
        w1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)

        def solve(w0, amp):
            p = make_ivp(M0, c * J2, np.zeros((2, 2)), step_source(EXACT_GRID, amp), w0)
            return solve_modal_exact(p, NU).samples

        combined = solve(a * w1 + w2, a * s1 + s2)
        split = a * solve(w1, s1) + solve(w2, s2)
        scale = max(np.max(np.abs(split)), 1.0)
        assert np.max(np.abs(combined - split)) < 1e-10 * scale

    def test_linearity_of_fixed_point(self):
        rng = np.random.default_rng(11)
        w1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)

        def solve(w0, amp):
            p = make_ivp(np.eye(2), 0.5 * J2, np.zeros((2, 2)),
                         step_source(FP_GRID, amp), w0)
            return solve_fixed_point(p, NU, tol=1e-12).solution

        combined = solve(w1 + w2, [0.3, 0.5])
        split = solve(w1, [0.3, 0.0]).samples + solve(w2, [0.0, 0.5]).samples
        gap = weighted_norm(WeightedSignal(combined.grid, combined.nu, combined.samples - split))
        assert gap < 1e-10

    def test_continuous_dependence_constant(self):
        # Ten sources with a shared envelope and tone set; the gain of the
        # solution map then concentrates, and a single fitted constant covers
        # the corpus within 20 percent.
        rng = np.random.default_rng(3)
        alpha, nu = 0.5, 2.0
        mask = FP_GRID.times >= -1e-9
        t = FP_GRID.times[mask]
        envelope = oracles.bump(t, 0.25, 4.75)
        ratios = []
        for _ in range(10):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            wave = sum(a[m] * np.exp(1j * m * t) for m in range(3))
            samples = np.zeros((FP_GRID.n_samples, 1), dtype=np.complex128)
            samples[mask, 0] = envelope * wave
            src = WeightedSignal(FP_GRID, nu, samples)
            p = make_ivp([[1.0]], [[alpha]], [[0.0]], src, [0.0])
            report = solve_fixed_point(p, nu, tol=1e-12)
            data_size = weighted_norm(src)
            ratios.append(weighted_norm(report.solution) / data_size)
        ratios = np.array(ratios)
        # Theoretical gain of (d/dt + alpha)^-1 on the weighted space.
        assert np.max(ratios) <= 1.0 / (nu * (1.0 - alpha / nu)) * 1.01
        fitted = float(np.mean(ratios))
        assert np.max(np.abs(ratios - fitted)) <= 0.2 * fitted

    def test_weak_residual_flags_corruption(self):
        eps, mu, c = 1.0, 1.0, 2.0 / 3.0
        w0 = np.array([1.0, 0.0])
        p = make_ivp(np.diag([eps, mu]), c * J2, np.zeros((2, 2)),
                     zero_source(FP_GRID, 2), w0)
        sig = solve_modal_exact(p, NU)
        _, clean = weak_residual(p, sig)
        assert clean < 1e-6
        bad = sig.samples.copy()
        bad[:, 0] *= 1.01
        _, dirty = weak_residual(p, WeightedSignal(sig.grid, sig.nu, bad))
        assert dirty > 1e-3
