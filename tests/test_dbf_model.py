"""Tests for classical chiral scenarios: reduction, solving, verification."""

import re

import numpy as np
import pytest

import oracles
import single_mode
from dbf import dbf_model
from dbf.curl_spectral import SpectralField, FieldPair
from dbf.dbf_model import (
    DBFScenario,
    FieldHistory,
    GeneralizedScenario,
    NonFiniteSolution,
    PairSeries,
    RangeViolation,
    solve,
)
from dbf.paper import (
    AbstractIVP,
    diagnose_naive_formulation,
    naive_symbol_value,
    projector_P,
    recover_DB,
    reduced_resolvent,
    solve_modal_exact,
    uniqueness_energy_probe,
    verify_dbf_equation,
)
from dbf.weighted_time import MaterialSymbol, TimeGrid, WeightedSignal, weighted_norm

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
GRID = TimeGrid(t_start=-1.0, dt=0.01, n_samples=1024, pad_fraction=0.25)


def field_pair(table, entries) -> FieldPair:
    """FieldPair with (position -> (e, h)) coefficients from a dict."""
    e = np.zeros(table.n_modes, dtype=np.complex128)
    h = np.zeros(table.n_modes, dtype=np.complex128)
    for i, (ev, hv) in entries.items():
        e[i] = ev
        h[i] = hv
    return FieldPair(SpectralField(table, e), SpectralField(table, h))


def step_series(table, grid, entries) -> PairSeries:
    """Step source loading the given modes for t >= 0."""
    mask = grid.times >= -1e-9
    return single_mode.source_series(table, grid, {i: (np.where(mask, ev, 0.0), np.where(mask, hv, 0.0))
                                                   for i, (ev, hv) in entries.items()})


def scenario(table, *, eta=0.5, nu=3.0, epsilon=1.0, mu=1.0, grid=GRID,
             W0=None, source=None) -> DBFScenario:
    if W0 is None:
        W0 = field_pair(table, {})
    return DBFScenario(epsilon=epsilon, mu=mu, eta=eta, nu=nu, K=table.K,
                       grid=grid, W0=W0, source_J=source)


def eh_gap(a: FieldHistory, b: FieldHistory, nu: float) -> float:
    diff = np.concatenate([a.E - b.E, a.H - b.H], axis=1)
    return weighted_norm(WeightedSignal(a.grid, nu, diff))


class TestDiagnose:
    def test_unit_parameters(self):
        report = diagnose_naive_formulation(1.0, 1.0, 0.5)
        np.testing.assert_array_equal(report.z0_coefficient, np.zeros((2, 2)))
        np.testing.assert_array_equal(report.z1_coefficient, 2.0 * J2)
        np.testing.assert_array_equal(report.z1_real_part, np.zeros((2, 2)))
        assert report.degenerate
        assert "degenerate" in report.verdict

    @pytest.mark.parametrize("eps,mu,eta", [(1.0, 1.0, 0.5), (2.0, 0.5, -0.7), (4.0, 1.0, 0.25)])
    def test_zero_order_always_vanishes(self, eps, mu, eta):
        report = diagnose_naive_formulation(eps, mu, eta)
        np.testing.assert_array_equal(report.z0_coefficient, np.zeros((2, 2)))
        assert np.max(np.abs(report.z1_real_part)) == 0.0
        assert report.degenerate

    def test_second_order_against_symbol_expansion(self):
        # Finite-difference the full symbol at small z to isolate the z^2 term.
        eps, mu, eta = 2.0, 0.5, 0.4
        report = diagnose_naive_formulation(eps, mu, eta)
        a = 1.0 / (eta * np.sqrt(eps * mu))
        np.testing.assert_allclose(report.z2_coefficient, a * a * np.eye(2), rtol=0.0, atol=1e-14)
        z = 1e-5
        plus = naive_symbol_value(eps, mu, eta, z)
        minus = naive_symbol_value(eps, mu, eta, -z)
        # The even part of the symbol starts at z^2, so this quotient has
        # only an O(z^2) remainder.
        extracted = (plus + minus) / (2.0 * z**2)
        np.testing.assert_allclose(extracted.real, report.z2_coefficient, rtol=0.0, atol=1e-6)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            diagnose_naive_formulation(-1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            diagnose_naive_formulation(1.0, 1.0, 0.0)


class TestCheckDataRange:
    """solve's setup rejects data on the kernel of (1 + eta curl) before any block is solved."""

    def test_eta_half_passes_on_k1(self, table_k1, rng):
        # No eigenvalue of the K = 1 table equals -2, so any data is in range.
        coeffs = rng.standard_normal(table_k1.n_modes) + 1j * rng.standard_normal(table_k1.n_modes)
        W0 = FieldPair(SpectralField(table_k1, coeffs), SpectralField(table_k1, coeffs[::-1].copy()))
        h = solve(scenario(table_k1, eta=0.5, W0=W0), "exact")
        assert h.diagnostics["kernel_modes"] == []

    def test_eta_half_rejects_kernel_mode_on_k2(self, table_k2):
        i = table_k2.position((2, 0, 0), "minus")
        W0 = field_pair(table_k2, {i: (1.0, 0.0)})
        with pytest.raises(RangeViolation, match=re.escape(
                "data loads 1 kernel mode(s) of (1 + eta curl): [(\"((2, 0, 0), 'minus', None)\", 1.0)], "
                "max |coeff| = 1")):
            solve(scenario(table_k2, eta=0.5, W0=W0), "exact")

    def test_eta_minus_one_rejects_unit_plus_mode(self, table_k1):
        i = table_k1.position((0, 1, 0), "plus")
        W0 = field_pair(table_k1, {i: (1.0, 0.0)})
        with pytest.raises(RangeViolation, match=r"^data loads 1 kernel mode\(s\) "):
            solve(scenario(table_k1, eta=-1.0, W0=W0), "exact")

    def test_source_loading_is_checked(self, table_k1):
        i = table_k1.position((1, 0, 0), "plus")
        source = step_series(table_k1, GRID, {i: (0.0, 0.5)})
        with pytest.raises(RangeViolation, match=r"^data loads 1 kernel mode\(s\) .*, max \|coeff\| = 0\.5$"):
            solve(scenario(table_k1, eta=-1.0, source=source), "exact")

    def test_zero_data_passes(self, table_k1):
        h = solve(scenario(table_k1, eta=-1.0), "exact")
        assert len(h.diagnostics["kernel_modes"]) == 6
        assert np.all(h.E == 0) and np.all(h.H == 0)


class TestAssemble:
    def test_block_count_excludes_kernel(self, table_k1):
        j = table_k1.position((1, 0, 0), "minus")
        s = scenario(table_k1, eta=-1.0, W0=field_pair(table_k1, {j: (1.0, 0.0)}))
        assert len(solve(s, "exact").diagnostics["kernel_modes"]) == 6
        assert len(single_mode.dbf_blocks(s)) == table_k1.n_modes - 6

    def test_unit_mode_coupling_and_scaling(self, table_k1):
        i = table_k1.position((1, 0, 0), "plus")
        s = scenario(table_k1, eta=0.5, epsilon=2.0, mu=0.5,
                     W0=field_pair(table_k1, {i: (1.0, -0.5j)}))
        ivp = single_mode.dbf_blocks(s)[i]
        np.testing.assert_array_equal(ivp.M0, np.diag([2.0, 0.5]).astype(complex))
        np.testing.assert_allclose(ivp.M1.poly_coeffs[0], (2.0 / 3.0) * J2, rtol=0, atol=1e-15)
        np.testing.assert_allclose(ivp.W0, np.array([1.0, -0.5j]) / 1.5, rtol=0, atol=1e-15)
        assert np.all(ivp.A == 0)

    def test_const_mode_block_has_no_coupling(self, table_k1):
        i = table_k1.position((0, 0, 0), "const", 0)
        s = scenario(table_k1, W0=field_pair(table_k1, {i: (1.0, 0.0)}))
        ivp = single_mode.dbf_blocks(s)[i]
        assert not any(np.any(C) for C in ivp.M1.poly_coeffs)
        assert not ivp.M1.delays

    def test_range_violation_raises(self, table_k1):
        i = table_k1.position((1, 0, 0), "plus")
        s = scenario(table_k1, eta=-1.0, W0=field_pair(table_k1, {i: (1.0, 0.0)}))
        with pytest.raises(RangeViolation):
            solve(s, "exact")


class TestSolveDBF:
    def test_zero_data_zero_history(self, table_k1):
        s = scenario(table_k1)
        history = solve(s, "exact")
        for arr in (history.E, history.H, history.D, history.B):
            assert np.all(arr == 0)
        assert history.diagnostics["weak_residual"] == 0.0
        assert uniqueness_energy_probe(history, s) == 0.0

    def test_single_mode_rotation(self, table_k1):
        i = table_k1.position((1, 0, 0), "plus")
        s = scenario(table_k1, eta=0.5, W0=field_pair(table_k1, {i: (1.0, 0.0)}))
        history = solve(s, "exact")
        # Reduced datum is W0 / (1 + eta), so the mode rotates at
        # omega = 2/3 from (2/3, 0).
        expect = oracles.rotation_solution(1.0, 1.0, 2.0 / 3.0,
                                           np.array([1.0 / 1.5, 0.0]), GRID.times)
        assert np.max(np.abs(history.E[:, i] - expect[:, 0])) < 1e-12
        assert np.max(np.abs(history.H[:, i] - expect[:, 1])) < 1e-12
        other = np.ones(table_k1.n_modes, dtype=bool)
        other[i] = False
        assert np.all(history.E[:, other] == 0)
        assert history.diagnostics["initial_value_error"] <= 1e-8
        assert history.diagnostics["causality_sup"] <= 1e-10
        assert history.diagnostics["weak_residual"] <= 1e-8

    def test_flux_pair_initial_value(self, table_k1, rng):
        entries = {}
        for k, hel in [((1, 0, 0), "plus"), ((0, 1, 0), "minus"), ((0, 0, 1), "grad")]:
            i = table_k1.position(k, hel)
            entries[i] = (complex(rng.standard_normal(), rng.standard_normal()),
                          complex(rng.standard_normal(), rng.standard_normal()))
        s = scenario(table_k1, eta=0.5, epsilon=1.5, mu=0.5,
                     W0=field_pair(table_k1, entries))
        history = solve(s, "exact")
        assert history.diagnostics["initial_value_error"] <= 1e-8

    def test_fixed_point_agrees_with_exact(self, table_k1):
        i = table_k1.position((1, 0, 0), "plus")
        W0 = field_pair(table_k1, {i: (1.0, 0.0)})
        s = scenario(table_k1, eta=0.5, nu=8.0, W0=W0)
        exact = solve(s, "exact")
        fixed = solve(s, "fixed_point")
        assert eh_gap(exact, fixed, 8.0) < 1e-6
        assert fixed.diagnostics["iterations"] >= 1

    def test_integrator_agrees_with_exact(self, table_k1):
        i = table_k1.position((1, 0, 0), "minus")
        s = scenario(table_k1, eta=0.5, nu=3.0, W0=field_pair(table_k1, {i: (0.5, 1.0)}))
        exact = solve(s, "exact")
        stepped = solve(s, "integrator")
        assert eh_gap(exact, stepped, 3.0) < 1e-4

    def test_kernel_coefficients_exactly_zero(self, table_k1):
        j = table_k1.position((1, 0, 0), "minus")
        s = scenario(table_k1, eta=-1.0, W0=field_pair(table_k1, {j: (1.0, -1.0)}))
        history = solve(s, "exact")
        kernel = table_k1.kernel_mask(-1.0)
        assert int(kernel.sum()) == 6
        for arr in (history.E, history.H, history.D, history.B):
            assert np.all(arr[:, kernel] == 0)
        assert history.diagnostics["weak_residual"] <= 1e-6

    def test_source_driven_run_is_causal(self, table_k1):
        i = table_k1.position((1, 0, 0), "plus")
        source = step_series(table_k1, GRID, {i: (0.4, 0.0)})
        s = scenario(table_k1, eta=0.5, source=source)
        history = solve(s, "exact")
        assert history.diagnostics["causality_sup"] <= 1e-10
        assert history.diagnostics["initial_value_error"] <= 1e-8
        assert np.any(history.E[:, i] != 0)

    def test_doubling_data_doubles_solution(self, table_k1):
        i = table_k1.position((0, 1, 0), "plus")
        W0 = field_pair(table_k1, {i: (0.7, -0.2j)})
        W0_double = field_pair(table_k1, {i: (1.4, -0.4j)})
        a = solve(scenario(table_k1, W0=W0), "exact")
        b = solve(scenario(table_k1, W0=W0_double), "exact")
        scale = np.max(np.abs(b.E))
        assert np.max(np.abs(b.E - 2.0 * a.E)) <= 1e-12 * scale
        assert np.max(np.abs(b.H - 2.0 * a.H)) <= 1e-12 * scale

    def test_perturbation_gain_is_stable(self, table_k1, rng):
        i = table_k1.position((1, 0, 0), "plus")
        base = field_pair(table_k1, {i: (1.0, 0.0)})
        base_history = solve(scenario(table_k1, W0=base), "exact")
        ratios = []
        for _ in range(5):
            delta = complex(rng.standard_normal(), rng.standard_normal()) * 0.1
            bumped = field_pair(table_k1, {i: (1.0 + delta, 0.0)})
            history = solve(scenario(table_k1, W0=bumped), "exact")
            ratios.append(eh_gap(history, base_history, 3.0) / abs(delta))
        ratios = np.array(ratios)
        # One mode, one linear map: the gain per unit perturbation is a
        # single constant.
        assert np.max(ratios) - np.min(ratios) <= 1e-9 * np.max(ratios)

    def test_invalid_method_rejected(self, table_k1):
        with pytest.raises(ValueError):
            solve(scenario(table_k1), "bogus")
        with pytest.raises(ValueError, match=re.escape(str(dbf_model.DBF_METHODS))):
            solve(scenario(table_k1), "auto")

    def test_near_kernel_forces_exact_with_warning(self, table_k1):
        i = table_k1.position((1, 0, 0), "plus")
        s = scenario(table_k1, eta=-0.9995, W0=field_pair(table_k1, {i: (1.0, 0.0)}))
        with pytest.warns(UserWarning, match="stiff"):
            history = solve(s, "fixed_point")
        assert history.diagnostics["near_kernel_modes"]
        assert np.all(np.isfinite(history.E))
        # The stiff mode still solves: rotation amplitude stays bounded.
        assert np.max(np.abs(history.E[:, i])) < 1e4


def mixed_data_scenario(table, *, eta, nu, loads):
    """Scenario whose modes carry the given kinds of data, all other modes none.

    loads maps (k, helicity, component) to one of "jump", "step", "delayed",
    "gaussian" or "jump+step"; every kind but "jump" is a source.
    """
    grid = TimeGrid(t_start=-0.1, dt=0.01, n_samples=256, pad_fraction=0.25)
    t = grid.times
    waves = {"step": (t >= -1e-9).astype(float), "delayed": (t >= 0.3 - 1e-9).astype(float),
             "gaussian": np.where(t >= -1e-9, np.exp(-((t - 0.4) ** 2) / (2 * 0.1 ** 2)), 0.0)}
    columns, jumps = {}, {}
    for n, ((k, hel, comp), kind) in enumerate(loads.items()):
        i = table.position(k, hel, comp)
        if "jump" in kind:
            # n = 0 is real data: its zero imaginary parts take both signs.
            jumps[i] = (-0.7 + 0.2j * n, 0.4 - 0.1j * (n % 2))
        for wave in kind.split("+"):
            if wave in waves:
                columns[i] = ((0.3 + 0.1j * n) * waves[wave], -0.2 * waves[wave])
    return DBFScenario(epsilon=1.5, mu=0.5, eta=eta, nu=nu, K=table.K, grid=grid,
                       W0=field_pair(table, jumps), source_J=single_mode.source_series(table, grid, columns))


def assert_same_bits(a, b):
    np.testing.assert_array_equal(a, b)
    # Signed zeros count: the CSV writer prints -0.0 as "-0".
    assert a.tobytes() == b.tobytes()


class TestStackedExact:
    """The stacked closed form against each mode solved alone, bit for bit."""

    def check_against_single_modes(self, s, history, modes, blocks):
        E = np.zeros_like(history.E)
        H = np.zeros_like(history.H)
        for i in modes:
            solo = solve_modal_exact(blocks[i], s.nu).samples
            E[:, i], H[:, i] = solo[:, 0], solo[:, 1]
        D, B = recover_DB(E, H, s)
        for i in modes:
            for got, want in ((history.E, E), (history.H, H), (history.D, D), (history.B, B)):
                assert_same_bits(got[:, i], want[:, i])

    def test_exact_matches_single_mode_solves(self, table_k2):
        loads = {
            ((1, 0, 0), "plus", None): "jump",
            ((1, 1, 0), "minus", None): "jump",
            ((0, 0, 1), "plus", None): "step",
            ((1, 0, 1), "minus", None): "delayed",
            ((0, 1, 1), "plus", None): "jump+gaussian",
            ((0, 0, 0), "const", 0): "jump",
            ((0, 0, 0), "const", 1): "step",
            ((0, 0, 0), "const", 2): "gaussian",
            ((0, 1, 0), "grad", None): "delayed",
            ((1, 1, 1), "minus", None): "jump+step",
        }
        s = mixed_data_scenario(table_k2, eta=0.5, nu=3.0, loads=loads)
        history = solve(s, "exact")
        loaded = [table_k2.position(*key) for key in loads]
        self.check_against_single_modes(s, history, loaded, single_mode.dbf_blocks(s))
        idle = np.setdiff1d(np.arange(table_k2.n_modes), loaded)
        assert len(history.diagnostics["kernel_modes"]) == 6
        for arr in (history.E, history.H, history.D, history.B):
            assert np.all(arr[:, idle] == 0)
            assert not np.any(np.signbit(arr[:, idle].real)) and not np.any(np.signbit(arr[:, idle].imag))

    def test_near_kernel_mode_under_fixed_point(self, table_k2):
        # 1 + eta lambda = 5e-4 on the lambda = 1 modes: stiff, so solved in closed form.
        loads = {((1, 0, 0), "plus", None): "jump+step", ((1, 0, 0), "minus", None): "jump",
                 ((0, 0, 0), "const", 0): "gaussian"}
        s = mixed_data_scenario(table_k2, eta=-(1.0 - 5e-4), nu=3.0, loads=loads)
        with pytest.warns(UserWarning, match="kernel"):
            history = solve(s, "fixed_point")
        blocks = single_mode.dbf_blocks(s)
        near = table_k2.position((1, 0, 0), "plus")
        assert str(table_k2.modes[near].key()) in history.diagnostics["near_kernel_modes"]
        assert history.diagnostics["iterations"] > 0
        self.check_against_single_modes(s, history, [near], blocks)

    def test_exact_builds_no_per_mode_problem(self, table_k2, monkeypatch):
        def refuse(self):
            raise AssertionError("the exact path built a per-mode AbstractIVP")

        s = mixed_data_scenario(table_k2, eta=0.5, nu=3.0, loads={
            ((1, 0, 0), "plus", None): "jump", ((0, 0, 1), "plus", None): "gaussian"})
        monkeypatch.setattr(AbstractIVP, "__post_init__", refuse)
        history = solve(s, "exact")
        assert np.any(history.E != 0)
        assert history.diagnostics["weak_residual"] < 1e-6


class TestRecoverDB:
    def test_curl_free_modes_scale_by_material_constants(self, table_k1, rng):
        eps, mu = 2.0, 0.5
        s = scenario(table_k1, epsilon=eps, mu=mu)
        E = rng.standard_normal(table_k1.n_modes) + 0j
        H = rng.standard_normal(table_k1.n_modes) + 0j
        D, B = recover_DB(E, H, s)
        flat = [i for i, m in enumerate(table_k1.modes) if m.helicity in ("grad", "const")]
        np.testing.assert_array_equal(D[flat], eps * E[flat])
        np.testing.assert_array_equal(B[flat], mu * H[flat])

    def test_unit_mode_scale(self, table_k1):
        i = table_k1.position((1, 0, 0), "plus")
        s = scenario(table_k1, eta=0.5, epsilon=2.0)
        E = np.zeros(table_k1.n_modes, dtype=np.complex128)
        E[i] = 1.0
        D, _ = recover_DB(E, np.zeros_like(E), s)
        assert D[i] == 1.5 * 2.0

    def test_round_trip_through_resolvent(self, table_k2, rng):
        eta, eps, mu = 0.5, 1.5, 0.75
        s = scenario(table_k2, eta=eta, epsilon=eps, mu=mu)
        e = rng.standard_normal(table_k2.n_modes) + 1j * rng.standard_normal(table_k2.n_modes)
        h = rng.standard_normal(table_k2.n_modes) + 1j * rng.standard_normal(table_k2.n_modes)
        E = SpectralField(table_k2, e)
        H = SpectralField(table_k2, h)
        D, B = recover_DB(E, H, s)
        back_e = reduced_resolvent(eta, D).coeffs / eps
        back_h = reduced_resolvent(eta, B).coeffs / mu
        pe = projector_P(eta, E).coeffs
        ph = projector_P(eta, H).coeffs
        assert np.max(np.abs(back_e - pe)) < 1e-14 * max(1.0, np.max(np.abs(pe)))
        assert np.max(np.abs(back_h - ph)) < 1e-14 * max(1.0, np.max(np.abs(ph)))


class TestVerifiers:
    def test_residual_zero_for_zero_history(self, table_k1):
        s = scenario(table_k1)
        history = solve(s, "exact")
        assert verify_dbf_equation(history, s) == 0.0

    def test_residual_flags_corrupted_history(self, table_k1):
        i = table_k1.position((1, 0, 0), "plus")
        s = scenario(table_k1, eta=0.5, nu=2.0, W0=field_pair(table_k1, {i: (2.0, 0.0)}))
        history = solve(s, "exact")
        assert verify_dbf_equation(history, s) <= 1e-8
        corrupted = FieldHistory(history.table, history.grid, history.nu,
                                 history.E * 1.01, history.H, history.D, history.B)
        assert verify_dbf_equation(corrupted, s) > 1e-3

    def test_uniqueness_probe_positive_for_injected_field(self, table_k1):
        s = scenario(table_k1)
        n, m = GRID.n_samples, table_k1.n_modes
        E = np.zeros((n, m), dtype=np.complex128)
        E[GRID.times >= 0, 0] = 1.0
        fake = FieldHistory(table_k1, GRID, s.nu, E, np.zeros_like(E),
                            np.zeros_like(E), np.zeros_like(E))
        assert uniqueness_energy_probe(fake, s) > 0.0

    def test_material_energy_conserved_without_source(self, table_k1):
        i = table_k1.position((1, 0, 0), "plus")
        s = scenario(table_k1, eta=0.5, epsilon=1.5, mu=0.5,
                     W0=field_pair(table_k1, {i: (1.0, -0.5j)}))
        history = solve(s, "exact")
        energy = history.energy[GRID.times >= -1e-9]
        assert np.max(np.abs(energy - energy[0])) <= 1e-12 * energy[0]

    def test_rotation_pairing_has_no_real_part(self, table_k1):
        i = table_k1.position((1, 0, 0), "plus")
        s = scenario(table_k1, eta=0.5, W0=field_pair(table_k1, {i: (1.0, 0.5j)}))
        history = solve(s, "exact")
        c = 2.0 / 3.0
        pairing = np.vdot(-c * history.H[:, i], history.E[:, i]) + np.vdot(
            c * history.E[:, i], history.H[:, i])
        assert abs(pairing.real) <= 1e-12 * abs(np.vdot(history.E[:, i], history.E[:, i]))


SHORT_GRID = TimeGrid(t_start=-0.1, dt=0.01, n_samples=64, pad_fraction=0.25)


class TestNonFiniteGuard:
    """One NaN or infinity anywhere in a solved history raises NonFiniteSolution."""

    @pytest.fixture(scope="class", params=["dbf", "generalized"])
    def solved(self, request, table_k1):
        plus, const = table_k1.position((1, 0, 0), "plus"), table_k1.position((0, 0, 0), "const", 0)
        W0 = field_pair(table_k1, {plus: (1.0, 0.5j), const: (0.3, -0.2)})
        source = step_series(table_k1, SHORT_GRID, {plus: (0.4, 0.0)})
        if request.param == "dbf":
            s, method = scenario(table_k1, grid=SHORT_GRID, W0=W0, source=source), "exact"
        else:
            s = GeneralizedScenario(kappa0=2.0 * np.eye(2), Mstar0=np.diag([1.0, 0.5]), nu=3.0, K=1,
                                    grid=SHORT_GRID, W0=W0, source_J=source,
                                    kappa1=MaterialSymbol(dim=2, poly_coeffs=[0.4 * np.eye(2)]))
            method = "auto"
        history = solve(s, method)
        fields = [np.array(np.asarray(a)) for a in (history.E, history.H, history.D, history.B)]
        assert all(np.all(np.isfinite(a)) for a in fields)
        return s, method, fields

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.inf)], ids=["nan", "inf", "complex_inf"])
    @pytest.mark.parametrize("row", ["before_zero", "zero", "last"])
    def test_injected_value_raises(self, solved, table_k1, value, row, monkeypatch):
        s, method, fields = solved
        lam = table_k1.eigenvalues
        at = {"before_zero": SHORT_GRID.zero_index - 1, "zero": SHORT_GRID.zero_index, "last": -1}[row]
        poisoned = []

        def pieces(scenario, method, *, tally, **tols):  # the solve as one piece, with one value poisoned
            tally.update(iterations=0, contraction=0.0)
            yield slice(None), *poisoned

        monkeypatch.setattr(dbf_model, "field_pieces", pieces)
        # The classical law stores E and H, and its D and B scale them; the generalized law stores all four.
        stored = 2 if isinstance(s, DBFScenario) else 4
        # A lambda = 0 mode, where the residual reads E and H only through 0 * E, and the largest lambda.
        for mode in (int(np.nonzero(lam == 0.0)[0][0]), int(np.argmax(lam))):
            for k in range(stored):
                poisoned[:] = [a.copy() for a in fields]
                poisoned[k][at, mode] = value
                with pytest.raises(NonFiniteSolution):
                    solve(s, method)


class TestPairSeries:
    MODES = np.array([3, 5])

    def causal(self, width):
        samples = np.zeros((GRID.n_samples, width, 2), dtype=np.complex128)
        samples[GRID.zero_index:] = 0.5 - 0.25j
        return samples

    @pytest.mark.parametrize("modes", [[5, 3], [3, 3], [-1, 3], [3, 21], [[3, 5]], [3.0, 5.0]],
                             ids=["unsorted", "duplicate", "negative", "past_the_table", "nested", "float"])
    def test_rejects_bad_modes(self, table_k1, modes):
        assert table_k1.n_modes == 21
        with pytest.raises(ValueError, match="modes"):
            PairSeries(table_k1, GRID, np.array(modes), self.causal(2))

    @pytest.mark.parametrize("shape", [(GRID.n_samples, 1, 2), (GRID.n_samples - 1, 2, 2), (GRID.n_samples, 2, 3),
                                       (GRID.n_samples, 2)])
    def test_rejects_wrong_sample_shape(self, table_k1, shape):
        with pytest.raises(ValueError, match="shape"):
            PairSeries(table_k1, GRID, self.MODES, np.zeros(shape))

    def test_rejects_noncausal_source(self, table_k1):
        samples = self.causal(2)
        samples[GRID.zero_index - 1, 1, 1] = 1e-13
        with pytest.raises(ValueError, match="vanish on t < 0"):
            PairSeries(table_k1, GRID, self.MODES, samples)

    def test_zeroes_rows_before_zero_and_drops_empty_columns(self, table_k1):
        z = GRID.zero_index
        samples = np.zeros((GRID.n_samples, 3, 2), dtype=np.complex128)
        samples[z:, 1, 0] = 0.5
        samples[z - 1, 1, 1] = samples[0, 2, 0] = 1e-15  # within SOURCE_CAUSALITY_TOL
        source = PairSeries(table_k1, GRID, [2, 4, 9], samples)
        expected = samples[:, 1:2].copy()
        expected[:z] = 0.0
        assert source.modes.tolist() == [4]
        assert source.samples.tobytes() == expected.tobytes()
        assert samples[z - 1, 1, 1] == 1e-15, "the caller's array is left as it was"
        assert source.max_abs() == 0.5


class TestScenarioValidation:
    def test_zero_eta_rejected(self, table_k1):
        with pytest.raises(ValueError):
            scenario(table_k1, eta=0.0)

    def test_negative_material_rejected(self, table_k1):
        with pytest.raises(ValueError):
            scenario(table_k1, epsilon=-1.0)

    def test_noncausal_source_rejected(self, table_k1):
        with pytest.raises(ValueError):
            scenario(table_k1, source=single_mode.source_series(table_k1, GRID, {0: (1.0, 0.0)}))

    @pytest.mark.parametrize("kind", ["dbf", "generalized"])
    def test_window_without_a_sample_at_t_ge_0_rejected(self, table_k1, kind):
        grid = TimeGrid(t_start=-1.0, dt=0.01, n_samples=50)
        W0 = field_pair(table_k1, {table_k1.position((1, 0, 0), "plus"): (1.0, 0.0)})
        with pytest.raises(ValueError, match=r"no sample at t >= 0"):
            if kind == "dbf":
                scenario(table_k1, grid=grid, W0=W0)
            else:
                GeneralizedScenario(kappa0=2.0 * np.eye(2), Mstar0=np.eye(2), nu=3.0, K=1, grid=grid, W0=W0)

    @pytest.mark.parametrize("kind", ["dbf", "generalized"])
    def test_first_sample_at_t_ge_0_must_be_t_0(self, table_k1, kind):
        # The solvers take the first t >= 0 row as t = 0: here it is t = 0.005, and exact and
        # integrator solved the classical law 2.2e-3 apart (weak residual 9.6e-4), with no error.
        grid = TimeGrid(t_start=-0.095, dt=0.01, n_samples=256)
        W0 = field_pair(table_k1, {table_k1.position((1, 0, 0), "plus"): (1.0, 0.0)})
        with pytest.raises(ValueError, match=r"must contain t = 0 as a sample"):
            if kind == "dbf":
                scenario(table_k1, grid=grid, W0=W0)
            else:
                GeneralizedScenario(kappa0=2.0 * np.eye(2), Mstar0=np.eye(2), nu=3.0, K=1, grid=grid, W0=W0)

    def test_truncation_mismatch_rejected(self, table_k1):
        W0 = field_pair(table_k1, {})
        with pytest.raises(ValueError):
            DBFScenario(epsilon=1.0, mu=1.0, eta=0.5, nu=3.0, K=2,
                        grid=GRID, W0=W0)
