"""Operator groups: every mode sharing one operator is solved in one call.

Each column of a grouped solve must be the mode solved alone, bit for bit,
and a failure must be the one a mode-by-mode solve would raise first.
"""

import numpy as np
import pytest

import single_mode
from dbf import dbf_model, evo_solver, paper
from dbf.curl_spectral import FieldPair, SpectralField
from dbf.dbf_model import DBFScenario, GeneralizedScenario, solve
from dbf.evo_solver import NoConvergence, NotContractive, WrongCase, solve_propagator_blocks
from dbf.paper import solve_fixed_point, solve_modal_exact
from dbf.weighted_time import MaterialSymbol, TimeGrid

MEMORY = dict(kappa0=np.diag([2.5, 2.5]), kappa1=MaterialSymbol(dim=2, poly_coeffs=[np.diag([0.4, 0.4])]),
              Mstar0=np.diag([1.0, 0.5]))
MEMORY_GRID = TimeGrid(t_start=-0.05, dt=0.0005, n_samples=512, pad_fraction=0.25)


def loaded_pair(table, rng, scale=None) -> FieldPair:
    """Random jump data on every mode; scale maps positions to extra factors."""
    e = rng.standard_normal(table.n_modes) + 1j * rng.standard_normal(table.n_modes)
    h = rng.standard_normal(table.n_modes) + 1j * rng.standard_normal(table.n_modes)
    for i, factor in (scale or {}).items():
        e[i] *= factor
        h[i] *= factor
    return FieldPair(SpectralField(table, e), SpectralField(table, h))


def memory_scenario(table, rng, scale=None) -> GeneralizedScenario:
    return GeneralizedScenario(nu=9.0, K=table.K, grid=MEMORY_GRID, W0=loaded_pair(table, rng, scale), **MEMORY)


def same_bytes(a, b) -> bool:
    return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestColumnsMatchSoloBlocks:
    def test_classical_fixed_point(self, table_k2, rng):
        grid = TimeGrid(t_start=-0.1, dt=0.01, n_samples=256, pad_fraction=0.25)
        lam = table_k2.eigenvalues
        tiny = int(np.nonzero(lam == 1.0)[0][1])
        step = grid.times >= -1e-9
        source = single_mode.source_series(table_k2, grid, {3: (np.where(step, 0.3, 0.0), 0.0),
                                                            7: (0.0, np.where(step, -0.2j, 0.0))})
        s = DBFScenario(epsilon=1.5, mu=0.5, eta=0.15, nu=10.0, K=2, grid=grid,
                        W0=loaded_pair(table_k2, rng, {tiny: 1e-6}), source_J=source)
        history = solve(s, "fixed_point")
        solo_iterations = []
        for i, ivp in single_mode.dbf_blocks(s).items():
            report = solve_fixed_point(ivp, s.nu)
            solo_iterations.append(report.iterations)
            assert same_bytes(history.E[:, i], report.solution.samples[:, 0])
            assert same_bytes(history.H[:, i], report.solution.samples[:, 1])
        same_lambda = np.nonzero(lam == 1.0)[0]
        assert len(same_lambda) > 1
        assert len({solo_iterations[i] for i in same_lambda}) > 1, "the scaled mode should stop earlier"
        assert history.diagnostics["iterations"] == max(solo_iterations)

    def test_generalized_memory_fixed_point(self, table_k2, rng):
        lam = table_k2.eigenvalues
        tiny = int(np.nonzero(lam == -1.0)[0][0])
        g = memory_scenario(table_k2, rng, {tiny: 1e-6})
        history = solve(g, "fixed_point")
        solo_iterations = {}
        for i in range(table_k2.n_modes):
            report = solve_fixed_point(single_mode.generalized_block(g, i), g.nu)
            solo_iterations[i] = report.iterations
            assert same_bytes(history.E[:, i], report.solution.samples[:, 0])
            assert same_bytes(history.H[:, i], report.solution.samples[:, 1])
        group = np.nonzero(lam == -1.0)[0]
        assert len({solo_iterations[i] for i in group}) > 1, "the scaled mode should stop earlier"
        assert history.diagnostics["iterations"] == max(solo_iterations.values())

    def test_generalized_memory_auto(self, table_k2, rng):
        lam = table_k2.eigenvalues
        g = memory_scenario(table_k2, rng)
        history = solve(g, "auto")
        for i in range(table_k2.n_modes):
            ivp = single_mode.generalized_block(g, i)
            try:  # a rotation block takes the closed form, any other the propagator
                evo_solver._rotation_constant(ivp.M0, ivp.M1, ivp.A)
                solo = solve_modal_exact(ivp, g.nu).samples
            except WrongCase:
                solo = solve_propagator_blocks(ivp.M0, ivp.M1, ivp.source.samples[:, None], ivp.W0[None], g.grid)[0][:, 0]
            assert same_bytes(history.E[:, i], solo[:, 0])
            assert same_bytes(history.H[:, i], solo[:, 1])
        assert history.diagnostics["iterations"] == 0
        assert history.diagnostics["contraction_estimate"] == 0.0


def test_memory_modes_make_one_call_per_group(table_k2, rng, monkeypatch):
    calls = {"solve_fixed_point": 0, "picard": 0, "propagator": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    solo = counted("solve_fixed_point", paper.solve_fixed_point)
    monkeypatch.setattr(paper, "solve_fixed_point", solo)
    monkeypatch.setattr(dbf_model, "solve_fixed_point", solo, raising=False)
    monkeypatch.setattr(dbf_model, "solve_fixed_point_blocks", counted("picard", evo_solver.solve_fixed_point_blocks))
    monkeypatch.setattr(dbf_model, "solve_propagator_blocks", counted("propagator", evo_solver.solve_propagator_blocks))
    history = solve(memory_scenario(table_k2, rng), "auto")
    assert history.diagnostics["iterations"] == 0
    # With memory, the lambda = 0 group has M1 = N0 kappa1 Mstar0, no rotation, so it is propagated too.
    lambdas = len(set(table_k2.eigenvalues.tolist()))
    assert lambdas == 9
    assert calls["solve_fixed_point"] == calls["picard"] == 0
    assert calls["propagator"] == lambdas


@pytest.mark.parametrize("nu, failing, error", [(1.0, "minus", NotContractive), (1.5, "minus", NoConvergence)])
def test_first_failing_block_is_raised(table_k1, nu, failing, error):
    # lambda = 1: the first plus mode converges within max_iter, the second does not.
    # lambda = -1: the minus mode between them fails too, so a block-by-block
    # solve raises its error first.
    grid = TimeGrid(t_start=-0.1, dt=0.01, n_samples=256, pad_fraction=0.25)
    plus = [i for i, m in enumerate(table_k1.modes) if m.helicity == "plus"]
    minus = next(i for i, m in enumerate(table_k1.modes) if m.helicity == "minus")
    assert plus[0] < minus < plus[1]
    e = np.zeros(table_k1.n_modes, dtype=np.complex128)
    e[plus[0]], e[plus[1]], e[minus] = 1e-9, 1.0, 1.0
    s = DBFScenario(epsilon=1.0, mu=1.0, eta=0.15, nu=nu, K=1, grid=grid,
                    W0=FieldPair(SpectralField(table_k1, e), SpectralField(table_k1, np.zeros_like(e))))
    blocks = single_mode.dbf_blocks(s)
    assert solve_fixed_point(blocks[plus[0]], nu, max_iter=8).iterations <= 8
    with pytest.raises(NoConvergence):
        solve_fixed_point(blocks[plus[1]], nu, max_iter=8)
    with pytest.raises(error) as solo:
        solve_fixed_point(blocks[minus], nu, max_iter=8)
    with pytest.raises(error) as grouped:
        solve(s, "fixed_point", max_iter=8)
    assert str(grouped.value) == str(solo.value)


class TestSourceRuleIndependentOfEta:
    """A pre-support sample accepted by the scenario solves whatever the material."""

    GRID = TimeGrid(t_start=-0.2, dt=0.01, n_samples=256, pad_fraction=0.25)

    def source(self, table, i):
        e = np.where(self.GRID.times >= -1e-9, 0.5, 0.0)
        e[10] = 1e-15  # the sample at t = -0.1
        return single_mode.source_series(table, self.GRID, {i: (e, 0.0)})

    @pytest.mark.parametrize("method", ["exact", "fixed_point"])
    @pytest.mark.parametrize("eta", [0.5, 0.95])
    def test_classical(self, table_k1, eta, method):
        i = table_k1.position((1, 0, 0), "minus")
        s = DBFScenario(epsilon=1.0, mu=1.0, eta=eta, nu=60.0, K=1, grid=self.GRID,
                        W0=FieldPair(SpectralField(table_k1, np.zeros(table_k1.n_modes)),
                                     SpectralField(table_k1, np.zeros(table_k1.n_modes))),
                        source_J=self.source(table_k1, i))
        history = solve(s, method)
        pre = self.GRID.times < -1e-9
        assert np.any(history.E[~pre, i] != 0)
        for arr in (history.E, history.H, history.D, history.B):
            assert np.all(arr[pre] == 0)

    @pytest.mark.parametrize("kappa", [2.0, 1.05])
    def test_generalized(self, table_k1, kappa):
        # On lambda = -1, N(0) = (kappa - 1)^-1 scales the source by 1 or by 20.
        i = table_k1.position((1, 0, 0), "minus")
        zero = SpectralField(table_k1, np.zeros(table_k1.n_modes))
        g = GeneralizedScenario(kappa0=kappa * np.eye(2), Mstar0=np.eye(2), nu=60.0, K=1, grid=self.GRID,
                                W0=FieldPair(zero, zero), source_J=self.source(table_k1, i))
        history = solve(g, "auto")
        pre = self.GRID.times < -1e-9
        assert np.any(history.E[~pre, i] != 0)
        for arr in (history.E, history.H, history.D, history.B):
            assert np.all(arr[pre] == 0)
