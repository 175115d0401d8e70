"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every test measures its own wall time against the stated budget and checks
the criterion at its stated tolerance.  The scenario corpus used by the
initial-value and causality criteria is built fresh per test so the timing
is honest.
"""

import json
import time

import numpy as np
import pytest

import oracles
import single_mode
from dbf import cli
from dbf.curl_spectral import FieldPair, SpectralField
from dbf.dbf_model import (
    DBFScenario,
    GeneralizedScenario,
    HypothesisViolated,
    NeumannDiverges,
    PairSeries,
    solve_dbf,
    solve_generalized,
)
from dbf.paper import (
    AbstractIVP,
    apply_inverse_derivative,
    apply_symbol,
    diagnose_naive_formulation,
    projector_P,
    solve_fixed_point,
    verify_dbf_equation,
    verify_regularity_ode,
)
from dbf.weighted_time import (
    MaterialSymbol,
    TimeGrid,
    WeightedSignal,
    weighted_norm,
)

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
CORPUS_GRID = TimeGrid(t_start=-1.0, dt=1e-3, n_samples=4096, pad_fraction=0.25)


def _report(number: int, label: str, detail: str, elapsed: float, budget: float) -> None:
    print(f"criterion {number:02d} {label}: PASS ({detail}; {elapsed:.2f} s < {budget:g} s)")
    assert elapsed < budget


def field_pair(table, entries) -> FieldPair:
    e = np.zeros(table.n_modes, dtype=np.complex128)
    h = np.zeros(table.n_modes, dtype=np.complex128)
    for i, (ev, hv) in entries.items():
        e[i] = ev
        h[i] = hv
    return FieldPair(SpectralField(table, e), SpectralField(table, h))


def mode_source(table, grid, entries, onset=0.0) -> PairSeries:
    mask = grid.times >= onset - 1e-9
    return single_mode.source_series(table, grid, {i: (np.where(mask, ev, 0.0), np.where(mask, hv, 0.0))
                                                   for i, (ev, hv) in entries.items()})


def build_corpus(table_k1, table_k2) -> list:
    """Ten classical scenarios spanning signs of eta, materials, and sources."""
    g, nu = CORPUS_GRID, 3.0
    t1, t2 = table_k1, table_k2
    p100 = t1.position((1, 0, 0), "plus")
    p010 = t1.position((0, 1, 0), "plus")
    m100 = t1.position((1, 0, 0), "minus")
    g001 = t1.position((0, 0, 1), "grad")
    c0 = t1.position((0, 0, 0), "const", 0)
    p110 = t2.position((1, 1, 0), "plus")
    m110 = t2.position((1, 1, 0), "minus")

    def dbf(table, eta, eps, mu, entries, source=None):
        return DBFScenario(epsilon=eps, mu=mu, eta=eta, nu=nu, K=table.K,
                           grid=g, W0=field_pair(table, entries), source_J=source)

    bump_src = single_mode.source_series(t1, g, {m100: (0.3 * oracles.bump(g.times, 0.0, 2.0), 0.0)})

    return [
        dbf(t1, 0.5, 1.0, 1.0, {p100: (1.0, 0.0)}),
        dbf(t1, 0.5, 2.0, 0.5, {p100: (1.0, -0.5j), p010: (0.3, 0.2)}),
        dbf(t1, -1.0, 1.0, 1.0, {m100: (1.0, -1.0), g001: (0.5, 0.0)}),
        dbf(t1, 0.3, 1.5, 0.75, {p100: (1.0, 0.0)},
            mode_source(t1, g, {p100: (0.4, 0.0)})),
        dbf(t1, -0.7, 1.0, 2.0, {g001: (1.0, 0.5), c0: (0.2, 0.0)}),
        dbf(t1, 0.25, 1.0, 1.0, {p100: (0.0, 1.0)}, bump_src),
        dbf(t2, 0.5, 1.0, 1.0, {p110: (1.0, 0.0)}),
        dbf(t2, -1.0 / np.sqrt(2.0), 1.0, 1.0, {m110: (1.0, 0.0)}),
        dbf(t1, 2.0, 1.0, 1.5, {p100: (1.0, 0.0), m100: (0.0, 1.0)}),
        dbf(t1, 0.5, 1.0, 1.0, {p100: (1.0, 0.0)},
            mode_source(t1, g, {p100: (0.2, 0.0)}, onset=0.25)),
    ]


def test_criterion_01_inverse_derivative_norm_bound():
    start = time.perf_counter()
    nu = 2.0
    grid = TimeGrid(t_start=-1.0, dt=1.0 / 256.0, n_samples=4096, pad_fraction=0.25)
    t = grid.times
    envelope = oracles.bump(t, grid.t_start + 0.5, grid.core_end_time - 0.5)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        wave = sum(a * np.exp(1j * (f * t + p))
                   for a, f, p in zip(rng.standard_normal(4) + 1j * rng.standard_normal(4),
                                      rng.uniform(0.3, 3.0, 4), rng.uniform(0.0, 2 * np.pi, 4)))
        u = WeightedSignal(grid, nu, envelope * wave)
        ratio = weighted_norm(apply_inverse_derivative(u), 0) / weighted_norm(u, 0)
        worst = max(worst, ratio)
        assert ratio <= (1.0 / nu) * (1.0 + 1e-3)
    # A slowly varying exponential (growth just under the weight rate) makes
    # the running integral nearly proportional to the input.
    slow = np.where(t >= 0.0, np.exp(0.975 * nu * t), 0.0)
    u = WeightedSignal(grid, nu, slow)
    saturating = weighted_norm(apply_inverse_derivative(u), 0) / weighted_norm(u, 0)
    assert saturating <= (1.0 / nu) * (1.0 + 1e-3)
    assert saturating >= 0.95 / nu
    elapsed = time.perf_counter() - start
    _report(1, "running-integral norm bound",
            f"20 signals, worst ratio*nu={worst * nu:.4f}, saturation={saturating * nu:.4f}",
            elapsed, 1.0)


def test_criterion_02_delay_symbol_matches_shift():
    start = time.perf_counter()
    grid = TimeGrid(t_start=-4.0, dt=0.0125, n_samples=640, pad_fraction=0.25)
    t = grid.times
    rng = np.random.default_rng(42)
    envelope = oracles.bump(t, grid.t_start + 0.5, grid.core_end_time - 0.5)
    wave = sum(a * np.exp(1j * (f * t + p))
               for a, f, p in zip(rng.standard_normal(4) + 1j * rng.standard_normal(4),
                                  rng.uniform(0.3, 3.0, 4), rng.uniform(0.0, 2 * np.pi, 4)))
    u = WeightedSignal(grid, 2.0, envelope * wave)
    scale = np.max(np.abs(u.samples))
    worst = 0.0
    for h in (-0.1, -0.25, -1.0):
        out = apply_symbol(MaterialSymbol.delay(h), u)
        shift = int(round(-h / grid.dt))
        expect = np.zeros_like(u.samples)
        expect[shift:] = u.samples[: grid.n_samples - shift]
        interior = slice(shift + 2, grid.n_samples - 2)
        err = np.max(np.abs(out.samples[interior] - expect[interior])) / scale
        worst = max(worst, err)
        assert err < 1e-8
    elapsed = time.perf_counter() - start
    _report(2, "delay symbol vs sample shift", f"3 offsets, worst={worst:.2e}", elapsed, 1.0)


def test_criterion_03_projector_rotation_identity(table_k3, rng):
    start = time.perf_counter()
    coeffs = rng.standard_normal(table_k3.n_modes) + 1j * rng.standard_normal(table_k3.n_modes)
    f = SpectralField(table_k3, coeffs)
    kernel_sizes = {}
    for eta in (-1.0, -1.0 / np.sqrt(2.0), 0.5):
        kernel_sizes[eta] = int(table_k3.kernel_mask(eta).sum())
        complement = f.coeffs - projector_P(eta, f).coeffs
        np.testing.assert_array_equal(table_k3.eigenvalues * complement,
                                      (-1.0 / eta) * complement)
    # The identity must be exercised on nonempty kernels, not hold vacuously.
    assert kernel_sizes[-1.0] > 0
    assert kernel_sizes[-1.0 / np.sqrt(2.0)] > 0
    elapsed = time.perf_counter() - start
    _report(3, "complement rotation identity",
            f"kernel sizes {sorted(kernel_sizes.values())}", elapsed, 1.0)


def test_criterion_04_initial_value_recovery(table_k1, table_k2):
    start = time.perf_counter()
    worst_exact = worst_fixed = 0.0
    for s in build_corpus(table_k1, table_k2):
        exact = solve_dbf(s, "exact")
        fixed = solve_dbf(s, "fixed_point")
        worst_exact = max(worst_exact, exact.diagnostics["initial_value_error"])
        worst_fixed = max(worst_fixed, fixed.diagnostics["initial_value_error"])
        assert exact.diagnostics["initial_value_error"] <= 1e-8
        assert fixed.diagnostics["initial_value_error"] <= 10.0 * CORPUS_GRID.dt
    elapsed = time.perf_counter() - start
    _report(4, "initial-value recovery",
            f"10 scenarios, exact worst={worst_exact:.2e}, fixed worst={worst_fixed:.2e}",
            elapsed, 10.0)


def test_criterion_05_causality(table_k1, table_k2):
    start = time.perf_counter()
    worst = 0.0
    for s in build_corpus(table_k1, table_k2):
        history = solve_dbf(s, "exact")
        worst = max(worst, history.diagnostics["causality_sup"])
        assert history.diagnostics["causality_sup"] <= 1e-10
    # Strong causality: a source switched on at t = 1 leaves every field at
    # zero before then, within the iterative solver's tolerance.
    onset = 1.0
    i = table_k1.position((1, 0, 0), "plus")
    shifted = DBFScenario(epsilon=1.0, mu=1.0, eta=0.5, nu=3.0, K=1, grid=CORPUS_GRID,
                          W0=field_pair(table_k1, {}),
                          source_J=mode_source(table_k1, CORPUS_GRID, {i: (0.5, 0.0)}, onset=onset))
    history = solve_dbf(shifted, "fixed_point")
    before = CORPUS_GRID.times < onset - 1e-9
    shifted_sup = max(np.max(np.abs(arr[before]), initial=0.0)
                      for arr in (history.E, history.H, history.D, history.B))
    assert shifted_sup <= 1e-10
    elapsed = time.perf_counter() - start
    _report(5, "causality", f"corpus worst={worst:.2e}, shifted-source sup={shifted_sup:.2e}",
            elapsed, 10.0)


def test_criterion_06_modal_frequency_vs_reference(table_k1, table_k2):
    start = time.perf_counter()
    grid = TimeGrid(t_start=-1.0, dt=1e-2, n_samples=512, pad_fraction=0.25)
    cases = [
        (table_k1, (1, 0, 0), "plus", 0.5),
        (table_k2, (1, 1, 0), "plus", 0.3),
        (table_k1, (1, 0, 0), "plus", -0.9),
    ]
    worst_gap = worst_drift = 0.0
    for table, k, helicity, eta in cases:
        i = table.position(k, helicity)
        lam = table.eigenvalues[i]
        s = DBFScenario(epsilon=1.0, mu=1.0, eta=eta, nu=3.0, K=table.K, grid=grid,
                        W0=field_pair(table, {i: (1.0, 0.0)}))
        history = solve_dbf(s, "exact")
        pos = grid.times >= -1e-12
        n_pos = int(pos.sum())
        stride = 100
        c = lam / (1.0 + eta * lam)
        w0_reduced = np.array([1.0 / (1.0 + eta * lam), 0.0])
        ref = oracles.dbf_mode_rk4(1.0, 1.0, c, w0_reduced, grid.dt / stride,
                                   stride * (n_pos - 1))[::stride]
        gap = max(np.max(np.abs(history.E[pos, i] - ref[:, 0])),
                  np.max(np.abs(history.H[pos, i] - ref[:, 1])))
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-8
        energy = history.energy[pos]
        drift = np.max(np.abs(energy - energy[0])) / energy[0]
        worst_drift = max(worst_drift, drift)
        assert drift <= 1e-12
    elapsed = time.perf_counter() - start
    _report(6, "modal rotation vs time-stepped reference",
            f"3 cases, worst gap={worst_gap:.2e}, worst drift={worst_drift:.2e}",
            elapsed, 30.0)


def test_criterion_07_contraction_certificate(rng):
    start = time.perf_counter()
    grid = TimeGrid(t_start=-1.0, dt=1.0 / 512.0, n_samples=4096, pad_fraction=0.25)
    instances = []
    for _ in range(5):
        alpha = rng.uniform(0.3, 1.5)
        m0 = rng.uniform(0.5, 2.0)
        instances.append((np.array([[m0]]), np.array([[alpha]]),
                          np.array([rng.standard_normal() + 0.5])))
    for _ in range(5):
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        M0 = G @ np.conj(G.T) + 4.0 * np.eye(4)
        C = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        w0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        instances.append((M0, C, w0))
    worst_margin = 0.0
    for M0, C, w0 in instances:
        dim = M0.shape[0]
        norm_m1 = float(np.linalg.svd(C, compute_uv=False)[0])
        c0 = float(np.min(np.linalg.eigvalsh((M0 + np.conj(M0.T)) / 2.0)))
        for mult in (2.0, 4.0, 8.0):
            nu = mult * norm_m1 / c0
            p = AbstractIVP(dim=dim, M0=M0,
                            M1=MaterialSymbol(dim=dim, poly_coeffs=[C]),
                            A=np.zeros((dim, dim)),
                            source=WeightedSignal(grid, nu, np.zeros((grid.n_samples, dim))),
                            W0=w0)
            report = solve_fixed_point(p, nu, max_iter=128, tol=1e-13)
            bound = norm_m1 / (nu * c0)
            observed = max(report.update_ratios)
            worst_margin = max(worst_margin, observed / bound)
            assert observed <= bound * 1.1
    elapsed = time.perf_counter() - start
    _report(7, "contraction certificate",
            f"10 instances x 3 rates, worst ratio/bound={worst_margin:.3f}", elapsed, 10.0)


def test_criterion_08_degeneracy_diagnostic(rng):
    start = time.perf_counter()
    for _ in range(5):
        eps = float(10.0 ** rng.uniform(-1.0, 0.7))
        mu = float(10.0 ** rng.uniform(-1.0, 0.7))
        eta = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0))
        report = diagnose_naive_formulation(eps, mu, eta)
        assert np.max(np.abs(report.z0_coefficient)) == 0.0
        assert np.max(np.abs(report.z1_real_part)) == 0.0
        assert report.degenerate
        assert "degenerate" in report.verdict
    elapsed = time.perf_counter() - start
    _report(8, "naive one-field formulation is degenerate", "5 random triples", elapsed, 1.0)


def test_criterion_09_kernel_case(table_k1, tmp_path, capsys):
    start = time.perf_counter()
    doc = {
        "domain": {"K": 1},
        "material": {"model": "dbf", "epsilon": 1.0, "mu": 1.0, "eta": -1.0},
        "time": {"t_start": -1.0, "dt": 0.01, "n": 512, "pad_fraction": 0.25, "nu": 3.0},
        "data": {"W0": [[[1, 0, 0], "plus", 1.0, 0.0]]},
        "method": "exact",
    }
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.cmd_run(str(path), str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 2
    assert "range condition failed" in err

    j = table_k1.position((1, 0, 0), "minus")
    g = table_k1.position((0, 0, 1), "grad")
    s = DBFScenario(epsilon=1.0, mu=1.0, eta=-1.0, nu=3.0, K=1,
                    grid=TimeGrid(t_start=-1.0, dt=0.01, n_samples=512, pad_fraction=0.25),
                    W0=field_pair(table_k1, {j: (1.0, -0.5), g: (0.2, 0.0)}))
    history = solve_dbf(s, "exact")
    kernel = table_k1.kernel_mask(-1.0)
    assert int(kernel.sum()) == 6
    for arr in (history.E, history.H, history.D, history.B):
        assert np.all(arr[:, kernel] == 0)
    residual = verify_dbf_equation(history, s)
    assert residual <= 1e-6
    elapsed = time.perf_counter() - start
    _report(9, "kernel-supported data rejected, range-valid data solved",
            f"exit 2; kernel columns zero; residual={residual:.2e}", elapsed, 5.0)


def test_criterion_10_regularity_split():
    start = time.perf_counter()
    nu, alpha = 2.0, 0.5
    w0 = np.array([1.0])
    split_norms, raw_norms = [], []
    for scale in (1, 2, 4):
        grid = TimeGrid(t_start=-1.0, dt=1.0 / (256 * scale),
                        n_samples=2048 * scale, pad_fraction=0.25)
        p = AbstractIVP(dim=1, M0=np.array([[1.0]]),
                        M1=MaterialSymbol(dim=1, poly_coeffs=[np.array([[alpha]])]),
                        A=np.array([[0.0]]),
                        source=WeightedSignal(grid, nu, np.zeros((grid.n_samples, 1))),
                        W0=w0)
        report = solve_fixed_point(p, nu, tol=1e-12)
        split_norms.append(verify_regularity_ode(report, p.M0, w0))
        raw_norms.append(weighted_norm(report.solution, 1))
    for coarse, fine in zip(split_norms, split_norms[1:]):
        assert fine <= 1.5 * coarse
    for coarse, fine in zip(raw_norms, raw_norms[1:]):
        assert fine >= 1.3 * coarse
    elapsed = time.perf_counter() - start
    _report(10, "split first-order norm stable under refinement",
            f"split {split_norms[0]:.3f}->{split_norms[-1]:.3f}, "
            f"raw {raw_norms[0]:.1f}->{raw_norms[-1]:.1f}", elapsed, 10.0)


def test_criterion_11_generalized_consistency(table_k1, tmp_path, capsys):
    start = time.perf_counter()
    eta, eps, mu = 0.5, 1.5, 0.75
    grid = TimeGrid(t_start=-1.0, dt=0.01, n_samples=1024, pad_fraction=0.25)
    ip = table_k1.position((1, 0, 0), "plus")
    im = table_k1.position((0, 1, 0), "minus")
    W0 = field_pair(table_k1, {ip: (1.0, 0.0), im: (0.0, -0.5j)})
    classical = solve_dbf(DBFScenario(epsilon=eps, mu=mu, eta=eta, nu=3.0, K=1,
                                      grid=grid, W0=W0), "exact")
    degenerate = solve_generalized(GeneralizedScenario(
        kappa0=(1.0 / eta) * np.eye(2), Mstar0=eta * np.diag([eps, mu]),
        nu=3.0, K=1, grid=grid, W0=W0), "auto")
    consistency = max(np.max(np.abs(a - b)) for a, b in
                      ((classical.E, degenerate.E), (classical.H, degenerate.H),
                       (classical.D, degenerate.D), (classical.B, degenerate.B)))
    assert consistency <= 1e-8

    beta, nu = 0.4, 3.0
    kappa0 = 2.0 * np.eye(2)
    Mstar0 = np.diag([1.0, 0.5])
    beta_grid = TimeGrid(t_start=-1.0, dt=1e-3, n_samples=4096, pad_fraction=0.25)
    g = GeneralizedScenario(kappa0=kappa0, Mstar0=Mstar0, nu=nu, K=1,
                            grid=beta_grid, W0=field_pair(table_k1, {ip: (1.0, 0.0)}),
                            kappa1=MaterialSymbol(dim=2, poly_coeffs=[beta * np.eye(2)]))
    history = solve_generalized(g, "auto", fp_tol=1e-12)
    pos = beta_grid.times >= -1e-12
    stride = 10
    u, v = oracles.generalized_beta_rk4(kappa0, Mstar0, beta, 1.0,
                                        np.array([1.0, 0.0]), beta_grid.dt / stride,
                                        stride * (int(pos.sum()) - 1))
    memory_gap = max(np.max(np.abs(history.E[pos, ip] - u[::stride, 0])),
                     np.max(np.abs(history.H[pos, ip] - u[::stride, 1])),
                     np.max(np.abs(history.D[pos, ip] - v[::stride, 0])),
                     np.max(np.abs(history.B[pos, ip] - v[::stride, 1])))
    assert memory_gap <= 1e-5

    base = {
        "domain": {"K": 1},
        "material": {"model": "generalized",
                     "kappa0": [[1.0, 0.0], [0.0, 1.0]],
                     "Mstar0": [[1.0, 0.0], [0.0, 1.0]]},
        "time": {"t_start": -1.0, "dt": 0.01, "n": 512, "pad_fraction": 0.25, "nu": 3.0},
        "data": {"W0": [[[1, 0, 0], "plus", 1.0, 0.0]]},
        "method": "auto",
    }
    singular = tmp_path / "singular.json"
    singular.write_text(json.dumps(base), encoding="utf-8")
    assert cli.cmd_run(str(singular), str(tmp_path / "o1")) == 3

    diverging = json.loads(json.dumps(base))
    diverging["material"]["kappa0"] = [[2.0, 0.0], [0.0, 2.0]]
    diverging["material"]["kappa1"] = [[[20.0, 0.0], [0.0, 20.0]]]
    diverging["time"]["nu"] = 2.0
    div_path = tmp_path / "diverging.json"
    div_path.write_text(json.dumps(diverging), encoding="utf-8")
    assert cli.cmd_run(str(div_path), str(tmp_path / "o2")) == 4
    capsys.readouterr()
    elapsed = time.perf_counter() - start
    _report(11, "generalized law consistency",
            f"degenerate gap={consistency:.2e}, memory gap={memory_gap:.2e}, exits 3/4",
            elapsed, 60.0)
