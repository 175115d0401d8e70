"""Chiral material scenarios on the torus: reduction, solving, verification.

The classical material law couples the fields through (1 + eta curl): the
flux pair is (D, B) = (1 + eta curl) diag(eps, mu) (E, H).  Written as a
first order evolution in (D, B) alone the formal symbol starts at order
one in the antiderivative, with a skew leading coefficient, so no strictly
positive zeroth coefficient exists (see dbf.paper.diagnose_naive_formulation).  The
workable route inverts (1 + eta curl) on its range per curl eigenmode,
which yields one small causal initial value problem per eigenvalue with a
bounded rotation coupling c_lambda = lambda / (1 + eta lambda), shared by
all modes with that eigenvalue and solved for all of them in one call.

The generalized law replaces the scalars by operator pairs: with curl
diagonalized, mode lambda obeys

    d/dt (kappa(Dinv) + lambda) Mstar(Dinv) u + lambda J u = j + (Dirac) W0,

Dinv the causal antiderivative, kappa(z) = kappa0 + z kappa1(z) and
Mstar(z) = Mstar0 + z Mstar1(z).  The flux pair is P(Dinv) u, with the
product symbol P(z) = (kappa(z) + lambda) Mstar(z), which reproduces W0
exactly at t = 0+.  Multiplying by the constant N0 = (kappa0 + lambda)^-1
alone produces a standard block

    d/dt Mstar0 u + M1(Dinv) u = N0 j + (Dirac) N0 W0,
    M1(z) = N0 (P(z) - P(0)) / z + lambda N0 J,

a polynomial law with the selfadjoint positive Mstar0 = N0 P(0) in front,
so the law is stated once, by P.  Both sides were multiplied by one
invertible matrix, and the discrete running integral commutes with it, so
the discrete solution is that of the law itself.  The first correction
N0 z kappa1(z) must stay below 1 on the realized frequency grid, the
weight condition of the memory term; it is checked and NeumannDiverges
raised otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .curl_spectral import FieldPair, ModeTable
from .evo_solver import (
    SOURCE_CAUSALITY_TOL,
    DEFAULT_FP_TOL,
    DEFAULT_MAX_ITER,
    J2,
    NoConvergence,
    NotContractive,
    WrongCase,
    _apply_symbol_time,
    _check_hermitian_posdef,
    _rotation_constant,
    _rows_at,
    rotation_closed_form,
    solve_fixed_point_blocks,
    solve_propagator_blocks,
    step_columns,
)
from .weighted_time import MaterialSymbol, TimeGrid, running_simpson

RANGE_TOL = 1e-12
NEAR_KERNEL_BAND = 1e-3
HYPOTHESIS_TOL = 1e-9
# Bytes of one (rows, width) complex chunk in the column passes over solved series.
COLUMN_CHUNK_BYTES = 1_000_000

I2 = np.eye(2)

DBF_METHODS = ("exact", "fixed_point", "integrator")
GENERALIZED_METHODS = ("auto",) + DBF_METHODS


class RangeViolation(ValueError):
    """Data loads kernel modes of (1 + eta curl); no solution exists there."""


class HypothesisViolated(ValueError):
    """-lambda is (numerically) in the spectrum of kappa0 for some mode."""


class NeumannDiverges(RuntimeError):
    """The first correction N0 z kappa1(z), N0 = (kappa0 + lambda)^-1, reaches norm 1 on the nu-ball."""


class NonFiniteSolution(RuntimeError):
    """The solved fields or their diagnostics hold NaN or infinity."""


@dataclass
class PairSeries:
    """A causal source over one ModeTable, stored as the columns it loads.

    modes are the sorted table positions of the columns that carry a
    nonzero sample and samples (n_samples, len(modes), 2) their (e, h)
    values on the grid; every other column of the table is zero.  The rows
    before t = 0 must vanish to within SOURCE_CAUSALITY_TOL and are then
    zeroed, once, on the data as given, so whether a source solves does not
    depend on a later scaling or on the material.  Columns left without a
    nonzero sample are dropped.
    """

    table: ModeTable
    grid: TimeGrid
    modes: np.ndarray
    samples: np.ndarray

    def __post_init__(self) -> None:
        modes = np.asarray(self.modes)
        if modes.ndim != 1 or modes.size and not (modes.dtype.kind in "iu" and np.all(np.diff(modes) > 0)
                                                  and 0 <= modes[0] and modes[-1] < self.table.n_modes):
            raise ValueError(f"modes must be increasing table positions below {self.table.n_modes}")
        samples = np.array(self.samples, dtype=np.complex128)
        if samples.shape != (self.grid.n_samples, modes.size, 2):
            raise ValueError(f"samples shape {samples.shape} != {(self.grid.n_samples, modes.size, 2)}")
        z = self.grid.zero_index
        if not np.all(np.abs(samples[:z]) <= SOURCE_CAUSALITY_TOL):
            raise ValueError("source must vanish on t < 0")
        samples[:z] = 0.0
        loaded = np.any(samples != 0, axis=(0, 2))
        self.modes, self.samples = modes[loaded].astype(np.intp), samples[:, loaded]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.samples), initial=0.0))


def _check_scenario_data(table: ModeTable, K: int, grid: TimeGrid, nu: float, source_J: PairSeries | None) -> None:
    if not nu > 0:
        raise ValueError(f"nu must be > 0, got {nu}")
    if grid.zero_index == grid.n_samples:
        raise ValueError("time grid has no sample at t >= 0, where the initial datum is taken")
    grid.require_zero()
    if table.K != K:
        raise ValueError(f"W0 table truncation {table.K} != K={K}")
    if source_J is not None:
        if source_J.table is not table:
            raise ValueError("source_J must live on the W0 mode table")
        if source_J.grid != grid:
            raise ValueError("source_J grid differs from the scenario grid")


@dataclass
class DBFScenario:
    """Classical chiral run: constants (epsilon, mu, eta), data, and grid."""

    epsilon: float
    mu: float
    eta: float
    nu: float
    K: int
    grid: TimeGrid
    W0: FieldPair
    source_J: PairSeries | None = None

    def __post_init__(self) -> None:
        if not self.epsilon > 0 or not self.mu > 0:
            raise ValueError(f"epsilon, mu must be > 0, got {self.epsilon}, {self.mu}")
        if self.eta == 0:
            raise ValueError("eta must be nonzero; eta = 0 is the achiral limit")
        _check_hermitian_posdef(np.diag([self.epsilon, self.mu]))
        _check_scenario_data(self.table, self.K, self.grid, self.nu, self.source_J)

    @property
    def table(self) -> ModeTable:
        return self.W0.table


@dataclass
class GeneralizedScenario:
    """Operator material law run: kappa/Mstar pairs and optional cross coupling.

    kappa0 and Mstar0 are 2x2 matrices, the block-scalar core acting on the
    (e, h) pair of every mode, selfadjoint with positive spectral floor; any
    other shape is rejected.  kappa1 and Mstar1 are polynomial symbols in
    the causal antiderivative; delay terms are out of scope here.  k_cross, when set,
    is the fixed coupling vector of the constant term f -> k_cross x f added
    to Mstar1 at order zero (any physical prefactors are premultiplied into
    the vector, which is treated as dimensionless).  The term keeps the
    wavevector, so it couples only the three modes sharing one.
    """

    kappa0: np.ndarray
    Mstar0: np.ndarray
    nu: float
    K: int
    grid: TimeGrid
    W0: FieldPair
    kappa1: MaterialSymbol | None = None
    Mstar1: MaterialSymbol | None = None
    k_cross: np.ndarray | None = None
    source_J: PairSeries | None = None

    def __post_init__(self) -> None:
        self.kappa0, self.Mstar0 = (np.asarray(M, dtype=np.complex128) for M in (self.kappa0, self.Mstar0))
        for name, M in (("kappa0", self.kappa0), ("Mstar0", self.Mstar0)):
            if M.shape != (2, 2):
                raise ValueError(f"{name} must be a 2x2 matrix, got shape {M.shape}")
        _check_hermitian_posdef(self.kappa0)
        _check_hermitian_posdef(self.Mstar0)
        for name, sym in (("kappa1", self.kappa1), ("Mstar1", self.Mstar1)):
            if sym is None:
                continue
            if sym.dim != 2:
                raise ValueError(f"{name} must have dim 2, got {sym.dim}")
            if sym.delays:
                raise ValueError(f"{name} must be polynomial; delay terms are not supported")
        if self.k_cross is not None:
            self.k_cross = np.asarray(self.k_cross, dtype=float).reshape(3)
            if not np.any(self.k_cross):
                self.k_cross = None
        _check_scenario_data(self.table, self.K, self.grid, self.nu, self.source_J)

    @property
    def table(self) -> ModeTable:
        return self.W0.table


class ScaledSeries(np.lib.mixins.NDArrayOperatorsMixin):
    """Read-only (n, m) series factor * base, factor per column: [rows, cols] forms only factor[cols] *
    base[rows, cols], the products a whole-array scaling makes; np.asarray and operators form all."""

    def __init__(self, factor: np.ndarray, base: np.ndarray):
        self.factor, self.base, self.shape = factor, base, base.shape

    def __getitem__(self, key):
        rows, cols = key if isinstance(key, tuple) else (key, slice(None))
        return self.factor[cols] * self.base[rows, cols]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self[:, :], dtype=dtype)


def _columns(a, cols):
    """a[:, cols]; for a ScaledSeries, the ScaledSeries of those columns, still formed only where it is read."""
    return ScaledSeries(a.factor[cols], a.base[:, cols]) if isinstance(a, ScaledSeries) else a[:, cols]


@dataclass
class FieldHistory:
    """Solved run: E, H, D, B coefficient series plus solver diagnostics.

    Arrays are (n_samples, n_modes); the t = 0 row stores right limits and
    rows before 0 are exactly zero for causal data.  D and B may be
    ScaledSeries of E and H (the classical law), read like the arrays.  A
    solve sets energy and tracked to those of its PieceFold.
    """

    table: ModeTable
    grid: TimeGrid
    nu: float
    E: np.ndarray
    H: np.ndarray
    D: np.ndarray
    B: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    energy: np.ndarray | None = None
    tracked: np.ndarray | None = None

    def __post_init__(self) -> None:
        shape = (self.grid.n_samples, self.table.n_modes)
        for name in ("E", "H", "D", "B"):
            arr = getattr(self, name)
            arr = arr if isinstance(arr, ScaledSeries) else np.asarray(arr, dtype=np.complex128)
            if arr.shape != shape:
                raise ValueError(f"{name} shape {arr.shape} != {shape}")
            setattr(self, name, arr)


def column_chunks(n_rows: int, n_cols: int) -> list:
    """Column slices of about COLUMN_CHUNK_BYTES of complex (n_rows, width) data, none one column
    wide unless n_cols is 1: numpy sums a lone column over axis 0 pairwise but wider arrays row by
    row, so per-column results match one whole-array pass bit for bit."""
    width = max(2, COLUMN_CHUNK_BYTES // (16 * max(n_rows, 1)))
    edges = [a for a in range(0, n_cols, width) if a == 0 or a < n_cols - 1] + [n_cols]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _source_columns(s, keep: np.ndarray) -> tuple:
    """The sourced table positions of scenario s where the mask keep holds, and their samples (n, k, 2)."""
    if s.source_J is None:
        return np.zeros(0, dtype=np.intp), np.zeros((s.grid.n_samples, 0, 2), dtype=np.complex128)
    kept = keep[s.source_J.modes]
    return s.source_J.modes[kept], s.source_J.samples[:, kept]


def _as_slice(cols: np.ndarray):
    """Increasing positions cols as a slice when they are consecutive, so indexing with them views, not copies."""
    return slice(cols[0], cols[-1] + 1) if cols.size and cols[-1] - cols[0] == cols.size - 1 else cols


def _block_pieces(method: str, grid: TimeGrid, nu: float, M0: np.ndarray, groups: list, w0: np.ndarray,
                  source: tuple, closed: np.ndarray | None, fp_tol: float, max_iter: int, tally: dict,
                  doubled: bool = False):
    """Solve the blocks with data, jumps w0 (n_blocks, d) and sources (idx, samples (n, len(idx), d)), piece by piece.

    Each group (blocks, M1, lift) shares M0, M1 and A = 0; lift holds the
    flux symbol's coefficients, either in every group or in none.  One
    rotation_closed_form call per column chunk solves the blocks flagged
    closed and, under "auto" and "exact", every rotation block; "exact"
    raises WrongCase on any other.  Each other group makes one call: the
    exact propagator, which also lifts the flux, under "auto" and
    "integrator", and Picard under "fixed_point".  Yields (blocks, fields
    (d, n, len(blocks)), flux of the same shape or None without lifts) for
    each call as it returns, the groups in block order and then the
    closed-form chunks, whose arrays are scratch that the next chunk
    overwrites; the flux the propagator does not read off its state is the
    lift applied with the trapezoid running integral, per group.  With
    doubled, each call also takes the doubled data as more columns, after
    the data's, so fields is (d, n, 2 len(blocks)): a kernel solves each
    column as if alone.  Once every group is tried, the first failing
    block's error is raised, the data's before the doubled data's.  tally
    receives the data's Picard "iterations" and "contraction" estimate.
    """
    (n_blocks, d), n = w0.shape, grid.n_samples
    A, row, c = np.zeros((d, d)), np.full(n_blocks, -1), np.zeros(n_blocks)
    row[source[0]] = np.arange(len(source[0]))
    data = np.any(w0 != 0, axis=1)
    data[source[0]] |= np.any(source[1] != 0, axis=(0, 2))
    closed = data & (False if closed is None else closed)
    lifts, lift_of = [], np.full(n_blocks, -1)  # each block's flux symbol in lifts
    tally.update(iterations=0, contraction=0.0)
    n_copies = 2 if doubled else 1

    def copies(a, axis=0):  # a, and beside it the doubled data when asked for
        return np.concatenate([a, 2.0 * a], axis=axis) if doubled else a

    failure = None  # (copy, block, error) of the first failure
    for blocks, M1, lift in sorted(groups, key=lambda group: group[0][0]):  # block order: a failure ends early
        propagated = method == "integrator"
        try:
            c[blocks] = _rotation_constant(M0, M1, A)[2]
            closed[blocks] |= data[blocks] & (method in ("auto", "exact"))
        except WrongCase:
            propagated |= method == "auto"
        if lift is not None and not propagated:  # the flux is lifted here, not read off the propagator's state
            lift_of[blocks] = len(lifts)
            lifts.append(MaterialSymbol(d, lift))
        cols = blocks[data[blocks] & ~closed[blocks]]
        if not cols.size or (failure is not None and (0, cols[0]) > failure[:2]):
            continue
        k = row[cols]
        f = np.zeros((n, len(cols), d), dtype=np.complex128)
        f[:, k >= 0] = source[1][:, k[k >= 0]]
        f, w = copies(f, 1), copies(w0[cols])
        try:
            if method == "exact":
                raise WrongCase("method 'exact' needs rotation blocks, and this law has a block that is not a "
                                "rotation; use method 'auto' or 'integrator'")
            flux = None
            if propagated:
                sol, flux = solve_propagator_blocks(M0, M1, f, w, grid, lift)
            else:
                sol, iters, cest, _ = solve_fixed_point_blocks(M0, M1, A, f, w, grid, nu, max_iter, fp_tol)
                tally["iterations"] = max(tally["iterations"], int(iters[:len(cols)].max()))
                tally["contraction"] = max(tally["contraction"], cest)
                if lift is not None:
                    flux = _apply_symbol_time(lifts[-1], sol[:, :len(cols)], grid)
        except (WrongCase, NotContractive, NoConvergence) as exc:
            copy, at = divmod(getattr(exc, "block", 0), len(cols))
            if failure is None or (copy, cols[at]) < failure[:2]:
                failure = (copy, cols[at], exc)
            continue
        yield cols, sol.transpose(2, 0, 1), None if flux is None else flux[:, :len(cols)].transpose(2, 0, 1)
    if failure is not None:
        raise failure[2]
    closed_cols = np.nonzero(closed)[0]
    chunks = column_chunks(n, closed_cols.size)  # every closed-form operation is per column
    # One output for every chunk: a fresh ~1 MB array per chunk faults its pages in again.
    widest = max((cols.stop - cols.start for cols in chunks), default=0)
    scratch = np.zeros((2 if lifts else 1, 2, n, n_copies * widest), dtype=np.complex128)
    for chunk in chunks:
        cols = closed_cols[chunk]
        k = row[cols]
        fields = rotation_closed_form(M0[0, 0].real, M0[1, 1].real, np.tile(c[cols], n_copies), copies(w0[cols]), grid,
                                      (np.nonzero(np.tile(k, n_copies) >= 0)[0], copies(source[1][:, k[k >= 0]], 1)),
                                      scratch[0, ..., :n_copies * len(cols)])
        flux = None
        if lifts:
            flux = scratch[1, ..., :len(cols)]
            for g in set(lift_of[cols].tolist()):
                at = np.nonzero(lift_of[cols] == g)[0]
                lifted = _apply_symbol_time(lifts[g], fields[..., at].transpose(1, 2, 0), grid)
                flux[..., at] = np.moveaxis(lifted, -1, 0)
        yield cols, fields, flux


def solution_diagnostics(s, method: str, fold: PieceFold, iterations: int, contraction: float,
                         kernel: list = (), near_kernel: list = (), **extra) -> dict:
    """The diagnostics both models report, the field checks read from a closed PieceFold of the solve.

    kernel and near_kernel are table positions reported by mode key; extra holds the model's own keys.
    NonFiniteSolution is raised when a numeric diagnostic is NaN or infinite: causality_sup reads every field
    value before t = 0 and the weak residual every one from t = 0 on, so a non-finite field value shows in one of
    them.
    """
    table = s.table
    diagnostics = {
        "method": method,
        "n_modes": int(table.n_modes),
        "kernel_modes": [str(table.modes[i].key()) for i in kernel],
        "near_kernel_modes": [str(table.modes[i].key()) for i in near_kernel],
        "iterations": int(iterations),
        "contraction_estimate": float(contraction),
        "initial_value_error": fold.initial_value_error,
        "causality_sup": fold.causality_sup,
        "weak_residual": fold.weak_residual,
        "nu": float(s.nu),
        **extra,
    }
    bad = [key for key, v in diagnostics.items() if isinstance(v, (int, float)) and not np.isfinite(v)]
    if bad:
        raise NonFiniteSolution(f"non-finite values in {', '.join(bad)}")
    return diagnostics


def _dbf_blocks(s: DBFScenario, method: str) -> tuple:
    """Reduce a classical scenario in one pass: the arguments of _block_pieces up to the stop rule, one block per
    table position, the table positions (m, 1) of each block's mode, and the kernel and near-kernel masks.

    This is the one place where the kernel of (1 + eta curl), the modes of
    ModeTable.kernel_mask, and the coupling are decided.  Solvability needs
    the source and the initial datum in the closed range, which over the
    truncated table means no data on a kernel mode: a W0 or source value
    there above RANGE_TOL times the largest W0 or source value (floor 1)
    raises RangeViolation.  Mode lambda gets M0 = diag(eps, mu),
    c_lambda = lambda / (1 + eta lambda) and its data divided by
    1 + eta lambda, the inverse of (1 + eta curl) on its range.  Kernel
    modes are in no group, so they stay exactly zero: the projection onto
    the range.  Near-kernel modes (|1 + eta lambda| <= NEAR_KERNEL_BAND)
    make c_lambda stiff: they are flagged, with a warning, and solved in
    closed form under any method, as every mode with data is under "exact";
    fixed_point and integrator make one call per group of modes with one
    eigenvalue.
    """
    if method not in DBF_METHODS:
        raise ValueError(f"method must be one of {DBF_METHODS}, got {method!r}")
    table = s.table
    factors, kernel = 1.0 + s.eta * table.eigenvalues, table.kernel_mask(s.eta)
    load = np.maximum(np.abs(s.W0.e_part.coeffs), np.abs(s.W0.h_part.coeffs))  # the largest datum per mode
    scale = max(1.0, float(np.max(load, initial=0.0)))
    if s.source_J is not None:
        scale = max(scale, s.source_J.max_abs())
        cols = s.source_J.modes
        load[cols] = np.maximum(load[cols], np.max(np.abs(s.source_J.samples), axis=(0, 2), initial=0.0))
    bad = np.nonzero(kernel & (load > RANGE_TOL * scale))[0]
    if bad.size:
        raise RangeViolation(
            f"data loads {bad.size} kernel mode(s) of (1 + eta curl): "
            f"{[(str(table.modes[i].key()), float(load[i])) for i in bad[:4]]}, "
            f"max |coeff| = {float(np.max(load[bad])):.3g}"
        )
    near = ~kernel & (np.abs(factors) <= NEAR_KERNEL_BAND)
    if np.any(near):
        warnings.warn(
            f"{np.count_nonzero(near)} mode(s) within {NEAR_KERNEL_BAND} of the kernel of (1 + eta curl); "
            "rotation coefficients are stiff, forcing the exact modal method",
            stacklevel=2,
        )
    keep, coupling = ~kernel, np.zeros(table.n_modes)
    coupling[keep] = table.eigenvalues[keep] / factors[keep]
    w0 = np.zeros((table.n_modes, 2), dtype=np.complex128)
    w0[keep] = np.stack([s.W0.e_part.coeffs[keep], s.W0.h_part.coeffs[keep]], axis=1) / factors[keep, None]
    idx, samples = _source_columns(s, keep)
    samples = samples / factors[idx, None]
    groups = [(np.nonzero(keep & (coupling == c))[0],
               MaterialSymbol(dim=2, poly_coeffs=[c * J2]) if c != 0.0 else MaterialSymbol.zero(2), None)
              for c in set(coupling[keep].tolist())]  # not np.unique: its first call imports numpy.ma
    M0 = np.diag([s.epsilon, s.mu]).astype(np.complex128)
    problem = (method, s.grid, s.nu, M0, groups, w0, (idx, samples), near)
    return problem, np.arange(table.n_modes)[:, None], kernel, near


def field_pieces(s, method: str, *, fp_tol: float = DEFAULT_FP_TOL, max_iter: int = DEFAULT_MAX_ITER,
                 tally: dict | None = None, doubled: bool = False):
    """Solve a scenario of either model and yield it piece by piece: (table positions, E, H, D, B), each (n, k),
    for each piece of _block_pieces and each mode of its blocks, the k positions a slice where they are
    consecutive; with doubled, also E2 and H2, the solve of the doubled data, from the same calls.  This is the one
    mapping from blocks to table positions: run stores the pieces (solve) and verify folds them.  The
    classical D and B are ScaledSeries of the piece's E and H by flux_factors, formed only where they are read.  A
    piece's arrays may be overwritten once the next is asked for, and the positions no piece names hold zero fields,
    so no whole field or flux pair is ever formed.  tally, when given, receives the keyword arguments of
    solution_diagnostics that the setup and the solve provide."""
    tally = {} if tally is None else tally
    if isinstance(s, DBFScenario):
        problem, modes_of, kernel, near = _dbf_blocks(s, method)
        tally.update(kernel=np.nonzero(kernel)[0], near_kernel=np.nonzero(near)[0])
    else:
        problem, modes_of, margin, q0_sup = _generalized_blocks(s, method)
        tally.update(hypothesis_margin=margin, q0_sup=q0_sup)
    for blocks, fields, flux in _block_pieces(*problem, fp_tol, max_iter, tally, doubled):
        k = len(blocks)
        for j in range(modes_of.shape[1]):
            cols, E, H = _as_slice(modes_of[blocks, j]), fields[2 * j, :, :k], fields[2 * j + 1, :, :k]
            D, B = flux[2 * j:2 * j + 2] if flux is not None else (
                ScaledSeries(c, a) for c, a in zip(flux_factors(s, cols), (E, H)))
            yield cols, E, H, D, B, *(fields[2 * j:2 * j + 2, :, k:] if doubled else ())


class PieceFold:
    """The field checks of one solve, folded over its pieces as they come, so no (n, m) field is held.

    A piece is (table positions, E, H, D, B), each (n, k), and optionally the
    E2 and H2 of the doubled-data solve at the same positions.  Per mode the
    fold keeps the initial-value term, the weak residual and peak, the
    largest |E|, |H|, |D| or |B| (NaN if a value is); over all modes, the
    largest value before t = 0 (causality_sup), the largest |E|, |H|, |D|,
    |B| (maxima), the doubling gap max(|E2 - 2 E|, |H2 - 2 H|) and, with
    energy, the row sums from t = 0 on of |E|^2, |H|^2 and, under the
    generalized law, conj(E) H, each over a piece's whole width.  close()
    folds the positions no piece named as zero fields and then sums each
    per-mode array once, over all modes, as one whole-array pass does.  It
    forms tracked, the positions with a nonzero (or NaN) peak or with data,
    and energy, the material energy per sample (eps |E|^2 + mu |H|^2, or
    the quadratic form of the generalized law's Mstar0), +0.0 before t = 0.

    Initial value: the flux-pair right limit, the t = 0 row, against W0 in
    the proxy norm with per-mode weight (1 + lambda^2)^(-1/2).  Weak
    residual: integrating the equation once in time removes the Dirac datum,
    so for t >= 0 the residual pair is (D, B)(t) + int_0^t [lambda J (E, H)
    - J_src] - W0, evaluated per mode with the composite Simpson rule, except
    that a step source with its onset after t = 0 is integrated exactly.
    Per-mode weighted L2 norms in time are scaled by (1 + lambda^2)^(-1/2),
    the proxy for the dual norm where the equation holds, and summed.  Only
    data and eigenvalues enter, so both models share it.

    Every operation is per column, on column chunks that reuse one set of
    scratch arrays, and a lone column's sum over rows is taken beside a zero
    column: numpy sums a lone column pairwise but wider arrays row by row
    (see column_chunks), so per-mode values match one whole-array pass bit
    for bit, whatever the pieces.
    """

    def __init__(self, s, grid: TimeGrid, lam: np.ndarray, energy: bool = False):
        n, z = grid.n_samples, grid.zero_index
        self.grid, self.lam, self.e0, self.h0 = grid, lam, s.W0.e_part.coeffs, s.W0.h_part.coeffs
        self.times = grid.times[z:]
        self.weight, self.wt = 1.0 / (1.0 + lam**2), np.exp(-2.0 * s.nu * self.times)[:, None]
        self.named = np.zeros(lam.size, dtype=bool)
        self.peak, self.iv, self.resid = np.zeros((3, lam.size))
        self.maxima, self.causality_sup, self.gap = np.zeros(4), 0.0, 0.0
        self.energy, self.sums = None, None
        if energy:  # the weights of the row sums of |E|^2, |H|^2 and, under the generalized law, conj(E) H
            M = None if isinstance(s, DBFScenario) else s.Mstar0
            self.law = (s.epsilon, s.mu) if M is None else (M[0, 0].real, M[1, 1].real, M[0, 1])
            self.sums = [np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.complex128)][:len(self.law)]
        # column[i]: table position i's column of the source, or -1; steps are found once, per column.
        self.column = np.full(lam.size, -1)
        if s.source_J is None:
            self.source = np.zeros((n - z, 0, 2), dtype=np.complex128)
        else:
            self.column[s.source_J.modes], self.source = np.arange(len(s.source_J.modes)), s.source_J.samples[z:]
        self.first, self.at, self.before, step = step_columns(self.source)
        self.late = step & (self.first > 0)
        width = min(max(2, COLUMN_CHUNK_BYTES // (16 * n)) + 1, lam.size)  # column_chunks' widest chunk
        self._c, self._f = np.empty((2, n, width), dtype=np.complex128), np.empty((2, n, width))

    def add(self, cols, E, H, D, B, *doubled) -> None:
        """Fold one piece; doubled holds the doubled-data E2 and H2 at the same positions, or nothing."""
        at = np.arange(self.lam.size)[cols]
        self.named[at] = True
        if self.sums is not None:  # each row summed over the piece's whole width, as over a stored table
            step = max(1, COLUMN_CHUNK_BYTES // (16 * max(at.size, 1)))
            # Huge fields overflow to an infinite energy, which is the answer: verify reports it as drift inf.
            with np.errstate(over="ignore"):
                for rows in (slice(i, i + step) for i in range(self.grid.zero_index, len(E), step)):
                    self.sums[0][rows] += np.sum(np.abs(E[rows]) ** 2, axis=1)
                    self.sums[1][rows] += np.sum(np.abs(H[rows]) ** 2, axis=1)
                    if len(self.sums) > 2:
                        self.sums[2][rows] += np.sum(np.conj(E[rows]) * H[rows], axis=1)
        for chunk in column_chunks(len(E), at.size):
            self._fold(at[chunk], *(_columns(a, chunk) for a in (E, H, D, B, *doubled)))

    def _fold(self, p, E, H, D, B, *doubled) -> None:
        k, z, dt = p.size, self.grid.zero_index, self.grid.dt
        mag = self._f[0, :, :k]
        for i, a in enumerate((E, H, D, B)):
            np.abs(a, out=mag)  # np.max and np.maximum keep a NaN
            self.causality_sup = np.maximum(self.causality_sup, np.max(mag[:z], initial=0.0))
            top = np.max(mag, axis=0)
            self.peak[p] = np.maximum(self.peak[p], top)
            self.maxima[i] = np.maximum(self.maxima[i], np.max(top))
        twice = self._c[0, :, :k]
        for a, b in zip(doubled, (E, H)):
            np.subtract(a, np.multiply(b, 2.0, out=twice), out=twice)
            self.gap = np.maximum(self.gap, np.max(np.abs(twice, out=mag)))
        self.iv[p] = self.weight[p] * (np.abs(D[z] - self.e0[p]) ** 2 + np.abs(B[z] - self.h0[p]) ** 2)

        # Each residual component (r_e, then r_h) is formed and squared before the next, in one scratch array.
        integrand, r = self._c[:, z:, :k]
        column = self.column[p]
        loaded = np.nonzero(column >= 0)[0]
        column = column[loaded]
        late = self.late[column]
        ramp = self.times[:, None] - self.times[self.first[column[late]]]  # a (t - t_onset) from the onset on
        ramp[self.before[:, column[late]]] = 0.0
        # A whole-array pass sums rows one by one unless the table is one column wide.
        total = self._f[:, z:, :max(k, min(2, self.lam.size))]
        total[0, :, k:] = 0.0
        for scale, a, flux, w0, channel in ((-self.lam[p], H, D, self.e0, 0), (self.lam[p], E, B, self.h0, 1)):
            np.multiply(scale, a[z:], out=integrand)
            integrand[:, loaded[~late]] -= self.source[:, column[~late], channel]
            running_simpson(integrand, dt, r)
            r += flux[z:]
            r[:, loaded[late]] -= self.at[column[late], channel] * ramp
            r -= w0[None, p]
            np.square(np.abs(r, out=total[channel, :, :k]), out=total[channel, :, :k])
        total[0, :, :k] += total[1, :, :k]
        np.multiply(self.wt, total[0, :, :k], out=total[0, :, :k])
        self.resid[p] = np.sqrt(dt * np.sum(total[0], axis=0)[:k])

    def close(self) -> "PieceFold":
        """Fold the positions no piece named as zero fields, then take the sums over modes."""
        rest = np.nonzero(~self.named)[0]
        chunks = column_chunks(self.grid.n_samples, rest.size)
        if chunks:
            zero = np.zeros((self.grid.n_samples, max(c.stop - c.start for c in chunks)), dtype=np.complex128)
            for chunk in chunks:
                self._fold(rest[chunk], *[zero[:, :chunk.stop - chunk.start]] * 4)
        self.initial_value_error = float(np.sqrt(np.sum(self.iv)))
        self.weak_residual = float(np.sum(self.resid / np.sqrt(1.0 + self.lam**2)))
        self.causality_sup, self.gap = float(self.causality_sup), float(self.gap)
        self.tracked = np.nonzero((self.peak != 0) | (self.e0 != 0) | (self.h0 != 0) | (self.column >= 0))[0]
        if self.sums is not None:
            (a, b, *c), (ee, hh, *cross) = self.law, self.sums
            self.energy = a * ee + b * hh  # +0.0 before t = 0, where no row is summed
            if c:
                self.energy += 2.0 * np.real(c[0] * cross[0])
        return self


def fold_pieces(s, pieces, *, energy: bool = False, grid: TimeGrid | None = None,
                lam: np.ndarray | None = None) -> PieceFold:
    """Fold the pieces of a solve of s into a closed PieceFold; grid and lam default to s's grid and eigenvalues."""
    fold = PieceFold(s, s.grid if grid is None else grid, s.table.eigenvalues if lam is None else lam, energy)
    for piece in pieces:
        fold.add(*piece)
    return fold.close()


def solve(s, method: str, *, fp_tol: float = DEFAULT_FP_TOL, max_iter: int = DEFAULT_MAX_ITER) -> FieldHistory:
    """Solve a scenario of either law and store it.  The setups _dbf_blocks and _generalized_blocks state what each
    method does; positions without data or on the kernel hold zero fields.  The pieces of field_pieces are written
    into table-ordered E and H, and D and B under the generalized law (the classical ones are ScaledSeries of E and
    H); the diagnostics, energy and tracked positions are those of the stored series, folded by fold_pieces as one
    piece, which the fold cuts into column chunks as it does verify's pieces.

    The fold runs once all is stored: folding in lockstep holds the fold's scratch beside the growing fields.
    """
    tally = {}
    stored = np.zeros((2 if isinstance(s, DBFScenario) else 4, s.grid.n_samples, s.table.n_modes), dtype=np.complex128)
    for cols, *piece in field_pieces(s, method, fp_tol=fp_tol, max_iter=max_iter, tally=tally):
        for out, a in zip(stored, piece):
            out[:, cols] = a
        piece = a = None  # a piece may view the closed-form scratch: it is released before the next one and the fold
    E, H, *flux = stored
    D, B = flux or (ScaledSeries(factor, base) for factor, base in zip(flux_factors(s), (E, H)))
    fold = fold_pieces(s, [(slice(None), E, H, D, B)], energy=True)
    return FieldHistory(s.table, s.grid, s.nu, E, H, D, B, solution_diagnostics(s, method, fold, **tally),
                        fold.energy, fold.tracked)


def flux_factors(s: DBFScenario, cols=slice(None)) -> tuple:
    """The classical law's flux factors (1 + eta lambda) eps and (1 + eta lambda) mu at the table positions cols:
    (D, B) scale (E, H) by them, mode by mode."""
    factor = 1.0 + s.eta * s.table.eigenvalues[cols]
    return factor * s.epsilon, factor * s.mu


def _wavevector_blocks(table: ModeTable) -> list:
    """Table positions grouped by wavevector in table order; the const modes share k = 0."""
    groups: dict[tuple, list] = {}
    for i, k in enumerate(map(tuple, table.kvectors)):
        groups.setdefault(k, []).append(i)
    return list(groups.values())


def _cross_block(k_cross: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """Entries conj(p_i) . (k_cross x p_j) over the amplitudes of one wavevector."""
    return np.conj(amplitudes) @ np.cross(k_cross, amplitudes).T


def _block_diag(blocks) -> np.ndarray:
    """Block-diagonal (..., 2w, 2w) array of the w blocks (w, ..., 2, 2), exact zeros elsewhere."""
    blocks = np.asarray(blocks, dtype=np.complex128)
    out = np.zeros(blocks.shape[1:-2] + (2 * len(blocks),) * 2, dtype=np.complex128)
    for b, C in enumerate(blocks):
        out[..., 2 * b:2 * b + 2, 2 * b:2 * b + 2] = C
    return out


def _block_law(g: GeneralizedScenario, lams, n0, X: np.ndarray | None = None) -> tuple[MaterialSymbol, np.ndarray]:
    """The symbol M1 and the product symbol P (order, 2w, 2w) of one block of w modes with eigenvalues lams.

    The block has kappa_b(z) + Lambda and Mstar_b(z) = blockdiag(Mstar(z))
    + z X (X the cross term over the block, None for none), so its law is
    d/dt P(Dinv) u + Lambda J u = j with P = (kappa_b + Lambda) Mstar_b,
    the product symbol that lifts the solution to the flux pair.  Multiplied
    by N0 = (kappa0 + Lambda)^-1, given per mode as n0, it has
    M1(z) = N0 (P(z) - P(0)) / z + N0 Lambda J, since N0 P(0) = Mstar0.
    Trailing zero orders leave both together (N0 is invertible), so a
    memoryless block with lambda = 0 has the zero symbol.
    """
    k1, s1 = (np.reshape(sym.poly_coeffs if sym else [], (-1, 2, 2)) for sym in (g.kappa1, g.Mstar1))
    if X is not None and not len(s1):
        s1 = np.zeros((1, 2, 2))
    kappa = _block_diag([np.concatenate([[g.kappa0 + lv * I2], k1]) for lv in lams])
    mstar = _block_diag([np.concatenate([[g.Mstar0], s1])] * len(lams))
    if X is not None:
        mstar[1] += X
    P = np.zeros((max(len(kappa) + len(mstar) - 1, 2),) + mstar.shape[1:], dtype=np.complex128)
    for i, C in enumerate(kappa):
        P[i:i + len(mstar)] += C @ mstar
    M1 = _block_diag(n0) @ P[1:]
    M1[0] += _block_diag([lv * (N @ J2) for lv, N in zip(lams, n0)])
    order = max(np.flatnonzero(np.any(M1, axis=(1, 2)) | np.any(P[1:], axis=(1, 2))), default=-1) + 1
    return MaterialSymbol(dim=2 * len(lams), poly_coeffs=M1[:order]), P[:order + 1]


def _hypothesis_scan(shifted: np.ndarray, lams: list) -> float:
    """Smallest relative singular-value margin of shifted[i] = kappa0 + lams[i], lams sorted and distinct.

    Raises HypothesisViolated when any eigenvalue makes the shifted block
    numerically singular.
    """
    rel = np.linalg.svd(shifted, compute_uv=False)[:, -1] / np.maximum(1.0, np.abs(lams))
    bad = np.nonzero(rel <= HYPOTHESIS_TOL)[0]
    if bad.size:
        raise HypothesisViolated(
            f"kappa0 + lambda is numerically singular for eigenvalue(s) {[lams[i] for i in bad]}; "
            f"relative margin(s) {[f'{rel[i]:.2g}' for i in bad]} <= {HYPOTHESIS_TOL}"
        )
    return float(np.min(rel))


def _generalized_blocks(g: GeneralizedScenario, method: str) -> tuple:
    """The arguments of _block_pieces up to the stop rule for an operator-law scenario, the table positions
    modes_of (n_blocks, width) of each block's modes, the hypothesis margin and the q0 sup.

    The reduction is per eigenvalue: N0 = (kappa0 + lambda)^-1 turns the
    law into one 2x2 operator shared by every mode with that lambda (see
    _block_law), and the data into N0 j and N0 W0 for all of them at once.
    Each group of modes is solved in one call.  Method "auto" uses the
    closed form when the coupling degenerates to a real rotation and
    otherwise the exact propagator, which steps the polynomial law exactly
    and needs no contraction, so it never raises NotContractive;
    "integrator" takes the propagator for every group, and explicit
    "fixed_point" is the Picard iteration, with the contraction test per
    group.  A nonzero k_cross couples the three modes of each wavevector
    (the const modes form the k = 0 block), so each wavevector is then one
    6x6 block with its own operator.  Blocks without data are skipped.
    NeumannDiverges is raised when the first correction
    sup |N0 z kappa1(z)| on the nu-ball reaches 1.  The flux pair is the
    product symbol (kappa(z) + lambda) Mstar(z) applied to the solution:
    the propagator reads it off its state, the other methods apply it with
    the trapezoid running integral; both reproduce W0 at t = 0+.
    """
    if method not in GENERALIZED_METHODS:
        raise ValueError(f"method must be one of {GENERALIZED_METHODS}, got {method!r}")
    table, grid = g.table, g.grid
    lam = table.eigenvalues
    n, m, zi = grid.n_samples, table.n_modes, grid.zero_index
    lams = sorted(set(lam.tolist()))  # not np.unique: its first call imports numpy.ma
    shifted = g.kappa0 + np.array(lams)[:, None, None] * I2
    margin = _hypothesis_scan(shifted, lams)
    n0, of_mode = np.linalg.inv(shifted), np.searchsorted(lams, lam)
    q0 = np.zeros(1)
    if g.kappa1 is not None:
        z = 1.0 / (1j * grid.frequencies + g.nu)  # the nu-ball, as the grid realizes it
        q0 = np.linalg.svd(n0[:, None] @ (z[:, None, None] * g.kappa1.evaluate(z)), compute_uv=False).max((1, 2))
        bad = np.flatnonzero(q0 >= 1.0)
        if bad.size:
            raise NeumannDiverges(f"memory first correction sup |N0 z kappa1(z)| = {q0[bad[0]]:.4g} >= 1 "
                                  f"at nu={g.nu} for eigenvalue lambda={lams[bad[0]]}; increase nu")

    if g.k_cross is None:
        modes_of = np.arange(m)[:, None]
        groups = [(np.nonzero(lam == lv)[0], *_block_law(g, [lv], [N0])) for lv, N0 in zip(lams, n0)]
    else:
        # f -> k_cross x f enters Mstar at order one in each wavevector block.
        modes_of = np.array(_wavevector_blocks(table))
        groups = [(np.array([b]), *_block_law(g, lam[idx], n0[of_mode[idx]],
                                              np.kron(_cross_block(g.k_cross, table.amplitudes[idx]), I2)))
                  for b, idx in enumerate(modes_of)]
    n_blocks, width = modes_of.shape
    block_of, slot = np.zeros((2, m), dtype=np.intp)
    block_of[modes_of], slot[modes_of] = np.arange(n_blocks)[:, None], np.arange(width)
    # One matrix-vector product per mode for the jump: stacking them changes the last bits.
    jump = np.stack([g.W0.e_part.coeffs, g.W0.h_part.coeffs], axis=1).astype(np.complex128)
    w0 = np.array([n0[k] @ v for k, v in zip(of_mode, jump)])
    # A block is sourced when one of its modes is; its other modes' source channels stay zero.
    sourced, j = _source_columns(g, np.ones(m, dtype=bool))
    blocks = np.array(sorted(set(block_of[sourced].tolist())), dtype=np.intp)
    reduced = np.zeros((n, len(blocks), width, 2), dtype=np.complex128)  # N0 j on the sourced blocks
    at_block, at_slot = np.searchsorted(blocks, block_of[sourced]), slot[sourced]
    for k, N0 in enumerate(n0):
        loaded = of_mode[sourced] == k
        reduced[zi:, at_block[loaded], at_slot[loaded]] += _rows_at(j[zi:, loaded], N0.T)
    M0 = _block_diag([g.Mstar0] * width)
    problem = (method, grid, g.nu, M0, groups, w0[modes_of].reshape(n_blocks, 2 * width),
               (blocks, reduced.reshape(n, len(blocks), 2 * width)), None)
    return problem, modes_of, margin, float(q0.max())
