"""Tests for the weighted-space transform calculus."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from dbf.paper import (
    NuTooSmall,
    Spectrum,
    UnsupportedOrder,
    apply_inverse_derivative,
    apply_symbol,
    check_nu_independence,
    delay_symbol,
    inverse_derivative_symbol,
    laplace_forward,
    laplace_inverse,
    sobolev_norm,
)
from dbf.weighted_time import MaterialSymbol, TimeGrid, WeightedSignal, running_simpson, running_trapezoid, weighted_norm

# Keep nu times the window length moderate: the unweighting by exp(nu (t - t_start))
# amplifies transform roundoff by the window's dynamic range, so raw sup-norm
# comparisons are only meaningful on well-conditioned windows.
GRID = TimeGrid(t_start=-4.0, dt=1.0 / 128.0, n_samples=1024, pad_fraction=0.25)


def random_signal(seed: int, grid: TimeGrid = GRID, nu: float = 1.0, channels: int = 1) -> WeightedSignal:
    """Smooth random signal supported in the core window, zero on the pad."""
    rng = np.random.default_rng(seed)
    t = grid.times
    samples = np.zeros((grid.n_samples, channels), dtype=np.complex128)
    envelope = oracles.bump(t, grid.t_start + 0.5, grid.t_start + grid.dt * grid.n_core - 0.5)
    for c in range(channels):
        freqs = rng.uniform(0.3, 3.0, size=4)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=4)
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        wave = sum(a * np.exp(1j * (f * t + p)) for a, f, p in zip(amps, freqs, phases))
        samples[:, c] = envelope * wave
    return WeightedSignal(grid, nu, samples)


class TestTimeGrid:
    def test_times_and_bookkeeping(self):
        g = TimeGrid(t_start=-1.0, dt=0.5, n_samples=8, pad_fraction=0.25)
        np.testing.assert_allclose(g.times, -1.0 + 0.5 * np.arange(8))
        assert g.n_pad == 2
        assert g.n_core == 6
        assert g.zero_index == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(t_start=0.0, dt=0.0, n_samples=8)
        with pytest.raises(ValueError):
            TimeGrid(t_start=0.0, dt=0.1, n_samples=1)
        with pytest.raises(ValueError):
            TimeGrid(t_start=0.0, dt=0.1, n_samples=8, pad_fraction=1.0)


class TestTransform:
    def test_zero_signal_zero_spectrum(self):
        u = WeightedSignal(GRID, 2.0, np.zeros(GRID.n_samples))
        s = laplace_forward(u)
        assert np.all(s.samples == 0)
        back = laplace_inverse(s)
        assert np.all(back.samples == 0)

    def test_gaussian_matches_analytic_transform(self):
        nu, t0, sigma = 2.0, 0.0, 0.3
        g = np.exp(-((GRID.times - t0) ** 2) / (2.0 * sigma**2))
        s = laplace_forward(WeightedSignal(GRID, nu, g))
        expect = oracles.gaussian_weighted_transform(GRID.frequencies, nu, t0, sigma)
        assert np.max(np.abs(s.samples[:, 0] - expect)) < 1e-8

    def test_amplified_gaussian_gives_plain_fourier_transform(self):
        # exp(nu t) times a gaussian cancels the weight, leaving the plain
        # Fourier transform of the gaussian.
        nu, t0, sigma = 2.0, 0.5, 0.3
        g = np.exp(-((GRID.times - t0) ** 2) / (2.0 * sigma**2))
        u = WeightedSignal(GRID, nu, np.exp(nu * GRID.times) * g)
        s = laplace_forward(u)
        expect = oracles.gaussian_weighted_transform(GRID.frequencies, 0.0, t0, sigma)
        assert np.max(np.abs(s.samples[:, 0] - expect)) < 1e-8

    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip(self, seed):
        u = random_signal(seed)
        back = laplace_inverse(laplace_forward(u))
        scale = max(weighted_norm(u), 1e-300)
        err = weighted_norm(WeightedSignal(u.grid, u.nu, u.samples - back.samples))
        assert err / scale < 1e-10

    @given(seed=st.integers(0, 2**32 - 1))
    def test_plancherel(self, seed):
        u = random_signal(seed)
        s = laplace_forward(u)
        assert s.ell2_norm() == pytest.approx(weighted_norm(u), rel=1e-10)

    def test_single_bin_spectrum_is_weighted_exponential(self):
        nu = 1.0
        m0 = 37
        coeffs = np.zeros(GRID.n_samples, dtype=np.complex128)
        coeffs[m0] = 1.0
        u = laplace_inverse(Spectrum(GRID, nu, coeffs))
        xi = GRID.frequencies[m0]
        # Direct evaluation of the inverse sum: one bin contributes the
        # weighted complex exponential with that frequency.
        expect = (np.sqrt(2.0 * np.pi) / (GRID.n_samples * GRID.dt)) * np.exp(
            (nu + 1j * xi) * GRID.times
        )
        assert np.max(np.abs(u.samples[:, 0] - expect)) < 1e-12 * np.max(np.abs(expect))


class TestInverseDerivative:
    def test_zero(self):
        u = WeightedSignal(GRID, 2.0, np.zeros(GRID.n_samples))
        assert np.all(apply_inverse_derivative(u).samples == 0)

    def test_indicator_gives_ramp(self):
        ind = ((GRID.times >= 0.0) & (GRID.times <= 1.0)).astype(float)
        out = apply_inverse_derivative(WeightedSignal(GRID, 2.0, ind))
        ramp = np.clip(GRID.times, 0.0, 1.0)
        assert np.max(np.abs(out.samples[:, 0] - ramp)) <= 2.0 * GRID.dt

    @given(seed=st.integers(0, 2**32 - 1), nu=st.sampled_from([1.0, 2.0, 4.0]))
    def test_norm_bound(self, seed, nu):
        u = random_signal(seed, nu=nu)
        out = apply_inverse_derivative(u)
        assert weighted_norm(out) <= (1.0 / nu) * weighted_norm(u) * (1.0 + 1e-3)

    def test_exactly_causal(self):
        samples = oracles.bump(GRID.times, 1.0, 2.0)
        out = apply_inverse_derivative(WeightedSignal(GRID, 2.0, samples))
        before = GRID.times < 1.0
        assert np.max(np.abs(out.samples[before])) == 0.0


# 699 and 701 are the rows from t = 0 of the benchmark's 800-sample verify grid and their odd and even
# neighbours: the Simpson cells pair up, so an odd and an even row count end differently.
KERNEL_LENGTHS = [1, 2, 3, 4, 5, 6, 7, 512, 699, 701, 800]
KERNEL_TRAILING = [(), (3,), (3, 2)]


def kernel_inputs(n: int, trailing: tuple, complex_values: bool) -> list:
    """Random samples behind a run of zeros, and all zeros, with random zero signs.

    Causal signals start with such runs, and the sign of a zero reaches the
    CSV bytes, so the kernels must also reproduce scipy's signed zeros.
    """
    rng = np.random.default_rng(1000 * n + len(trailing))
    shape = (n,) + trailing

    def draw(values):
        if not complex_values:
            return values()
        out = np.empty(shape, dtype=np.complex128)
        out.real, out.imag = values(), values()
        return out

    def normal():
        return rng.standard_normal(shape)

    def signed_zeros():
        return rng.choice([0.0, -0.0], size=shape)

    y = draw(normal)
    y[: n // 3] = draw(signed_zeros)[: n // 3]
    return [y, draw(signed_zeros)]


def assert_same_bits(ours: np.ndarray, reference: np.ndarray) -> None:
    assert ours.dtype == reference.dtype
    assert ours.shape == reference.shape
    np.testing.assert_array_equal(ours, reference)
    # assert_array_equal treats -0.0 and +0.0 as equal; the CSV writer does not.
    assert ours.tobytes() == reference.tobytes()


class TestRunningKernels:
    """The numpy kernels reproduce scipy's cumulative quadratures bit for bit."""

    @pytest.mark.parametrize("n", KERNEL_LENGTHS)
    @pytest.mark.parametrize("trailing", KERNEL_TRAILING)
    @pytest.mark.parametrize("complex_values", [False, True])
    def test_trapezoid_matches_scipy(self, n, trailing, complex_values):
        from scipy.integrate import cumulative_trapezoid

        for y in kernel_inputs(n, trailing, complex_values):
            for dx in (0.01, 1.0 / 128.0):
                assert_same_bits(running_trapezoid(y, dx), cumulative_trapezoid(y, dx=dx, axis=0, initial=0.0))

    @pytest.mark.parametrize("n", KERNEL_LENGTHS)
    @pytest.mark.parametrize("trailing", KERNEL_TRAILING)
    def test_simpson_matches_scipy(self, n, trailing):
        from scipy.integrate import cumulative_simpson

        for y in kernel_inputs(n, trailing, False):
            for dx in (0.01, 1.0 / 128.0):
                assert_same_bits(running_simpson(y, dx), cumulative_simpson(y, dx=dx, axis=0, initial=0.0))

    @pytest.mark.parametrize("n", KERNEL_LENGTHS)
    @pytest.mark.parametrize("trailing", KERNEL_TRAILING)
    def test_complex_simpson_matches_scipy_per_part(self, n, trailing):
        # running_simpson integrates complex input in one pass over its (re, im) float view; scipy
        # integrates the real and imaginary parts apart.  Signed zeros included, they agree, and an
        # infinite real part leaves the imaginary part alone, as complex arithmetic would not.  All
        # -0.0 input gives +0.0 per part, also below three samples, where the trapezoid stands in.
        from scipy.integrate import cumulative_simpson

        infinite = kernel_inputs(n, trailing, True)[0].copy()
        infinite[n // 2] = complex(np.inf, 1.0)
        negative_zeros = np.full(infinite.shape, complex(-0.0, -0.0))
        for y in kernel_inputs(n, trailing, True) + [infinite, negative_zeros]:
            for dx in (0.01, 1.0 / 128.0):
                reference = np.empty(y.shape, dtype=np.complex128)
                with np.errstate(invalid="ignore"):
                    reference.real = cumulative_simpson(y.real, dx=dx, axis=0, initial=0.0)
                    reference.imag = cumulative_simpson(y.imag, dx=dx, axis=0, initial=0.0)
                    assert_same_bits(running_simpson(y, dx), reference)


class TestApplySymbol:
    def test_identity_symbol(self):
        u = random_signal(7)
        out = apply_symbol(MaterialSymbol(1, [np.eye(1)]), u)
        err = weighted_norm(WeightedSignal(u.grid, u.nu, out.samples - u.samples))
        assert err < 1e-10 * weighted_norm(u)

    @pytest.mark.parametrize("h", [-0.1, -0.25, -1.0])
    def test_delay_matches_sample_shift(self, h):
        # dt divides every tested offset, so the direct shift is exact.
        grid = TimeGrid(t_start=-4.0, dt=0.0125, n_samples=640, pad_fraction=0.25)
        u = random_signal(11, grid=grid)
        out = apply_symbol(delay_symbol(h), u)
        shift = int(round(-h / grid.dt))
        expect = np.zeros_like(u.samples)
        expect[shift:] = u.samples[: grid.n_samples - shift]
        interior = slice(shift + 2, grid.n_samples - 2)
        err = np.max(np.abs(out.samples[interior] - expect[interior]))
        assert err < 1e-8 * np.max(np.abs(u.samples))

    def test_delay_semigroup_law(self):
        u = random_signal(13)
        h1, h2 = -0.25, -0.5
        one = apply_symbol(delay_symbol(h2), apply_symbol(delay_symbol(h1), u))
        both = apply_symbol(delay_symbol(h1 + h2), u)
        assert np.max(np.abs(one.samples - both.samples)) < 1e-8 * np.max(np.abs(u.samples))

    def test_z_symbol_matches_trapezoid_path(self):
        u = random_signal(17)
        spectral = apply_symbol(inverse_derivative_symbol(), u)
        quad = apply_inverse_derivative(u)
        tol = 2.0 * GRID.dt * np.max(np.abs(u.samples))
        core = slice(0, GRID.n_core)
        assert np.max(np.abs(spectral.samples[core] - quad.samples[core])) <= tol

    def test_nu_too_small(self):
        u = random_signal(19, nu=0.2)
        sym = MaterialSymbol(dim=1, poly_coeffs=[np.eye(1)], radius=1.0)
        with pytest.raises(NuTooSmall):
            apply_symbol(sym, u)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_causality_of_symbol_application(self, seed):
        # Non-decaying outputs (running integrals) wrap around the circular
        # window at the exp(-nu L) floor, so the window must be long enough
        # for that floor to sit below the causality tolerance.
        grid = TimeGrid(t_start=-4.0, dt=1.0 / 128.0, n_samples=2048, pad_fraction=0.5)
        rng = np.random.default_rng(seed)
        guard = 4.0 * grid.dt
        # Start the support past t_start + 2 guard so the checked region
        # t < a - guard always holds samples.
        a = float(rng.uniform(-4.0 + 2.0 * guard, 0.0))
        samples = oracles.bump(grid.times, a, a + 2.0)
        u = WeightedSignal(grid, 2.0, samples)
        sym = MaterialSymbol(
            dim=1,
            poly_coeffs=[np.array([[0.5]]), np.array([[1.0]])],
            delays=[(-0.25, np.array([[0.7]]))],
        )
        out = apply_symbol(sym, u)
        before = grid.times < a - guard
        assert np.max(np.abs(out.samples[before])) <= 1e-8 * weighted_norm(u)


class TestWeightedNorm:
    def test_zero(self):
        u = WeightedSignal(GRID, 2.0, np.zeros(GRID.n_samples))
        assert weighted_norm(u) == 0.0

    def test_weighted_exponential_on_unit_interval(self):
        # |exp(nu t) restricted to [0, 1]| in the weighted space is the
        # square root of the interval length.
        nu = 2.0
        mask = (GRID.times >= 0.0) & (GRID.times < 1.0)
        u = WeightedSignal(GRID, nu, np.exp(nu * GRID.times) * mask)
        assert weighted_norm(u) == pytest.approx(1.0, rel=2.0 * GRID.dt)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_inverse_order_bound(self, seed):
        u = random_signal(seed)
        assert sobolev_norm(u, -1) <= (1.0 / u.nu) * weighted_norm(u) * (1.0 + 1e-10)

    def test_unsupported_order(self):
        u = random_signal(23)
        with pytest.raises(UnsupportedOrder):
            sobolev_norm(u, 3)


class TestNuIndependence:
    # Short core (raw sup comparisons amplify roundoff by exp(nu (t - t_start))
    # there) with a long pad (running-integral outputs wrap around the window
    # at the exp(-nu L) floor, which the smallest nu must beat).
    NU_GRID = TimeGrid(t_start=-2.0, dt=1.0 / 128.0, n_samples=2304, pad_fraction=7.0 / 9.0)

    def test_identity_symbol_zero_deviation(self):
        samples = oracles.bump(self.NU_GRID.times, -1.5, 0.5)
        u = WeightedSignal(self.NU_GRID, 1.0, samples)
        assert check_nu_independence(MaterialSymbol(1, [np.eye(1)]), u, 1.0, 2.0) < 1e-10

    def test_delay_on_smooth_bump(self):
        samples = oracles.bump(self.NU_GRID.times, -1.5, 0.5)
        u = WeightedSignal(self.NU_GRID, 1.0, samples)
        dev = check_nu_independence(delay_symbol(-0.25), u, 1.0, 2.0)
        assert dev <= 1e-6

    def test_antiderivative_symbol(self):
        from scipy.integrate import cumulative_simpson

        samples = oracles.bump(self.NU_GRID.times, -1.5, 0.5)
        u = WeightedSignal(self.NU_GRID, 1.0, samples)
        dev = check_nu_independence(inverse_derivative_symbol(), u, 1.0, 3.0)
        assert dev <= 1e-6
        # Both weights reproduce the high-order quadrature antiderivative.
        exact = cumulative_simpson(samples, dx=self.NU_GRID.dt, initial=0.0)
        core = slice(0, self.NU_GRID.n_core)
        for nu in (1.0, 3.0):
            out = apply_symbol(inverse_derivative_symbol(), WeightedSignal(self.NU_GRID, nu, samples))
            assert np.max(np.abs(out.samples[core, 0] - exact[core])) <= 1e-6

    def test_nu_too_small_raises(self):
        u = random_signal(31)
        sym = MaterialSymbol(dim=1, poly_coeffs=[np.eye(1)], radius=0.25)
        with pytest.raises(NuTooSmall):
            check_nu_independence(sym, u, 1.0, 3.0)
