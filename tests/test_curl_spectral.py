"""Tests for the torus curl eigenbasis and its spectral calculus."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from dbf import curl_spectral
from dbf.curl_spectral import (
    FieldPair,
    Mode,
    ModeTable,
    SpectralField,
    TruncationTooLarge,
    build_basis,
)
from dbf.paper import (
    NotInRange,
    NyquistViolation,
    bounded_generator_C,
    curl_apply,
    generator_coefficients,
    gram_matrix,
    grid_inner_product,
    projector_P,
    reduced_resolvent,
    sample_basis_fields,
    synthesize_on_grid,
)


def random_field(table: ModeTable, seed: int) -> SpectralField:
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(table.n_modes) + 1j * rng.standard_normal(table.n_modes)
    return SpectralField(table, coeffs)


class TestBuildBasis:
    def test_k1_mode_count(self, table_k1):
        assert oracles.lattice_count(1) == 6
        assert table_k1.n_modes == 21

    def test_k2_mode_count(self, table_k2):
        assert oracles.lattice_count(2) == 32
        assert table_k2.n_modes == 99

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_count_matches_lattice(self, K):
        table = build_basis(K)
        assert table.n_modes == 3 * oracles.lattice_count(K) + 3

    def test_eigenvalues_are_integer_norms(self, table_k2):
        for m in table_k2.modes:
            n2 = sum(c * c for c in m.k)
            if m.helicity == "plus":
                assert m.eigenvalue == np.sqrt(n2)
            elif m.helicity == "minus":
                assert m.eigenvalue == -np.sqrt(n2)
            else:
                assert m.eigenvalue == 0.0

    def test_gram_identity(self, table_k2):
        G = gram_matrix(table_k2, 32)
        assert np.max(np.abs(G - np.eye(table_k2.n_modes))) < 1e-12

    def test_truncation_budget(self, monkeypatch):
        monkeypatch.setattr(curl_spectral, "MAX_MODES", 100)
        with pytest.raises(TruncationTooLarge):
            build_basis(4)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            Mode(k=(0, 0, 0), helicity="plus", eigenvalue=0.0)
        with pytest.raises(ValueError):
            Mode(k=(1, 0, 0), helicity="const", eigenvalue=0.0, component_index=0)
        with pytest.raises(ValueError):
            Mode(k=(0, 0, 0), helicity="const", eigenvalue=0.0, component_index=5)

    def test_json_round_trip(self, table_k1):
        K, keys, eigenvalues = oracles.basis_doc(table_k1.to_json())
        assert K == table_k1.K == 1
        assert keys == [m.key() for m in table_k1.modes]
        np.testing.assert_array_equal(eigenvalues, table_k1.eigenvalues)


    @pytest.mark.parametrize("K", range(1, 7))
    def test_amplitudes_match_per_mode_frames(self, K):
        # One frame per wavevector must give the bytes of building every mode alone.
        table = build_basis(K)
        expected = np.array([oracles.mode_amplitude(m.k, m.helicity, m.component_index) for m in table.modes])
        assert table.amplitudes.dtype == expected.dtype and table.amplitudes.shape == expected.shape
        assert table.amplitudes.tobytes() == expected.tobytes()


class TestModeBudget:
    """The budget is checked from a lower bound on the mode count before any enumeration."""

    @pytest.mark.parametrize("K", range(1, 13))
    def test_count_matches_lattice_up_to_12(self, K, monkeypatch):
        exact = 3 * oracles.lattice_count(K) + 3
        monkeypatch.setattr(curl_spectral, "MAX_MODES", exact)
        assert build_basis(K).n_modes == exact
        monkeypatch.setattr(curl_spectral, "MAX_MODES", exact - 1)
        with pytest.raises(TruncationTooLarge):
            build_basis(K)

    def test_huge_truncation_rejected_from_the_bound(self):
        # The cube |k_i| <= 34 alone holds 3 (69^3 - 1) + 3 modes; the ball holds 2,712,267.
        with pytest.raises(TruncationTooLarge,
                           match=r"^K=60 yields at least 985527 modes, exceeding the budget of 4096$"):
            build_basis(60)


class TestCurlApply:
    def test_zero_on_curl_free_modes(self, table_k2):
        for i, m in enumerate(table_k2.modes):
            if m.helicity in ("grad", "const"):
                coeffs = np.zeros(table_k2.n_modes, dtype=np.complex128)
                coeffs[i] = 1.0
                out = curl_apply(SpectralField(table_k2, coeffs))
                assert np.all(out.coeffs == 0)

    def test_plus_mode_unit_eigenvalue(self, table_k1):
        i = table_k1.position((1, 0, 0), "plus")
        coeffs = np.zeros(table_k1.n_modes, dtype=np.complex128)
        coeffs[i] = 1.0
        out = curl_apply(SpectralField(table_k1, coeffs))
        np.testing.assert_array_equal(out.coeffs, coeffs)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_action_is_diagonal(self, seed, table_k2):
        f = random_field(table_k2, seed)
        np.testing.assert_array_equal(
            curl_apply(f).coeffs, table_k2.eigenvalues * f.coeffs
        )

    @given(seed=st.integers(0, 2**32 - 1))
    def test_symmetric_exact_on_integer_eigenvalues(self, seed, table_k1):
        # Eigenvalues of the K = 1 table are 0 and +-1, so the pairing
        # identity survives rounding bit for bit.
        f = random_field(table_k1, seed)
        g = random_field(table_k1, seed + 1)
        lhs = np.vdot(curl_apply(f).coeffs, g.coeffs)
        rhs = np.vdot(f.coeffs, curl_apply(g).coeffs)
        assert lhs == rhs

    @given(seed=st.integers(0, 2**32 - 1))
    def test_symmetric_on_coefficients(self, seed, table_k2):
        # Irrational eigenvalues round, so symmetry holds to a few ulps.
        f = random_field(table_k2, seed)
        g = random_field(table_k2, seed + 1)
        lhs = np.vdot(curl_apply(f).coeffs, g.coeffs)
        rhs = np.vdot(f.coeffs, curl_apply(g).coeffs)
        scale = max(np.linalg.norm(f.coeffs) * np.linalg.norm(g.coeffs) * 2.0, 1.0)
        assert abs(lhs - rhs) < 1e-13 * scale

    def test_matches_finite_difference_curl(self, table_k2):
        # Every mode of the K = 2 table against a sixth-order stencil.
        n_grid = 64
        coeffs = np.zeros(table_k2.n_modes, dtype=np.complex128)
        for i, m in enumerate(table_k2.modes):
            coeffs[:] = 0.0
            coeffs[i] = 1.0
            vals = synthesize_on_grid(SpectralField(table_k2, coeffs), n_grid)
            fd = oracles.fd_curl(vals)
            err = np.max(np.abs(fd - m.eigenvalue * vals))
            assert err < 1e-5, f"mode {m.key()}: {err}"


class TestProjector:
    def test_eta_half_identity_on_k1(self, table_k1):
        # -1/eta = -2 is not an eigenvalue of the K = 1 table, so the
        # projector keeps every coefficient.
        f = random_field(table_k1, 3)
        assert not np.any(table_k1.kernel_mask(0.5))
        out = projector_P(0.5, f)
        np.testing.assert_array_equal(out.coeffs, f.coeffs)

    @pytest.mark.parametrize("K", [2, 3])
    def test_eta_half_kernel_on_larger_tables(self, K, table_k2, table_k3):
        # -2 = -sqrt(4) enters the spectrum once |k|^2 = 4 modes exist, so
        # for K >= 2 the projector at eta = 0.5 zeroes those six minus modes.
        table = table_k2 if K == 2 else table_k3
        mask = table.kernel_mask(0.5)
        kernel = [table.modes[i] for i in np.nonzero(mask)[0]]
        assert len(kernel) == 6
        assert all(m.helicity == "minus" and sum(c * c for c in m.k) == 4 for m in kernel)
        f = random_field(table, 3)
        out = projector_P(0.5, f)
        np.testing.assert_array_equal(out.coeffs[mask], 0.0)
        np.testing.assert_array_equal(out.coeffs[~mask], f.coeffs[~mask])

    def test_eta_minus_one_zeroes_unit_plus_modes(self, table_k2):
        f = random_field(table_k2, 5)
        out = projector_P(-1.0, f)
        kernel = [i for i, m in enumerate(table_k2.modes)
                  if m.helicity == "plus" and sum(c * c for c in m.k) == 1]
        assert len(kernel) == 6
        for i in range(table_k2.n_modes):
            if i in kernel:
                assert out.coeffs[i] == 0.0
            else:
                assert out.coeffs[i] == f.coeffs[i]

    @given(seed=st.integers(0, 2**32 - 1), eta=st.sampled_from([-1.0, 0.5, -1.0 / np.sqrt(2.0)]))
    def test_idempotent_and_commutes_with_curl(self, seed, eta, table_k2):
        f = random_field(table_k2, seed)
        once = projector_P(eta, f)
        np.testing.assert_array_equal(projector_P(eta, once).coeffs, once.coeffs)
        np.testing.assert_array_equal(
            projector_P(eta, curl_apply(f)).coeffs, curl_apply(projector_P(eta, f)).coeffs
        )

    @pytest.mark.parametrize("eta", [-1.0, -1.0 / np.sqrt(2.0)])
    def test_complement_rotation_identity(self, eta, table_k3):
        # On the kernel of (1 + eta curl) the curl acts as -1/eta, exactly.
        f = random_field(table_k3, 11)
        keep = projector_P(eta, f)
        complement = f.coeffs - keep.coeffs
        lhs = table_k3.eigenvalues * complement
        rhs = (-1.0 / eta) * complement
        np.testing.assert_array_equal(lhs, rhs)


class TestReducedResolvent:
    def test_single_mode_scalar_division(self, table_k1):
        i = table_k1.position((1, 0, 0), "plus")
        coeffs = np.zeros(table_k1.n_modes, dtype=np.complex128)
        coeffs[i] = 1.0
        out = reduced_resolvent(0.5, SpectralField(table_k1, coeffs))
        assert out.coeffs[i] == pytest.approx(2.0 / 3.0, abs=1e-15)

    @given(seed=st.integers(0, 2**32 - 1), eta=st.sampled_from([-1.0, 0.5]))
    def test_inverse_on_range(self, seed, eta, table_k2):
        f = projector_P(eta, random_field(table_k2, seed))
        res = reduced_resolvent(eta, f)
        back = res.coeffs + eta * curl_apply(res).coeffs
        assert np.max(np.abs(back - f.coeffs)) < 1e-14 * max(np.max(np.abs(f.coeffs)), 1.0)

    def test_kernel_coefficient_rejected(self, table_k1):
        i = table_k1.position((1, 0, 0), "plus")
        coeffs = np.zeros(table_k1.n_modes, dtype=np.complex128)
        coeffs[i] = 1.0
        with pytest.raises(NotInRange):
            reduced_resolvent(-1.0, SpectralField(table_k1, coeffs))


class TestBoundedGenerator:
    def test_zero_on_curl_free_modes(self, table_k1):
        i = table_k1.position((0, 0, 0), "const", 1)
        e = np.zeros(table_k1.n_modes, dtype=np.complex128)
        e[i] = 1.0
        u = FieldPair(SpectralField(table_k1, e), SpectralField(table_k1, np.zeros_like(e)))
        out = bounded_generator_C(0.5, u)
        assert np.all(out.e_part.coeffs == 0) and np.all(out.h_part.coeffs == 0)

    def test_unit_mode_rotation(self, table_k1):
        i = table_k1.position((1, 0, 0), "plus")
        e = np.zeros(table_k1.n_modes, dtype=np.complex128)
        e[i] = 1.0
        u = FieldPair(SpectralField(table_k1, e), SpectralField(table_k1, np.zeros_like(e)))
        out = bounded_generator_C(0.5, u)
        assert np.all(out.e_part.coeffs == 0)
        assert out.h_part.coeffs[i] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_coefficients_match_resolvent_form(self, table_k2):
        # c = lambda/(1 + eta lambda) equals 1/eta - (1/eta)/(1 + eta lambda)
        # away from the kernel, where c is zero by convention.
        eta = 0.5
        c = generator_coefficients(eta, table_k2)
        mask = table_k2.kernel_mask(eta)
        lam = table_k2.eigenvalues[~mask]
        alt = (1.0 / eta) - (1.0 / eta) / (1.0 + eta * lam)
        np.testing.assert_allclose(c[~mask], alt, rtol=0.0, atol=1e-14)
        np.testing.assert_array_equal(c[mask], 0.0)

    def test_operator_norm_is_max_coefficient(self, table_k2):
        eta = -1.0
        c = generator_coefficients(eta, table_k2)
        e = np.ones(table_k2.n_modes, dtype=np.complex128)
        e[table_k2.kernel_mask(eta)] = 0.0
        u = FieldPair(
            SpectralField(table_k2, e),
            SpectralField(table_k2, np.zeros_like(e)),
        )
        out = bounded_generator_C(eta, u)
        assert np.max(np.abs(out.h_part.coeffs)) == np.max(np.abs(c))

    @given(seed=st.integers(0, 2**32 - 1))
    def test_rotation_block_is_skew(self, seed, table_k1):
        # Re <J u, u> = 0 exactly for J (e, h) = (-h, e): the two pairings
        # are elementwise negatives, and rounding respects sign.
        u_e = random_field(table_k1, seed).coeffs
        u_h = random_field(table_k1, seed + 7).coeffs
        pairing = np.vdot(-u_h, u_e) + np.vdot(u_e, u_h)
        assert pairing.real == 0.0


class TestSynthesis:
    def test_zero_field(self, table_k1):
        f = SpectralField(table_k1, np.zeros(table_k1.n_modes))
        assert np.all(synthesize_on_grid(f, 8) == 0)

    def test_const_mode_is_constant(self, table_k1):
        i = table_k1.position((0, 0, 0), "const", 2)
        coeffs = np.zeros(table_k1.n_modes, dtype=np.complex128)
        coeffs[i] = 1.0
        vals = synthesize_on_grid(SpectralField(table_k1, coeffs), 8)
        expect = np.zeros(3)
        expect[2] = 1.0
        assert np.max(np.abs(vals - expect)) < 1e-15

    @given(seed=st.integers(0, 2**32 - 1))
    def test_parseval(self, seed, table_k2):
        f = random_field(table_k2, seed)
        vals = synthesize_on_grid(f, 16)
        quad = np.sqrt(grid_inner_product(vals, vals).real)
        assert quad == pytest.approx(np.linalg.norm(f.coeffs), rel=1e-10)

    def test_nyquist_violation(self, table_k2):
        f = random_field(table_k2, 1)
        with pytest.raises(NyquistViolation):
            synthesize_on_grid(f, 5)
        with pytest.raises(NyquistViolation):
            sample_basis_fields(table_k2, 4)

    def test_real_representability_flag(self, table_k1):
        rng = np.random.default_rng(2)
        coeffs = np.zeros(table_k1.n_modes, dtype=np.complex128)
        for i, m in enumerate(table_k1.modes):
            if m.helicity == "const":
                coeffs[i] = rng.standard_normal()
        for i, m in enumerate(table_k1.modes):
            if m.helicity == "const" or coeffs[i] != 0:
                continue
            c = rng.standard_normal() + 1j * rng.standard_normal()
            j = table_k1.position(tuple(-x for x in m.k), m.helicity)
            coeffs[i] = c
            coeffs[j] = -np.conj(c) if m.helicity == "grad" else np.conj(c)
        # With the frame convention conj(p(k, s)) = p(-k, s) for the Beltrami modes,
        # p(-k, grad) = -p(k, grad) and real const amplitudes, these coefficients
        # make a real field; breaking the symmetry on one mode does not.
        vals = synthesize_on_grid(SpectralField(table_k1, coeffs), 8)
        assert np.max(np.abs(vals.imag)) < 1e-12
        coeffs2 = coeffs.copy()
        coeffs2[table_k1.position((1, 0, 0), "plus")] += 0.5
        assert np.max(np.abs(synthesize_on_grid(SpectralField(table_k1, coeffs2), 8).imag)) > 0.1
