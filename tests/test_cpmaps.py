"""CP calculus: Choi matrices, amplification, compression, complexification."""

import numpy as np
import pytest

from starlift.cpmaps import (LinearMapMat, basis_size, block_apply, choi,
                             complexify, compose, compress, cp_defect,
                             cp_defect_real_report, doubled_units, matrix_units)
from starlift.matrix import op_norm
from starlift.realform import AntiAutomorphism
from starlift.transport import rho_map, sigma_map

from map_fixtures import eta_map, random_matrix, unital_compression_map

TRANSPOSE_MAP2 = LinearMapMat.from_function(lambda m: np.asarray(m).T, 2, "C")
REAL_IDENTITY2 = LinearMapMat.from_function(lambda m: m, 2, "R", dom_field="R", cod_field="R")


def _entangled(n):
    v = np.zeros(n * n, dtype=complex)
    for j in range(n):
        v[j * n + j] = 1.0
    return np.outer(v, v.conj())


class TestLinearMapMat:
    def test_identity_apply(self):
        phi = LinearMapMat.identity(3)
        x = random_matrix(np.random.default_rng(0), 3)
        assert op_norm(phi.apply(x) - x) < 1e-12

    def test_complex_linearity_by_construction(self):
        phi = LinearMapMat.identity(2)
        x = random_matrix(np.random.default_rng(1), 2)
        assert op_norm(phi.apply(1j * x) - 1j * phi.apply(x)) < 1e-12

    def test_real_linear_conjugation_is_not_complex_linear(self):
        conj = LinearMapMat.from_function(lambda m: np.asarray(m).conj(), 2, "R")
        x = random_matrix(np.random.default_rng(2), 2)
        assert op_norm(conj.apply(1j * x) + 1j * conj.apply(x)) < 1e-12

    def test_domain_membership_enforced(self):
        with pytest.raises(ValueError, match="outside the map's domain span"):
            REAL_IDENTITY2.apply(np.array([[1.0, 1.0j], [0.0, 1.0]]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            LinearMapMat.identity(2).apply(np.eye(3))

    def test_unitality_defect(self):
        assert LinearMapMat.identity(2).unitality_defect() < 1e-14


class TestChoi:
    def test_identity_channel(self):
        c = choi(LinearMapMat.identity(2))
        assert op_norm(c - _entangled(2)) < 1e-12
        ev = np.linalg.eigvalsh((c + c.conj().T) / 2)
        assert ev[0] == pytest.approx(0.0, abs=1e-12)
        assert np.trace(c).real == pytest.approx(2.0)

    def test_transpose_is_swap(self):
        c = choi(TRANSPOSE_MAP2)
        ev = np.linalg.eigvalsh((c + c.conj().T) / 2)
        assert np.allclose(sorted(ev), [-1.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_zero_map(self):
        zero = LinearMapMat.from_function(lambda m: np.zeros((2, 2)), 2, "C")
        assert op_norm(choi(zero)) == 0.0

    def test_rejects_real_linear(self):
        with pytest.raises(ValueError):
            choi(sigma_map(2))

    def test_linear_in_the_map(self):
        rng = np.random.default_rng(3)
        f = LinearMapMat.from_function(lambda m: random_matrix(rng, 2) * 0 + np.asarray(m), 2, "C")
        g = TRANSPOSE_MAP2
        summed = LinearMapMat(2, 2, "C", f.images + g.images)
        assert op_norm(choi(summed) - choi(f) - choi(g)) < 1e-12


class TestCpDefect:
    def test_identity(self):
        assert cp_defect(LinearMapMat.identity(2)) == pytest.approx(0.0, abs=1e-12)

    def test_transpose(self):
        assert cp_defect(TRANSPOSE_MAP2) == pytest.approx(-1.0, abs=1e-12)

    def test_compression_is_cp(self):
        rng = np.random.default_rng(4)
        v = random_matrix(rng, 3, 2)
        phi = compress(LinearMapMat.identity(3), v)
        assert cp_defect(phi) >= -1e-12

    def test_positive_scaling(self):
        lam = 2.5
        scaled = LinearMapMat(2, 2, "C", lam * TRANSPOSE_MAP2.images)
        assert cp_defect(scaled) == pytest.approx(lam * cp_defect(TRANSPOSE_MAP2))


class TestCpDefectReal:
    def test_sigma_is_cp(self):
        for k in (1, 2, 3):
            for level in (1, 2, 3):
                assert cp_defect_real_report(sigma_map(k), level, samples=6,
                                             seed=0).defect >= -1e-10

    def test_eta_level2_counterexample(self):
        rep = cp_defect_real_report(eta_map(1), level=2, samples=5, seed=0)
        assert rep.defect == pytest.approx(-1.0, abs=1e-10)
        expected = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
        assert op_norm(rep.witness - expected) < 1e-12

    def test_zero_map(self):
        zero = LinearMapMat.from_function(lambda m: np.zeros((2, 2)), 2, "R")
        assert cp_defect_real_report(zero, 2, samples=5, seed=0).defect == 0.0

    def test_selfadjointness_reporting(self):
        rep = cp_defect_real_report(
            LinearMapMat.from_function(lambda m: np.asarray(m) * 1.0, 2, "R"),
            level=1, samples=10, seed=0)
        assert rep.selfadj_defect < 1e-12
        ups = cp_defect_real_report(eta_map(2), level=2, samples=10, seed=0)
        assert ups.selfadj_defect > 0.5

    def test_rejects_complex_linear(self):
        with pytest.raises(ValueError):
            cp_defect_real_report(LinearMapMat.identity(2), 2)


class TestCpTransfer:
    """Real-linear CP iff the complexification is CP, both directions."""

    def test_cp_and_non_cp_seeds(self):
        n = 2
        anti = AntiAutomorphism.transpose(n)
        for trial in range(24):
            rng = np.random.default_rng(900 + trial)
            if trial % 2 == 0:
                phi = unital_compression_map(rng, n, 2, field="R", terms=2)
            else:
                b1 = rng.standard_normal((n, 2))
                b2 = rng.standard_normal((n, 2))

                def f(x, b1=b1, b2=b2):
                    xx = np.asarray(x)
                    return b1.T @ xx @ b1 - 0.9 * b2.T @ xx.T @ b2

                phi = LinearMapMat.from_function(f, n, "R", dom_field="R",
                                                 cod_field="R")
            real_verdict = cp_defect_real_report(phi, level=n, samples=8, seed=5).defect >= -1e-8
            cplx_verdict = cp_defect(complexify(phi, anti)) >= -1e-8
            assert real_verdict == cplx_verdict


class TestComplexify:
    def test_identity_extends_to_identity(self):
        anti = AntiAutomorphism.transpose(2)
        phic = complexify(REAL_IDENTITY2, anti)
        x = random_matrix(np.random.default_rng(6), 2)
        assert op_norm(phic.apply(x) - x) < 1e-12

    def test_trace_extends_to_trace(self):
        anti = AntiAutomorphism.transpose(2)
        phi = LinearMapMat.from_function(
            lambda m: np.array([[np.trace(m)]]), 2, "R", dom_field="R")
        phic = complexify(phi, anti)
        x = random_matrix(np.random.default_rng(7), 2)
        assert abs(phic.apply(x)[0, 0] - np.trace(x)) < 1e-12

    def test_restriction_matches(self):
        anti = AntiAutomorphism.transpose(3)
        phi = unital_compression_map(np.random.default_rng(8), 3, 2,
                                     field="R", terms=2)
        phic = complexify(phi, anti)
        for g in phi.basis:
            assert op_norm(phic.apply(g) - phi.apply(g)) < 1e-12

    def test_forced_complex_linearity(self):
        anti = AntiAutomorphism.transpose(2)
        phi = unital_compression_map(np.random.default_rng(9), 2, 2,
                                     field="R", terms=1)
        phic = complexify(phi, anti)
        a = np.array([[1.0, 3.0], [0.0, 2.0]])
        assert op_norm(phic.apply(1j * a) - 1j * phi.apply(a)) < 1e-12

    def test_rejects_basis_outside_form(self):
        # The real form of u = J has imaginary entries, so it lies outside
        # the domain M_2(R) of a real-domain map.
        anti = AntiAutomorphism(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError, match="outside the map's domain span"):
            complexify(REAL_IDENTITY2, anti)


class TestAmplifyCompressCompose:
    def test_amplify_level1(self):
        phi = TRANSPOSE_MAP2
        x = random_matrix(np.random.default_rng(20), 2)
        assert np.array_equal(block_apply(phi, x, 1), phi.apply(x))

    def test_amplify_identity_is_identity(self):
        x = random_matrix(np.random.default_rng(21), 6)
        assert op_norm(block_apply(LinearMapMat.identity(2), x, 3) - x) < 1e-10

    def test_amplify_block_action(self):
        x = random_matrix(np.random.default_rng(10), 4)
        expected = x.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        assert op_norm(block_apply(TRANSPOSE_MAP2, x, 2) - expected) < 1e-10

    def test_amplify_compose_commute(self):
        rng = np.random.default_rng(11)
        phi = unital_compression_map(rng, 2, 3)
        psi = unital_compression_map(rng, 3, 2)
        x = random_matrix(rng, 4)
        lhs = block_apply(compose(psi, phi), x, 2)
        rhs = block_apply(psi, block_apply(phi, x, 2), 2)
        assert op_norm(lhs - rhs) < 1e-10

    def test_compress_identity(self):
        phi = LinearMapMat.identity(2)
        assert np.max(np.abs(compress(phi, np.eye(2)).images - phi.images)) < 1e-14

    def test_compress_zero(self):
        phi = LinearMapMat.identity(2)
        z = compress(phi, np.zeros((2, 2)))
        assert op_norm(z.apply(np.eye(2))) == 0.0

    def test_compress_is_cp(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            b = random_matrix(rng, 2, 3)
            assert cp_defect(compress(LinearMapMat.identity(2), b)) >= -1e-12

    def test_compress_compose_commute(self):
        rng = np.random.default_rng(13)
        phi = unital_compression_map(rng, 2, 3)
        psi = unital_compression_map(rng, 3, 3)
        b = random_matrix(rng, 3, 2)
        lhs = compress(compose(psi, phi), b)
        rhs = compose(compress(psi, b), phi)
        x = random_matrix(rng, 2)
        assert op_norm(lhs.apply(x) - rhs.apply(x)) < 1e-12

    def test_compose_identity(self):
        phi = TRANSPOSE_MAP2
        out = compose(LinearMapMat.identity(2), phi)
        x = random_matrix(np.random.default_rng(14), 2)
        assert op_norm(out.apply(x) - phi.apply(x)) < 1e-12

    def test_compose_with_zero(self):
        zero = LinearMapMat.from_function(lambda m: np.zeros((2, 2)), 2, "C")
        out = compose(zero, TRANSPOSE_MAP2)
        assert np.max(np.abs(out.images)) == 0.0

    def test_rho_sigma_compose_to_identity_on_scalars(self):
        out = compose(rho_map(1), sigma_map(1))
        for b in doubled_units(1):
            assert op_norm(out.apply(b) - b) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(LinearMapMat.identity(3), LinearMapMat.identity(2))

    def test_compress_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compress(LinearMapMat.identity(2), np.zeros((3, 2)))


def test_restrict_to_real_form_round_trip():
    # complexify reads x -> Re x only on the real form M_2(R), where it is
    # the identity, so its extension is the identity on M_2(C).
    anti = AntiAutomorphism.transpose(2)
    full = LinearMapMat.from_function(lambda m: np.asarray(m).real.astype(complex),
                                      2, "R", dom_field="C", cod_field="R")
    assert len(full.basis) == 8
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert op_norm(full.apply(a) - a) < 1e-12
    x = random_matrix(np.random.default_rng(15), 2)
    assert op_norm(complexify(full, anti).apply(x) - x) < 1e-12


def test_basis_layout():
    units = matrix_units(2)
    assert np.array_equal(units[1], np.array([[0, 1], [0, 0]], dtype=complex))
    doubled = doubled_units(2)
    assert np.array_equal(doubled[5], 1j * units[1])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_identity_equals_its_tabulation(n):
    fast = LinearMapMat.identity(n)
    slow = LinearMapMat.from_function(lambda x: x, n)
    assert (fast.cod_dim, fast.linearity, fast.dom_field, fast.cod_field) == (n, "C", "C", "C")
    assert np.array_equal(fast.images, slow.images)
    assert np.array_equal(np.signbit(fast.images.view(float)),
                          np.signbit(slow.images.view(float)))
    assert len(fast.images) == basis_size(n, "C") == len(fast.basis)
