"""Tensor products, slice maps, Fubini products, exactness checks.

The kernel identities are cross-checked against a brute-force oracle
that builds the quotient map directly on raw Kronecker products and
null-spaces it, independently of the subspace engine.
"""

import numpy as np
import pytest

from starlift.matrix import matrix_units, op_norm
from starlift.realform import AntiAutomorphism, StarAlgebra, detect_blocks, real_form_basis
from starlift.subspace import (containment_residual, kernel_rows,
                               max_principal_angle, orth_rows, realify,
                               subspaces_equal)
from starlift.certify import TraceWitness
from starlift.tensorexact import (IdealPresentation,
                                  exactness_check, fubini, fubini_check,
                                  quotient_kernel_rows, real_frame,
                                  tensor_span_rows)

from algebra_oracle import slice_left_value, slice_right_value, tensor_rows
from map_fixtures import block_algebra, full_algebra, random_matrix

A2 = full_algebra(2)
B23 = block_algebra([2, 3])
ANTI2 = AntiAutomorphism.transpose(2)


def _tensor_rows(a, b) -> np.ndarray:
    """Realified rows of A (x) B: B's rows of the span tensored with A's
    frame, checked to be orthonormal as they stand; two rows per complex
    dimension."""
    rows = tensor_rows(a.frame, tensor_span_rows(a.frame, b.frame), b.n)
    assert op_norm(rows @ rows.T - np.eye(len(rows))) < 1e-12
    return rows


class TestMinTensor:
    def test_full_times_full(self):
        rows = _tensor_rows(A2, full_algebra(3))
        assert rows.shape == (2 * 36, 2 * 36)

    def test_unit_factor(self):
        one = StarAlgebra(1, (np.eye(1),), unital=True)
        rows = _tensor_rows(A2, one)
        assert rows.shape == (2 * 4, 2 * 2 * 2)

    def test_diagonal_times_diagonal(self):
        # A redundant spanning set: the frames keep two of its three matrices.
        diag = StarAlgebra(2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2)),
                           unital=True)
        assert len(diag.frame) == 2
        assert _tensor_rows(diag, diag).shape[0] == 2 * 4

    def test_dimension_is_product_of_factor_dimensions(self):
        rows = _tensor_rows(A2, B23)
        assert rows.shape[0] == 2 * len(A2.frame) * len(B23.frame) == 2 * 52

    def test_rejects_non_orthonormal_leg(self):
        units = matrix_units(2)
        with pytest.raises(ValueError, match="not orthonormal"):
            tensor_span_rows([2.0 * units[0]], units)
        with pytest.raises(ValueError, match="not orthonormal"):
            tensor_span_rows(units, [units[0], units[0] + units[3]])
        with pytest.raises(ValueError, match="not orthonormal"):
            tensor_span_rows(units, [units[1], units[1]])


class TestSliceMaps:
    def test_rank_one_tensor(self):
        rng = np.random.default_rng(0)
        a, b = random_matrix(rng, 2), random_matrix(rng, 3)
        x = np.kron(a, b)
        tau = TraceWitness(np.eye(2) / 2)
        out = slice_right_value(tau.gram, x, 2, 3)
        assert op_norm(out - (np.trace(a) / 2) * b) < 1e-12
        psi = TraceWitness(np.eye(3) / 3)
        out_l = slice_left_value(psi.gram, x, 2, 3)
        assert op_norm(out_l - (np.trace(b) / 3) * a) < 1e-12

    def test_zero(self):
        tau = TraceWitness(np.eye(2) / 2)
        assert op_norm(slice_right_value(tau.gram, np.zeros((6, 6)), 2, 3)) == 0.0

    def test_product_functional_identity(self):
        # phi (x) psi (x) = psi(R_phi(x)) = phi(L_psi(x))
        rng = np.random.default_rng(1)
        for _ in range(20):
            tphi = random_matrix(rng, 2)
            tpsi = random_matrix(rng, 3)
            x = random_matrix(rng, 6)
            r = np.trace(tpsi @ slice_right_value(tphi, x, 2, 3))
            l = np.trace(tphi @ slice_left_value(tpsi, x, 2, 3))
            assert abs(r - l) < 1e-10

    def test_stacks_broadcast(self):
        # Functionals (p, 1, ...) against matrices (k, ...) give every
        # pair (p, k), each as computed alone.
        rng = np.random.default_rng(4)
        ta = np.stack([random_matrix(rng, 2) for _ in range(3)])
        tb = np.stack([random_matrix(rng, 3) for _ in range(3)])
        xs = np.stack([random_matrix(rng, 6) for _ in range(4)])
        right = slice_right_value(ta[:, None], xs, 2, 3)
        left = slice_left_value(tb[:, None], xs, 2, 3)
        assert right.shape == (3, 4, 3, 3) and left.shape == (3, 4, 2, 2)
        for p in range(3):
            for k in range(4):
                assert op_norm(right[p, k] - slice_right_value(ta[p], xs[k], 2, 3)) < 1e-12
                assert op_norm(left[p, k] - slice_left_value(tb[p], xs[k], 2, 3)) < 1e-12

    def test_slices_commute_with_quotient(self):
        # R_phi . (id (x) pi) = pi . R_phi on the tensor span
        pres = IdealPresentation(B23, [0])
        rng = np.random.default_rng(3)
        tphi = random_matrix(rng, 2)
        qi = pres.quotient_indices
        for _ in range(20):
            x = random_matrix(rng, 10)
            x4 = x.reshape(2, 5, 2, 5)
            qx = x4[np.ix_(range(2), qi, range(2), qi)].reshape(6, 6)
            lhs = slice_right_value(tphi, qx, 2, 3)
            rhs = slice_right_value(tphi, x, 2, 5)[np.ix_(qi, qi)]
            assert op_norm(lhs - rhs) < 1e-10


class TestIdealPresentation:
    def test_detect_blocks(self):
        assert detect_blocks(B23.span, 5) == ((0, 2), (2, 3))
        assert detect_blocks(full_algebra(3).span, 3) == ((0, 3),)

    def test_validate_canonical(self):
        IdealPresentation(B23, [0]).validate()
        IdealPresentation(B23, [1]).validate()

    def test_quotient_annihilates_ideal(self):
        pres = IdealPresentation(B23, [0])
        for e in pres.ideal_span():
            assert op_norm(pres.quotient_apply(e)) == 0.0

    def test_quotient_apply_extracts_complementary_block(self):
        pres = IdealPresentation(B23, [0])
        x = np.arange(25.0).reshape(5, 5)
        np.testing.assert_array_equal(pres.quotient_apply(x), x[2:, 2:])
        np.testing.assert_array_equal(pres.quotient_apply(np.stack([x, -x])),
                                      np.stack([x[2:, 2:], -x[2:, 2:]]))

    def test_bad_block_index(self):
        with pytest.raises(ValueError):
            IdealPresentation(B23, [5])

    def test_ideal_span_size(self):
        pres = IdealPresentation(B23, [0])
        assert len(pres.ideal_span()) == 4
        assert len(pres.quotient_indices) == 3

    def test_repeated_block_index_names_the_block_once(self):
        pres = IdealPresentation(B23, [1, 0, 1])
        assert pres.ideal_blocks == (1, 0)
        assert len(pres.ideal_span()) == 13
        pres.validate()
        assert exactness_check(A2, ANTI2, pres).ok


def _oracle_kernel_rows(a_leg, b_span, pres):
    """Brute force: map raw products through id (x) pi and null-space."""
    na = a_leg[0].shape[0]
    nb = b_span[0].shape[0]
    qi = pres.quotient_indices
    nq = len(qi)
    prods = []
    for g in a_leg:
        for h in b_span:
            prods.append(np.kron(g, h))
            prods.append(1j * np.kron(g, h))
    cols = []
    for p in prods:
        p4 = p.reshape(na, nb, na, nb)
        img = p4[np.ix_(range(na), qi, range(na), qi)].reshape(na * nq, na * nq)
        cols.append(np.concatenate([img.real.ravel(), img.imag.ravel()]))
    m = np.array(cols).T                      # constraint matrix on coefficients
    u, s, vt = np.linalg.svd(m, full_matrices=True)
    rank = int(np.sum(s > 1e-9 * (s[0] if s.size else 1.0)))
    null_coeff = vt[rank:]
    vecs = null_coeff @ realify(prods)
    return orth_rows(vecs)


class TestExactness:
    def test_canonical_instance_block2_plus_3(self):
        pres = IdealPresentation(B23, [0])
        report = exactness_check(A2, ANTI2, pres)
        assert report.ok
        assert report.real_kernel.kernel_dim == 32
        assert report.real_kernel.span_dim == 32
        assert report.real_kernel.principal_angle < 1e-6
        assert report.complex_kernel.kernel_dim == 32
        assert report.fubini_real.match and report.fubini_complex.match
        assert report.decomposition["spans_everything"]
        # the easy containment span(A (x) I) <= ker(id (x) pi) holds exactly
        assert report.real_kernel.containment_span_in_kernel < 1e-8
        assert report.complex_kernel.containment_span_in_kernel < 1e-8

    def test_kernel_matches_brute_force_oracle(self):
        pres = IdealPresentation(B23, [0])
        form = real_form_basis(ANTI2)
        kernel = quotient_kernel_rows(tensor_span_rows(form, list(B23.span)), pres)
        engine = tensor_rows(form, kernel, 5)
        oracle = _oracle_kernel_rows(form, list(B23.span), pres)
        assert engine.shape[0] == oracle.shape[0] == 32
        eq, ang = subspaces_equal(engine, oracle)
        assert eq, ang

    def test_zero_ideal(self):
        pres = IdealPresentation(B23, [])
        report = exactness_check(A2, ANTI2, pres)
        assert report.real_kernel.kernel_dim == 0
        assert report.ok

    def test_full_ideal(self):
        pres = IdealPresentation(B23, [0, 1])
        report = exactness_check(A2, ANTI2, pres)
        assert report.real_kernel.kernel_dim == report.real_kernel.span_dim == 104
        assert report.ok

    def test_other_summand(self):
        pres = IdealPresentation(B23, [1])
        report = exactness_check(A2, ANTI2, pres)
        assert report.ok
        assert report.real_kernel.kernel_dim == 4 * 2 * 9

    def test_quaternionic_form(self):
        anti = AntiAutomorphism(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        pres = IdealPresentation(B23, [0])
        report = exactness_check(A2, anti, pres)
        assert report.ok

    def test_three_block_algebra(self):
        b = block_algebra([1, 2, 2])
        pres = IdealPresentation(b, [0, 2])
        report = exactness_check(A2, ANTI2, pres)
        assert report.ok


class TestFubini:
    def test_no_constraint_gives_everything(self):
        # The ideal made of both blocks is all of B.
        form = real_frame(A2, ANTI2)
        everything = IdealPresentation(B23, [0, 1]).ideal_span()
        b_rows = tensor_span_rows(form, B23.frame)
        rows = fubini(b_rows, tensor_span_rows(form, everything))
        assert rows.shape[0] == b_rows.shape[0] == 2 * 13
        assert len(form) * rows.shape[0] == 2 * 4 * 13

    def test_zero_b_target_gives_zero(self):
        form = real_frame(A2, ANTI2)
        zero = IdealPresentation(B23, []).ideal_span()
        assert fubini(tensor_span_rows(form, B23.frame),
                      tensor_span_rows(form, zero)).shape[0] == 0

    def test_ideal_instance_matches_span(self):
        pres = IdealPresentation(B23, [0])
        check = fubini_check(A2, ANTI2, pres)
        assert check.match
        assert check.kernel_dim == check.span_dim == 32


class TestSubspaceEngine:
    def test_principal_angle_identical(self):
        rows = orth_rows(realify([np.eye(2), np.array([[0, 1], [1, 0]])]))
        assert max_principal_angle(rows, rows) < 1e-12

    def test_containment(self):
        big = orth_rows(realify([np.eye(2), np.array([[0, 1], [1, 0]])]))
        small = orth_rows(realify([np.eye(2)]))
        assert containment_residual(small, big) < 1e-12
        assert containment_residual(big, small) > 0.5

    def test_dimension_mismatch_not_equal(self):
        big = orth_rows(realify([np.eye(2), np.array([[0, 1], [1, 0]])]))
        small = orth_rows(realify([np.eye(2)]))
        eq, _ = subspaces_equal(big, small)
        assert not eq
        with pytest.raises(ValueError, match="equal dimensions"):
            max_principal_angle(big, small)

    def test_principal_angle_of_rotated_line(self):
        u = np.array([[1.0, 0.0]])
        for angle in (1e-9, 0.3, np.pi / 2):
            w = np.array([[np.cos(angle), np.sin(angle)]])
            assert max_principal_angle(u, w) == pytest.approx(angle, rel=1e-9)
            assert max_principal_angle(w, u) == pytest.approx(angle, rel=1e-9)

    @pytest.mark.parametrize("shape, rank", [
        ((12, 5), 5), ((5, 5), 5), ((3, 8), 3),        # tall, square, wide
        ((12, 5), 2), ((5, 5), 4), ((3, 8), 1),        # rank-deficient
        ((0, 4), 0), ((4, 0), 0)])                     # zero-size
    def test_kernel_rows(self, shape, rank):
        m, n = shape
        rng = np.random.default_rng(m * 10 + n + rank)
        a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        rows = kernel_rows(a)
        if a.size:
            s = np.linalg.svd(a, full_matrices=True, compute_uv=False)
            dim = n - int(np.sum(s > 1e-9 * max(s[0], 1.0)))
        else:
            dim = n
        assert rows.shape == (dim, n) and dim == n - rank
        np.testing.assert_allclose(rows @ rows.T, np.eye(dim), atol=1e-12)
        assert np.max(np.abs(a @ rows.T), initial=0.0) < 1e-10
