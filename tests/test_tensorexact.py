"""Tensor products, slice maps, Fubini products, exactness checks.

The kernel identities are cross-checked against a brute-force oracle
that builds the quotient map directly on raw Kronecker products and
null-spaces it, independently of the subspace engine.
"""

import numpy as np
import pytest

from starlift.matrix import kron, op_norm
from starlift.realform import AntiAutomorphism, StarAlgebra, real_form_basis
from starlift.sampling import random_matrix
from starlift.subspace import (containment_residual, kernel_rows,
                               max_principal_angle, orth_rows, realify,
                               subspaces_equal)
from starlift.certify import TraceWitness
from starlift.tensorexact import (IdealPresentation, decompose_tensor,
                                  detect_blocks, exactness_check, fubini,
                                  fubini_check, min_tensor, quotient_kernel_rows,
                                  slice_left_map, slice_left_value,
                                  slice_right_map, slice_right_value,
                                  tensor_span_rows)

A2 = StarAlgebra.full_matrix(2)
B23 = StarAlgebra.block_diagonal([2, 3])
ANTI2 = AntiAutomorphism.transpose(2)


class TestMinTensor:
    def test_full_times_full(self):
        t = min_tensor(A2, StarAlgebra.full_matrix(3))
        assert t.complex_dim() == 36

    def test_unit_factor(self):
        one = StarAlgebra(1, (np.eye(1),), unital=True)
        t = min_tensor(A2, one)
        assert t.complex_dim() == 4
        assert all(m.shape == (2, 2) for m in t.span)

    def test_diagonal_times_diagonal(self):
        diag = StarAlgebra(2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                           unital=True)
        t = min_tensor(diag, diag)
        assert t.complex_dim() == 4

    def test_dimension_is_product_of_factor_dimensions(self):
        t = min_tensor(A2, B23)
        assert t.complex_dim() == A2.complex_dim() * B23.complex_dim() == 52


class TestSliceMaps:
    def test_rank_one_tensor(self):
        rng = np.random.default_rng(0)
        a, b = random_matrix(rng, 2), random_matrix(rng, 3)
        x = kron(a, b)
        tau = TraceWitness.normalized_trace(2)
        out = slice_right_value(tau.gram, x, 2, 3)
        assert op_norm(out - (np.trace(a) / 2) * b) < 1e-12
        psi = TraceWitness.normalized_trace(3)
        out_l = slice_left_value(psi.gram, x, 2, 3)
        assert op_norm(out_l - (np.trace(b) / 3) * a) < 1e-12

    def test_zero(self):
        tau = TraceWitness.normalized_trace(2)
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

    def test_as_linear_maps(self):
        t = min_tensor(A2, StarAlgebra.full_matrix(3))
        tau = TraceWitness.normalized_trace(2)
        rm = slice_right_map(tau, t)
        rng = np.random.default_rng(2)
        x = random_matrix(rng, 6)
        assert op_norm(rm.apply(x) - slice_right_value(tau.gram, x, 2, 3)) < 1e-10
        lm = slice_left_map(TraceWitness.normalized_trace(3), t)
        assert op_norm(lm.apply(x) - slice_left_value(np.eye(3) / 3, x, 2, 3)) < 1e-10

    def test_slices_commute_with_quotient(self):
        # R_phi . (id (x) pi) = pi . R_phi on the tensor span
        pres = IdealPresentation.from_block_algebra(B23, [0])
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
        assert detect_blocks(StarAlgebra.full_matrix(3).span, 3) == ((0, 3),)

    def test_validate_canonical(self):
        IdealPresentation.from_block_algebra(B23, [0]).validate()
        IdealPresentation.from_block_algebra(B23, [1]).validate()

    def test_quotient_annihilates_ideal(self):
        pres = IdealPresentation.from_block_algebra(B23, [0])
        for e in pres.ideal_span():
            assert op_norm(pres.quotient_apply(e)) == 0.0

    def test_quotient_apply_extracts_complementary_block(self):
        pres = IdealPresentation.from_block_algebra(B23, [0])
        x = np.arange(25.0).reshape(5, 5)
        np.testing.assert_array_equal(pres.quotient_apply(x), x[2:, 2:])
        np.testing.assert_array_equal(pres.quotient_apply(np.stack([x, -x])),
                                      np.stack([x[2:, 2:], -x[2:, 2:]]))

    def test_bad_block_index(self):
        with pytest.raises(ValueError):
            IdealPresentation.from_block_algebra(B23, [5])

    def test_ideal_span_size(self):
        pres = IdealPresentation.from_block_algebra(B23, [0])
        assert len(pres.ideal_span()) == 4
        assert pres.quotient_dim == 3


def _oracle_kernel_rows(a_leg, b_span, pres):
    """Brute force: map raw products through id (x) pi and null-space."""
    na = a_leg[0].shape[0]
    nb = b_span[0].shape[0]
    qi = pres.quotient_indices
    nq = len(qi)
    prods = []
    for g in a_leg:
        for h in b_span:
            prods.append(kron(g, h))
            prods.append(1j * kron(g, h))
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
        pres = IdealPresentation.from_block_algebra(B23, [0])
        report = exactness_check(A2, ANTI2, pres)
        assert report.ok
        assert report.real_kernel.kernel_dim == 32
        assert report.real_kernel.span_dim == 32
        assert report.real_kernel.principal_angle < 1e-6
        assert report.complex_kernel.kernel_dim == 32
        assert report.fubini_real.match and report.fubini_complex.match
        assert report.decomposition_dims["spans_everything"]
        # the easy containment span(A (x) I) <= ker(id (x) pi) holds exactly
        assert report.real_kernel.containment_span_in_kernel < 1e-8
        assert report.complex_kernel.containment_span_in_kernel < 1e-8

    def test_kernel_matches_brute_force_oracle(self):
        pres = IdealPresentation.from_block_algebra(B23, [0])
        working = tensor_span_rows(real_form_basis(ANTI2), list(B23.span),
                                   complex_scalars=True)
        engine = quotient_kernel_rows(working, pres, 2, 5)
        oracle = _oracle_kernel_rows(real_form_basis(ANTI2), list(B23.span), pres)
        assert engine.shape[0] == oracle.shape[0] == 32
        eq, ang = subspaces_equal(engine, oracle, 1e-6)
        assert eq, ang

    def test_zero_ideal(self):
        pres = IdealPresentation.from_block_algebra(B23, [])
        report = exactness_check(A2, ANTI2, pres)
        assert report.real_kernel.kernel_dim == 0
        assert report.ok

    def test_full_ideal(self):
        pres = IdealPresentation.from_block_algebra(B23, [0, 1])
        report = exactness_check(A2, ANTI2, pres)
        assert report.real_kernel.kernel_dim == report.real_kernel.span_dim == 104
        assert report.ok

    def test_other_summand(self):
        pres = IdealPresentation.from_block_algebra(B23, [1])
        report = exactness_check(A2, ANTI2, pres)
        assert report.ok
        assert report.real_kernel.kernel_dim == 4 * 2 * 9

    def test_quaternionic_form(self):
        anti = AntiAutomorphism(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        pres = IdealPresentation.from_block_algebra(B23, [0])
        report = exactness_check(A2, anti, pres)
        assert report.ok

    def test_three_block_algebra(self):
        b = StarAlgebra.block_diagonal([1, 2, 2])
        pres = IdealPresentation.from_block_algebra(b, [0, 2])
        report = exactness_check(A2, ANTI2, pres)
        assert report.ok


class TestFubini:
    def test_no_constraint_gives_everything(self):
        t = min_tensor(A2, B23)
        form = real_form_basis(ANTI2)
        working = tensor_span_rows(form, list(B23.span), complex_scalars=True)
        b_all = list(B23.span) + [1j * m for m in B23.span]
        res = fubini(form, b_all, t, anti=ANTI2, working_rows=working)
        assert res.dim == working.shape[0]

    def test_zero_b_target_gives_zero(self):
        t = min_tensor(A2, B23)
        form = real_form_basis(ANTI2)
        res = fubini(form, [], t, anti=ANTI2)
        assert res.dim == 0

    def test_zero_a_target_gives_zero(self):
        # left slices separate the span, so A1 = {0} forces x = 0
        t = min_tensor(A2, B23)
        form = real_form_basis(ANTI2)
        b_all = list(B23.span) + [1j * m for m in B23.span]
        res = fubini([], b_all, t, anti=ANTI2)
        assert res.dim == 0

    def test_ideal_instance_matches_span(self):
        pres = IdealPresentation.from_block_algebra(B23, [0])
        check = fubini_check(A2, ANTI2, pres)
        assert check.match
        assert check.kernel_dim == check.span_dim == 32

    def test_complex_valued_psi_breaks_identity(self):
        # recorded behavior: complex-valued B-leg functionals force the
        # left slices into the real form and i times it simultaneously
        pres = IdealPresentation.from_block_algebra(B23, [0])
        t = min_tensor(A2, B23)
        form = real_form_basis(ANTI2)
        working = tensor_span_rows(form, list(B23.span), complex_scalars=True)
        ideal = pres.ideal_span()
        res = fubini(form, ideal + [1j * e for e in ideal], t, anti=ANTI2,
                     psi_field="C", working_rows=working)
        assert res.dim < 32


class TestDecomposeTensor:
    def test_elementary_fixed_point(self):
        t = min_tensor(A2, B23)
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        x = kron(a, B23.span[0])
        x1, x2 = decompose_tensor(x, ANTI2, t)
        assert op_norm(x1 - x) < 1e-10
        assert op_norm(x2) < 1e-10

    def test_elementary_imaginary(self):
        t = min_tensor(A2, B23)
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        x = kron(1j * a, B23.span[0])
        x1, x2 = decompose_tensor(x, ANTI2, t)
        assert op_norm(x1) < 1e-10
        assert op_norm(x2 - x) < 1e-10

    def test_random_recombination(self):
        t = min_tensor(A2, StarAlgebra.full_matrix(2))
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = random_matrix(rng, 4)
            x1, x2 = decompose_tensor(x, ANTI2, t)
            assert op_norm(x - (x1 + x2)) < 1e-12

    def test_idempotent(self):
        t = min_tensor(A2, B23)
        rng = np.random.default_rng(6)
        x = sum(kron(random_matrix(rng, 2), m) for m in B23.span[:5])
        x1, _ = decompose_tensor(x, ANTI2, t)
        y1, y2 = decompose_tensor(x1, ANTI2, t)
        assert op_norm(y1 - x1) < 1e-10
        assert op_norm(y2) < 1e-10

    def test_rejects_outside_span(self):
        diag = StarAlgebra(2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                           unital=True)
        t = min_tensor(A2, diag)
        off = kron(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            decompose_tensor(off, ANTI2, t)


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
