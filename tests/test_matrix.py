"""Numeric core: norms, positivity defects, Kronecker products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starlift.matrix import (BATCH_ENTRIES, Matrix, Tolerance, batches, col_norm1,
                             hermitian_defect, kron, op_norm, positivity_defect,
                             split_norm)
from starlift.sampling import random_matrix, random_unitary


def _complex_entries(n):
    return st.lists(
        st.tuples(st.floats(-10, 10, allow_nan=False),
                  st.floats(-10, 10, allow_nan=False)),
        min_size=n * n, max_size=n * n,
    )


@st.composite
def small_complex_matrix(draw, max_dim=6):
    n = draw(st.integers(1, max_dim))
    entries = draw(_complex_entries(n))
    arr = np.array([re + 1j * im for re, im in entries]).reshape(n, n)
    return arr


class TestOpNorm:
    def test_identity(self):
        assert op_norm(np.eye(3)) == pytest.approx(1.0)

    def test_rotation_generator(self):
        # both singular values of [[0,1],[-1,0]] equal 1
        assert op_norm([[0, 1], [-1, 0]]) == pytest.approx(1.0)

    def test_zero(self):
        assert op_norm(np.zeros((3, 2))) == 0.0

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(small_complex_matrix())
    def test_cstar_identity(self, m):
        # ||m* m|| = ||m||^2
        lhs = op_norm(m.conj().T @ m)
        rhs = op_norm(m) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_cstar_identity_seeded(self):
        rng = np.random.default_rng(0)
        for _ in range(120):
            n = int(rng.integers(1, 7))
            m = random_matrix(rng, n, int(rng.integers(1, 7)))
            assert op_norm(m.conj().T @ m) == pytest.approx(
                op_norm(m) ** 2, rel=1e-10, abs=1e-12)


class TestColNorm1:
    def test_identity(self):
        assert col_norm1(np.eye(2)) == 1.0

    def test_rotation_like(self):
        assert col_norm1([[3, 4], [-4, 3]]) == 7.0

    def test_rank_one(self):
        assert col_norm1([[1, 0], [0, 0]]) == 1.0

    def test_rejects_complex(self):
        with pytest.raises(ValueError):
            col_norm1(np.array([[1j]]))
        with pytest.raises(ValueError):
            col_norm1(Matrix(np.eye(2).astype(complex), "C"))

    def test_entrywise_variant(self):
        assert col_norm1([[3, 4], [-4, 3]], entrywise=True) == 14.0

    def test_submultiplicative(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            a = random_matrix(rng, n, n, "R")
            b = random_matrix(rng, n, n, "R")
            assert col_norm1(a @ b) <= col_norm1(a) * col_norm1(b) + 1e-12


class TestPsdDefect:
    """On Hermitian input positivity_defect is the minimum eigenvalue."""

    def test_identity(self):
        assert positivity_defect(np.eye(4)) == pytest.approx(1.0)

    def test_indefinite_diagonal(self):
        assert positivity_defect(np.diag([1.0, -2.0])) == pytest.approx(-2.0)

    def test_rank_deficient_hermitian(self):
        # eigenvalues {0, 2} by the characteristic polynomial
        m = np.array([[1, 1j], [-1j, 1]])
        assert positivity_defect(m) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            positivity_defect(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        # A positive Hermitian part does not make the input positive: the
        # skew part is charged against it, so the score is negative.
        m = np.array([[1.0, 2.0], [-2.0, 1.0]])
        assert positivity_defect(m) == pytest.approx(-1.0)

    def test_unitary_conjugation(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            u = random_unitary(rng, n)
            d = rng.standard_normal(n)
            m = u @ np.diag(d) @ u.conj().T
            assert positivity_defect(m) == pytest.approx(
                float(np.min(d)), abs=1e-10)


class TestPositivityDefect:
    def test_matches_psd_defect_on_hermitian(self):
        m = np.diag([3.0, -0.5])
        assert positivity_defect(m) == pytest.approx(-0.5)

    def test_penalizes_skew_part(self):
        m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert positivity_defect(m) == pytest.approx(-1.0)


class TestKron:
    def test_identities(self):
        assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_matrix_units(self):
        e = np.zeros((2, 2))
        e[0, 0] = 1
        out = kron(e, e)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1
        assert np.array_equal(out, expect)

    def test_scalar_factor(self):
        assert np.array_equal(kron([[0, 1], [0, 0]], [[2]]), [[0, 2], [0, 0]])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10 ** 6))
    def test_mixed_product(self, n, m, seed):
        rng = np.random.default_rng(seed)
        a, c = random_matrix(rng, n), random_matrix(rng, n)
        b, d = random_matrix(rng, m), random_matrix(rng, m)
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


class TestMatrixType:
    def test_real_field_rejects_complex_entries(self):
        with pytest.raises(ValueError):
            Matrix(np.array([[1j]]), "R")

    def test_field_inference(self):
        assert Matrix.from_array(np.eye(2)).field == "R"
        assert Matrix.from_array(np.array([[1j]])).field == "C"

    def test_shape_properties(self):
        m = Matrix.from_array(np.zeros((2, 3)))
        assert (m.rows, m.cols) == (2, 3)

    def test_immutable(self):
        m = Matrix.from_array(np.eye(2))
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0


class TestTolerance:
    def test_default(self):
        assert Tolerance().eps == 1e-9

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Tolerance(-1e-3)


def test_split_norm_is_sum_of_part_norms():
    m = np.array([[1.0 + 2.0j, 0.0], [0.0, 1.0]])
    re = np.array([[1.0, 0.0], [0.0, 1.0]])
    im = np.array([[2.0, 0.0], [0.0, 0.0]])
    assert split_norm(m) == pytest.approx(op_norm(re) + op_norm(im))


def test_hermitian_defect():
    assert hermitian_defect(np.eye(2)) == 0.0
    assert hermitian_defect([[0, 2], [0, 0]]) == pytest.approx(2.0)


def test_batches_cover_the_range_in_order():
    assert batches(5, BATCH_ENTRIES // 2) == [slice(0, 2), slice(2, 4), slice(4, 6)]
    # An item larger than a batch still gets a batch of its own.
    assert batches(3, 2 * BATCH_ENTRIES) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert batches(4, 1) == [slice(0, BATCH_ENTRIES)]
    assert batches(0, 1) == []
