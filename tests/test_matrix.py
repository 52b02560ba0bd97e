"""Numeric core: norms, the validation threshold, positivity defects,
matrix units, Kronecker products."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starlift.io import _matrices_to_json, matrix_to_json
from starlift import matrix
from starlift.matrix import (BATCH_ENTRIES, DEFAULT_TOL, batches, col_norm1, doubled_units,
                             hermitian_defect, matrix_units, op_norm, positivity_defect,
                             split_norm, worst_op_norm)

from map_fixtures import random_matrix, random_unitary


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


def _matrix_units_loop(d, n=None, offset=0):
    """The list-building matrix units the stack replaced, kept as an oracle."""
    n = d if n is None else n
    out = []
    for j in range(offset, offset + d):
        for l in range(offset, offset + d):
            e = np.zeros((n, n), dtype=np.complex128)
            e[j, l] = 1.0
            out.append(e)
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 3), st.data())
def test_matrix_units_match_the_loop(d, extra, data):
    n = d + extra
    offset = data.draw(st.integers(0, extra))
    units = matrix_units(d, n, offset)
    assert units.shape == (d * d, n, n) and units.dtype == np.complex128
    assert np.array_equal(units, np.reshape(_matrix_units_loop(d, n, offset), (d * d, n, n)))
    if extra == 0:
        assert np.array_equal(matrix_units(d), units)
        loop = _matrix_units_loop(d)
        doubled = doubled_units(d)
        assert doubled.shape == (2 * d * d, d, d)
        assert np.array_equal(doubled, np.reshape(loop + [1j * e for e in loop], (2 * d * d, d, d)))


class TestKron:
    def test_identities(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_matrix_units(self):
        e = np.zeros((2, 2))
        e[0, 0] = 1
        out = np.kron(e, e)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1
        assert np.array_equal(out, expect)

    def test_scalar_factor(self):
        assert np.array_equal(np.kron([[0, 1], [0, 0]], [[2]]), [[0, 2], [0, 0]])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10 ** 6))
    def test_mixed_product(self, n, m, seed):
        rng = np.random.default_rng(seed)
        a, c = random_matrix(rng, n), random_matrix(rng, n)
        b, d = random_matrix(rng, m), random_matrix(rng, m)
        lhs = np.kron(a, b) @ np.kron(c, d)
        rhs = np.kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


class TestMatrixType:
    def test_real_field_rejects_complex_entries(self):
        with pytest.raises(ValueError):
            _matrices_to_json(np.array([[[1j]]]), "R")
        assert _matrices_to_json(np.array([[[2 + 0j]]]), "R")[0]["data"] == [2.0]

    def test_field_inference(self):
        assert matrix_to_json(np.eye(2))["field"] == "R"
        assert matrix_to_json(np.eye(2).astype(complex))["field"] == "R"
        assert matrix_to_json(np.array([[1j]]))["field"] == "C"
        assert _matrices_to_json(np.eye(2)[None], "C")[0]["data"] == [
            [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


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


@pytest.mark.parametrize("norm", [op_norm, col_norm1, split_norm, positivity_defect,
                                  hermitian_defect])
@pytest.mark.parametrize("shape", [(5, 3, 3), (2, 3, 2, 2), (4, 1, 1), (0, 3, 3)])
def test_norms_take_stacks(norm, shape):
    rng = np.random.default_rng(21)
    xs = rng.standard_normal(shape)
    if norm is not col_norm1:
        xs = xs + 1j * rng.standard_normal(shape)
    got = norm(xs)
    assert isinstance(got, np.ndarray) and got.shape == shape[:-2]
    singles = [norm(x) for x in xs.reshape(-1, *shape[-2:])]
    assert all(type(v) is float for v in singles)
    assert got.ravel().tolist() == singles      # bit-equal to one at a time


# -- the validation threshold ----------------------------------------------

EPS = np.finfo(np.float64).eps
SCREEN_EDGE = DEFAULT_TOL * (1.0 - 1e-6)    # worst_op_norm takes no SVD at or below it


def _unit_direction(rng, r: int, c: int, cplx: bool, kind: str) -> np.ndarray:
    """A matrix with sigma_1 = 1 up to rounding: rank one (F = 1) or with
    min(r, c) singular values 1 (F = sqrt(min(r, c)))."""
    def draw(*shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if cplx else g

    if kind == "rank1":
        u, v = draw(r, 1), draw(c, 1)
        return (u @ v.conj().T) / (np.linalg.norm(u) * np.linalg.norm(v))
    q, _ = np.linalg.qr(draw(max(r, c), min(r, c)))
    return q if r >= c else q.conj().T


@st.composite
def screen_cases(draw):
    """Stacks of random, zero, rank-one and full-rank matrices, scaled so
    that a sigma_1 is DEFAULT_TOL, or then rescaled as a whole so that the
    stack's norm is on the screen's edge or just past it, each to within a
    few ulp."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cplx = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("random", "zero", "rank1", "full")))
        if kind == "zero":
            mats.append(np.zeros((r, c)))
        elif kind == "random":
            g = rng.standard_normal((r, c)) + (1j * rng.standard_normal((r, c)) if cplx else 0)
            mats.append(DEFAULT_TOL * 10.0 ** draw(st.floats(-1.5, 1.5)) * g)
        else:
            sigma = DEFAULT_TOL * (1.0 + draw(st.integers(-4, 4)) * EPS)
            mats.append(sigma * _unit_direction(rng, r, c, cplx, kind))
    stack = np.array(mats, dtype=np.complex128 if cplx else np.float64).reshape(-1, r, c)
    if draw(st.booleans()) and stack.any():
        # For one rank-one matrix the stack's norm is sigma_1 itself.
        band = draw(st.sampled_from((0.0, 0.5, 1.0, 1.02, 1.05, 1.5))) * 1e-6
        stack *= DEFAULT_TOL * (1.0 - band) / np.linalg.norm(stack)
        stack *= 1.0 + draw(st.integers(-4, 4)) * EPS
    return stack


@settings(max_examples=400, deadline=None)
@given(screen_cases())
# On the screen's edge: sqrt(vdot(a, a)) rounds above it and np.linalg.norm not.
@example(np.array([[[4.796098251162633e-10 - 2.4298511191387067e-10j,
                     4.9906707054166195e-11 + 1.1689123426945033e-10j],
                    [-3.946887813217065e-10 - 5.359588066934442e-10j,
                     -4.893006493078627e-10 - 1.1104147421821592e-10j]]]))
def test_worst_op_norm_is_the_svd_threshold(stack):
    norms = op_norm(stack)
    worst = float(norms.max()) if norms.size else 0.0
    with mock.patch.object(matrix, "op_norm", wraps=op_norm) as svd:
        got = worst_op_norm(stack)
    assert type(got) is float and got == (worst if worst > DEFAULT_TOL else 0.0)
    assert svd.called == (np.linalg.norm(stack) > SCREEN_EDGE)


def _positivity_defect_full(xs):
    """The defect with op_norm(skew) taken on every matrix, zero or not."""
    adj = np.swapaxes(xs.conj(), -1, -2)
    return np.linalg.eigvalsh((xs + adj) / 2.0)[..., 0] - op_norm((xs - adj) / 2.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.lists(st.sampled_from(("hermitian", "general", "zero")),
                                   min_size=1, max_size=6),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_positivity_defect_skips_zero_skew_bit_exactly(n, kinds, cplx, seed):
    rng = np.random.default_rng(seed)
    mats = []
    for kind in kinds:
        g = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0)
        mats.append({"hermitian": g + g.conj().T, "general": g, "zero": 0 * g}[kind])
    xs = np.array(mats)
    got = positivity_defect(xs)
    assert got.tobytes() == _positivity_defect_full(xs).tobytes()
    for x, want in zip(xs, got):
        assert np.float64(positivity_defect(x)).tobytes() == want.tobytes()


def test_positivity_defect_of_hermitian_input_takes_no_svd(monkeypatch):
    calls = []
    monkeypatch.setattr(matrix, "op_norm", lambda a: calls.append(len(a)) or op_norm(a))
    xs = np.stack([np.eye(3), np.diag([1.0, -2.0, 0.5]), np.triu(np.ones((3, 3)))])
    positivity_defect(xs)
    assert calls == [1]
