"""Transport maps: block embedding, block collapse, scaled variants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starlift.cpmaps import compose, doubled_units
from starlift.matrix import col_norm1, op_norm
from starlift.realform import AntiAutomorphism
from starlift.transport import (RealifiedMap, ThetaScale, eta, eta1,
                                normalized_trace, rho,
                                rho_map, sigma, sigma_map,
                                theta, theta_normalizer,
                                transport_factorization, upsilon, upsilon1)

from map_fixtures import random_isometry, random_matrix


def _stinespring(rng, n, k):
    p = -(-k // n)
    v = random_isometry(rng, n * p, k)

    def f(x):
        return v.conj().T @ np.kron(np.asarray(x), np.eye(p)) @ v

    from starlift.cpmaps import LinearMapMat
    return LinearMapMat.from_function(f, n, "C")


class TestSigma:
    def test_scalar(self):
        assert np.array_equal(sigma([[3 + 4j]]), [[3.0, 4.0], [-4.0, 3.0]])

    def test_unital(self):
        assert np.array_equal(sigma(np.eye(1, dtype=complex)), np.eye(2))
        assert np.array_equal(sigma(np.eye(3, dtype=complex)), np.eye(6))

    def test_block_substitution(self):
        out = sigma(np.diag([1j, -1j]))
        expect = np.zeros((4, 4))
        expect[0, 1], expect[1, 0] = 1.0, -1.0
        expect[2, 3], expect[3, 2] = -1.0, 1.0
        assert np.array_equal(out, expect)

    def test_star_homomorphism(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            x, y = random_matrix(rng, k), random_matrix(rng, k)
            assert op_norm(sigma(x @ y) - sigma(x) @ sigma(y)) < 1e-10 * (
                1 + op_norm(x) * op_norm(y))
            assert op_norm(sigma(x.conj().T) - sigma(x).T) < 1e-12

    def test_isometric_on_operator_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = random_matrix(rng, 3)
            assert op_norm(sigma(x)) == pytest.approx(op_norm(x), rel=1e-10)


class TestRho:
    def test_scalar_block(self):
        assert rho([[1.0, 2.0], [3.0, 4.0]])[0, 0] == pytest.approx(2.5 - 0.5j)

    def test_identity(self):
        assert rho(np.eye(2))[0, 0] == pytest.approx(1.0)

    def test_left_inverse_of_sigma(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            z = rng.standard_normal() + 1j * rng.standard_normal()
            assert abs(rho(sigma([[z]]))[0, 0] - z) < 1e-14
        for _ in range(50):
            k = int(rng.integers(1, 9))
            x = random_matrix(rng, k)
            assert op_norm(rho(sigma(x)) - x) < 1e-12

    def test_compression_representation(self):
        rng = np.random.default_rng(3)
        for k in (1, 2, 3, 4):
            # rho(m) = w* m w for w[2l, l] = 1/sqrt(2), w[2l + 1, l] = i/sqrt(2).
            w = np.kron(np.eye(k), [[1.0], [1.0j]]) / np.sqrt(2.0)
            assert op_norm(w.conj().T @ w - np.eye(k)) < 1e-14
            for _ in range(10):
                m = random_matrix(rng, 2 * k, field="R")
                assert op_norm(rho(m) - w.conj().T @ m @ w) < 1e-12

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            rho(np.eye(3))

    def test_complex_input_rejected(self):
        with pytest.raises(ValueError):
            rho(np.eye(2) * 1j)


class TestTheta:
    def test_paper_scalar(self):
        out = theta(np.array([[3 + 4j]]))
        assert np.allclose(out, np.array([[3.0, 4.0], [-4.0, 3.0]]) / 8.0)

    def test_zero(self):
        assert np.all(theta(np.zeros((2, 2))) == 0.0)

    def test_fixed_scale(self):
        out = theta(np.array([[3 + 4j]]), ThetaScale("fixed", 0.25))
        assert np.allclose(out, [[0.75, 1.0], [-1.0, 0.75]])

    def test_normalizer_is_col1_of_sigma(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            x = random_matrix(rng, int(rng.integers(1, 6)))
            assert theta_normalizer(x) == pytest.approx(col_norm1(sigma(x)))

    def test_contraction_in_paper_mode(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = random_matrix(rng, int(rng.integers(1, 6)))
            n = theta_normalizer(x)
            bound = n / (n + 1.0)
            assert col_norm1(theta(x)) <= bound + 1e-12 < 1.0

    def test_scale_parsing(self):
        assert ThetaScale.parse("paper").mode == "paper"
        parsed = ThetaScale.parse("fixed:0.25")
        assert parsed.mode == "fixed" and parsed.value == 0.25
        with pytest.raises(ValueError):
            ThetaScale.parse("bogus")

    def test_for_working_set(self):
        mats = [np.array([[3 + 4j]]), np.array([[1.0]])]
        s = ThetaScale.for_working_set(mats)
        assert s.value == pytest.approx(1.0 / 8.0)
        assert ThetaScale.for_working_set(np.stack(mats[::-1])).value == s.value


class TestEtaUpsilon:
    def test_eta_scalar(self):
        assert np.array_equal(eta([[3 + 4j]]), np.diag([3.0, 4.0]))
        assert np.array_equal(eta([[1.0]]), np.diag([1.0, 0.0]))

    def test_eta_block_extraction(self):
        out = eta(np.array([[1, 1j], [-1j, 1]]))
        imag_block = out[1::2, 1::2]
        assert np.array_equal(imag_block, [[0.0, 1.0], [-1.0, 0.0]])

    def test_upsilon_values(self):
        assert upsilon(3 + 4j, 1.0) == 7.0
        assert upsilon(3 + 4j, 0.5) == 3.5
        assert upsilon(0.0) == 0.0

    def test_upsilon_rejects_matrix(self):
        # A matrix is taken entrywise.
        assert np.array_equal(upsilon(np.array([[1 + 2j, -3j]])), [[1.5, -1.5]])

    def test_eta1_upsilon1(self):
        assert np.array_equal(eta1(3 - 4j), np.diag([3.0, 4.0]))
        assert upsilon1(3 - 4j, 1.0) == 7.0
        assert upsilon1(2.0, 0.5) == 1.0

    def test_eta1_rejects_matrix(self):
        # A matrix is taken entrywise.
        x = np.array([[1 - 2j, 3j]])
        assert np.array_equal(eta1(x), [[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 3.0]])
        assert np.array_equal(upsilon1(x, 1.0), [[3.0, 3.0]])

    def test_eta1_entrywise(self):
        out = eta1(np.array([[3 - 4j]]))
        assert np.array_equal(out, np.diag([3.0, 4.0]))

    def test_trace_intertwining_scale_half(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            k = int(rng.integers(1, 6))
            x = random_matrix(rng, k)
            lhs = upsilon(normalized_trace(x), 0.5)
            rhs = float(np.trace(eta(x)).real) / (2 * k)
            assert abs(lhs - rhs) < 1e-12

    def test_trace_intertwining_fails_at_scale_one(self):
        x = np.array([[1 + 1j]])
        lhs = upsilon(normalized_trace(x), 1.0)
        rhs = float(np.trace(eta(x)).real) / 2
        assert lhs == pytest.approx(2.0 * rhs)

    def test_upsilon_entrywise(self):
        out = upsilon(np.array([[1 + 2j, 3]]), 1.0)
        assert np.array_equal(out, [[3.0, 3.0]])


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(0, 10 ** 6))
def test_rho_sigma_identity_property(k, seed):
    x = random_matrix(np.random.default_rng(seed), k)
    assert op_norm(rho(sigma(x)) - x) < 1e-12


class TestTransportFactorization:
    def test_identity_pair(self):
        phi = psi = __import__("starlift").LinearMapMat.identity(2)
        fp, sp = transport_factorization(phi, psi)
        after = compose(sp, fp)
        for b in doubled_units(2):
            assert op_norm(after.apply(b) - b) < 1e-12

    def test_zero_map(self):
        from starlift.cpmaps import LinearMapMat
        zero = LinearMapMat.from_function(lambda m: np.zeros((2, 2)), 2, "C")
        fp, sp = transport_factorization(zero, LinearMapMat.identity(2))
        assert np.max(np.abs(compose(sp, fp).images)) < 1e-14

    def test_random_cp_pairs(self):
        worst = 0.0
        for trial in range(30):
            rng = np.random.default_rng(3000 + trial)
            da = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            db = int(rng.integers(1, 5))
            phi = _stinespring(rng, da, n)
            psi = _stinespring(rng, n, db)
            fp, sp = transport_factorization(phi, psi)
            before, after = compose(psi, phi), compose(sp, fp)
            resid = max(op_norm(after.apply(b) - before.apply(b))
                        for b in doubled_units(da))
            worst = max(worst, resid)
        assert worst < 1e-10

    def test_dimension_mismatch(self):
        from starlift.cpmaps import LinearMapMat
        # compose names the mismatch; transport_factorization has no check of its own.
        with pytest.raises(ValueError) as exc:
            transport_factorization(LinearMapMat.identity(2),
                                    LinearMapMat.identity(3))
        assert str(exc.value) == "dimension mismatch: phi maps into 2, psi expects 3"


class TestRealifyMap:
    def test_scalar_formula(self):
        anti = AntiAutomorphism.transpose(1)
        from starlift.cpmaps import LinearMapMat
        rm = RealifiedMap(LinearMapMat.identity(1), anti, ThetaScale("fixed", 0.5))
        out = rm.apply(np.array([[2 + 6j]]))
        # conjugate then embed then halve: [[a, -b], [b, a]] / 2
        assert np.allclose(out, np.array([[1.0, -3.0], [3.0, 1.0]]))

    def test_fixes_real_form_at_scale_one(self):
        anti = AntiAutomorphism.transpose(2)
        from starlift.cpmaps import LinearMapMat
        rm = RealifiedMap(LinearMapMat.identity(2), anti, ThetaScale("fixed", 1.0))
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert op_norm(rm.apply(a) - sigma(a)) < 1e-12

    def test_zero(self):
        anti = AntiAutomorphism.transpose(2)
        from starlift.cpmaps import LinearMapMat
        rm = RealifiedMap(LinearMapMat.identity(2), anti)
        assert np.all(rm.apply(np.zeros((2, 2))) == 0.0)

    def test_fixed_mode_is_linear_map(self):
        anti = AntiAutomorphism.transpose(2)
        rng = np.random.default_rng(7)
        phi = _stinespring(rng, 2, 3)
        rm = RealifiedMap(phi, anti, ThetaScale("fixed", 0.25))
        assert rm.scale.is_linear
        lin = rm.as_linear_map()
        x = random_matrix(rng, 2)
        assert op_norm(lin.apply(x) - rm.apply(x)) < 1e-10

    def test_paper_mode_is_nonlinear(self):
        anti = AntiAutomorphism.transpose(1)
        from starlift.cpmaps import LinearMapMat
        rm = RealifiedMap(LinearMapMat.identity(1), anti, ThetaScale("paper"))
        assert not rm.scale.is_linear
        with pytest.raises(ValueError):
            rm.as_linear_map()
        x, y = np.array([[1.0 + 0j]]), np.array([[2.0 + 0j]])
        assert op_norm(rm.apply(x + y) - rm.apply(x) - rm.apply(y)) > 1e-3

    def test_rejects_real_linear_input(self):
        anti = AntiAutomorphism.transpose(2)
        with pytest.raises(ValueError):
            RealifiedMap(sigma_map(2), anti)


def test_sigma_rho_maps_round_trip():
    out = compose(rho_map(3), sigma_map(3))
    for b in doubled_units(3):
        assert op_norm(out.apply(b) - b) < 1e-12


def test_theta_scale_validation():
    with pytest.raises(ValueError):
        ThetaScale("fixed", 0.0)
    with pytest.raises(ValueError):
        ThetaScale("weird")



def _signed_zero_stack(rng, k, n):
    """k random n x n matrices with some real and imaginary parts +-0."""
    re, im = rng.standard_normal((2, k, n, n))
    zero = np.where(rng.integers(0, 2, (k, n, n)) == 1, -0.0, 0.0)
    part = rng.integers(0, 4, (k, n, n))
    xs = np.empty((k, n, n), dtype=complex)
    xs.real = np.where(part == 1, zero, re)
    xs.imag = np.where(part == 2, zero, im)
    return xs


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) \
        and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_block_maps_match_kron_form(n, k, seed):
    xs = _signed_zero_stack(np.random.default_rng(seed), k, n)
    e11, e22 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for x in xs:
        assert _same_bits(sigma(x), np.kron(x.real, np.eye(2)) + np.kron(x.imag, j2))
        assert _same_bits(eta(x), np.kron(x.real, e11) + np.kron(x.imag, e22))
        assert _same_bits(eta1(x), np.kron(x.real, e11) + np.kron(np.abs(x.imag), e22))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_stack_matches_one_at_a_time(n, k, seed):
    rng = np.random.default_rng(seed)
    xs = _signed_zero_stack(rng, k, n)
    fixed = ThetaScale("fixed", 0.3)
    for f in (sigma, eta, eta1, theta_normalizer, theta, lambda x: theta(x, fixed)):
        assert _same_bits(f(xs), np.stack([f(x) for x in xs]))
    assert isinstance(theta_normalizer(xs[0]), float)
    for anti in (AntiAutomorphism.transpose(2 * n),
                 AntiAutomorphism(np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]]))):
        rm = RealifiedMap(_stinespring(rng, 2 * n, 3), anti, ThetaScale())
        ys = _signed_zero_stack(rng, k, 2 * n)
        assert _same_bits(rm.apply(ys), np.stack([rm.apply(y) for y in ys]))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_rho_and_normalized_trace_on_a_stack(n, k, seed):
    rng = np.random.default_rng(seed)
    ms = _signed_zero_stack(rng, k, 2 * n).real
    assert _same_bits(rho(ms).view(float), np.stack([rho(m) for m in ms]).view(float))
    xs = _signed_zero_stack(rng, k, n)
    traces = normalized_trace(xs)
    assert traces.shape == (k,)
    for x, t in zip(xs, traces):
        one = normalized_trace(x)
        assert isinstance(one, complex)
        assert _same_bits([t.real, t.imag], [one.real, one.imag])
        # the parts divided one by one: Python's quotient, up to the sign of a zero
        assert t == complex(np.trace(x)) / n


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_transport_maps_equal_their_tabulations(k):
    from starlift.cpmaps import LinearMapMat
    for fast, slow in ((sigma_map(k), LinearMapMat.from_function(sigma, k, "R", "C", "R")),
                       (rho_map(k), LinearMapMat.from_function(rho, 2 * k, "R", "R", "C"))):
        assert (fast.dom_dim, fast.cod_dim, fast.linearity, fast.dom_field, fast.cod_field) \
            == (slow.dom_dim, slow.cod_dim, slow.linearity, slow.dom_field, slow.cod_field)
        assert _same_bits(fast.images.view(float), slow.images.view(float))
