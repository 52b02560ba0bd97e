"""Antiautomorphisms, real forms, and the decomposition x = r + i s."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starlift.matrix import matrix_units, op_norm
from starlift.realform import (AntiAutomorphism, StarAlgebra,
                               check_antiautomorphism, conj_phi,
                               real_decompose, real_form_basis,
                               real_form_residual)

from map_fixtures import random_matrix, random_unitary

TRANSPOSE2 = AntiAutomorphism.transpose(2)
ROTATION = AntiAutomorphism(np.array([[0.0, 1.0], [-1.0, 0.0]]))


class TestApplyPhi:
    def test_transpose(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(TRANSPOSE2.apply(x), x.T)

    def test_identity_fixed(self):
        assert np.array_equal(TRANSPOSE2.apply(np.eye(2)), np.eye(2))

    def test_rotation_unit(self):
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        e22 = np.array([[0.0, 0.0], [0.0, 1.0]])
        assert op_norm(ROTATION.apply(e11) - e22) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            TRANSPOSE2.apply(np.eye(3))
        with pytest.raises(ValueError):
            TRANSPOSE2.apply(np.zeros((4, 3, 3)))


class TestAntiAutomorphismValidation:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            AntiAutomorphism(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_rejects_asymmetric_u(self):
        # u^T differing from +-u breaks involutivity
        rng = np.random.default_rng(0)
        u = random_unitary(rng, 3)
        with pytest.raises(ValueError):
            AntiAutomorphism(u)

    def test_accepts_signed_diagonal(self):
        anti = AntiAutomorphism(np.diag([1.0, -1.0]))
        rep = check_antiautomorphism(anti, samples=30, seed=1)
        assert rep.ok

    def test_error_report_instead_of_raise(self):
        bad = AntiAutomorphism(np.array([[2.0, 0.0], [0.0, 1.0]]), validate=False)
        rep = check_antiautomorphism(bad, samples=5, seed=0)
        assert not rep.ok
        assert rep.unitary_defect > 1e-10

    @pytest.mark.parametrize("defect", ["unitary", "symmetry"])
    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
    def test_each_defect_is_bounded_by_1e_10(self, defect, factor):
        # diag(sqrt(1 + t), 1) has ||u*u - I|| = t and is symmetric; the
        # rotation by asin(t / 2) is unitary with ||u^T - u|| = t.
        t = 1e-10 * factor
        if defect == "unitary":
            u = np.diag([np.sqrt(1.0 + t), 1.0])
        else:
            c, s = np.cos(np.arcsin(t / 2)), t / 2
            u = np.array([[c, s], [-s, c]])
        rep = check_antiautomorphism(AntiAutomorphism(u, validate=False), samples=1)
        unit, sym = rep.unitary_defect, rep.symmetry_defect
        assert (unit if defect == "unitary" else sym) == pytest.approx(t, rel=1e-5)
        if factor < 1:
            AntiAutomorphism(u)
            return
        want = (f"u is not unitary: ||u*u - I|| = {unit:.3e}" if defect == "unitary"
                else f"u^T must equal +-u for an involution: defect {sym:.3e}")
        with pytest.raises(ValueError) as exc:
            AntiAutomorphism(u)
        assert str(exc.value) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_transpose_is_the_validated_identity(self, n):
        anti = AntiAutomorphism.transpose(n)
        assert np.array_equal(anti.u, AntiAutomorphism(np.eye(n)).u)
        assert anti.u.dtype == np.complex128 and not anti.u.flags.writeable
        assert check_antiautomorphism(anti, samples=5, seed=n).ok


def _candidate_u(kind: tuple, move: str, size: float, rng) -> np.ndarray:
    """A 4 x 4 candidate u built from a unitary or a general q: q q^T
    (symmetric), q J q^T (antisymmetric) or q itself.  ``move`` then
    scales it by 1 + size, which moves only the unitary defect, or twists
    it by a unitary exp(i size H), which moves only the symmetry defect."""
    q = random_unitary(rng, 4) if kind[0] == "unitary" else random_matrix(rng, 4)
    j = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    u = {"symmetric": q @ q.T, "antisymmetric": q @ j @ q.T, "neither": q}[kind[1]]
    if move == "scale":
        return (1.0 + size) * u
    h = random_matrix(rng, 4)
    w, v = np.linalg.eigh(h + h.conj().T)
    return u @ (v * np.exp(1j * size * w)) @ v.conj().T


KINDS = [(m, s) for m in ("unitary", "general") for s in ("symmetric", "antisymmetric", "neither")]


class TestValidationMatchesCheck:
    """AntiAutomorphism(u) and check_antiautomorphism measure u alike."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(KINDS), st.sampled_from(("scale", "twist")),
           st.sampled_from((0.0, 3e-11, 1e-10, 1e-9)), st.integers(0, 2**32 - 1))
    def test_raises_exactly_on_a_reported_defect(self, kind, move, size, seed):
        u = _candidate_u(kind, move, size, np.random.default_rng(seed))
        # The constructor's verdict and message must match the report.
        rep = check_antiautomorphism(AntiAutomorphism(u, validate=False), samples=2, seed=0)
        if rep.unitary_defect > 1e-10:
            want = f"u is not unitary: ||u*u - I|| = {rep.unitary_defect:.3e}"
        elif rep.symmetry_defect > 1e-10:
            want = f"u^T must equal +-u for an involution: defect {rep.symmetry_defect:.3e}"
        else:
            AntiAutomorphism(u)
            return
        with pytest.raises(ValueError) as exc:
            AntiAutomorphism(u)
        assert str(exc.value) == want

    @pytest.mark.parametrize("kind, move, size, unitary, involutive", [
        (("unitary", "symmetric"), "scale", 0.0, True, True),
        (("unitary", "antisymmetric"), "scale", 0.0, True, True),
        (("unitary", "neither"), "scale", 0.0, True, False),
        (("general", "symmetric"), "scale", 0.0, False, True),
        (("general", "antisymmetric"), "scale", 0.0, False, True),
        (("general", "neither"), "scale", 0.0, False, False),
        (("unitary", "symmetric"), "scale", 1e-10, False, True),
        (("unitary", "symmetric"), "twist", 1e-10, True, False)])
    def test_candidates_cover_each_defect(self, kind, move, size, unitary, involutive):
        u = _candidate_u(kind, move, size, np.random.default_rng(3))
        rep = check_antiautomorphism(AntiAutomorphism(u, validate=False), samples=2, seed=0)
        assert (rep.unitary_defect <= 1e-10) == unitary
        assert (rep.symmetry_defect <= 1e-10) == involutive


class TestCheckAntiautomorphism:
    def test_transpose_axioms_exact(self):
        rep = check_antiautomorphism(TRANSPOSE2, samples=50, seed=3)
        assert rep.ok
        assert rep.antimultiplicative < 1e-12
        assert rep.star_compatible < 1e-12
        assert rep.involutive < 1e-12

    def test_rotation_axioms(self):
        rep = check_antiautomorphism(ROTATION, samples=50, seed=4)
        assert rep.ok

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            check_antiautomorphism(TRANSPOSE2, samples=0)


class TestRealDecompose:
    def test_transpose_gives_entrywise_parts(self):
        x = np.array([[1.0, 1.0j], [0.0, 1.0]])
        r, s = real_decompose(TRANSPOSE2, x)
        assert op_norm(r - np.eye(2)) < 1e-14
        assert op_norm(s - np.array([[0.0, 1.0], [0.0, 0.0]])) < 1e-14

    def test_fixed_point(self):
        a = np.array([[1.0, 2.0], [5.0, -3.0]])
        r, s = real_decompose(TRANSPOSE2, a)
        assert op_norm(r - a) < 1e-14
        assert op_norm(s) < 1e-14

    def test_purely_imaginary(self):
        a = np.array([[1.0, 2.0], [5.0, -3.0]])
        r, s = real_decompose(TRANSPOSE2, 1j * a)
        assert op_norm(r) < 1e-14
        assert op_norm(s - a) < 1e-14

    @pytest.mark.parametrize("anti", [TRANSPOSE2, ROTATION,
                                      AntiAutomorphism(np.diag([1.0, -1.0]))])
    def test_recombination_and_membership(self, anti):
        rng = np.random.default_rng(11)
        for _ in range(40):
            x = random_matrix(rng, anti.dim)
            r, s = real_decompose(anti, x)
            assert op_norm(x - (r + 1j * s)) < 1e-12
            assert real_form_residual(anti, r) < 1e-10
            assert real_form_residual(anti, s) < 1e-10

    @pytest.mark.parametrize("anti", [TRANSPOSE2, ROTATION])
    def test_stack_matches_one_at_a_time(self, anti):
        rng = np.random.default_rng(12)
        xs = np.stack([random_matrix(rng, 2) for _ in range(6)]).reshape(2, 3, 2, 2)
        r, s = real_decompose(anti, xs)
        for idx in np.ndindex(2, 3):
            r1, s1 = real_decompose(anti, xs[idx])
            np.testing.assert_allclose(r[idx], r1, rtol=0, atol=1e-15)
            np.testing.assert_allclose(s[idx], s1, rtol=0, atol=1e-15)
            np.testing.assert_allclose(anti.apply(xs)[idx], anti.apply(xs[idx]),
                                       rtol=0, atol=1e-15)

    def test_uniqueness_zero_intersection(self):
        # if x is both a fixed point and i times a fixed point, x = 0
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = random_matrix(rng, 2)
            r, s = real_decompose(TRANSPOSE2, x)
            rr, rs = real_decompose(TRANSPOSE2, r)
            assert op_norm(rr - r) < 1e-12 and op_norm(rs) < 1e-12


class TestConjPhi:
    def test_transpose_is_conjugation(self):
        rng = np.random.default_rng(2)
        x = random_matrix(rng, 3)
        assert op_norm(conj_phi(AntiAutomorphism.transpose(3), x) - x.conj()) < 1e-14

    def test_fixes_real_form(self):
        a = np.array([[1.0, 7.0], [0.5, 2.0]])
        assert op_norm(conj_phi(TRANSPOSE2, a) - a) < 1e-14

    def test_involution_and_multiplicativity(self):
        rng = np.random.default_rng(3)
        for anti in (TRANSPOSE2, ROTATION):
            for _ in range(20):
                x, y = random_matrix(rng, 2), random_matrix(rng, 2)
                assert op_norm(conj_phi(anti, conj_phi(anti, x)) - x) < 1e-12
                assert op_norm(conj_phi(anti, x @ y)
                               - conj_phi(anti, x) @ conj_phi(anti, y)) < 1e-12
                lam = complex(rng.standard_normal(), rng.standard_normal())
                assert op_norm(conj_phi(anti, lam * x)
                               - np.conj(lam) * conj_phi(anti, x)) < 1e-12


class TestRealFormBasis:
    def test_transpose_gives_matrix_units(self):
        basis = real_form_basis(AntiAutomorphism.transpose(3))
        assert len(basis) == 9
        assert all(np.all(b.imag == 0) for b in basis)

    @pytest.mark.parametrize("anti", [ROTATION, AntiAutomorphism(np.diag([1.0, -1.0]))])
    def test_general_form_dimension_and_membership(self, anti):
        basis = real_form_basis(anti)
        assert len(basis) == anti.dim ** 2
        for g in basis:
            assert real_form_residual(anti, g) < 1e-10

    def test_quaternionic_form_multiplication_closed(self):
        basis = real_form_basis(ROTATION)
        rng = np.random.default_rng(8)
        for _ in range(10):
            ca = np.tensordot(rng.standard_normal(4), np.stack(basis), axes=(0, 0))
            cb = np.tensordot(rng.standard_normal(4), np.stack(basis), axes=(0, 0))
            assert real_form_residual(ROTATION, ca @ cb) < 1e-10


class TestRealFormElement:
    def test_accepts_member(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert real_form_residual(TRANSPOSE2, x) == 0.0

    def test_rejects_non_member(self):
        x = np.array([[1.0, 1.0j], [0.0, 1.0]])
        assert real_form_residual(TRANSPOSE2, x) > 1e-9

    @pytest.mark.parametrize("anti", [TRANSPOSE2, ROTATION], ids=["transpose", "rotation"])
    def test_stack_matches_one_at_a_time(self, anti):
        # Members of the real form, members moved off it, and random matrices.
        rng = np.random.default_rng(8)
        r, s = real_decompose(anti, np.stack([random_matrix(rng, 2) for _ in range(6)]))
        xs = np.concatenate([r, s + 1e-9j * r, np.stack([random_matrix(rng, 2)
                                                         for _ in range(6)])])
        stacked = real_form_residual(anti, xs)
        assert stacked.shape == (18,)
        assert np.array_equal(stacked, [real_form_residual(anti, x) for x in xs])
        assert np.array_equal(real_form_residual(anti, xs.reshape(3, 6, 2, 2)),
                              stacked.reshape(3, 6))
        assert type(real_form_residual(anti, xs[0])) is float


def _complex_dim(a: StarAlgebra) -> int:
    return int(np.linalg.matrix_rank(np.stack(a.span).reshape(len(a.span), -1), tol=1e-9))


class TestStarAlgebra:
    def test_full_matrix(self):
        a = StarAlgebra(3, matrix_units(3))
        assert _complex_dim(a) == 9
        assert a.contains_residual(np.eye(3)) < 1e-12
        assert a.is_block_full

    def test_block_diagonal(self):
        b = StarAlgebra(5, np.concatenate([matrix_units(2, 5), matrix_units(3, 5, 2)]))
        assert b.n == 5
        assert _complex_dim(b) == 13
        assert b.blocks == ((0, 2), (2, 3)) and b.is_block_full

    def test_rejects_non_closed_span(self):
        e12 = np.zeros((2, 2))
        e12[0, 1] = 1.0
        with pytest.raises(ValueError):
            StarAlgebra(2, (np.eye(2), e12), unital=True)

    def test_diagonal_algebra(self):
        span = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        a = StarAlgebra(2, span, unital=True)
        assert _complex_dim(a) == 2
