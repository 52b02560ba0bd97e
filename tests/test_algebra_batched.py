"""Stacked algebra-layer checks against the one-matrix-at-a-time reference.

Covers A = M1..M4 (in a rotated spanning set), block algebras B, the
real forms of u = I and u = J, and inputs each check must reject: a span
not closed under products, one not closed under the adjoint, a one-sided
"ideal" and a quotient that does not annihilate the ideal.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algebra_oracle as oracle
from starlift.cpmaps import COMPLEX, REAL
from starlift.matrix import matrix_units
from starlift.realform import AntiAutomorphism, StarAlgebra, real_form_basis
from starlift.subspace import max_principal_angle
from starlift.tensorexact import (IdealPresentation, fubini, min_tensor,
                                  quotient_kernel_rows, tensor_span_rows)

TOL = 1e-12
ANGLE_TOL = 1e-10
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
SETTINGS = settings(max_examples=15, deadline=None)

ALGEBRA_KINDS = ("full", "rotated", "block", "not_product_closed", "not_adjoint_closed")


def _anti(kind: str, n: int) -> AntiAutomorphism:
    if kind == "J":
        return AntiAutomorphism(np.kron(np.eye(n // 2), J2))
    return AntiAutomorphism.transpose(n)


def _rotated_full(n: int, rng) -> StarAlgebra:
    """M_n spanned by a random orthogonal rotation of the matrix units."""
    q, _ = np.linalg.qr(rng.standard_normal((n * n, n * n)))
    return StarAlgebra(n, tuple(np.tensordot(q, np.stack(matrix_units(n)), axes=(1, 0))),
                       validate=False)


def _span(kind: str, n: int, rng) -> tuple:
    if kind == "full":
        return tuple(matrix_units(n))
    if kind == "rotated":
        return _rotated_full(n, rng).span
    if kind == "block":
        dims = [1, n - 1] if n > 1 else [1]
        return StarAlgebra.block_diagonal(dims).span
    if kind == "not_product_closed":
        # Two random Hermitian matrices: adjoint-closed, but hg is not
        # in span{1, h, g} once n > 1.
        h, g = (m + m.conj().T for m in rng.standard_normal((2, n, n))
                + 1j * rng.standard_normal((2, n, n)))
        return (np.eye(n), h, g)
    # Upper triangular matrices: closed under products, not under adjoint.
    return tuple(e for e in matrix_units(n) if np.argwhere(e)[0, 0] <= np.argwhere(e)[0, 1])


def _rejects(build) -> bool:
    try:
        build()
    except ValueError:
        return True
    return False


def _error(fn):
    """(message with its number removed, the number) of the ValueError
    ``fn`` raises, or None."""
    try:
        fn()
    except ValueError as exc:
        msg = str(exc)
        nums = re.findall(r"\d\.\d+e[-+]\d+", msg)
        return re.sub(r"\d\.\d+e[-+]\d+", "#", msg), [float(v) for v in nums]
    return None


@SETTINGS
@given(st.integers(1, 4), st.sampled_from(ALGEBRA_KINDS), st.integers(0, 2**16))
def test_closure_matches_oracle(n, kind, seed):
    rng = np.random.default_rng(seed)
    span = _span(kind, n, rng)
    alg = StarAlgebra(n, span, validate=False)
    assert abs(alg._closure_defect() - oracle.closure_defect(alg)) <= TOL
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert abs(alg.contains_residual(x) - oracle.contains_residual(alg, x)) <= TOL
    assert _rejects(lambda: StarAlgebra(n, span)) == (not oracle.algebra_accepts(alg))


@pytest.mark.parametrize("kind", ["not_product_closed", "not_adjoint_closed"])
def test_unclosed_spans_are_rejected(kind):
    alg = StarAlgebra(3, _span(kind, 3, np.random.default_rng(0)), validate=False)
    assert not oracle.algebra_accepts(alg)
    with pytest.raises(ValueError, match="not closed"):
        StarAlgebra(3, alg.span)


def test_closure_checks_every_batch():
    # M_9 without E_99 takes two batches of products, and only the
    # second holds a product outside the span (E_9j E_j9 = E_99).
    units = matrix_units(9)
    StarAlgebra(9, tuple(units))
    alg = StarAlgebra(9, tuple(units[:-1]), unital=False, validate=False)
    assert alg._closure_defect() == pytest.approx(1.0, abs=TOL)
    with pytest.raises(ValueError, match="not closed"):
        StarAlgebra(9, alg.span, unital=False)


def test_ideal_validation_checks_every_batch():
    # B = M_8 + M_8 with the second summand as the ideal takes many
    # batches of products; an extra E_{1,9} at the end of B's span
    # breaks two-sidedness in the last batch only.
    b = StarAlgebra.block_diagonal([8, 8])
    IdealPresentation(b, ((0, 8), (8, 8)), (1,)).validate()
    extra = matrix_units(16)[8]
    b = StarAlgebra(16, b.span + (extra,), validate=False)
    with pytest.raises(ValueError, match=r"two-sided: residual 1\.000e\+00"):
        IdealPresentation(b, ((0, 8), (8, 8)), (1,)).validate()


def _presentation(dims, ideal_blocks, mode: str) -> IdealPresentation:
    b = StarAlgebra.block_diagonal(list(dims))
    if mode == "one_sided":
        # B = span{E11, E12, E22} with the ideal span{E11}: closed under
        # left multiplication only (E11 E12 = E12).  The scaled E12 makes
        # the offending product a non-unit vector.
        units = matrix_units(2)
        b = StarAlgebra(2, (units[0], 3.0 * units[1], units[3]), validate=False)
        return IdealPresentation(b, ((0, 1), (1, 1)), (0,))
    pres = IdealPresentation.from_block_algebra(b, ideal_blocks)
    if mode == "overlap":
        # The quotient block starts inside the ideal block, so pi keeps
        # one of the ideal's diagonal units.
        start, size = pres.blocks[0]
        return IdealPresentation(b, ((start, size), (start + size - 1, b.n - start - size + 1)),
                                 (0,))
    return pres


@SETTINGS
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.sampled_from(("valid", "one_sided", "overlap")), st.data())
def test_ideal_validation_matches_oracle(dims, mode, data):
    ideal_blocks = data.draw(st.lists(st.integers(0, len(dims) - 1), unique=True))
    pres = _presentation(dims, ideal_blocks, mode)
    got, want = _error(pres.validate), _error(lambda: oracle.validate_ideal(pres))
    if want is None:
        assert got is None
    else:
        assert got is not None and got[0] == want[0]
        assert np.allclose(got[1], want[1], rtol=0, atol=TOL)
    if mode == "one_sided":
        assert want is not None and "two-sided" in want[0]
    if mode == "overlap":
        assert want is not None and "annihilate" in want[0]


# (a, dims of B) with the tensor algebra small enough for the loop oracle.
TENSOR_SIZES = ((1, (1, 2)), (1, (3, 1)), (2, (1, 2)), (2, (2, 1, 1)), (3, (1, 1)),
                (3, (2,)), (4, (1, 1)), (4, (1, 2)))


@SETTINGS
@given(st.sampled_from(TENSOR_SIZES), st.sampled_from(("T", "J", None)),
       st.sampled_from((REAL, COMPLEX)), st.sampled_from((REAL, COMPLEX)), st.data())
def test_fubini_matches_oracle(size, u_kind, phi_field, psi_field, data):
    a, dims = size
    if u_kind == "J" and a % 2:
        u_kind = "T"
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    t = min_tensor(_rotated_full(a, rng), StarAlgebra.block_diagonal(list(dims)))
    anti = None if u_kind is None else _anti(u_kind, a)
    pres = IdealPresentation.from_block_algebra(
        t.b, data.draw(st.lists(st.integers(0, len(dims) - 1), unique=True)))
    ideal = pres.ideal_span()
    ideal_cx = ideal + [1j * e for e in ideal]
    a_leg = real_form_basis(anti) if anti is not None else list(t.a.span)
    a1 = a_leg if anti is not None else a_leg + [1j * m for m in a_leg]
    got = fubini(a1, ideal_cx, t, anti=anti, phi_field=phi_field, psi_field=psi_field).rows
    want = oracle.fubini_rows(a1, ideal_cx, t, anti=anti, phi_field=phi_field,
                              psi_field=psi_field)
    assert got.shape == want.shape
    assert max_principal_angle(got, want) <= ANGLE_TOL


@SETTINGS
@given(st.sampled_from(TENSOR_SIZES), st.sampled_from(("T", "J", None)),
       st.booleans(), st.data())
def test_span_and_quotient_rows_match_oracle_bitwise(size, u_kind, complex_scalars, data):
    # Both are the same elementwise arithmetic as the loops, so the
    # results must be bit-equal, not only close.
    a, dims = size
    if u_kind == "J" and a % 2:
        u_kind = "T"
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    alg = _rotated_full(a, rng)
    b = StarAlgebra.block_diagonal(list(dims))
    a_leg = list(alg.span) if u_kind is None else real_form_basis(_anti(u_kind, a))
    rows = tensor_span_rows(a_leg, list(b.span), complex_scalars)
    np.testing.assert_array_equal(rows, oracle.tensor_span_rows(a_leg, list(b.span),
                                                                complex_scalars))
    pres = IdealPresentation.from_block_algebra(
        b, data.draw(st.lists(st.integers(0, len(dims) - 1), unique=True)))
    np.testing.assert_array_equal(quotient_kernel_rows(rows, pres, a, b.n),
                                  oracle.quotient_kernel_rows(rows, pres, a, b.n))
