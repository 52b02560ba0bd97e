"""Stacked algebra-layer checks against the one-matrix-at-a-time reference.

Covers A = M1..M4 (in a rotated spanning set), block algebras B, the
real forms of u = I and u = J, and inputs each check must reject: a span
not closed under products, one not closed under the adjoint, a one-sided
"ideal" and a tensor leg that is not a frame.  Every validation reads
the algebra's frame, so its verdicts do not depend on the span's scale.
Spans that are all of a block algebra are accepted by their structure,
with the product path as their oracle.  The tensor checks, solved on
B's rows, are compared with the reference on whole tensor spans, and
block detection with the row-by-row reference on random supports.
"""

import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algebra_oracle as oracle
from map_fixtures import block_algebra, full_algebra, random_isometry, random_unitary
from starlift import tensorexact
from starlift.cpmaps import COMPLEX, REAL
from starlift.matrix import matrix_units, op_norm
from starlift.realform import AntiAutomorphism, StarAlgebra, detect_blocks, real_form_basis

from starlift.subspace import max_principal_angle
from starlift.tensorexact import (IdealPresentation, exactness_check, fubini,
                                  fubini_check, quotient_kernel_rows, real_frame,
                                  tensor_span_rows)

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
        return block_algebra(dims).span
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
    # The residual is read on the frame, so it does not move with the
    # span's scale; at 1e-6 the products of the raw span fell below the
    # bound and the span was accepted.
    span = _span(kind, 3, np.random.default_rng(0))
    for scale in (1e-6, 1.0, 1e6):
        alg = StarAlgebra(3, tuple(scale * m for m in span), validate=False)
        assert not oracle.algebra_accepts(alg)
        with pytest.raises(ValueError, match="not closed"):
            StarAlgebra(3, alg.span)
        assert _error(lambda: StarAlgebra(3, alg.span)) == _error(lambda: StarAlgebra(3, span))


def test_closure_checks_every_batch():
    # M_9 without E_99 takes two batches of products, and only the
    # second holds a product outside the span (E_9j E_j9 = E_99).
    # The whole of M_9 is accepted by its block structure, so its products
    # are also checked here.
    units = matrix_units(9)
    StarAlgebra(9, tuple(units))
    assert StarAlgebra(9, tuple(units), validate=False)._closure_defect() == 0.0
    alg = StarAlgebra(9, tuple(units[:-1]), unital=False, validate=False)
    assert alg._closure_defect() == pytest.approx(1.0, abs=TOL)
    with pytest.raises(ValueError, match="not closed"):
        StarAlgebra(9, alg.span, unital=False)


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e5])
def test_a_large_proper_subalgebra_is_closed(scale):
    # span{s 1, s X} with X = q (1 (x) sigma_x) q* is C + C, a proper
    # subalgebra of M_4 that no block structure covers.  Its products grow
    # as s^2, so an absolute bound on them rejected it from s = 1e3; on
    # the frame the verdict does not depend on s.
    q = random_unitary(np.random.default_rng(3), 4)
    x = q @ np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]]) @ q.conj().T
    alg = StarAlgebra(4, (scale * np.eye(4), scale * x))
    assert not alg.is_block_full and len(alg.frame) == 2
    assert alg._closure_defect() == 0.0


STRUCTURE_KINDS = ("block_unitary", "rotated_full", "repeated", "projection", "doubled",
                   "missing_summand", "off_block", "non_finite", "rescaled")


def _structure_span(kind: str, dims: list, rng) -> tuple:
    """(n, span) of the named kind, built on the block algebra over ``dims``."""
    if kind in ("missing_summand", "off_block"):
        dims = [*dims, 1]
    n = sum(dims)
    units = np.stack(block_algebra(dims).span)
    # A unitary inside each block keeps every entry outside the blocks exactly 0.
    u = np.zeros((n, n), dtype=complex)
    for start, size in zip(np.cumsum([0, *dims[:-1]]), dims):
        u[start:start + size, start:start + size] = random_unitary(rng, size)
    rotated = u @ units @ u.conj().T
    if kind == "block_unitary":
        return n, tuple(rotated)
    if kind == "rescaled":
        return n, tuple(rng.choice([1e-6, 1e6]) * rotated)
    if kind == "rotated_full":
        return n, _rotated_full(n, rng).span
    if kind == "repeated":
        combos = np.tensordot(rng.standard_normal((3, len(rotated))), rotated, axes=(1, 0))
        return n, tuple(np.concatenate([rotated, combos]))
    if kind == "projection":
        v = random_isometry(rng, n, 1)
        p = v @ v.conj().T
        return n, (p, np.eye(n) - p)
    if kind == "doubled":
        return 2 * n, tuple(np.kron(np.eye(2), a) for a in rotated)    # {a (+) a}
    if kind == "missing_summand":
        return n, tuple(rotated[:-1])    # the last 1x1 summand is 0
    span = rotated.copy()
    if kind == "off_block":
        span[0, -1, 0] = 1e-13    # below detect_blocks' support threshold
    else:
        span[0, 0, 0] = np.nan
    return n, tuple(span)


def _outcome(build):
    """None if ``build`` returns, else the type and message of what it raises."""
    try:
        build()
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    return None


def _ideal_outcome(n, span, unital, ideal_blocks):
    """The outcome of loading B and its ideal and validating the ideal."""
    def build():
        IdealPresentation(StarAlgebra(n, span, unital), ideal_blocks)
    return _outcome(build)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(STRUCTURE_KINDS), st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.booleans(), st.data())
def test_structural_validation_matches_the_product_path(kind, dims, unital, data):
    # Patching is_block_full to False gives the product path, the one every
    # span that is not all of a block algebra takes.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    n, span = _structure_span(kind, dims, rng)
    if kind == "non_finite":
        # Rejected before any structural or product test, unvalidated too.
        for validate in (True, False):
            assert _outcome(lambda: StarAlgebra(n, span, unital, validate)) == (
                ValueError, "span matrix has a non-finite entry")
        return
    alg = StarAlgebra(n, span, unital, validate=False)
    if kind in ("block_unitary", "rotated_full", "repeated", "rescaled"):
        assert alg.is_block_full
    if kind in ("doubled", "missing_summand", "off_block"):
        assert not alg.is_block_full
    with mock.patch.object(StarAlgebra, "_closure_defect", autospec=True,
                           side_effect=StarAlgebra._closure_defect) as spy:
        got = _outcome(lambda: StarAlgebra(n, span, unital))
    assert spy.called == (not alg.is_block_full)
    with mock.patch.object(StarAlgebra, "is_block_full", False):
        assert got == _outcome(lambda: StarAlgebra(n, span, unital))
    if got is not None:
        return
    ideal_blocks = data.draw(st.lists(st.integers(0, len(alg.blocks) - 1), unique=True))
    got = _ideal_outcome(n, span, unital, ideal_blocks)
    with mock.patch.object(StarAlgebra, "is_block_full", False):
        assert got == _ideal_outcome(n, span, unital, ideal_blocks)
    if got is None:
        oracle.validate_ideal(IdealPresentation(alg, ideal_blocks))


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_a_non_finite_span_is_rejected_before_any_svd(value):
    # The frame's SVD never returns on an inf entry (LAPACK does not
    # converge) and raises LinAlgError on a NaN one, so the entries are
    # tested first, whatever ``validate`` is.
    span = np.stack(block_algebra([2, 1]).span)
    span[0, 0, 0] = value
    with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("SVD called")):
        for validate in (True, False):
            with pytest.raises(ValueError, match="non-finite entry"):
                StarAlgebra(3, tuple(span), validate=validate)


def test_a_rescaled_algebra_is_accepted_on_both_paths():
    # 1e5 times a rotated M_3 is M_3.  Its products are about 1e10 in size,
    # but the product path forms them from the frame, so it accepts the
    # span as the structural path does.
    span = tuple(1e5 * m for m in _rotated_full(3, np.random.default_rng(0)).span)
    assert StarAlgebra(3, span).is_block_full
    with mock.patch.object(StarAlgebra, "is_block_full", False):
        assert StarAlgebra(3, span)._closure_defect() == 0.0


def test_ideal_validation_on_m8_plus_m8():
    # B = M_8 + M_8 with the second summand as the ideal is accepted by
    # structure and, with is_block_full set to False, by the block test.
    # An extra E_{1,9} at the end of B's span breaks two-sidedness once
    # B's partition is set back to the two summands that E_{1,9} joins.
    b = block_algebra([8, 8])
    IdealPresentation(b, (1,))
    b.__dict__["is_block_full"] = False
    IdealPresentation(b, (1,))
    extra = matrix_units(16)[8]
    b = StarAlgebra(16, np.concatenate([b.span, [extra]]), validate=False)
    b.__dict__["blocks"] = ((0, 8), (8, 8))
    with pytest.raises(ValueError, match=r"two-sided: residual 1\.000e\+00"):
        IdealPresentation(b, (1,))


def _presentation(dims, ideal_blocks, mode: str) -> IdealPresentation:
    """The ideal, built without its validation, so that ``validate`` can be
    compared with the oracle's."""
    b = block_algebra(list(dims))
    if mode == "one_sided":
        # B = span{E11, E12, E22} with the ideal span{E11}: closed under
        # left multiplication only (E11 E12 = E12).  B's own partition is
        # one block, so it is set to two by hand.  The scaled E12 makes
        # the offending product a non-unit vector.
        units = matrix_units(2)
        b = StarAlgebra(2, (units[0], 3.0 * units[1], units[3]), validate=False)
        b.__dict__["blocks"] = ((0, 1), (1, 1))
        ideal_blocks = (0,)
    with mock.patch.object(IdealPresentation, "validate"):
        return IdealPresentation(b, ideal_blocks)


@SETTINGS
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.sampled_from(("valid", "one_sided")), st.data())
def test_ideal_validation_matches_oracle(dims, mode, data):
    ideal_blocks = data.draw(st.lists(st.integers(0, len(dims) - 1), unique=True))
    pres = _presentation(dims, ideal_blocks, mode)
    got, want = _error(pres.validate), _error(lambda: oracle.validate_ideal(pres))
    assert _error(lambda: IdealPresentation(pres.b, pres.ideal_blocks)) == got
    if want is None:
        assert got is None
    else:
        assert got is not None and got[0] == want[0]
        assert np.allclose(got[1], want[1], rtol=0, atol=TOL)
    if mode == "one_sided":
        assert want is not None and "two-sided" in want[0]


@pytest.mark.parametrize("check", [exactness_check, fubini_check])
def test_tensor_checks_validate_the_ideal(check):
    # An ideal is validated once, when it is built: a one-sided one is
    # never made, and the checks take the ideal they are given as valid.
    one_sided = _presentation([1], [], "one_sided")
    with pytest.raises(ValueError, match="two-sided"):
        IdealPresentation(one_sided.b, one_sided.ideal_blocks)
    pres = IdealPresentation(block_algebra([1, 2]), [1])
    with mock.patch.object(IdealPresentation, "validate") as spy:
        check(full_algebra(2), _anti("T", 2), pres)
    spy.assert_not_called()


def _assert_same_frame(got: np.ndarray, want: np.ndarray) -> None:
    """Same subspace as the oracle's rows, and orthonormal as it stands."""
    assert got.shape == want.shape
    assert max_principal_angle(got, want) <= ANGLE_TOL
    assert op_norm(got @ got.T - np.eye(len(got))) <= TOL


# (a, dims of B) with the tensor algebra small enough for the loop oracle.
TENSOR_SIZES = ((1, (1, 2)), (1, (3, 1)), (2, (1, 2)), (2, (2, 1, 1)), (3, (1, 1)),
                (3, (2,)), (4, (1, 1)), (4, (1, 2)))


def _tensor_case(size, u_kind, data):
    """(A rotated, B, the antiautomorphism or None, a drawn ideal of B)."""
    a, dims = size
    if u_kind == "J" and a % 2:
        u_kind = "T"
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    alg, b = _rotated_full(a, rng), block_algebra(list(dims))
    anti = None if u_kind is None else _anti(u_kind, a)
    pres = IdealPresentation(
        b, data.draw(st.lists(st.integers(0, len(dims) - 1), unique=True)))
    return alg, b, anti, pres


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(TENSOR_SIZES), st.sampled_from(("T", "J", None)), st.data())
def test_fubini_matches_oracle(size, u_kind, data):
    # The two configurations the checks run: the real-form leg with real
    # functionals on both legs, and the complex leg with the A-leg
    # functionals doubled by i.  The oracle slices whole tensor spans and
    # keeps the left slices; the engine's rows on B, tensored with the A
    # leg, must span the same subspace.
    alg, b, anti, pres = _tensor_case(size, u_kind, data)
    ideal = pres.ideal_span()
    ideal_cx = list(np.concatenate([ideal, 1j * ideal]))
    if anti is None:
        leg = alg.frame
        a1 = list(alg.span) + [1j * m for m in alg.span]
        want = oracle.fubini_rows(a1, ideal_cx, alg, b, phi_field=COMPLEX, psi_field=REAL)
    else:
        leg = real_frame(alg, anti)
        want = oracle.fubini_rows(real_form_basis(anti), ideal_cx, alg, b, anti=anti,
                                  phi_field=REAL, psi_field=REAL)
    rows = fubini(tensor_span_rows(leg, b.frame), tensor_span_rows(leg, ideal))
    _assert_same_frame(oracle.tensor_rows(leg, rows, b.n), want)


@SETTINGS
@given(st.sampled_from(TENSOR_SIZES), st.sampled_from(("T", "J", None)), st.data())
def test_span_and_quotient_rows_match_oracle(size, u_kind, data):
    # The engine keeps B's rows of each span; the oracle orthonormalizes
    # the products of the raw spans and maps them through id (x) pi.
    alg, b, anti, pres = _tensor_case(size, u_kind, data)
    leg = alg.frame if anti is None else real_form_basis(anti)
    rows = tensor_span_rows(leg, b.frame)
    want = oracle.tensor_span_rows(list(alg.span) if anti is None else leg,
                                   list(b.span), complex_scalars=True)
    _assert_same_frame(oracle.tensor_rows(leg, rows, b.n), want)
    _assert_same_frame(oracle.tensor_rows(leg, quotient_kernel_rows(rows, pres), b.n),
                       oracle.quotient_kernel_rows(want, pres, alg.n, b.n))


def _assert_same_report(got: dict, want: dict) -> None:
    """Equal flags and integers, floats within ``TOL``, key by key."""
    assert set(got) - {"dual_field_choice"} == set(want)
    for key, value in want.items():
        if isinstance(value, dict):
            _assert_same_report(got[key], value)
        elif isinstance(value, (bool, np.bool_, int)):
            assert got[key] == value, key
        else:
            assert abs(got[key] - value) <= TOL, key


# Every TENSOR_SIZES entry, u = I, J and none (the CLI's default, the
# transpose), and every ideal subset, the empty one included.
TENSOR_CASES = [(size, u_kind, blocks) for size in TENSOR_SIZES for u_kind in ("T", "J", None)
                for k in range(len(size[1]) + 1)
                for blocks in itertools.combinations(range(len(size[1])), k)]


@pytest.mark.parametrize("size, u_kind, ideal_blocks", TENSOR_CASES,
                         ids=lambda v: str(v).replace(" ", ""))
@settings(max_examples=2, deadline=None)
@given(st.integers(0, 2**16))
def test_checks_match_full_tensor_oracle(size, u_kind, ideal_blocks, seed):
    a, dims = size
    alg = _rotated_full(a, np.random.default_rng(seed))
    anti = _anti("J" if u_kind == "J" and a % 2 == 0 else "T", a)
    pres = IdealPresentation(block_algebra(list(dims)),
                                                ideal_blocks)
    want = oracle.exactness_check(alg, anti, pres)
    _assert_same_report(exactness_check(alg, anti, pres).to_json(), want)
    _assert_same_report(fubini_check(alg, anti, pres).to_json(), want["fubini_real"])


@pytest.mark.parametrize("bad", ["rescaled", "repeated", "skewed"])
def test_a_leg_that_is_not_a_frame_is_rejected(bad):
    # The checks count one copy of B's rows per A-leg element, which is
    # right only for a frame, so every entry point that takes an A leg
    # runs the Gram test on it; fubini_check takes A's real form.
    units = np.stack(matrix_units(2))
    leg = {"rescaled": 2.0 * units, "repeated": units[[0, 1, 1]],
           "skewed": units + 0.1 * units[::-1]}[bad]
    pres = IdealPresentation(block_algebra([1, 2]), [1])
    b_frame = pres.b.frame
    with mock.patch.object(tensorexact, "real_frame", return_value=leg):
        for check in (lambda: tensor_span_rows(leg, b_frame),
                      lambda: fubini_check(full_algebra(2), _anti("T", 2), pres)):
            with pytest.raises(ValueError, match="not orthonormal"):
                check()


@pytest.mark.parametrize("leg", ["real_form", "a_frame", "b_frame", "ideal"])
def test_each_leg_is_gram_tested_once_per_check(leg):
    # exactness_check has four legs (A's real form, A's frame, B's frame
    # and the ideal's units) and fubini_check the three without A's
    # frame.  Each check runs one Gram test per leg, and twice a frame in
    # any of its legs is still rejected.
    alg = _rotated_full(2, np.random.default_rng(0))
    pres = IdealPresentation(block_algebra([1, 2]), [1])
    args = (alg, _anti("T", 2), pres)
    with mock.patch.object(tensorexact, "_gram_test", wraps=tensorexact._gram_test) as spy:
        exactness_check(*args)
        assert spy.call_count == 4
        fubini_check(*args)
        assert spy.call_count == 4 + 3
    form, units = tensorexact.real_frame(*args[:2]), pres.ideal_span()
    scale = {name: 2.0 if name == leg else 1.0
             for name in ("real_form", "a_frame", "b_frame", "ideal")}
    with mock.patch.object(tensorexact, "real_frame", return_value=scale["real_form"] * form), \
            mock.patch.dict(alg.__dict__, frame=scale["a_frame"] * alg.frame), \
            mock.patch.dict(pres.b.__dict__, frame=scale["b_frame"] * pres.b.frame), \
            mock.patch.object(IdealPresentation, "ideal_span",
                              lambda self: scale["ideal"] * units):
        with pytest.raises(ValueError, match="tensor leg is not orthonormal"):
            exactness_check(*args)
        if leg == "a_frame":
            fubini_check(*args)
        else:
            with pytest.raises(ValueError, match="tensor leg is not orthonormal"):
                fubini_check(*args)


def test_a_complex_leg_that_is_not_a_frame_is_rejected():
    # Each element of A's frame repeated and scaled by 1/sqrt(2) spans
    # the same space with an idempotent Gram matrix, so A's real form is
    # still found; only the Gram test of the complex leg stops
    # exactness_check from reporting twice the complex dimensions.
    alg = full_algebra(2)
    alg.__dict__["frame"] = np.concatenate([alg.frame, alg.frame]) / np.sqrt(2.0)
    pres = IdealPresentation(block_algebra([1, 2]), [1])
    real_frame(alg, _anti("T", 2))
    with pytest.raises(ValueError, match="not orthonormal"):
        exactness_check(alg, _anti("T", 2), pres)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.sampled_from((0.05, 0.2, 0.5)),
       st.integers(0, 2**32 - 1))
def test_detect_blocks_matches_oracle(n, count, density, seed):
    # Entries are 0, 1e-13 (below the support threshold), real or complex.
    rng = np.random.default_rng(seed)
    values = np.array([0.0, 1e-13, 1.0, -2.5, 0.5j])
    support = rng.random((count, n, n)) < density
    span = np.where(support, rng.choice(values, size=(count, n, n)), 0.0)
    assert detect_blocks(span, n) == oracle.detect_blocks(list(span), n)
