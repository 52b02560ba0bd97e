"""Batched map evaluation against the one-matrix-at-a-time reference.

Every canonical basis a map can carry is covered: complex matrix units,
the doubled units {E_jl, i E_jl} and real units on a real domain.
Complexification, which evaluates a map on the real-form parts of the
matrix units, is compared with the reference's restriction to an
orthonormal basis of the real form (u = I, the transpose, and u = J)
followed by its pinv-based extension.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpmaps_oracle as oracle
from starlift.cpmaps import (COMPLEX, REAL, LinearMapMat, block_apply,
                             canonical_basis, choi, complexify, compose)
from starlift.realform import AntiAutomorphism

TOL = 1e-12
KINDS = ("units", "doubled", "real")
FIELDS = {"units": (COMPLEX, COMPLEX), "doubled": (REAL, COMPLEX), "real": (REAL, REAL)}
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
SETTINGS = settings(max_examples=25, deadline=None)


def _anti(form: str, n: int) -> AntiAutomorphism:
    """u = I (the transpose, real form M_n(R)) or u = J (n even)."""
    if form == "J":
        return AntiAutomorphism(np.kron(np.eye(n // 2), J2))
    return AntiAutomorphism.transpose(n)


def _random_map(kind: str, n: int, m: int, rng) -> LinearMapMat:
    linearity, dom_field = FIELDS[kind]
    size = len(canonical_basis(n, linearity, dom_field))
    images = (rng.standard_normal((size, m, m))
              + 1j * rng.standard_normal((size, m, m)))
    return LinearMapMat(n, m, linearity, images, dom_field)


def _in_span(phi: LinearMapMat, k: int, rng) -> np.ndarray:
    """k random elements of the span of phi's basis (over phi's field)."""
    coeff = rng.standard_normal((k, len(phi.basis)))
    if phi.linearity == COMPLEX:
        coeff = coeff + 1j * rng.standard_normal(coeff.shape)
    return np.tensordot(coeff, phi.basis, axes=(1, 0))


def _close(a, b) -> bool:
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= TOL


@st.composite
def cases(draw, kinds=KINDS):
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, 3))
    return kind, n, draw(st.integers(1, 3)), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@SETTINGS
@given(cases(), st.integers(1, 5))
def test_apply_matches_oracle(case, k):
    kind, n, m, rng = case
    phi = _random_map(kind, n, m, rng)
    xs = _in_span(phi, k, rng)
    batch = phi.apply(xs)
    singles = np.stack([phi.apply(x) for x in xs])
    # A stacked input gets exactly the bits it gets alone.
    assert np.array_equal(batch, singles)
    assert _close(batch, np.stack([oracle.apply(phi, x) for x in xs]))


@SETTINGS
@given(cases(("real",)), st.integers(1, 4), st.data())
def test_outside_span_rejected_by_both(case, k, data):
    kind, n, m, rng = case
    phi = _random_map(kind, n, m, rng)
    xs = _in_span(phi, k, rng)
    bad = data.draw(st.integers(0, k - 1))
    # i times a nonzero real element lies outside the real domain span.
    xs[bad] = xs[bad] + 1j * _in_span(phi, 1, rng)[0]
    with pytest.raises(ValueError, match="outside the map's domain span"):
        oracle.apply(phi, xs[bad])
    with pytest.raises(ValueError, match="outside the map's domain span"):
        phi.apply(xs[bad])
    with pytest.raises(ValueError, match="outside the map's domain span"):
        phi.apply(xs)
    good = np.delete(xs, bad, axis=0)
    if len(good):
        assert _close(phi.apply(good), np.stack([oracle.apply(phi, x) for x in good]))


@SETTINGS
@given(cases(("units",)))
def test_choi_matches_oracle(case):
    kind, n, m, rng = case
    phi = _random_map(kind, n, m, rng)
    images = phi.images.copy()
    images[:, 0, 0] = -0.0          # summing into a zero matrix leaves 0.0
    phi = LinearMapMat(n, m, COMPLEX, images)
    new, ref = choi(phi), oracle.choi(phi)
    # Units give each Choi entry exactly, down to the sign of zeros.
    assert np.array_equal(new.view(np.float64), ref.view(np.float64))
    assert np.array_equal(np.signbit(new.view(np.float64)),
                          np.signbit(ref.view(np.float64)))


@SETTINGS
@given(cases(), st.sampled_from(("units", "doubled")), st.integers(1, 3))
def test_compose_matches_oracle(case, outer, p):
    kind, n, m, rng = case
    phi = _random_map(kind, n, m, rng)
    psi = _random_map(outer, m, p, rng)
    new, ref = compose(psi, phi), oracle.compose(psi, phi)
    assert (new.linearity, new.dom_field) == (ref.linearity, ref.dom_field)
    assert np.array_equal(new.basis, ref.basis)
    assert _close(new.images, ref.images)


@SETTINGS
@given(cases(), st.integers(1, 3))
def test_block_apply_matches_oracle(case, level):
    kind, n, m, rng = case
    phi = _random_map(kind, n, m, rng)
    blocks = _in_span(phi, level * level, rng).reshape(level, level, n, n)
    x = blocks.transpose(0, 2, 1, 3).reshape(level * n, level * n)
    assert _close(block_apply(phi, x, level), oracle.block_apply(phi, x, level))


@SETTINGS
@given(cases(("doubled", "real")), st.sampled_from(("I", "J")))
def test_complexify_matches_oracle(case, form):
    kind, n, m, rng = case
    if form == "J":
        n = 2 * (1 + n % 2)
    phi = _random_map(kind, n, m, rng)
    anti = _anti(form, n)
    if kind == "real" and form == "J":
        # The real form of J has imaginary entries, outside a real domain.
        with pytest.raises(ValueError, match="outside the map's domain span"):
            oracle.restrict_to_real_form(phi, anti)
        with pytest.raises(ValueError, match="outside the map's domain span"):
            complexify(phi, anti)
        return
    new = complexify(phi, anti)
    ref = oracle.complexify_images(oracle.restrict_to_real_form(phi, anti), anti)
    assert (new.linearity, new.dom_field) == (COMPLEX, COMPLEX)
    assert _close(new.images, ref)
    if form == "I":
        # The real form is M_n(R): both read phi off the real units exactly.
        assert np.array_equal(new.images, ref)
