"""Reference implementations of the algebra layer, one matrix at a time.

These are the loop versions that ``starlift.realform`` and
``starlift.tensorexact`` replaced with stacked linear algebra: the
closure check tests every product and adjoint on its own against the
span, ideal validation runs one containment test per product, the
Fubini constraints slice one working matrix at a time, and Kronecker
products and quotient images are formed per element.  The differential
tests compare the two.  The Fubini reference keeps both slice families
and every choice of functional field, of which ``tensorexact.fubini``
needs only the right slices.
"""

import numpy as np

from starlift.cpmaps import COMPLEX, REAL
from starlift.matrix import DEFAULT_TOL, as_array, as_arrays, kron, op_norm
from starlift.realform import real_decompose, real_form_basis
from starlift.subspace import (complex_orth_basis, containment_residual,
                               kernel_rows, orth_rows, realify, unrealify)
from starlift.tensorexact import slice_right_value


def _solver(alg) -> np.ndarray:
    return np.linalg.pinv(np.stack([m.ravel() for m in alg.span], axis=1))


def contains_residual(alg, x, solver=None) -> float:
    a = as_array(x).astype(np.complex128)
    coeff = (_solver(alg) if solver is None else solver) @ a.ravel()
    rec = sum(c * m for c, m in zip(coeff, alg.span))
    return op_norm(a - rec)


def closure_defect(alg) -> float:
    solver = _solver(alg)
    worst = 0.0
    for m in alg.span:
        worst = max(worst, contains_residual(alg, m.conj().T, solver))
        for k in alg.span:
            worst = max(worst, contains_residual(alg, m @ k, solver))
    return worst


def algebra_accepts(alg) -> bool:
    """The verdict of StarAlgebra validation on ``alg``'s span."""
    if closure_defect(alg) > DEFAULT_TOL:
        return False
    return not (alg.unital and contains_residual(alg, np.eye(alg.n)) > DEFAULT_TOL)


def validate_ideal(pres, tol: float = 1e-9) -> None:
    ideal = pres.ideal_span()
    if not ideal:
        return
    amb = orth_rows(realify(ideal + [1j * e for e in ideal]))
    for s in pres.b.span:
        for x in ideal:
            for prod in (s @ x, x @ s):
                if op_norm(prod) <= tol:
                    continue
                r = containment_residual(orth_rows(realify([prod])), amb)
                if r > tol:
                    raise ValueError(f"ideal span is not two-sided: residual {r:.3e}")
    for x in ideal:
        if op_norm(pres.quotient_apply(x)) > tol:
            raise ValueError("quotient does not annihilate the ideal")


def slice_left_value(t_psi, x, na: int, nb: int) -> np.ndarray:
    """L_psi(x): contract the B leg of x in M_na (x) M_nb, so
    a (x) b -> trace(t_psi b) a; stacks broadcast as in
    ``slice_right_value``."""
    t = as_arrays(t_psi).astype(np.complex128)
    x = as_arrays(x).astype(np.complex128)
    legs = x.reshape(x.shape[:-2] + (na, nb, na, nb))
    return np.einsum("...bj,...ajcb->...ac", t, legs, optimize=True)


def tensor_span_rows(a_leg, b_leg, complex_scalars: bool) -> np.ndarray:
    mats = []
    for x in a_leg:
        for y in b_leg:
            p = kron(x, y)
            mats.append(p)
            if complex_scalars:
                mats.append(1j * p)
    return orth_rows(realify(mats))


def quotient_kernel_rows(working_rows, pres, na: int, nb: int) -> np.ndarray:
    nq = pres.quotient_dim
    qi = pres.quotient_indices
    images = []
    for r in working_rows:
        x4 = unrealify(r, (na * nb, na * nb)).reshape(na, nb, na, nb)
        images.append(x4[np.ix_(range(na), qi, range(na), qi)].reshape(na * nq, na * nq))
    return orth_rows(kernel_rows(realify(images).T) @ working_rows)


def fubini_rows(a1, b1, a, b, anti=None, phi_field: str = REAL, psi_field: str = REAL,
                working_rows=None) -> np.ndarray:
    """Rows of the elements of span(A's leg (x) B) whose right slices lie
    in span_R(b1) and left slices in span_R(a1), slicing one working
    matrix at a time.  The A leg is A's real form under ``anti`` when
    given, else A; "C" fields double the functionals by i."""
    na, nb = a.n, b.n
    a_leg = real_form_basis(anti) if anti is not None else list(a.span)
    if working_rows is None:
        working_rows = tensor_span_rows(a_leg, list(b.span), complex_scalars=True)
    b1, a1 = list(b1), list(a1)
    b1_rows = orth_rows(realify(b1)) if b1 else np.zeros((0, 2 * nb * nb))
    a1_rows = orth_rows(realify(a1)) if a1 else np.zeros((0, 2 * na * na))
    a_duals = [g.conj().T for g in a_leg]
    if phi_field == COMPLEX:
        a_duals = a_duals + [1j * g for g in a_duals]
    b_dual_grams = [h.conj().T for h in complex_orth_basis(b.span, (nb, nb))]
    working_mats = [unrealify(r, (na * nb, na * nb)) for r in working_rows]

    def _resid(vecs, target_rows):
        if target_rows.shape[0] == 0:
            return vecs
        return vecs - vecs @ target_rows.T @ target_rows

    blocks = []
    for tmat in a_duals:
        vecs = realify([slice_right_value(tmat, w, na, nb) for w in working_mats])
        blocks.append(_resid(vecs, b1_rows).T)
    for tmat in b_dual_grams:
        vals = [slice_left_value(tmat, w, na, nb) for w in working_mats]
        if psi_field == REAL and anti is not None:
            splits = [real_decompose(anti, v) for v in vals]
            blocks.append(_resid(realify([r for r, _ in splits]), a1_rows).T)
            blocks.append(_resid(realify([s for _, s in splits]), a1_rows).T)
        elif psi_field == REAL:
            blocks.append(_resid(realify(vals), a1_rows).T)
        else:
            blocks.append(_resid(realify(vals), a1_rows).T)
            blocks.append(_resid(realify([1j * v for v in vals]), a1_rows).T)
    return orth_rows(kernel_rows(np.vstack(blocks)) @ working_rows)
