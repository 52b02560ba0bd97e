"""Reference implementations of the algebra layer, one matrix at a time.

These are the loop versions that ``starlift.realform`` and
``starlift.tensorexact`` replaced with stacked linear algebra: the
closure check tests every product and adjoint of the frame on its own
against the span, the Fubini constraints slice one working matrix at a
time, Kronecker products and quotient images are formed per element,
and block detection grows each block row by row.  Ideal validation runs
one containment test per product of B's frame with an ideal unit, a
different computation from the engine's, which reads B's frame between
each ideal block and the other indices.  The differential tests compare
the two.  The Fubini reference keeps both slice families and every
choice of functional field, of which ``tensorexact.fubini`` needs only
the right slices.

The exactness and Fubini checks here work on whole tensor spans, the
realified products of A's leg with B, where ``starlift.tensorexact``
solves once on B's rows and multiplies dimensions by the A leg's length.
"""

import numpy as np

from starlift.cpmaps import COMPLEX, REAL
from starlift.matrix import DEFAULT_TOL, as_array, as_arrays, op_norm
from starlift.realform import real_decompose, real_form_basis
from starlift.subspace import (complex_orth_basis, containment_residual,
                               kernel_rows, orth_rows, realify, subspaces_equal,
                               unrealify)
from starlift.tensorexact import real_frame


def _solver(alg) -> np.ndarray:
    return np.linalg.pinv(np.stack([m.ravel() for m in alg.span], axis=1))


def contains_residual(alg, x, solver=None) -> float:
    a = as_array(x).astype(np.complex128)
    coeff = (_solver(alg) if solver is None else solver) @ a.ravel()
    rec = sum(c * m for c, m in zip(coeff, alg.span))
    return op_norm(a - rec)


def closure_defect(alg) -> float:
    """The largest residual of an adjoint or a product of frame elements."""
    solver = _solver(alg)
    worst = 0.0
    for m in alg.frame:
        worst = max(worst, contains_residual(alg, m.conj().T, solver))
        for k in alg.frame:
            worst = max(worst, contains_residual(alg, m @ k, solver))
    return worst


def algebra_accepts(alg) -> bool:
    """The verdict of StarAlgebra validation on ``alg``'s span, read on
    its frame."""
    if closure_defect(alg) > DEFAULT_TOL:
        return False
    return not (alg.unital and contains_residual(alg, np.eye(alg.n)) > DEFAULT_TOL)


def validate_ideal(pres, tol: float = 1e-9) -> None:
    """Every product of an element of B's frame with an ideal unit, on
    either side, normalized, lies in the ideal."""
    ideal = list(pres.ideal_span())
    if not ideal:
        return
    amb = orth_rows(realify(ideal + [1j * e for e in ideal]))
    for s in pres.b.frame:
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


def detect_blocks(span, n: int) -> tuple:
    """Finest contiguous block partition supporting every span matrix
    (entries above 1e-12 times the largest one), grown one row at a time."""
    cut = 1e-12 * max(float(np.max(np.abs(as_array(m)))) for m in span)
    support = np.zeros((n, n), dtype=bool)
    for m in span:
        support |= np.abs(as_array(m)) > cut
    support |= support.T
    blocks = []
    start = 0
    while start < n:
        end = start
        reach = start
        while end <= reach:
            nz = np.nonzero(support[end])[0]
            if nz.size:
                reach = max(reach, int(nz.max()))
            end += 1
        blocks.append((start, end - start))
        start = end
    return tuple(blocks)


def quotient_dim(pres) -> int:
    """The size of pi's image blocks."""
    return len(pres.quotient_indices)


def slice_right_value(t_phi, x, na: int, nb: int) -> np.ndarray:
    """R_phi(x): contract the A leg of x in M_na (x) M_nb against t_phi,
    so a (x) b -> trace(t_phi a) b.  Stacks of functionals (..., na, na)
    and of matrices (..., na*nb, na*nb) broadcast against each other."""
    t = as_arrays(t_phi).astype(np.complex128)
    x = as_arrays(x).astype(np.complex128)
    legs = x.reshape(x.shape[:-2] + (na, nb, na, nb))
    return np.einsum("...ij,...jbic->...bc", t, legs)


def slice_left_value(t_psi, x, na: int, nb: int) -> np.ndarray:
    """L_psi(x): contract the B leg of x in M_na (x) M_nb, so
    a (x) b -> trace(t_psi b) a; stacks broadcast as in
    ``slice_right_value``."""
    t = as_arrays(t_psi).astype(np.complex128)
    x = as_arrays(x).astype(np.complex128)
    legs = x.reshape(x.shape[:-2] + (na, nb, na, nb))
    return np.einsum("...bj,...ajcb->...ac", t, legs)


def tensor_span_rows(a_leg, b_leg, complex_scalars: bool) -> np.ndarray:
    mats = []
    for x in a_leg:
        for y in b_leg:
            p = np.kron(x, y)
            mats.append(p)
            if complex_scalars:
                mats.append(1j * p)
    return orth_rows(realify(mats))


def quotient_kernel_rows(working_rows, pres, na: int, nb: int) -> np.ndarray:
    nq = quotient_dim(pres)
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
    b_dual_grams = [h.conj().T for h in complex_orth_basis(b.span)]
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


def tensor_rows(a_leg, b_rows, nb: int) -> np.ndarray:
    """Realified products a (x) k of a frame ``a_leg`` with the matrices
    of B's orthonormal real rows: orthonormal real rows of the span the
    engine describes by ``b_rows`` alone."""
    if len(b_rows) == 0:
        return np.zeros((0, 2 * (np.shape(a_leg)[1] * nb) ** 2))
    return realify([np.kron(a, k) for a in a_leg for k in unrealify(b_rows, (-1, nb, nb))])


def _check(kernel, span) -> dict:
    eq, ang = subspaces_equal(kernel, span)
    return {"kernel_dim": kernel.shape[0], "span_dim": span.shape[0],
            "principal_angle": ang,
            "containment_kernel_in_span": containment_residual(kernel, span),
            "containment_span_in_kernel": containment_residual(span, kernel),
            "match": eq}


def _legs(a, anti, pres):
    """(A's real form, the ideal's units and their i-multiples, B's span)
    after the checks the CLI path runs."""
    validate_ideal(pres)
    if anti.dim != a.n:
        raise ValueError("antiautomorphism dimension does not match the algebra")
    ideal = list(pres.ideal_span())
    return list(real_frame(a, anti)), ideal + [1j * e for e in ideal], list(pres.b.span)


def _span_rows(a_leg, mats, nb: int) -> np.ndarray:
    rows = tensor_span_rows(a_leg, mats, complex_scalars=True)
    return rows if mats else np.zeros((0, 2 * (len(a_leg[0]) * nb) ** 2))


def fubini_check(a, anti, pres) -> dict:
    """The Fubini identity of A's real form on whole tensor spans."""
    form, ideal_cx, b_span = _legs(a, anti, pres)
    nb = pres.b.n
    working = tensor_span_rows(form, b_span, complex_scalars=True)
    fub = fubini_rows(real_form_basis(anti), ideal_cx, a, pres.b, anti=anti,
                      working_rows=working)
    return _check(fub, _span_rows(form, list(pres.ideal_span()), nb))


def exactness_check(a, anti, pres) -> dict:
    """The exactness report on whole tensor spans: the quotient kernel
    and the Fubini product of A's real form and of A, each against its
    leg tensored with the ideal, and the real-form part against A (x) B."""
    form, ideal_cx, b_span = _legs(a, anti, pres)
    na, nb = a.n, pres.b.n
    ideal = list(pres.ideal_span())
    real_rows = tensor_span_rows(form, b_span, complex_scalars=True)
    complex_rows = tensor_span_rows(list(a.span), b_span, complex_scalars=True)
    real_span = _span_rows(form, ideal, nb)
    complex_span = _span_rows(list(a.span), ideal, nb)
    a1 = list(a.span) + [1j * m for m in a.span]
    report = {
        "real_kernel": _check(quotient_kernel_rows(real_rows, pres, na, nb), real_span),
        "complex_kernel": _check(quotient_kernel_rows(complex_rows, pres, na, nb),
                                 complex_span),
        "fubini_real": fubini_check(a, anti, pres),
        "fubini_complex": _check(fubini_rows(a1, ideal_cx, a, pres.b, phi_field=COMPLEX),
                                 complex_span),
    }
    real_dim = real_rows.shape[0]
    report["decomposition"] = {
        "real_part_dim": real_dim, "imag_part_dim": real_dim, "sum_dim": real_dim,
        "tensor_dim": complex_rows.shape[0],
        "spans_everything": subspaces_equal(real_rows, complex_rows)[0]}
    report["ok"] = (all(report[k]["match"] for k in ("real_kernel", "complex_kernel",
                                                     "fubini_real", "fubini_complex"))
                    and report["decomposition"]["spans_everything"])
    return report
