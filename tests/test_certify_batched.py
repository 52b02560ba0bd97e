"""Stacked certificate measurements against the loop versions.

Every report of the certificate layer, the antiautomorphism probe and the
real-linear CP probe is compared byte for byte (canonical JSON, so the
sign of a zero counts) with ``certify_oracle``, over the three norm
conventions, u = I and u = J, n = 1..4, and subsets that repeat elements
or hold zeros, so that defects tie and the first worst witness must win.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import certify_oracle as oracle
from map_fixtures import (full_algebra, random_matrix, random_unitary,
                          unital_compression_map)
from starlift.certify import (COMPLEX_OP, NORM_MODES, PHI_SPLIT, REAL_COL1, FiniteSubset,
                              QDCertificate, TraceWitness, nuclear_witness_verify,
                              qd_complexify, qd_realify, qd_verify, trace_qd_verify,
                              trace_transport)
from starlift.cpmaps import COMPLEX, REAL, LinearMapMat, canonical_basis, cp_defect_real_report
from starlift.io import canonical_dumps
from starlift.realform import AntiAutomorphism, check_antiautomorphism, real_decompose
from starlift.transport import ThetaScale

SETTINGS = settings(max_examples=30, deadline=None)
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _same(report, reference) -> bool:
    return canonical_dumps(report) == canonical_dumps(reference)


@st.composite
def setups(draw):
    """(n, anti, rng): u = J needs an even n."""
    n = draw(st.integers(1, 4))
    u = np.kron(np.eye(n // 2), J2) if n % 2 == 0 and draw(st.booleans()) else np.eye(n)
    return n, AntiAutomorphism(u), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def _subset(data, rng, n: int, anti: AntiAutomorphism | None = None) -> FiniteSubset:
    """Random elements (in the real form of ``anti`` when given), some
    repeated and some zero, so that defects tie."""
    mats = []
    for i in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(("new", "repeat", "zero"))) if i else "new"
        if kind == "repeat":
            mats.append(mats[data.draw(st.integers(0, i - 1))])
        elif kind == "zero":
            mats.append(np.zeros((n, n)))
        else:
            x = random_matrix(rng, n)
            mats.append(real_decompose(anti, x)[0] if anti is not None else x)
    return FiniteSubset(tuple(mats), labels=tuple(f"x{i}" for i in range(len(mats))))


def _map(rng, n: int, m: int, linearity: str, dom_field: str = COMPLEX,
         cod_field: str = COMPLEX) -> LinearMapMat:
    shape = (len(canonical_basis(n, linearity, dom_field)), m, m)
    images = rng.standard_normal(shape)
    if cod_field == COMPLEX:
        images = images + 1j * rng.standard_normal(shape)
    return LinearMapMat(n, m, linearity, images, dom_field, cod_field)


def _cert(n, subset, phi, mode, anti) -> QDCertificate:
    return QDCertificate(full_algebra(n), subset, phi, 1.0, mode, anti)


@SETTINGS
@given(setups(), st.sampled_from(NORM_MODES), st.integers(1, 3), st.data())
def test_qd_verify_matches_oracle(setup, mode, m, data):
    n, anti, rng = setup
    if mode == REAL_COL1:       # column sums measure real images only
        phi = _map(rng, n, m, REAL, cod_field=REAL)
    else:
        phi = _map(rng, n, m, data.draw(st.sampled_from((COMPLEX, REAL))))
    cert = _cert(n, _subset(data, rng, n), phi, mode, anti)
    assert _same(qd_verify(cert).to_json(), oracle.qd_verify(cert))


@SETTINGS
@given(setups(), st.integers(1, 3), st.data())
def test_qd_complexify_matches_oracle(setup, m, data):
    n, anti, rng = setup
    cert = _cert(n, _subset(data, rng, n, anti), _map(rng, n, m, REAL, cod_field=REAL),
                 COMPLEX_OP, anti)
    _, report = qd_complexify(cert)
    assert _same(report.to_json(), oracle.qd_complexify(cert))


@SETTINGS
@given(setups(), st.integers(1, 3), st.sampled_from(("auto", "paper", "fixed:0.3")),
       st.data())
def test_qd_realify_matches_oracle(setup, m, mode, data):
    n, anti, rng = setup
    form = data.draw(st.booleans())
    cert = _cert(n, _subset(data, rng, n, anti if form else None),
                 _map(rng, n, m, COMPLEX), COMPLEX_OP, anti)
    scale = None if mode == "auto" else ThetaScale.parse(mode)
    _, report = qd_realify(cert, scale=scale)
    assert _same(report.to_json(), oracle.qd_realify(cert, anti, scale))


@SETTINGS
@given(setups(), st.sampled_from(NORM_MODES), st.integers(1, 3), st.integers(0, 2),
       st.data())
def test_nuclear_witness_verify_matches_oracle(setup, mode, k, count, data):
    n, _, rng = setup
    m = data.draw(st.integers(1, 3))
    if mode == REAL_COL1:       # real factorizations, so the defects are real
        phi = _map(rng, n, k, REAL, cod_field=REAL)
        psi = _map(rng, k, m, REAL, dom_field=REAL, cod_field=REAL)
        target = _map(rng, n, m, REAL, cod_field=REAL)
        b_list = [rng.standard_normal((m, 2)) for _ in range(count)]
    else:
        phi, psi, target = _map(rng, n, k, COMPLEX), _map(rng, k, m, COMPLEX), \
            _map(rng, n, m, COMPLEX)
        b_list = [random_matrix(rng, m, 2) for _ in range(count)]
    subset = _subset(data, rng, n)
    report = nuclear_witness_verify(phi, psi, subset, 1.0, target, mode, b_list)
    assert _same(report.to_json(),
                 oracle.nuclear_witness_verify(phi, psi, subset, 1.0, target, mode, b_list))


@SETTINGS
@given(setups(), st.sampled_from((COMPLEX_OP, PHI_SPLIT)), st.integers(1, 4), st.data())
def test_trace_qd_verify_matches_oracle(setup, mode, k, data):
    n, anti, rng = setup
    cert = _cert(n, _subset(data, rng, n), unital_compression_map(rng, n, k, terms=k), mode, anti)
    # A tracial functional on M_n is a multiple of the trace.
    witness = TraceWitness(random_matrix(rng, 1)[0, 0] * np.eye(n))
    assert _same(trace_qd_verify(cert, witness).to_json(),
                 oracle.trace_qd_verify(cert, witness))


@SETTINGS
@given(setups(), st.integers(0, 100))
def test_trace_transport_sampling_matches_oracle(setup, seed):
    n, anti, rng = setup
    witness = TraceWitness(random_matrix(rng, n) if seed % 2 else np.eye(n) / n)
    report = trace_transport(witness, anti, seed=seed)
    assert report["samples"] == 20
    assert (report["imag_on_form"], report["traciality_residual"]) == \
        oracle.trace_transport_residuals(witness, anti, 0.5, 20, seed)
    algebra = full_algebra(n)
    assert witness.traciality_residual(algebra) == oracle.traciality_residual(witness, algebra)


def test_traciality_residual_in_batches_matches_oracle():
    # M_9 has 81 spanning matrices, so its 6561 products come in 3 batches.
    rng = np.random.default_rng(9)
    algebra = full_algebra(9)
    for gram in (random_matrix(rng, 9), np.eye(9) / 9):
        witness = TraceWitness(gram)
        assert witness.traciality_residual(algebra) == \
            oracle.traciality_residual(witness, algebra)


@SETTINGS
@given(setups(), st.integers(1, 3), st.sampled_from(("auto", "paper", "fixed:0.3")),
       st.sampled_from((0.5, 1.0)), st.data())
def test_trace_transport_chain_matches_oracle(setup, m, mode, scale, data):
    # Elements in the real form are replayed, the others skipped.
    n, anti, rng = setup
    mats = [real_decompose(anti, x)[0] if data.draw(st.booleans()) else x
            for x in _subset(data, rng, n).elements]
    cert = _cert(n, FiniteSubset(tuple(mats), tuple(f"x{i}" for i in range(len(mats)))),
                 _map(rng, n, m, COMPLEX), COMPLEX_OP, anti)
    witness = TraceWitness(random_matrix(rng, n) if data.draw(st.booleans()) else np.eye(n) / n)
    theta_scale = None if mode == "auto" else ThetaScale.parse(mode)
    report = trace_transport(witness, anti, scale, cert, theta_scale, seed=m)
    assert _same(report, oracle.trace_transport(witness, anti, scale, cert, theta_scale, 20, m))


@SETTINGS
@given(setups(), st.sampled_from(("anti", "unitary", "general")), st.integers(1, 5),
       st.integers(0, 100))
def test_check_antiautomorphism_matches_oracle(setup, kind, samples, seed):
    n, anti, rng = setup
    u = {"anti": anti.u, "unitary": random_unitary(rng, n),
         "general": random_matrix(rng, n)}[kind]
    report = check_antiautomorphism(AntiAutomorphism(u, validate=False), samples=samples,
                                    seed=seed)
    assert _same(report.to_json(), oracle.check_antiautomorphism(u, samples, seed, 1e-9))


@SETTINGS
@given(setups(), st.sampled_from(("random", "identity", "transpose")), st.booleans(),
       st.integers(1, 3), st.integers(1, 4), st.integers(0, 100))
def test_cp_defect_real_report_matches_oracle(setup, kind, real_domain, level, samples,
                                              seed):
    n, _, rng = setup
    field = REAL if real_domain else COMPLEX
    if kind == "random":
        phi = _map(rng, n, 1 + seed % 3, REAL, dom_field=field)
    else:   # adjoint-preserving: every self-adjointness residual is 0
        f = (lambda x: x) if kind == "identity" else (lambda x: np.asarray(x).T)
        phi = LinearMapMat.from_function(f, n, REAL, dom_field=field, cod_field=field)
    rep = cp_defect_real_report(phi, level, samples=samples, seed=seed)
    defect, witness, sa, sa_witness = oracle.cp_defect_real_report(phi, level, samples, seed)
    assert rep.defect == defect and np.array_equal(rep.witness, witness)
    assert rep.selfadj_defect == sa
    if sa_witness is None:
        assert rep.selfadj_witness is None
    else:
        assert np.array_equal(rep.selfadj_witness, sa_witness)
