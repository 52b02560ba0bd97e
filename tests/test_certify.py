"""Certificates: defect measurement, transport bookkeeping, lemma audits."""

import numpy as np
import pytest

from starlift.certify import (AUDIT_CLAIMS, REAL_COL1, FiniteSubset,
                              QDCertificate, TraceWitness, _value_norms,
                              lemma_audit, nuclear_witness_verify,
                              qd_complexify, qd_realify, qd_verify,
                              trace_qd_verify, trace_transport)
from starlift.cpmaps import LinearMapMat, complexify, compress
from starlift.io import SchemaError, cert_from_json, cert_to_json
from starlift.matrix import col_norm1, op_norm
from starlift.realform import AntiAutomorphism, StarAlgebra
from starlift.transport import ThetaScale, transport_factorization, upsilon1

from map_fixtures import (block_algebra, full_algebra, random_matrix, random_unitary,
                          unital_compression_map, unital_stinespring_map,
                          unitary_conjugation_map)

ANTI2 = AntiAutomorphism.transpose(2)
M2 = full_algebra(2)


def _real_cert(seed, n=2, k=3, eps=50.0, count=4):
    rng = np.random.default_rng(seed)
    phi = unital_compression_map(rng, n, k, field="R", terms=2)
    subset = FiniteSubset(tuple(rng.standard_normal((n, n)) for _ in range(count)))
    return QDCertificate(full_algebra(n), subset, phi, eps,
                         norm_mode="complex_op",
                         anti=AntiAutomorphism.transpose(n))


def _complex_cert(seed, n=2, k=3, eps=50.0, count=3, real_subset=True):
    rng = np.random.default_rng(seed)
    phi = unital_stinespring_map(rng, n, k)
    mats = []
    for _ in range(count):
        mats.append(rng.standard_normal((n, n)) if real_subset
                    else random_matrix(rng, n))
    subset = FiniteSubset(tuple(mats))
    return QDCertificate(full_algebra(n), subset, phi, eps,
                         norm_mode="complex_op",
                         anti=AntiAutomorphism.transpose(n))


class TestFiniteSubset:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FiniteSubset(())

    def test_rejects_mixed_dims(self):
        with pytest.raises(ValueError):
            FiniteSubset((np.eye(2), np.eye(3)))

    def test_labels(self):
        s = FiniteSubset((np.eye(2),), labels=("one",))
        assert s.label(0) == "one"

    def test_elements_are_one_read_only_complex_stack(self):
        mats = [np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])]
        s = FiniteSubset(mats)
        assert type(s.elements) is np.ndarray and s.elements.dtype == np.complex128
        assert s.elements.shape == (2, 2, 2) and not s.elements.flags.writeable
        assert np.array_equal(s.elements, mats) and mats[0].flags.writeable


class TestQDCertificate:
    def test_unitality_enforced(self):
        # Unitality is a rule for certificate documents: the object holds
        # a non-unital map, as a transported certificate does, and the
        # document of a unital algebra is rejected.
        v = np.array([[1.0], [0.0]])
        phi = compress(LinearMapMat.identity(2), 0.5 * v)
        cert = QDCertificate(M2, FiniteSubset((np.eye(2),)), phi, 1.0)
        with pytest.raises(SchemaError, match=r"^certificate: map is not unital"):
            cert_from_json(cert_to_json(cert))
        cert_from_json(cert_to_json(QDCertificate(StarAlgebra(2, M2.span, unital=False),
                                                  cert.subset, phi, 1.0)))

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            QDCertificate(M2, FiniteSubset((np.eye(2),)),
                          LinearMapMat.identity(2), 0.0)

    def test_bad_norm_mode(self):
        with pytest.raises(ValueError):
            QDCertificate(M2, FiniteSubset((np.eye(2),)),
                          LinearMapMat.identity(2), 1.0, norm_mode="nope")


class TestQdVerify:
    def test_identity_representation_no_defects(self):
        rng = np.random.default_rng(0)
        subset = FiniteSubset(tuple(random_matrix(rng, 2) for _ in range(3)))
        cert = QDCertificate(M2, subset, LinearMapMat.identity(2), 1e-6)
        rep = qd_verify(cert)
        assert rep.max_mult_defect < 1e-12
        assert rep.max_norm_defect < 1e-12
        assert rep.passed

    def test_corner_compression_defects(self):
        # phi extracts the top-left entry; E_12 squares to zero but has norm 1
        v = np.array([[1.0], [0.0]])
        phi = compress(LinearMapMat.identity(2), v)
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        cert = QDCertificate(M2, FiniteSubset((e12,)), phi, 0.5)
        rep = qd_verify(cert)
        assert rep.max_mult_defect == pytest.approx(0.0, abs=1e-12)
        assert rep.max_norm_defect == pytest.approx(1.0, abs=1e-12)
        assert not rep.passed

    def test_epsilon_dominates(self):
        v = np.array([[1.0], [0.0]])
        phi = compress(LinearMapMat.identity(2), v)
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        cert = QDCertificate(M2, FiniteSubset((e12,)), phi, 1.5)
        assert qd_verify(cert).passed

    def test_homomorphism_certificates_pass(self):
        # unitary conjugation is a faithful unital *-homomorphism
        rng = np.random.default_rng(1)
        u = random_unitary(rng, 3)
        phi = unitary_conjugation_map(u)
        subset = FiniteSubset(tuple(random_matrix(rng, 3) for _ in range(4)))
        cert = QDCertificate(full_algebra(3), subset, phi, 1e-9)
        rep = qd_verify(cert)
        assert rep.max_mult_defect <= 1e-9
        assert rep.max_norm_defect <= 1e-9

    def test_real_col1_mode(self):
        rng = np.random.default_rng(2)
        phi = unital_compression_map(rng, 2, 2, field="R", terms=1)
        subset = FiniteSubset(tuple(rng.standard_normal((2, 2)) for _ in range(2)))
        cert = QDCertificate(M2, subset, phi, 100.0, norm_mode="real_col1",
                             anti=ANTI2)
        rep = qd_verify(cert)
        assert rep.passed

    def test_real_col1_rejects_complex_values(self):
        rng = np.random.default_rng(3)
        subset = FiniteSubset((random_matrix(rng, 2),))
        cert = QDCertificate(M2, subset, LinearMapMat.identity(2), 1.0,
                             norm_mode="real_col1")
        with pytest.raises(ValueError):
            qd_verify(cert)

    def test_phi_split_codomain_values_split_entrywise(self):
        # non-transpose anti with matching dims: domain elements split
        # through the antiautomorphism, codomain values entrywise, so the
        # identity map on a real-form element shows a norm gap
        anti = AntiAutomorphism(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        a = np.array([[2.0, 1.0], [-1.0, 2.0]])     # in the quaternionic form
        cert = QDCertificate(M2, FiniteSubset((a,)), LinearMapMat.identity(2),
                             1e3, norm_mode="phi_split", anti=anti)
        rep = qd_verify(cert)
        from starlift.matrix import split_norm
        from starlift.realform import real_decompose
        r, s = real_decompose(anti, a)
        expect = abs(split_norm(a) - (op_norm(r) + op_norm(s)))
        assert rep.max_norm_defect == pytest.approx(expect, abs=1e-12)


class TestComplexifiedSubset:
    """qd_complexify's element k is F[k] + i F[h + k] with h = ceil(|F| / 2)."""

    @staticmethod
    def _complexified(count):
        cert = _real_cert(20 + count, count=count)
        new_cert, _ = qd_complexify(cert)
        return cert.subset.elements, new_cert.subset.elements

    @pytest.mark.parametrize("count", [2, 4])
    def test_even_split(self, count):
        f, got = self._complexified(count)
        assert np.array_equal(got, f[:count // 2] + 1j * f[count // 2:])

    @pytest.mark.parametrize("count", [1, 3, 5])
    def test_odd_leftover_gets_zero(self, count):
        f, got = self._complexified(count)
        h = (count + 1) // 2
        assert np.array_equal(got[:-1], f[:h - 1] + 1j * f[h:])
        assert np.array_equal(got[-1], f[h - 1])


class TestQdComplexify:
    def test_zero_defect_cert_stays_zero(self):
        rng = np.random.default_rng(4)
        u = random_unitary(rng, 2, field="R")
        phi = LinearMapMat.from_function(
            lambda x: u.T @ np.asarray(x) @ u, 2, "R", dom_field="R",
            cod_field="R")
        subset = FiniteSubset(tuple(rng.standard_normal((2, 2)) for _ in range(4)))
        cert = QDCertificate(M2, subset, phi, 1e-8, anti=ANTI2)
        _, rep = qd_complexify(cert)
        assert rep.max_mult_defect < 1e-10
        assert rep.extra["bounds_hold"]

    def test_pure_real_pairs_match_real_defects(self):
        cert = _real_cert(5)
        # F padded by as many zeros complexifies to the elements a + i 0
        f = cert.subset.elements
        padded = QDCertificate(cert.algebra,
                               FiniteSubset(np.concatenate([f, np.zeros_like(f)])),
                               cert.phi, cert.epsilon, "complex_op", ANTI2)
        new_cert, rep = qd_complexify(padded)
        # with b = 0 the complexified subset is F itself and split-norm
        # defects reduce to the real operator-norm defects
        assert np.array_equal(new_cert.subset.elements, f)
        direct = qd_verify(QDCertificate(cert.algebra, cert.subset, cert.phi,
                                         cert.epsilon, "complex_op", ANTI2))
        assert rep.max_mult_defect == pytest.approx(direct.max_mult_defect,
                                                    abs=1e-10)
        assert rep.extra["bounds_hold"]

    def test_bound_holds_over_seeds(self):
        for seed in range(30):
            cert = _real_cert(100 + seed, n=2, k=3)
            _, rep = qd_complexify(cert)
            assert rep.extra["mult_bound_margin"] <= 1e-9
            assert rep.extra["norm_bound_margin"] <= 1e-9

    def test_rejects_subset_outside_form(self):
        rng = np.random.default_rng(6)
        phi = unital_compression_map(rng, 2, 2, field="R", terms=1)
        subset = FiniteSubset((random_matrix(rng, 2),))
        cert = QDCertificate(M2, subset, phi, 1.0, anti=ANTI2)
        with pytest.raises(ValueError):
            qd_complexify(cert)

    def test_requires_anti(self):
        cert = _real_cert(7)
        object.__setattr__(cert, "anti", None)
        with pytest.raises(ValueError):
            qd_complexify(cert)


class TestQdRealify:
    def test_fixed_mode_bounds_and_cert(self):
        cert = _complex_cert(8)
        new_cert, rep = qd_realify(cert)
        assert new_cert is not None
        assert rep.extra["theta_mode"] == "fixed"
        assert rep.extra["bounds_hold"]
        assert new_cert.norm_mode == "real_col1"

    def test_zero_defect_transports_to_near_zero(self):
        # a *-homomorphism certificate: transported mult defect stays tiny
        rng = np.random.default_rng(9)
        u = random_unitary(rng, 2)
        phi = unitary_conjugation_map(u)
        subset = FiniteSubset(tuple(rng.standard_normal((2, 2)) for _ in range(3)))
        cert = QDCertificate(M2, subset, phi, 1e-3, anti=ANTI2)
        scale = ThetaScale("fixed", 1.0)
        _, rep = qd_realify(cert, scale=scale)
        # scale 1 keeps the homomorphism property through the embedding
        assert rep.max_mult_defect < 1e-10

    def test_paper_mode_flags_and_no_cert(self):
        cert = _complex_cert(10)
        new_cert, rep = qd_realify(cert, scale=ThetaScale("paper"))
        assert new_cert is None
        flags = rep.extra.get("flags", [])
        assert any("nonlinear theta" in f for f in flags)

    def test_complex_subset_is_decomposed(self):
        cert = _complex_cert(11, real_subset=False)
        new_cert, rep = qd_realify(cert)
        assert len(new_cert.subset) == 2 * len(cert.subset)

    def test_rejects_real_linear_map(self):
        cert = _real_cert(12)
        with pytest.raises(ValueError):
            qd_realify(cert)

    def test_quaternionic_form(self):
        # Under u = J the real-form parts have complex entries; a domain
        # element is measured as col_norm1(sigma(a)), which the identity
        # map transported at scale 1 (a -> sigma(a)) preserves.
        anti = AntiAutomorphism(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        rng = np.random.default_rng(13)
        subset = FiniteSubset(tuple(random_matrix(rng, 2) for _ in range(3)))
        cert = QDCertificate(M2, subset, LinearMapMat.identity(2), 1e-3, anti=anti)
        new_cert, rep = qd_realify(cert, scale=ThetaScale("fixed", 1.0))
        assert rep.max_norm_defect < 1e-12 and rep.max_mult_defect < 1e-12
        assert np.iscomplexobj(new_cert.subset.elements[0])
        assert qd_verify(new_cert).max_norm_defect < 1e-12

    def test_domain_col1_norm_is_col_norm1_on_real_matrices(self):
        xs = np.random.default_rng(14).standard_normal((20, 3, 3))
        expect = [col_norm1(a) for a in xs]
        assert list(_value_norms(xs, REAL_COL1, domain=True)) == expect
        assert list(_value_norms(xs + 0j, REAL_COL1, domain=True)) == expect


class TestNuclearWitness:
    def test_exact_factorization(self):
        rng = np.random.default_rng(13)
        phi = LinearMapMat.identity(2)
        subset = FiniteSubset(tuple(random_matrix(rng, 2) for _ in range(3)))
        rep = nuclear_witness_verify(phi, phi, subset, epsilon=1e-9)
        assert rep.max_norm_defect < 1e-12
        assert rep.passed

    def test_corner_roundtrip_loses_e22(self):
        v = np.array([[1.0], [0.0]])
        down = compress(LinearMapMat.identity(2), v)       # to the corner
        up = LinearMapMat.from_function(
            lambda t: np.array([[t[0, 0], 0.0], [0.0, 0.0]]), 1, "C")
        e11 = np.diag([1.0, 0.0])
        e22 = np.diag([0.0, 1.0])
        rep = nuclear_witness_verify(down, up, FiniteSubset((e11, e22)),
                                     epsilon=0.5)
        assert rep.max_norm_defect == pytest.approx(1.0, abs=1e-12)
        assert not rep.passed

    def test_transport_preserves_defect(self):
        for seed in range(100):
            rng = np.random.default_rng(2000 + seed)
            n = 3
            phi_main = unital_stinespring_map(rng, n, 4)
            b = random_matrix(rng, 4, 2)
            target = compress(phi_main, b)
            fac_phi = unital_stinespring_map(rng, n, 3)
            w = random_matrix(rng, 3, 2)
            fac_psi = compress(LinearMapMat.identity(3), w)
            subset = FiniteSubset(tuple(random_matrix(rng, n) for _ in range(3)))
            before = nuclear_witness_verify(fac_phi, fac_psi, subset,
                                            epsilon=1e6, target=target)
            fp, sp = transport_factorization(fac_phi, fac_psi)
            after = nuclear_witness_verify(fp, sp, subset, epsilon=1e6,
                                           target=target)
            assert after.max_norm_defect == pytest.approx(
                before.max_norm_defect, abs=1e-12)

    def test_compressed_witnesses(self):
        rng = np.random.default_rng(14)
        phi = LinearMapMat.identity(2)
        subset = FiniteSubset((np.eye(2),))
        rep = nuclear_witness_verify(phi, phi, subset, epsilon=1e-9,
                                     b_list=[random_matrix(rng, 2, 2)])
        assert rep.extra["max_compressed_defect"] < 1e-12

    def test_dimension_chain_enforced(self):
        with pytest.raises(ValueError):
            nuclear_witness_verify(LinearMapMat.identity(2),
                                   LinearMapMat.identity(3),
                                   FiniteSubset((np.eye(2),)), epsilon=1.0)


class TestTraceQd:
    def test_identity_with_normalized_trace(self):
        rng = np.random.default_rng(15)
        subset = FiniteSubset(tuple(random_matrix(rng, 3) for _ in range(3)))
        cert = QDCertificate(full_algebra(3), subset,
                             LinearMapMat.identity(3), 1e-9)
        rep = trace_qd_verify(cert, TraceWitness(np.eye(3) / 3))
        assert rep.max_trace_defect < 1e-12
        assert rep.passed

    def test_scaled_trace_defect(self):
        rng = np.random.default_rng(16)
        mats = tuple(random_matrix(rng, 2) for _ in range(3))
        cert = QDCertificate(M2, FiniteSubset(mats),
                             LinearMapMat.identity(2), 1e3)
        doubled = TraceWitness(2 * TraceWitness(np.eye(2) / 2).gram)
        rep = trace_qd_verify(cert, doubled)
        expect = max(abs(np.trace(m)) / 2 for m in mats)
        assert rep.max_trace_defect == pytest.approx(float(expect), abs=1e-12)

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(17)
        subset = FiniteSubset(tuple(random_matrix(rng, 3) for _ in range(3)))
        for _ in range(5):
            u = random_unitary(rng, 3)
            cert = QDCertificate(full_algebra(3), subset,
                                 unitary_conjugation_map(u), 1e-9)
            rep = trace_qd_verify(cert, TraceWitness(np.eye(3) / 3))
            assert rep.max_trace_defect < 1e-10

    def test_rejects_non_unital(self):
        v = np.array([[1.0], [0.0]])
        phi = compress(LinearMapMat.identity(2), 0.3 * v)
        cert = QDCertificate(M2, FiniteSubset((np.eye(2),)), phi, 1.0)
        with pytest.raises(ValueError):
            trace_qd_verify(cert, TraceWitness(np.eye(2) / 2))

    def test_rejects_non_tracial_witness(self):
        cert = QDCertificate(M2, FiniteSubset((np.eye(2),)), LinearMapMat.identity(2), 0.1)
        witness = TraceWitness(np.diag([1.0, 0.0]))
        assert witness.traciality_residual(M2) == 1.0
        with pytest.raises(ValueError, match="not tracial.*1.000e"):
            trace_qd_verify(cert, witness)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_a_non_finite_gram(self, value):
        # max(0.0, nan) is 0.0, so a NaN witness would pass the traciality gate.
        with pytest.raises(ValueError, match="non-finite entry"):
            TraceWitness(np.array([[value, 0.0], [0.0, 0.5]]))

    def test_block_constant_trace_on_block_algebra(self):
        # tau = 0.35 tr on the first block and 0.1 tr on the second is
        # tracial on M_2 + M_3, though not on M_5
        b23 = block_algebra([2, 3])
        witness = TraceWitness(np.diag([0.35, 0.35, 0.1, 0.1, 0.1]))
        assert witness.traciality_residual(b23) < 1e-15
        assert witness.traciality_residual(full_algebra(5)) > 0.2
        cert = QDCertificate(b23, FiniteSubset((np.eye(5),)), LinearMapMat.identity(5), 0.1)
        assert trace_qd_verify(cert, witness).passed


class TestTraceTransport:
    def test_real_valued_witness_restricts(self):
        tau = TraceWitness(np.eye(2) / 2)
        rep = trace_transport(tau, ANTI2, scale=1.0)
        assert rep["real_valued_on_form"]
        # the transported functional upsilon1 . tau at scale 1
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert upsilon1(tau(a), 1.0) == pytest.approx(float(np.trace(a)) / 2)

    def test_normalized_trace_transports_to_real_trace(self):
        tau = TraceWitness(np.eye(2) / 2)
        rep = trace_transport(tau, ANTI2)
        assert rep["traciality_residual"] < 1e-10
        assert upsilon1(tau(np.eye(2)), rep["scale"]) == pytest.approx(0.5)

    def test_zero_functional(self):
        tau = TraceWitness(np.zeros((2, 2)))
        rep = trace_transport(tau, ANTI2)
        assert rep["traciality_residual"] == 0.0 and rep["imag_on_form"] == 0.0

    def test_flags_complex_valued_witness(self):
        gram = np.array([[1.0j, 0.0], [0.0, 1.0j]]) / 2
        tau = TraceWitness(gram)
        rep = trace_transport(tau, ANTI2)
        assert not rep["real_valued_on_form"]
        assert "flags" in rep

    def test_chain_replay_statuses(self):
        cert = _complex_cert(18)
        tau = TraceWitness(np.eye(2) / 2)
        rep = trace_transport(tau, ANTI2, cert=cert)
        assert len(rep["chain"]) == len(cert.subset)
        for step in rep["chain"]:
            assert "trace_compare_holds" in step
            assert step["eta1_intertwine_residual"] >= 0.0


class TestLemmaAudit:
    def test_eqtr1_scale1_fails_with_ratio_two(self):
        rep = lemma_audit("eqtr1_scale1", samples=100, seed=7)
        assert rep.verdict == "counterexample"
        assert rep.witness["ratio"] == pytest.approx(2.0, abs=1e-12)

    def test_eqtr1_scale_half_holds(self):
        rep = lemma_audit("eqtr1_scale_half", samples=100, seed=7)
        assert rep.verdict == "holds"
        assert rep.residuals["max_residual"] < 1e-12

    def test_eta_cp_level2_counterexample(self):
        rep = lemma_audit("eta_cp", samples=50, seed=3)
        assert rep.verdict == "counterexample"
        assert rep.witness["level"] == 2
        assert rep.witness["defect"] == pytest.approx(-1.0, abs=1e-10)
        flat = [complex(re, im) for re, im in rep.witness["input"]]
        expected = [1, 1j, -1j, 1]
        assert max(abs(a - b) for a, b in zip(flat, expected)) < 1e-12
        assert rep.residuals["level1_defect"] >= -1e-10

    def test_upsilon_cp_counterexample(self):
        rep = lemma_audit("upsilon_cp", samples=50, seed=3)
        assert rep.verdict == "counterexample"
        assert rep.witness["selfadjoint_residual"] > 1e-10 or \
            rep.witness["defect"] < -1e-10

    def test_eq1t2_counterexample_is_half_e11(self):
        rep = lemma_audit("eq1t2", samples=50, seed=3)
        assert rep.verdict == "counterexample"
        flat = [complex(re, im) for re, im in rep.witness["input"]]
        assert flat[0] == pytest.approx(0.5)
        assert max(abs(z) for z in flat[1:]) == 0.0
        assert rep.witness["lhs"] == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert rep.witness["rhs"] == pytest.approx(0.125, abs=1e-12)

    def test_theta_claims_fail(self):
        hom = lemma_audit("theta_homomorphism", samples=20, seed=5)
        assert hom.verdict == "counterexample"
        lin = lemma_audit("theta_linearity", samples=20, seed=5)
        assert lin.verdict == "counterexample"
        assert lin.witness["additivity_residual"] > 1e-10

    def test_deterministic(self):
        a = lemma_audit("eta_cp", samples=40, seed=11).to_json()
        b = lemma_audit("eta_cp", samples=40, seed=11).to_json()
        assert a == b

    def test_unknown_claim(self):
        with pytest.raises(ValueError):
            lemma_audit("not_a_claim")

    def test_all_claims_run(self):
        for claim in AUDIT_CLAIMS:
            rep = lemma_audit(claim, samples=10, seed=1)
            assert rep.verdict in ("holds", "counterexample")
            if rep.verdict == "counterexample":
                assert rep.witness is not None


class TestGenerators:
    def test_unital_compression(self):
        phi = unital_compression_map(np.random.default_rng(19), 3, 2,
                                     field="R", terms=2)
        assert phi.unitality_defect() < 1e-10

    def test_unital_stinespring_allows_large_target(self):
        phi = unital_stinespring_map(np.random.default_rng(20), 2, 5)
        assert phi.unitality_defect() < 1e-10
        from starlift.cpmaps import cp_defect
        assert cp_defect(phi) >= -1e-10
