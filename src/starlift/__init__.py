"""Finite-dimensional toolkit for real forms of matrix *-algebras.

Dense matrix numerics, involutory *-antiautomorphisms and their real
forms, a completely-positive-map calculus with Choi matrices, the
explicit complex <-> real transport maps, quasidiagonality and
nuclearity certificates, and slice-map/Fubini-product exactness checks,
all verified through toleranced defects with replayable witnesses.
"""

__version__ = "0.1.0"

from .matrix import (DEFAULT_TOL, col_norm1, op_norm, positivity_defect,
                     split_norm)
from .realform import (AntiAutomorphism, StarAlgebra, check_antiautomorphism,
                       conj_phi, real_decompose, real_form_basis,
                       real_form_residual, real_frame)
from .cpmaps import (LinearMapMat, choi, complexify,
                     compose, compress, cp_defect, cp_defect_real_report)
from .transport import (RealifiedMap, ThetaScale, eta, eta1, rho,
                        rho_map, sigma, sigma_map, theta, theta_normalizer,
                        transport_factorization, upsilon, upsilon1)
from .certify import (AUDIT_CLAIMS, FiniteSubset, QDCertificate, TraceWitness,
                      lemma_audit, nuclear_witness_verify, qd_complexify,
                      qd_realify, qd_verify, trace_qd_verify, trace_transport)
from .tensorexact import (IdealPresentation, exactness_check, fubini,
                          fubini_check)

__all__ = [
    "__version__",
    "DEFAULT_TOL", "col_norm1", "op_norm", "positivity_defect", "split_norm",
    "AntiAutomorphism", "StarAlgebra", "check_antiautomorphism", "conj_phi",
    "real_decompose", "real_form_basis", "real_form_residual", "real_frame",
    "LinearMapMat", "choi", "complexify", "compose",
    "compress", "cp_defect", "cp_defect_real_report",
    "RealifiedMap", "ThetaScale", "eta", "eta1", "rho",
    "rho_map", "sigma", "sigma_map", "theta",
    "theta_normalizer", "transport_factorization", "upsilon", "upsilon1",
    "AUDIT_CLAIMS", "FiniteSubset", "QDCertificate", "TraceWitness",
    "lemma_audit", "nuclear_witness_verify",
    "qd_complexify", "qd_realify", "qd_verify", "trace_qd_verify",
    "trace_transport",
    "IdealPresentation", "exactness_check", "fubini", "fubini_check",
]
