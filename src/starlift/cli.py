"""Command-line surface: verification subcommands emitting canonical JSON.

Every subcommand writes one canonical JSON report to stdout (and to
--output when given), with a ``provenance`` block naming the tool,
version, seed and tolerance; human diagnostics go to stderr.  Exit codes
separate outcomes: 0 means the checked property holds, 1 means a
verified mathematical failure (a defect above epsilon, a falsified
claim, a CP violation), and 2 means an operational error (unknown
command, unreadable file, schema violation, precondition breach).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from .certify import (COMPLEX_OP, NORM_MODES, FiniteSubset, lemma_audit,
                      nuclear_witness_verify, qd_complexify, qd_realify,
                      qd_verify, trace_qd_verify, trace_transport)
from .cpmaps import (COMPLEX, REAL, choi, choi_witness, complexify, compose, cp_defect,
                     cp_defect_real_report, selfadjointness_defect)
from .io import (SchemaError, _b_list_from_json, anti_from_json, algebra_from_json,
                 canonical_dumps, cert_from_json, cert_to_json,
                 ideal_from_json, load_json, map_from_json, map_to_json,
                 matrix_from_json, matrix_to_json, subset_from_json,
                 trace_from_json)
from .matrix import DEFAULT_TOL, hermitian_defect, op_norm
from .realform import (AntiAutomorphism, check_antiautomorphism, real_decompose,
                       real_form_residual)
from .tensorexact import exactness_check, fubini_check
from .transport import ThetaScale, transport_factorization

ENV_TOL = "STARLIFT_TOL"


def _resolve_tol(args) -> float:
    """The run's tolerance: flag > environment > default, positive and finite."""
    raw = args.tol if args.tol is not None else os.environ.get(ENV_TOL, DEFAULT_TOL)
    try:
        tol = float(raw)
    except ValueError:
        raise ValueError(f"tolerance {ENV_TOL}={raw!r} is not a number") from None
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    return tol


def _theta_scale(mode: str) -> ThetaScale | None:
    return None if mode == "auto" else ThetaScale.parse(mode)


# -- handlers -----------------------------------------------------------------
#
# Each handler loads its inputs, runs its check and returns (report, ok):
# the report without provenance, and whether the checked property holds.
# A handler's own provenance keys go in report["provenance"].


def _cmd_complexify(args):
    phi = map_from_json(load_json(args.map), "map")
    if phi.linearity != REAL:
        raise SchemaError("map.linearity", "complexify expects a real-linear map")
    if args.phi:
        anti = anti_from_json(load_json(args.phi))
    else:
        anti = AntiAutomorphism.transpose(phi.dom_dim)
    phic = complexify(phi, anti)
    return {"map": map_to_json(phic)}, True


def _cmd_realform(args):
    doc = load_json(args.phi)
    anti = anti_from_json(doc, validate=False)
    check = check_antiautomorphism(anti)
    out = {"check": check}
    if args.matrix:
        x = matrix_from_json(load_json(args.matrix), "matrix")
        r, s = real_decompose(anti, x)
        out["decomposition"] = {
            "phi_x": matrix_to_json(anti.apply(x)),
            "r": matrix_to_json(r),
            "s": matrix_to_json(s),
            "recombine_residual": float(op_norm(x - (r + 1j * s))),
            "real_form_residual": float(real_form_residual(anti, x)),
        }
    return out, check["ok"]


def _cmd_choi(args):
    phi = map_from_json(load_json(args.map), "map")
    cm = choi(phi)
    sym = (cm + cm.conj().T) / 2.0
    return {
        "choi": matrix_to_json(cm),
        "hermitian_defect": float(hermitian_defect(cm)),
        "min_eigenvalue": float(np.linalg.eigvalsh(sym)[0]),
        "trace": [float(np.trace(cm).real), float(np.trace(cm).imag)],
    }, True


def _cmd_cp_check(args):
    # Checked for every map, though only a real-linear one is probed at it.
    if args.level < 1:
        raise ValueError("level must be >= 1")
    phi = map_from_json(load_json(args.map), "map")
    choi_defect = cp_defect(phi)
    if phi.linearity == COMPLEX:
        ok = choi_defect >= -args.tol
        return {"linearity": COMPLEX, "defect": choi_defect, "completely_positive": bool(ok)}, ok
    sa, sa_witness = selfadjointness_defect(phi)
    defect, witness = cp_defect_real_report(phi, args.level)
    ok = choi_defect >= -args.tol and sa <= args.tol
    doc = {"linearity": REAL, "level": args.level, "choi_defect": choi_defect, "defect": defect,
           "selfadjointness_defect": sa, "completely_positive": bool(ok)}
    if choi_defect < -args.tol:
        doc["choi_level"], choi_w = choi_witness(phi)
        doc["choi_witness"] = matrix_to_json(choi_w)
    if defect < -args.tol:
        doc["witness"] = matrix_to_json(witness)
    if sa > args.tol:
        doc["selfadjointness_witness"] = matrix_to_json(sa_witness)
    return doc, ok


def _cmd_transport(args):
    phi = map_from_json(load_json(args.phi_map), "phi_map")
    psi = map_from_json(load_json(args.psi_map), "psi_map")
    phi_p, psi_p = transport_factorization(phi, psi)
    before = compose(psi, phi)
    after = compose(psi_p, phi_p)
    resid = np.max(op_norm(after.images - before.apply(after.basis)))
    return {
        "phi_prime": map_to_json(phi_p),
        "psi_prime": map_to_json(psi_p),
        "composition_residual": float(resid),
    }, resid <= args.tol


def _cmd_qd_verify(args):
    cert = cert_from_json(load_json(args.cert))
    report = qd_verify(cert)
    return {"report": report}, report["pass"]


def _cmd_qd_transport(args):
    # The options are checked whichever the direction.
    scale = _theta_scale(args.theta_mode)
    cert = cert_from_json(load_json(args.cert))
    if args.phi:
        cert = dataclasses.replace(cert, anti=anti_from_json(load_json(args.phi)))
    elif cert.anti is None:
        raise SchemaError("certificate.anti", "missing required field (or give --phi)")
    if args.direction == "complexify":
        new_cert, report = qd_complexify(cert)
    else:
        new_cert, report = qd_realify(cert, scale=scale)
    # No bound applies to the nonlinear paper-mode theta.
    extra = report["extra"]
    ok = report["pass"] and (extra.get("theta_mode") == "paper" or extra["bounds_hold"])
    return {"report": report,
            "certificate": cert_to_json(new_cert) if new_cert is not None else None}, ok


def _cmd_trace_audit(args):
    # The transport options are checked whether or not --phi asks for it.
    theta_scale = _theta_scale(args.theta_mode)
    if not math.isfinite(args.scale):
        raise ValueError(f"trace transport scale must be finite, got {args.scale!r}")
    cert = cert_from_json(load_json(args.cert))
    witness = trace_from_json(load_json(args.trace))
    report = trace_qd_verify(cert, witness)
    doc = {"verify": report}
    if args.phi:
        doc["transport"] = trace_transport(witness, anti_from_json(load_json(args.phi)), cert,
                                           scale=args.scale, theta_scale=theta_scale)
    return doc, report["pass"]


def _cmd_nuclear_verify(args):
    phi = map_from_json(load_json(args.phi_map), "phi_map")
    psi = map_from_json(load_json(args.psi_map), "psi_map")
    subset = FiniteSubset(subset_from_json(load_json(args.set), "F"))
    target = map_from_json(load_json(args.target), "target") if args.target else None
    b_list = _b_list_from_json(load_json(args.b_list)) if args.b_list else None
    report = nuclear_witness_verify(phi, psi, subset, epsilon=args.epsilon,
                                    target=target, norm_mode=args.norm_mode,
                                    b_list=b_list)
    return {"report": report}, report["pass"]


def _tensor_inputs(args):
    """(algebra, antiautomorphism, ideal) of a fubini or exactness run."""
    algebra = algebra_from_json(load_json(args.algebra))
    anti = anti_from_json(load_json(args.phi)) if args.phi \
        else AntiAutomorphism.transpose(algebra.n)
    return algebra, anti, ideal_from_json(load_json(args.ideal))


def _cmd_fubini(args):
    check = fubini_check(*_tensor_inputs(args))
    return {"fubini": check}, check["match"]


def _cmd_exactness(args):
    report = exactness_check(*_tensor_inputs(args))
    return {"report": report}, report["ok"]


def _cmd_lemma_audit(args):
    report = lemma_audit(args.claim, samples=args.samples, seed=args.seed)
    return {"report": report}, report["verdict"] == "holds"


# -- parser -------------------------------------------------------------------


# These accept --seed, which bench/gen.py passes, and record it; none draws from it.
SEEDED = ("realform", "cp-check", "trace-audit", "lemma-audit")


def _add_common(sp, seed: bool) -> None:
    sp.add_argument("--tol", type=float, default=None,
                    help=f"tolerance (default: ${ENV_TOL} or {DEFAULT_TOL})")
    sp.add_argument("--output", help="also write the JSON report to this file")
    if seed:
        sp.add_argument("--seed", type=int, default=0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; subcommand ``x-y`` is handled by ``_cmd_x_y``,
    looked up at dispatch."""
    parser = argparse.ArgumentParser(
        prog="starlift",
        description="verify real-form transport, CP certificates, and tensor "
                    "exactness on finite-dimensional matrix algebras",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complexify", help="complexify a real-linear map on a real form")
    p.add_argument("--map", required=True)
    p.add_argument("--phi", help="antiautomorphism JSON (default: transpose)")

    p = sub.add_parser("realform", help="check an antiautomorphism and decompose a matrix")
    p.add_argument("--phi", required=True)
    p.add_argument("--matrix")

    p = sub.add_parser("choi", help="emit the Choi matrix of a complex-linear map")
    p.add_argument("--map", required=True)

    p = sub.add_parser("cp-check", help="complete-positivity defect of a map")
    p.add_argument("--map", required=True)
    p.add_argument("--level", type=int, default=2,
                   help="level of the fixed-element probe of a real-linear map")

    p = sub.add_parser("transport", help="rewrite a factorization through real matrices")
    p.add_argument("--phi-map", required=True)
    p.add_argument("--psi-map", required=True)

    p = sub.add_parser("qd-verify", help="verify a quasidiagonality certificate")
    p.add_argument("--cert", required=True)

    p = sub.add_parser("qd-transport", help="transport a certificate across the real form")
    p.add_argument("--cert", required=True)
    p.add_argument("--direction", choices=("complexify", "realify"), required=True)
    p.add_argument("--phi", help="antiautomorphism JSON (default: certificate's)")
    p.add_argument("--theta-mode", default="auto",
                   help="paper | fixed:<value> | auto (per-certificate constant)")

    p = sub.add_parser("trace-audit", help="quasidiagonal-trace defects and transport chain")
    p.add_argument("--cert", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--phi", help="antiautomorphism JSON enabling the transport replay")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--theta-mode", default="auto")

    p = sub.add_parser("nuclear-verify", help="check a factorization against a target map")
    p.add_argument("--phi-map", required=True)
    p.add_argument("--psi-map", required=True)
    p.add_argument("--set", required=True, help="JSON list of matrices")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--target", help="target map JSON (default: identity)")
    p.add_argument("--b-list", help="JSON list of compression witnesses")
    p.add_argument("--norm-mode", choices=NORM_MODES, default=COMPLEX_OP)

    p = sub.add_parser("fubini", help="compare the Fubini product with the ideal span")
    p.add_argument("--algebra", required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--phi", help="antiautomorphism JSON (default: transpose)")

    p = sub.add_parser("exactness", help="kernel identities for a quotient sequence")
    p.add_argument("--algebra", required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--phi", help="antiautomorphism JSON (default: transpose)")

    p = sub.add_parser("lemma-audit", help="audit a documented claim on fixed inputs")
    p.add_argument("--claim", required=True)
    p.add_argument("--samples", type=int, default=50)

    for name, p in sub.choices.items():
        _add_common(p, seed=name in SEEDED)
    return parser


def cmd_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else (0 if code is None else 2)
    try:
        args.tol = _resolve_tol(args)
        # An overflow or NaN is an error, not a verdict; raising also keeps
        # LAPACK from reporting an illegal argument on file descriptor 1.
        with np.errstate(over="raise", invalid="raise"):
            doc, ok = globals()["_cmd_" + args.command.replace("-", "_")](args)
        doc["provenance"] = {"tool": "starlift", "version": __version__,
                             "seed": getattr(args, "seed", 0), "tol": args.tol,
                             **doc.get("provenance", {})}
        text = canonical_dumps(doc)
        if args.output:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(text)
        sys.stdout.write(text)
        return 0 if ok else 1
    except (ValueError, TypeError, OSError, FloatingPointError) as exc:
        # SchemaError and json.JSONDecodeError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 is reserved for verified mathematical failures, so an
        # unexpected fault must not fall through to the interpreter's 1.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cmd_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
