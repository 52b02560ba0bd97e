"""Correctness oracle: checks one report against what its document was
built to produce.  Runs after the timed region, on the first stdout of
each document class; repeats must match that stdout byte for byte.
"""

from __future__ import annotations

import json

import numpy as np

# Absolute slack for values the generator computed with its own numpy
# code: the program reaches them by a different order of operations.
ABS = 1e-9
TOL = 1e-9  # the CLI's default tolerance, which decides the exit code


def matrix(doc: dict) -> np.ndarray:
    data = np.asarray(doc["data"], dtype=float)
    if data.ndim == 2:  # [re, im] pairs
        data = data[:, 0] + 1j * data[:, 1]
    return data.reshape(doc["rows"], doc["cols"])


def _close(got, want, tol=ABS) -> bool:
    return abs(float(got) - float(want)) <= tol * max(1.0, abs(float(want)))


def check(cls: dict, code: int, out: str) -> list[str]:
    """Problems with one document's result; empty when it is correct."""
    exp = cls["expect"]
    problems = []
    if code != exp["exit"]:
        problems.append(f"exit code {code}, expected {exp['exit']}")
    if code not in (0, 1):
        return problems
    try:
        doc = json.loads(out)
    except ValueError:
        return problems + ["stdout is not one JSON report"]
    try:
        problems += _CHECKS[cls["subcommand"]](doc, exp, code)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return problems


def _cp_check(doc, exp, code):
    p = []
    if doc["completely_positive"] != (code == 0):
        p.append("completely_positive disagrees with the exit code")
    if "cp_defect" in exp and not _close(doc["defect"], exp["cp_defect"]):
        p.append(f"defect {doc['defect']} != Choi minimum eigenvalue {exp['cp_defect']}")
    if "defect_equals" in exp and not _close(doc["defect"], exp["defect_equals"]):
        p.append(f"defect {doc['defect']} != {exp['defect_equals']}")
    if exp.get("cp_real") is not None:
        if doc["linearity"] != "R":
            p.append("real-linear map reported as complex-linear")
        cp = doc["defect"] >= -TOL and doc["selfadjointness_defect"] <= TOL
        if cp != exp["cp_real"]:
            p.append(f"sampled verdict {cp}, expected {exp['cp_real']}")
        if not cp and "witness" not in doc:
            p.append("failing real-linear check without a witness")
    return p


def _choi(doc, exp, code):
    p = []
    got = matrix(doc["choi"])
    if got.shape != exp["choi"].shape or np.max(np.abs(got - exp["choi"])) > ABS:
        p.append("Choi matrix differs from the reshaped images")
    if not _close(doc["min_eigenvalue"], exp["min_eigenvalue"]):
        p.append("min_eigenvalue differs from the reference")
    return p


def _transport(doc, exp, code):
    p = []
    if not doc["composition_residual"] <= doc["provenance"]["tol"]:
        p.append(f"composition_residual {doc['composition_residual']} above tol")
    n, n2 = exp["dims"]
    if (doc["phi_prime"]["cod"], doc["psi_prime"]["dom"]) != (n2, n2) \
            or doc["phi_prime"]["linearity"] != "R":
        p.append("transported maps do not pass through M_2n(R)")
    return p


def _complexify(doc, exp, code):
    m = doc["map"]
    got = np.stack([matrix(im) for im in m["images"]])
    if m["linearity"] != "C" or got.shape != exp["unit_images"].shape:
        return ["complexified map has the wrong shape or linearity"]
    if np.max(np.abs(got - exp["unit_images"])) > ABS:
        return ["complexification does not extend the map on the real units"]
    return []


def _nuclear(doc, exp, code):
    r = doc["report"]
    p = []
    if not _close(r["max_norm_defect"], exp["max_norm_defect"]):
        p.append(f"max_norm_defect {r['max_norm_defect']} != {exp['max_norm_defect']}")
    if r["pass"] != (code == 0):
        p.append("pass flag disagrees with the exit code")
    return p


def _qd_verify(doc, exp, code):
    r = doc["report"]
    p = []
    for key in ("max_mult_defect", "max_norm_defect"):
        if not _close(r[key], exp[key]):
            p.append(f"{key} {r[key]} != {exp[key]}")
    if r["pass"] != (code == 0):
        p.append("pass flag disagrees with the exit code")
    return p


def _qd_transport(doc, exp, code):
    r, extra = doc["report"], doc["report"].get("extra", {})
    mode = exp.get("theta_mode")
    p = []
    if mode is None:  # complexify
        if extra.get("bounds_hold") is not exp["bounds_hold"]:
            p.append("complexification bookkeeping bounds do not hold")
        if doc["certificate"]["norm_mode"] != exp["cert_mode"]:
            p.append("complexified certificate has the wrong norm mode")
    elif mode == "paper":
        if doc["certificate"] is not None or not extra.get("flags"):
            p.append("paper-mode realification must be flagged and certificate-free")
    else:
        if extra.get("theta_mode") != "fixed" or extra.get("bounds_hold") is not True:
            p.append("linear realification bounds do not hold")
        if mode.startswith("fixed:") and extra.get("theta_scale") != float(mode[6:]):
            p.append("fixed theta scale not honoured")
        if doc["certificate"] is None:
            p.append("linear realification produced no certificate")
    if r["pass"] is not True:
        p.append("transported certificate fails")
    return p


def _trace_audit(doc, exp, code):
    v = doc["verify"]
    p = []
    for key in ("max_mult_defect", "max_trace_defect"):
        if not _close(v[key], exp[key]):
            p.append(f"{key} {v[key]} != {exp[key]}")
    if len(doc["transport"]["chain"]) != exp["chain_len"]:
        p.append("chain replay skipped real-form elements")
    return p


def _realform(doc, exp, code):
    d = doc["decomposition"]
    p = []
    if doc["check"]["ok"] is not True:
        p.append("antiautomorphism axioms reported as failing")
    for key in ("r", "s"):
        if np.max(np.abs(matrix(d[key]) - exp[key])) > ABS:
            p.append(f"real-form part {key} differs from the reference")
    if d["recombine_residual"] > ABS:
        p.append("r + i s does not recombine")
    return p


def _lemma_audit(doc, exp, code):
    r = doc["report"]
    claim = exp["claim"]
    p = []
    if r["claim"] != claim or r["verdict"] != ("holds" if code == 0 else "counterexample"):
        p.append("claim or verdict mismatch")
    w = r.get("witness") or {}
    if claim == "eqtr1_scale1" and w.get("ratio") != 2.0:
        p.append("eqtr1_scale1 ratio is not 2")
    if claim == "eta_cp" and not _close(w.get("defect", 0.0), -1.0):
        p.append("eta_cp defect is not -1")
    if claim == "eq1t2" and w.get("input") != [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]:
        p.append("eq1t2 witness is not 0.5*E11")
    return p


def _kernels(checks, exp):
    p = []
    for name, chk in checks.items():
        if chk["match"] is not True:
            p.append(f"{name} identity fails")
        if (chk["kernel_dim"], chk["span_dim"]) != (exp["kernel_dim"], exp["kernel_dim"]):
            p.append(f"{name} dimensions {chk['kernel_dim']}/{chk['span_dim']}, "
                     f"expected {exp['kernel_dim']}")
    return p


def _exactness(doc, exp, code):
    r = doc["report"]
    p = _kernels({k: r[k] for k in ("real_kernel", "complex_kernel",
                                    "fubini_real", "fubini_complex")}, exp)
    if r["ok"] is not True:
        p.append("exactness not ok")
    if r["decomposition"]["tensor_dim"] != exp["tensor_dim"]:
        p.append("tensor dimension differs from the block sizes")
    return p


def _fubini(doc, exp, code):
    return _kernels({"fubini": doc["fubini"]}, exp)


_CHECKS = {
    "cp-check": _cp_check, "choi": _choi, "transport": _transport,
    "complexify": _complexify, "nuclear-verify": _nuclear,
    "qd-verify": _qd_verify, "qd-transport": _qd_transport,
    "trace-audit": _trace_audit, "realform": _realform,
    "lemma-audit": _lemma_audit, "exactness": _exactness, "fubini": _fubini,
}
