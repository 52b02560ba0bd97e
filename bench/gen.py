"""Deterministic document generator for the benchmark workloads.

Every input document is built here with plain numpy from the workload
seed and written as JSON into a scratch directory; the program under
test only ever sees those files.  Each document class carries the
verdict it was constructed to have and the reference values the oracle
(``oracle.py``) compares the report against.  References are computed
here, independently of ``starlift``.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Each document class has a weight: its number of documents in one cycle
# of the mix.  A cycle is shuffled with the seed and repeated whole until
# the run's time is up; one cycle is also the unit of the traced run, so
# counts per cycle repeat exactly.  The weights put each workload's p50
# and p90 inside a group of classes with similar latency rather than on
# a gap between two classes (measured at the seed commit): p90 lands on
# transport n=6 in maps, on exactness with A = M4 (u = J) in tensor, and
# on linear realification in certs.
WORKLOADS = ("maps", "tensor", "certs")

AUDIT_CLAIMS = ("eqtr1_scale1", "eqtr1_scale_half", "eta_cp", "upsilon_cp",
                "eq1t2", "theta_homomorphism", "theta_linearity")

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


# -- JSON encoders for the documented schemas ---------------------------------


def mat_json(a, field: str | None = None) -> dict:
    a = np.asarray(a)
    if field is None:
        field = "C" if np.iscomplexobj(a) and np.any(a.imag != 0) else "R"
    if field == "R":
        data = np.real(a).ravel().tolist()
    else:
        a = a.astype(np.complex128)
        data = np.stack([a.real.ravel(), a.imag.ravel()], axis=1).tolist()
    return {"rows": a.shape[0], "cols": a.shape[1], "field": field, "data": data}


def units(n: int) -> list[np.ndarray]:
    out = []
    for j in range(n):
        for l in range(n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[j, l] = 1.0
            out.append(e)
    return out


def tabulate(f, n: int, linearity: str, dom_field: str = "C") -> np.ndarray:
    """Images of f on the canonical basis the map schema prescribes."""
    basis = units(n)
    if linearity == "R" and dom_field == "C":
        basis = basis + [1j * e for e in basis]
    return np.stack([np.asarray(f(b), dtype=np.complex128) for b in basis])


def map_json(images: np.ndarray, linearity: str, cod_field: str,
             dom_field: str = "C") -> dict:
    n_basis, m, _ = images.shape
    n = int(round(np.sqrt(n_basis if linearity == "C" or dom_field == "R"
                          else n_basis // 2)))
    doc = {"dom": n, "cod": m, "linearity": linearity, "cod_field": cod_field,
           "images": [mat_json(im, cod_field) for im in images]}
    if dom_field == "R":
        doc["dom_field"] = "R"
    return doc


def apply_map(images: np.ndarray, x: np.ndarray, linearity: str,
              dom_field: str = "C") -> np.ndarray:
    """Evaluate a map from its basis images (reference implementation)."""
    v = np.asarray(x, dtype=np.complex128).ravel()
    if linearity == "R" and dom_field == "C":
        coeff = np.concatenate([v.real, v.imag])
    elif linearity == "R":
        coeff = v.real
    else:
        coeff = v
    return np.tensordot(coeff, images, axes=(0, 0))


def choi_matrix(images: np.ndarray) -> np.ndarray:
    """sum_jl E_jl (x) phi(E_jl), rebuilt by reshaping the images."""
    nn, m, _ = images.shape
    n = int(round(np.sqrt(nn)))
    return images.reshape(n, n, m, m).transpose(0, 2, 1, 3).reshape(n * m, n * m)


def min_eig(c: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((c + c.conj().T) / 2.0)[0])


def op(a) -> float:
    return float(np.linalg.norm(a, 2))


# -- random ingredients --------------------------------------------------------


def cmat(rng, r: int, c: int | None = None) -> np.ndarray:
    c = r if c is None else c
    return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))


def unitary(rng, n: int, real: bool = False) -> np.ndarray:
    a = rng.standard_normal((n, n)) if real else cmat(rng, n)
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def kraus_unital(rng, n: int, k: int, real: bool, terms: int = 2) -> list:
    """Kraus operators V_i (n x k) with sum V_i* V_i = I_k."""
    vs = [rng.standard_normal((n, k)) if real else cmat(rng, n, k)
          for _ in range(terms)]
    s = sum(v.conj().T @ v for v in vs)
    w, u = np.linalg.eigh((s + s.conj().T) / 2.0)
    inv_sqrt = u @ np.diag(1.0 / np.sqrt(w)) @ u.conj().T
    return [v @ inv_sqrt for v in vs]


def compression(vs):
    return lambda x: sum(v.conj().T @ x @ v for v in vs)


def stinespring(rng, n: int, noise: float = 0.05):
    """Unital CP map on M_n with a full-rank Choi matrix."""
    v = unitary(rng, 2 * n)[:, :n]
    eye2 = np.eye(2)
    return lambda x: ((1.0 - noise) * v.conj().T @ np.kron(x, eye2) @ v
                      + noise * np.trace(x) / n * np.eye(n))


def scaled(a: np.ndarray, norm: float = 0.5) -> np.ndarray:
    """a rescaled to operator norm ``norm``.  Transport certificates use
    elements of norm 1/2 under unital CP maps, so every defect stays far
    below their epsilon of 9 and the verdict is a pass by construction."""
    return a * (norm / op(a))


def anti_u(kind: str, n: int) -> np.ndarray:
    if kind == "T":
        return np.eye(n)
    return np.kron(np.eye(n // 2), J2)


# -- document assembly -----------------------------------------------------------


class Builder:
    """Writes documents into ``outdir`` and collects the document classes."""

    def __init__(self, outdir: str, seed: int):
        self.outdir = outdir
        self.rng = np.random.default_rng(seed)
        self.seed = seed
        self.classes: list[dict] = []

    def file(self, name: str, doc) -> str:
        path = os.path.join(self.outdir, name)
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return path

    def add(self, cid: str, argv: list, expect: dict, weight: int, size: dict):
        self.classes.append({"id": cid, "subcommand": argv[0], "argv": argv,
                             "expect": expect, "weight": weight, "size": size})


def _maps(b: Builder) -> None:
    rng = b.rng
    for n, w in ((4, 3), (8, 2), (12, 1), (16, 1)):
        im = tabulate(stinespring(rng, n), n, "C")
        path = b.file(f"stine{n}.json", map_json(im, "C", "C"))
        b.add(f"cp-check/stinespring/n{n}", ["cp-check", "--map", path],
              {"exit": 0, "cp_defect": min_eig(choi_matrix(im))}, w, {"n": n})
    for n in (4, 8):
        im = tabulate(lambda x: x.T, n, "C")
        path = b.file(f"transpose{n}.json", map_json(im, "C", "C"))
        b.add(f"cp-check/transpose/n{n}", ["cp-check", "--map", path],
              {"exit": 1, "cp_defect": min_eig(choi_matrix(im)),
               "defect_equals": -1.0}, 2, {"n": n})
    im = tabulate(stinespring(rng, 8), 8, "C")
    path = b.file("choi8.json", map_json(im, "C", "C"))
    c = choi_matrix(im)
    b.add("choi/n8", ["choi", "--map", path],
          {"exit": 0, "choi": c, "min_eigenvalue": min_eig(c)}, 1, {"n": 8})
    for n, w in ((4, 1), (6, 3)):
        phi = b.file(f"tphi{n}.json", map_json(tabulate(stinespring(rng, n), n, "C"), "C", "C"))
        psi = b.file(f"tpsi{n}.json", map_json(tabulate(stinespring(rng, n), n, "C"), "C", "C"))
        b.add(f"transport/n{n}", ["transport", "--phi-map", phi, "--psi-map", psi],
              {"exit": 0, "dims": [n, 2 * n]}, w, {"n": n})
    for n in (4, 8):
        a, bb, cc, d = (cmat(rng, n) / n for _ in range(4))
        im = tabulate(lambda x: a @ x @ bb + cc @ x.conj() @ d, n, "R")
        path = b.file(f"realmap{n}.json", map_json(im, "R", "C"))
        b.add(f"complexify/n{n}", ["complexify", "--map", path],
              {"exit": 0, "unit_images": im[: n * n]}, 2, {"n": n})
    for n, w in ((4, 2), (6, 1), (8, 1)):
        k = n + 2
        wiso = unitary(rng, k)[:, :n]
        phi_im = tabulate(lambda x: wiso @ x @ wiso.conj().T, n, "C")
        psi_im = tabulate(lambda y: wiso.conj().T @ y @ wiso, k, "C")
        elems = [cmat(rng, n) for _ in range(4)]
        if n == 4:
            # A perturbed psi makes psi . phi miss the identity: exit 1.
            psi_im = psi_im + 1e-3 * np.stack([cmat(rng, n) for _ in range(k * k)])
        defect = max(op(apply_map(psi_im, apply_map(phi_im, e, "C"), "C") - e)
                     for e in elems)
        files = [b.file(f"nphi{n}.json", map_json(phi_im, "C", "C")),
                 b.file(f"npsi{n}.json", map_json(psi_im, "C", "C")),
                 b.file(f"nset{n}.json", [mat_json(e) for e in elems])]
        b.add(f"nuclear-verify/n{n}",
              ["nuclear-verify", "--phi-map", files[0], "--psi-map", files[1],
               "--set", files[2], "--epsilon", "1e-6"],
              {"exit": 1 if defect >= 1e-6 else 0, "max_norm_defect": defect},
              w, {"n": n, "k": k})
    vs = [unitary(rng, 4)]
    im = tabulate(compression(vs), 4, "R")
    path = b.file("realcp4.json", map_json(im, "R", "C"))
    b.add("cp-check/real-linear/n4/level2",
          ["cp-check", "--map", path, "--level", "2", "--seed", str(b.seed)],
          {"exit": 0, "cp_real": True}, 2, {"n": 4, "level": 2})


def _block_algebra_json(dims) -> dict:
    n = sum(dims)
    span = []
    off = 0
    for d in dims:
        for j in range(d):
            for l in range(d):
                e = np.zeros((n, n))
                e[off + j, off + l] = 1.0
                span.append(mat_json(e, "R"))
        off += d
    return {"n": n, "span": span, "unital": True}


def _rotated_full_algebra(rng, a: int) -> dict:
    """M_a spanned by a seeded orthogonal rotation of the matrix units:
    the same algebra in a different, well-conditioned document."""
    g = unitary(rng, a * a, real=True)
    span = np.tensordot(g, np.stack(units(a)), axes=(1, 0))
    return {"n": a, "span": [mat_json(m) for m in span], "unital": True}


def _tensor(b: Builder) -> None:
    rng = b.rng
    # (A = M_a, block sizes of B, ideal block index, weight).
    combos = ((1, (3, 4), 1, 1), (2, (1, 2), 0, 2), (2, (2, 3), 1, 1),
              (3, (2, 2), 0, 1), (4, (1, 2), 1, 1))
    heavier = {"exactness/M4/B1-2/I1/J": 3}
    for a, dims, ideal, w in combos:
        alg = b.file(f"A{a}_{'-'.join(map(str, dims))}.json",
                     _rotated_full_algebra(rng, a))
        ide = b.file(f"B{'-'.join(map(str, dims))}_{ideal}.json",
                     {"B": _block_algebra_json(dims), "ideal_blocks": [ideal]})
        kinds = ("T", "J") if a % 2 == 0 else ("T",)
        for kind in kinds:
            phi = b.file(f"u{kind}{a}.json", {"u": mat_json(anti_u(kind, a), "R")})
            real_dim = 2 * a * a * dims[ideal] ** 2
            size = {"a": a, "B": list(dims), "ideal": ideal, "u": kind}
            tag = f"M{a}/B{'-'.join(map(str, dims))}/I{ideal}/{kind}"
            b.add(f"exactness/{tag}",
                  ["exactness", "--algebra", alg, "--ideal", ide, "--phi", phi],
                  {"exit": 0, "kernel_dim": real_dim,
                   "tensor_dim": 2 * a * a * sum(d * d for d in dims)},
                  heavier.get(f"exactness/{tag}", w), size)
            b.add(f"fubini/{tag}",
                  ["fubini", "--algebra", alg, "--ideal", ide, "--phi", phi],
                  {"exit": 0, "kernel_dim": real_dim}, w, size)


def _full_algebra_json(n: int) -> dict:
    return {"n": n, "span": [mat_json(e, "R") for e in units(n)], "unital": True}


def _cert_json(n: int, images, linearity, cod_field, elems, eps, mode,
               u=None, dom_field="C") -> dict:
    doc = {"algebra": _full_algebra_json(n),
           "phi_map": map_json(images, linearity, cod_field, dom_field),
           "F": [mat_json(e) for e in elems], "epsilon": eps, "norm_mode": mode}
    if u is not None:
        doc["anti"] = {"u": mat_json(u, "R")}
    return doc


def _qd_reference(images, elems) -> dict:
    ap = lambda x: apply_map(images, x, "C")  # noqa: E731
    mult = max(op(ap(x @ y) - ap(x) @ ap(y)) for x in elems for y in elems)
    norm = max(abs(op(ap(x)) - op(x)) for x in elems)
    m = images.shape[1]
    trace = max(abs(np.trace(ap(x)) / m - np.trace(x) / x.shape[0]) for x in elems)
    return {"max_mult_defect": mult, "max_norm_defect": norm,
            "max_trace_defect": float(trace)}


def _certs(b: Builder) -> None:
    rng = b.rng
    for n in (2, 3, 4):
        uu = unitary(rng, n)
        im = tabulate(lambda x: uu @ x @ uu.conj().T, n, "C")
        elems = [cmat(rng, n) for _ in range(3)]
        path = b.file(f"qdpass{n}.json", _cert_json(n, im, "C", "C", elems, 1e-6, "complex_op"))
        ref = _qd_reference(im, elems)
        b.add(f"qd-verify/pass/n{n}", ["qd-verify", "--cert", path],
              {"exit": 0, "max_mult_defect": ref["max_mult_defect"],
               "max_norm_defect": ref["max_norm_defect"]}, 1, {"n": n})
    im = tabulate(compression(kraus_unital(rng, 3, 3, real=False)), 3, "C")
    elems = [cmat(rng, 3) for _ in range(3)]
    path = b.file("qdfail3.json", _cert_json(3, im, "C", "C", elems, 1e-3, "complex_op"))
    ref = _qd_reference(im, elems)
    b.add("qd-verify/fail/n3", ["qd-verify", "--cert", path],
          {"exit": 1, "max_mult_defect": ref["max_mult_defect"],
           "max_norm_defect": ref["max_norm_defect"]}, 1, {"n": 3})

    for n in (2, 3):
        vs = kraus_unital(rng, n, n + 1, real=True)
        im = tabulate(compression(vs), n, "R", dom_field="R")
        elems = [scaled(rng.standard_normal((n, n))) for _ in range(4)]
        path = b.file(f"qdtcx{n}.json",
                      _cert_json(n, im, "R", "R", elems, 9.0, "complex_op",
                                 u=np.eye(n), dom_field="R"))
        b.add(f"qd-transport/complexify/n{n}",
              ["qd-transport", "--cert", path, "--direction", "complexify"],
              {"exit": 0, "bounds_hold": True, "cert_mode": "phi_split"}, 1, {"n": n})
    for n in (2, 3):
        vs = kraus_unital(rng, n, n + 1, real=False)
        im = tabulate(compression(vs), n, "C")
        elems = [scaled(cmat(rng, n)) for _ in range(3)]
        path = b.file(f"qdtre{n}.json",
                      _cert_json(n, im, "C", "C", elems, 9.0, "complex_op",
                                 u=np.eye(n)))
        for mode, w in (("auto", 2), ("fixed:0.25", 2), ("paper", 1)):
            b.add(f"qd-transport/realify/{mode.split(':')[0]}/n{n}",
                  ["qd-transport", "--cert", path, "--direction", "realify",
                   "--theta-mode", mode],
                  {"exit": 0, "theta_mode": mode}, w, {"n": n})
    for n in (2, 3, 4):
        uu = unitary(rng, n)
        im = tabulate(lambda x: uu @ x @ uu.conj().T, n, "C")
        elems = [rng.standard_normal((n, n)) + 0j for _ in range(2)] + [cmat(rng, n)]
        path = b.file(f"trcert{n}.json",
                      _cert_json(n, im, "C", "C", elems, 1e-6, "complex_op", u=np.eye(n)))
        tr = b.file(f"trace{n}.json", {"gram": mat_json(np.eye(n) / n, "R")})
        phi = b.file(f"uT{n}.json", {"u": mat_json(np.eye(n), "R")})
        ref = _qd_reference(im, elems)
        b.add(f"trace-audit/n{n}",
              ["trace-audit", "--cert", path, "--trace", tr, "--phi", phi,
               "--seed", str(b.seed)],
              {"exit": 0, "max_mult_defect": ref["max_mult_defect"],
               "max_trace_defect": ref["max_trace_defect"], "chain_len": 2},
              1, {"n": n})
    for n, kind in ((2, "T"), (3, "T"), (4, "T"), (2, "J"), (4, "J")):
        u = anti_u(kind, n)
        x = cmat(rng, n)
        c = u @ x.conj() @ u.conj().T
        phi = b.file(f"rf{kind}{n}.json", {"u": mat_json(u, "R")})
        xm = b.file(f"rfx{kind}{n}.json", mat_json(x, "C"))
        b.add(f"realform/{kind}/n{n}",
              ["realform", "--phi", phi, "--matrix", xm, "--seed", str(b.seed)],
              {"exit": 0, "r": (x + c) / 2.0, "s": (x - c) / 2.0j}, 1,
              {"n": n, "u": kind})
    sig, rho, eta = _transport_maps()
    for name, fn, dom_field, exit_code in (("sigma", sig, "C", 0),
                                           ("rho", rho, "R", 0),
                                           ("eta", eta, "C", 1)):
        for k, level in ((1, 2), (2, 2), (2, 3)):
            n = 2 * k if name == "rho" else k
            im = tabulate(fn, n, "R", dom_field=dom_field)
            cod_field = "C" if name == "rho" else "R"
            path = b.file(f"{name}{k}.json", map_json(im, "R", cod_field, dom_field))
            expect = {"exit": exit_code, "cp_real": exit_code == 0}
            if name == "eta":
                expect["defect_equals"] = -1.0
            b.add(f"cp-check/{name}/k{k}/level{level}",
                  ["cp-check", "--map", path, "--level", str(level),
                   "--seed", str(b.seed)], expect, 1, {"k": k, "level": level})
    samples = 30 + int(b.rng.integers(0, 30))
    for claim in AUDIT_CLAIMS:
        b.add(f"lemma-audit/{claim}",
              ["lemma-audit", "--claim", claim, "--samples", str(samples),
               "--seed", str(b.seed)],
              {"exit": 0 if claim == "eqtr1_scale_half" else 1, "claim": claim},
              1, {"samples": samples})


def _transport_maps():
    """Reference sigma, rho and eta (see the transport module's docs)."""
    def sigma(x):
        return np.kron(x.real, np.eye(2)) + np.kron(x.imag, J2)

    def rho(m):
        a = m.real
        return (a[0::2, 0::2] + a[1::2, 1::2]) / 2.0 \
            + 1j * (a[0::2, 1::2] - a[1::2, 0::2]) / 2.0

    def eta(x):
        return np.kron(x.real, np.diag([1.0, 0.0])) + np.kron(x.imag, np.diag([0.0, 1.0]))

    return sigma, rho, eta


def build(workload: str, seed: int, outdir: str) -> dict:
    """Write the workload's documents for ``seed`` and return its manifest.

    The manifest lists the document classes (argv, expected verdict,
    reference values, sizes, weight) and ``cycle``: the seeded order in
    which one round of the mix is sent.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    b = Builder(outdir, seed)
    {"maps": _maps, "tensor": _tensor, "certs": _certs}[workload](b)
    cycle = [c["id"] for c in b.classes for _ in range(c["weight"])]
    order = np.random.default_rng(seed + 1).permutation(len(cycle))
    return {"workload": workload, "seed": seed, "classes": b.classes,
            "cycle": [cycle[i] for i in order]}
