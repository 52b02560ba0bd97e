"""Canonical JSON serialization and the documented artifact schemas.

Documents are canonicalized by the stdlib encoder (sorted keys, compact
separators, ASCII, floats in Python's shortest round-trip spelling,
trailing newline) so that reports are byte-diffable in CI and
save(load(doc)) reproduces the file exactly.  Matrices are plain numpy
arrays; their field tag exists only in the matrix schema.  Schema
violations raise :class:`SchemaError` naming the offending field.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .certify import NORM_MODES, FiniteSubset, QDCertificate, TraceWitness
from .cpmaps import COMPLEX, REAL, LinearMapMat, basis_size
from .matrix import _re_im_pairs, as_array
from .realform import AntiAutomorphism, StarAlgebra
from .tensorexact import IdealPresentation


class SchemaError(ValueError):
    """A document does not match its schema; names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# -- canonical serialization ------------------------------------------------


def _default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise ValueError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                      allow_nan=False, default=_default) + "\n"


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- field access helpers ----------------------------------------------------


def _need(doc: dict, key: str, path: str):
    if not isinstance(doc, dict):
        raise SchemaError(path, f"expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return doc[key]


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return value


def _as_dim(value, path: str) -> int:
    n = _as_int(value, path)
    if n < 1:
        raise SchemaError(path, f"expected a dimension >= 1, got {n}")
    return n


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {value!r}")
    return float(value)


# -- matrix ------------------------------------------------------------------


def matrix_to_json(m) -> dict:
    """The matrix schema of m, with field "R" exactly when m has no
    nonzero imaginary entry."""
    return _matrices_to_json(as_array(m)[None])[0]


def _matrices_to_json(arr: np.ndarray, field: str | None = None) -> list:
    """The matrix documents of a float64 or complex128 stack (k, r, c),
    with one ``tolist()`` per field.  Each is tagged "R" exactly when it
    has no nonzero imaginary entry unless ``field`` is given, and a
    given "R" refuses one.  Private, so the benchmark's span recorder
    counts it in its caller."""
    k, rows, cols = arr.shape
    imaginary = arr.imag.reshape(k, rows * cols).any(axis=1)
    if field is not None:
        if field not in ("R", "C"):
            raise ValueError(f"field must be 'R' or 'C', got {field!r}")
        if field == "R" and imaginary.any():
            raise ValueError("field 'R' matrix has nonzero imaginary entries")
        imaginary[:] = field == "C"
    real = iter(arr[~imaginary].real.reshape(-1, rows * cols).tolist())
    pairs = iter(_re_im_pairs(arr[imaginary]))
    return [{"rows": rows, "cols": cols, "field": "C", "data": next(pairs)} if imag
            else {"rows": rows, "cols": cols, "field": "R", "data": next(real)}
            for imag in imaginary.tolist()]


def _entry(value, field: str, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if isinstance(value, list) and 1 <= len(value) <= 2:
        re = _as_number(value[0], f"{path}[0]")
        im = _as_number(value[1], f"{path}[1]") if len(value) == 2 else 0.0
        if field == "R" and im != 0.0:
            raise SchemaError(path, "field 'R' entry has nonzero imaginary part")
        return complex(re, im)
    raise SchemaError(path, f"expected a number or [re, im] pair, got {value!r}")


_NUMBER_TYPES = {int, float}


def _uniform_entries(data: list, field: str) -> np.ndarray | None:
    """The entries as a complex vector when all are plain numbers or all
    are valid [re, im] pairs, else None: the caller then parses entry by
    entry, which names the first bad one.  Exact types keep bool and str
    out; the values are those of complex(re, im)."""
    kinds = set(map(type, data))
    if kinds <= _NUMBER_TYPES:
        return np.array(data, dtype=np.float64).astype(np.complex128)
    if kinds == {list} and set(map(len, data)) == {2}:
        flat = list(chain.from_iterable(data))
        if set(map(type, flat)) <= _NUMBER_TYPES:
            arr = np.array(flat, dtype=np.float64).view(np.complex128)
            if field == "C" or not arr.imag.any():
                return arr
    return None


def matrix_from_json(doc, path: str = "matrix") -> np.ndarray:
    """The matrix of a matrix document: float64 for field "R", complex128 for "C"."""
    rows = _as_dim(_need(doc, "rows", path), f"{path}.rows")
    cols = _as_dim(_need(doc, "cols", path), f"{path}.cols")
    fld = _need(doc, "field", path)
    if fld not in ("R", "C"):
        raise SchemaError(f"{path}.field", f"must be 'R' or 'C', got {fld!r}")
    data = _need(doc, "data", path)
    if not isinstance(data, list) or len(data) != rows * cols:
        raise SchemaError(f"{path}.data",
                          f"expected {rows * cols} row-major entries")
    arr = _uniform_entries(data, fld)
    if arr is None:
        arr = np.array([_entry(v, fld, f"{path}.data[{i}]") for i, v in enumerate(data)],
                       dtype=np.complex128)
    arr = arr.reshape(rows, cols)
    finite = np.isfinite(arr)
    if not finite.all():
        bad = int(np.argmin(finite.ravel()))
        raise SchemaError(f"{path}.data[{bad}]", "non-finite number")
    return arr.real.copy() if fld == "R" else arr


def subset_from_json(raw, path: str = "F") -> np.ndarray:
    """The read-only complex (k, r, c) stack of a nonempty list of matrix
    documents of one shape (a set F, a span, a map's images).  One shape
    and field are decoded in one pass, as one kr x c document; else each
    entry alone, ``matrix_from_json`` naming a bad one, and then the first
    entry shaped unlike ``path[0]`` is rejected at its path."""
    if not isinstance(raw, list) or not raw:
        raise SchemaError(path, "expected a nonempty list of matrices")
    mats = None
    try:
        ((rtype, rows, cols, field),) = {(type(d["rows"]), d["rows"], d["cols"], d["field"])
                                         for d in raw}
        if rtype is int and {(type(d["data"]), len(d["data"])) for d in raw} == {
                (list, rows * cols)}:
            mats = matrix_from_json({"rows": len(raw) * rows, "cols": cols, "field": field,
                                     "data": list(chain.from_iterable(d["data"] for d in raw))}
                                    ).reshape(len(raw), rows, cols)
    except (KeyError, TypeError, ValueError, OverflowError):    # SchemaError is a ValueError
        pass
    if mats is None:
        mats = [matrix_from_json(d, f"{path}[{i}]") for i, d in enumerate(raw)]
        if i := next((i for i, m in enumerate(mats) if m.shape != mats[0].shape), 0):
            raise SchemaError(f"{path}[{i}]",
                              f"expected the shape {mats[0].shape} of {path}[0], got {mats[i].shape}")
    stack = np.array(mats, dtype=np.complex128)
    stack.setflags(write=False)
    return stack


def _b_list_from_json(raw, path: str = "b_list") -> list:
    """The complex matrices of a nonempty list of matrix documents of any
    shapes (``nuclear-verify --b-list``: compressions may differ in width),
    each decoded on its own.  Private, as ``_matrices_to_json`` is."""
    if not isinstance(raw, list) or not raw:
        raise SchemaError(path, "expected a nonempty list of matrices")
    return [matrix_from_json(b, f"{path}[{i}]").astype(np.complex128)
            for i, b in enumerate(raw)]


# -- linear maps --------------------------------------------------------------


def map_to_json(phi: LinearMapMat) -> dict:
    doc = {
        "dom": phi.dom_dim,
        "cod": phi.cod_dim,
        "linearity": phi.linearity,
        "images": _matrices_to_json(phi.images, phi.cod_field),
        "cod_field": phi.cod_field,
    }
    if phi.dom_field == REAL:
        doc["dom_field"] = REAL
    return doc


def map_from_json(doc, path: str = "map") -> LinearMapMat:
    dom = _as_dim(_need(doc, "dom", path), f"{path}.dom")
    cod = _as_dim(_need(doc, "cod", path), f"{path}.cod")
    lin = _need(doc, "linearity", path)
    if lin not in (COMPLEX, REAL):
        raise SchemaError(f"{path}.linearity", f"must be 'C' or 'R', got {lin!r}")
    dom_field = doc.get("dom_field", COMPLEX)
    if dom_field not in (COMPLEX, REAL):
        raise SchemaError(f"{path}.dom_field", "must be 'C' or 'R'")
    if lin == COMPLEX and dom_field == REAL:
        raise SchemaError(f"{path}.dom_field",
                          "complex-linear maps need a complex domain")
    raw = _need(doc, "images", path)
    size = basis_size(dom, lin, dom_field)
    if not isinstance(raw, list) or len(raw) != size:
        raise SchemaError(f"{path}.images",
                          f"expected {size} images in basis order")
    images = subset_from_json(raw, f"{path}.images")
    if images.shape[1:] != (cod, cod):
        raise SchemaError(f"{path}.images[0]",
                          f"expected a {cod}x{cod} matrix, got {images.shape[1:]}")
    imaginary = images.imag.ravel() != 0
    has_imag = imaginary.any()
    cod_field = doc.get("cod_field")
    if cod_field is None:
        cod_field = COMPLEX if has_imag else REAL
    if cod_field not in (COMPLEX, REAL):
        raise SchemaError(f"{path}.cod_field", "must be 'C' or 'R'")
    if cod_field == REAL and has_imag:
        i, entry = divmod(int(np.argmax(imaginary)), cod * cod)
        raise SchemaError(f"{path}.images[{i}].data[{entry}]",
                          "cod_field 'R' map has a nonzero imaginary part")
    return LinearMapMat(dom, cod, lin, images, dom_field, cod_field)


# -- algebras, antiautomorphisms, ideals --------------------------------------


def algebra_to_json(a: StarAlgebra) -> dict:
    return {"n": a.n, "span": _matrices_to_json(a.span), "unital": bool(a.unital)}


def algebra_from_json(doc, path: str = "algebra") -> StarAlgebra:
    n = _as_dim(_need(doc, "n", path), f"{path}.n")
    span = subset_from_json(_need(doc, "span", path), f"{path}.span")
    if not span.any():
        raise SchemaError(f"{path}.span", "span is zero")
    unital = _need(doc, "unital", path)
    if not isinstance(unital, bool):
        raise SchemaError(f"{path}.unital", "expected a boolean")
    try:
        return StarAlgebra(n, span, unital)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def anti_to_json(anti: AntiAutomorphism) -> dict:
    return {"u": matrix_to_json(anti.u)}


def anti_from_json(doc, path: str = "phi", validate: bool = True) -> AntiAutomorphism:
    u = matrix_from_json(_need(doc, "u", path), f"{path}.u")
    try:
        return AntiAutomorphism(u, validate=validate)
    except ValueError as exc:
        raise SchemaError(f"{path}.u", str(exc)) from exc


def ideal_from_json(doc, path: str = "ideal") -> IdealPresentation:
    b = algebra_from_json(_need(doc, "B", path), f"{path}.B")
    raw = _need(doc, "ideal_blocks", path)
    if not isinstance(raw, list):
        raise SchemaError(f"{path}.ideal_blocks", "expected a list of block indices")
    blocks = [_as_int(v, f"{path}.ideal_blocks[{i}]") for i, v in enumerate(raw)]
    try:
        return IdealPresentation(b, blocks)
    except ValueError as exc:
        raise SchemaError(f"{path}.ideal_blocks", str(exc)) from exc


# -- certificates and trace witnesses ------------------------------------------


def cert_to_json(cert: QDCertificate) -> dict:
    doc = {
        "algebra": algebra_to_json(cert.algebra),
        "phi_map": map_to_json(cert.phi),
        "F": _matrices_to_json(cert.subset.elements),
        "epsilon": cert.epsilon,
        "norm_mode": cert.norm_mode,
    }
    if cert.subset.labels is not None:
        doc["labels"] = list(cert.subset.labels)
    if cert.anti is not None:
        doc["anti"] = anti_to_json(cert.anti)
    return doc


def cert_from_json(doc, path: str = "certificate") -> QDCertificate:
    algebra = algebra_from_json(_need(doc, "algebra", path), f"{path}.algebra")
    phi = map_from_json(_need(doc, "phi_map", path), f"{path}.phi_map")
    elements = subset_from_json(_need(doc, "F", path), f"{path}.F")
    epsilon = _as_number(_need(doc, "epsilon", path), f"{path}.epsilon")
    if not math.isfinite(epsilon):
        raise SchemaError(f"{path}.epsilon", "non-finite number")
    norm_mode = _need(doc, "norm_mode", path)
    if norm_mode not in NORM_MODES:
        raise SchemaError(f"{path}.norm_mode",
                          f"must be one of {', '.join(NORM_MODES)}")
    labels = doc.get("labels")
    if labels is not None and (not isinstance(labels, list)
                               or len(labels) != len(elements)):
        raise SchemaError(f"{path}.labels", "must match F in length")
    anti = None
    if "anti" in doc:
        anti = anti_from_json(doc["anti"], f"{path}.anti")
    try:
        subset = FiniteSubset(elements, labels or None)
        cert = QDCertificate(algebra, subset, phi, epsilon, norm_mode, anti)
        if algebra.unital and (d := phi.unitality_defect()) > 1e-9:
            raise ValueError(f"map is not unital: ||phi(1) - 1|| = {d:.3e}")
        return cert
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def trace_from_json(doc, path: str = "trace") -> TraceWitness:
    return TraceWitness(matrix_from_json(_need(doc, "gram", path), f"{path}.gram"))
