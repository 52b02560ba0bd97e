"""Span recorder for the traced benchmark run.

Spans are taken from outside the program: every public function of the
``starlift`` layer modules, a few named methods, and the ``numpy.linalg``
entry points the program calls are replaced by timing wrappers.  Modules
import helpers by name (``from .matrix import op_norm``), so a wrapper
replaces the binding in every ``starlift`` module that holds the
function; :func:`Recorder.install` then checks that no module still
holds an unwrapped target.

Spans live in flat in-memory arrays (name, start, end, parent, document)
and are written out only when the run ends.  A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested because the program is single-threaded Python.

``numpy.linalg.norm(a, 2)`` runs an SVD and is counted as one; ``pinv``
and ``matrix_rank`` call numpy's internal ``svd`` binding, which is not
the patched package attribute, so their SVDs are not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "io", "realform", "cpmaps", "transport", "certify",
          "tensorexact", "subspace", "matrix")

# Methods timed besides the module-level functions (layer, class, name).
METHODS = (
    ("cpmaps", "LinearMapMat", "apply"),
    ("cpmaps", "LinearMapMat", "from_function"),
    ("cpmaps", "LinearMapMat", "unitality_defect"),
    ("realform", "AntiAutomorphism", "apply"),
    ("realform", "StarAlgebra", "contains_residual"),
    ("realform", "StarAlgebra", "__post_init__"),
    ("transport", "RealifiedMap", "apply"),
    ("transport", "RealifiedMap", "as_linear_map"),
    ("tensorexact", "IdealPresentation", "validate"),
    ("certify", "TraceWitness", "traciality_residual"),
)

LINALG = ("svd", "eigh", "eigvalsh", "pinv", "norm", "matrix_rank", "qr")
_SVD_NORM_ORDS = (2, -2, "nuc")

ROOT = "cli.cmd_dispatch"

# Per-layer metrics: (kind, span names).  "self" sums self time in
# seconds, "calls" counts spans; counters come from ``Recorder.counts``.
SPAN_METRICS = {
    "cpmaps.apply_calls": ("calls", ("cpmaps.LinearMapMat.apply",)),
    "cpmaps.apply_s": ("self", ("cpmaps.LinearMapMat.apply",)),
    "cpmaps.tabulate_s": ("self", ("cpmaps.LinearMapMat.from_function",)),
    "cpmaps.choi_s": ("self", ("cpmaps.choi", "cpmaps.cp_defect")),
    "cpmaps.compose_s": ("self", ("cpmaps.compose",)),
    "cpmaps.cp_real_probe_s": ("self", ("cpmaps.cp_defect_real_report",
                                        "cpmaps.block_apply")),
    "matrix.op_norm_calls": ("calls", ("matrix.op_norm",)),
    "matrix.op_norm_s": ("self", ("matrix.op_norm",)),
    "matrix.positivity_defect_s": ("self", ("matrix.positivity_defect",)),
    "realform.algebra_validate_s": ("self", ("realform.StarAlgebra.__post_init__",)),
    "realform.contains_residual_calls": ("calls", ("realform.StarAlgebra.contains_residual",)),
    "realform.contains_residual_s": ("self", ("realform.StarAlgebra.contains_residual",)),
    "realform.real_form_basis_s": ("self", ("realform.real_form_basis",)),
    "tensorexact.min_tensor_s": ("self", ("tensorexact.min_tensor",)),
    "tensorexact.fubini_s": ("self", ("tensorexact.fubini", "tensorexact.fubini_check")),
    "tensorexact.span_rows_s": ("self", ("tensorexact.tensor_span_rows",)),
    "tensorexact.quotient_kernel_s": ("self", ("tensorexact.quotient_kernel_rows",)),
    "subspace.orth_calls": ("calls", ("subspace.orth_rows", "subspace.complex_orth_basis")),
    "subspace.kernel_rows_s": ("self", ("subspace.kernel_rows",)),
    "subspace.angle_s": ("self", ("subspace.max_principal_angle",
                                  "subspace.subspaces_equal")),
    "certify.qd_verify_s": ("self", ("certify.qd_verify",)),
    "certify.qd_transport_s": ("self", ("certify.qd_complexify", "certify.qd_realify")),
    "certify.trace_s": ("self", ("certify.trace_qd_verify", "certify.trace_transport")),
    "certify.nuclear_s": ("self", ("certify.nuclear_witness_verify",)),
    "certify.audit_s": ("self", ("certify.lemma_audit",)),
    "transport.factorization_s": ("self", ("transport.transport_factorization",)),
    "transport.realified_apply_calls": ("calls", ("transport.RealifiedMap.apply",)),
    "cli.dispatch_self_s": ("self", (ROOT,)),
    "io.parse_s": ("self", ("io.load_json",) + tuple(
        f"io.{kind}_from_json" for kind in ("matrix", "map", "algebra", "anti", "ideal",
                                             "subset", "cert", "trace"))),
    "io.dump_s": ("self", ("io.canonical_dumps", "io.save_canonical") + tuple(
        f"io.{kind}_to_json" for kind in ("matrix", "map", "algebra", "anti", "ideal",
                                           "cert", "trace"))),
}
COUNTERS = ("linalg.svd_calls", "linalg.svd_elems", "linalg.pinv_calls",
            "linalg.eigh_calls", "linalg.eigh_elems", "io.bytes_in",
            "io.bytes_out")


class Recorder:
    """Owns the span arrays and the installed wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.doc = array("i")
        self.counts: Counter = Counter()
        self.current_doc = -1
        self._stack = [-1]
        self._restore: list = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, count=None, after=None):
        nid = self._name_id(name)
        rec = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec._stack[-1])
            rec.doc.append(rec.current_doc)
            rec.end.append(0.0)
            rec._stack.append(idx)
            if count is not None:
                count(rec.counts, args, kwargs)
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                rec._stack.pop()
            if after is not None:
                after(rec.counts, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def span_count(self) -> int:
        return len(self.start)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it wherever ``starlift`` holds it."""
        targets: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"starlift.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    targets[id(obj)] = (obj, self._wrap(name, obj, *_IO_COUNT.get(name, ())))
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"starlift.{layer}"), cls_name)
            raw = cls.__dict__[meth]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._wrap(f"{layer}.{cls_name}.{meth}", fn)
            new = classmethod(wrapped) if isinstance(raw, classmethod) else wrapped
            setattr(cls, meth, new)
            self._restore.append((cls, meth, raw))
        for mod in _starlift_modules():
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))
        linalg = np.linalg
        for attr in LINALG:
            orig = getattr(linalg, attr)
            setattr(linalg, attr, self._wrap(f"linalg.{attr}", orig, _LINALG_COUNT[attr]))
            self._restore.append((linalg, attr, orig))
        escaped = _held_elsewhere({id(orig) for orig, _ in targets.values()})
        if escaped:
            self.uninstall()
            raise RuntimeError(f"calls would escape the trace through {escaped}")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- aggregation ----------------------------------------------------------

    def arrays(self) -> dict:
        """The spans as numpy arrays; ``parent`` and ``name`` index into
        the spans and into ``names``."""
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "doc": np.array(self.doc, dtype=np.int32),
        }


def self_times(spans: dict) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    par = spans["parent"]
    child = par >= 0
    covered = np.bincount(par[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def summarize(spans: dict, counts: Counter) -> dict:
    """Per-layer metrics for one traced pass."""
    names = list(spans["names"])
    self_t = self_times(spans)
    nid = spans["name"]
    per_name_self = np.bincount(nid, weights=self_t, minlength=len(names))
    per_name_calls = np.bincount(nid, minlength=len(names))
    index = {n: i for i, n in enumerate(names)}

    def total(which, group):
        arr = per_name_self if which == "self" else per_name_calls
        return sum(arr[index[n]] for n in group if n in index)

    out = {}
    for metric, (kind, group) in SPAN_METRICS.items():
        v = total(kind, group)
        out[metric] = float(v) if kind == "self" else int(v)
    for layer in LAYERS + ("linalg",):
        out[f"{layer}.self_s"] = float(total("self", [n for n in names
                                                     if n.startswith(layer + ".")]))
    for key in COUNTERS:
        out[key] = int(counts.get(key, 0))
    return out


def doc_coverage(spans: dict) -> dict:
    """Per document: summed self time of all its spans, the root span's
    duration and the number of spans without a parent.  The first two
    agree, with one parentless span, only if every span nests under the
    document's root."""
    self_t = self_times(spans)
    docs = spans["doc"]
    names = list(spans["names"])
    root_id = names.index(ROOT) if ROOT in names else -1
    out = {}
    for d in np.unique(docs):
        sel = docs == d
        roots = sel & (spans["name"] == root_id) & (spans["parent"] < 0)
        out[int(d)] = (float(self_t[sel].sum()),
                       float((spans["end"] - spans["start"])[roots].sum()),
                       int(np.count_nonzero(sel & (spans["parent"] < 0))))
    return out


def _held_elsewhere(originals: set) -> list:
    """Places other than module globals where ``starlift`` keeps a target
    function: module-level containers and default argument values."""
    found = []
    for mod in _starlift_modules():
        for attr, obj in vars(mod).items():
            held = ()
            if isinstance(obj, dict):
                held = obj.values()
            elif isinstance(obj, (list, tuple, set, frozenset)):
                held = obj
            elif inspect.isfunction(obj):
                held = (obj.__defaults__ or ()) + tuple((obj.__kwdefaults__ or {}).values())
            if any(id(item) in originals for item in held):
                found.append(f"{mod.__name__}.{attr}")
    return found


def _starlift_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "starlift" or name.startswith("starlift."))]


def _count_bytes_in(counts, args, kwargs):
    path = args[0] if args else kwargs.get("path")
    counts["io.bytes_in"] += os.path.getsize(path)


def _count_bytes_out(counts, text):
    counts["io.bytes_out"] += len(text)


_IO_COUNT = {"io.load_json": (_count_bytes_in, None),
             "io.canonical_dumps": (None, _count_bytes_out)}


def _first_array(args, kwargs, key="a"):
    a = args[0] if args else kwargs.get(key)
    return np.asarray(a)


def _count_svd(counts, args, kwargs):
    counts["linalg.svd_calls"] += 1
    counts["linalg.svd_elems"] += _first_array(args, kwargs).size


def _count_eigh(counts, args, kwargs):
    counts["linalg.eigh_calls"] += 1
    counts["linalg.eigh_elems"] += _first_array(args, kwargs).size


def _count_pinv(counts, args, kwargs):
    counts["linalg.pinv_calls"] += 1


def _count_norm(counts, args, kwargs):
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    x = _first_array(args, kwargs, "x")
    if x.ndim == 2 and kwargs.get("axis") is None and len(args) < 3 \
            and ord_ in _SVD_NORM_ORDS:
        _count_svd(counts, args, kwargs)


_LINALG_COUNT = {"svd": _count_svd, "eigh": _count_eigh, "eigvalsh": _count_eigh,
                 "pinv": _count_pinv, "norm": _count_norm,
                 "matrix_rank": _count_svd, "qr": None}
