"""The names ``bench/spans.py`` times must name code that exists.

The span recorder wraps the public functions of each layer module and a
list of named methods.  A deleted method makes ``Recorder.install`` raise
``KeyError``; a deleted function is skipped without a warning, so every
per-layer metric that names only it reads 0.  This test reads
``bench/spans.py`` and does not change it.
"""

import importlib
import importlib.util
import inspect
import os

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Span names in SPAN_METRICS whose code is gone: ``io.save_canonical``
# went with the one serialization path, ``tensorexact.min_tensor`` with
# the leg frames, and ``io.ideal_to_json`` and ``io.trace_to_json``
# because no CLI path wrote those documents.  The metrics they feed keep
# their other names, except ``tensorexact.min_tensor_s``, which reads 0.
KNOWN_UNRESOLVED = {"io.save_canonical", "tensorexact.min_tensor",
                    "io.ideal_to_json", "io.trace_to_json"}


def _spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(ROOT, "bench", "spans.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolves(name: str) -> bool:
    """Whether the recorder would time the span ``name``: a public function
    defined in its layer module, or a method in its class's own dict."""
    layer, *attrs = name.split(".")
    mod = importlib.import_module(f"starlift.{layer}")
    if len(attrs) == 2:
        cls = vars(mod).get(attrs[0])
        return inspect.isclass(cls) and attrs[1] in cls.__dict__
    fn = vars(mod).get(attrs[0])
    return inspect.isfunction(fn) and fn.__module__ == mod.__name__


def test_every_timed_method_exists():
    spans = _spans()
    missing = [f"{layer}.{cls}.{meth}" for layer, cls, meth in spans.METHODS
               if not _resolves(f"{layer}.{cls}.{meth}")]
    assert missing == []


def test_unresolved_span_names_are_the_known_ones():
    spans = _spans()
    names = {name for _, group in spans.SPAN_METRICS.values() for name in group}
    assert {name for name in names if not _resolves(name)} == KNOWN_UNRESOLVED


def test_the_recorder_times_the_op_norm_screen():
    # op_norm and worst_op_norm, the threshold that screens validation
    # residuals, are public functions of ``matrix``, so the recorder wraps
    # them and rebinds them in every module that imported them.
    from starlift import matrix, realform, tensorexact

    raw = {name: getattr(matrix, name) for name in ("op_norm", "worst_op_norm")}
    rec = _spans().Recorder()
    rec.install()
    try:
        for mod, name in ((matrix, "op_norm"), (realform, "op_norm"),
                          (realform, "worst_op_norm"), (tensorexact, "worst_op_norm")):
            assert getattr(mod, name) is not raw[name]
            assert getattr(mod, name).__wrapped__ is raw[name]
        # span{1, X} is a proper subalgebra of M_2, so it is validated by
        # its products, not by its block structure, and op_norm measures
        # its identity residual.
        realform.StarAlgebra(2, (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])))
    finally:
        rec.uninstall()
    assert all(getattr(mod, name) is raw[name]
               for mod in (matrix, realform) for name in raw)
    for name in raw:
        assert rec.names.index(f"matrix.{name}") in rec.name    # a span was taken
