"""Tests of the benchmark itself: tiny runs, the oracle, the span recorder.

    python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SUBCOMMANDS = {"complexify", "realform", "choi", "cp-check", "transport",
               "qd-verify", "qd-transport", "trace-audit", "nuclear-verify",
               "fubini", "exactness", "lemma-audit"}


def _tiny(workload, trace, seed=3):
    """One cycle of the mix (one untraced and one traced cycle if traced)."""
    return run.bench(str(ROOT), workload, seed, seconds=0, trace=trace,
                     min_docs=1, spawns=1)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tiny_run_is_correct(workload):
    rec = _tiny(workload, trace=0)
    assert rec["problems"] == {}
    assert rec["correct"] and rec["failed"] == 0
    assert rec["attempted"] == rec["cycle_length"]
    metrics = rec["metrics"]
    assert [(k, m["unit"]) for k, m in metrics.items()] == _declared("end_to_end")
    assert metrics["ok_ratio"]["value"] == 1.0
    assert all(m["value"] > 0 for m in metrics.values())
    env = rec["environment"]
    for key in ("commit", "python", "numpy", "blas", "blas_threads", "nproc", "seed"):
        assert key in env


def test_mixes_cover_every_subcommand(tmp_path):
    seen = set()
    for workload in gen.WORKLOADS:
        (tmp_path / workload).mkdir()
        manifest = gen.build(workload, 5, str(tmp_path / workload))
        seen |= {c["subcommand"] for c in manifest["classes"]}
        assert sorted(manifest["cycle"]) == sorted(
            c["id"] for c in manifest["classes"] for _ in range(c["weight"]))
    assert seen == SUBCOMMANDS


def test_generator_is_deterministic(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = gen.build("certs", 9, str(tmp_path / "a"))
    b = gen.build("certs", 9, str(tmp_path / "b"))
    assert a["cycle"] == b["cycle"]
    files = 0
    for ca, cb in zip(a["classes"], b["classes"]):
        for fa, fb in zip(ca["argv"], cb["argv"]):
            if fa.endswith(".json"):
                files += 1
                assert Path(fa).read_bytes() == Path(fb).read_bytes()
    assert files > 0


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def test_traced_counts_repeat_and_tensor_makes_no_apply_calls():
    first = _tiny("certs", trace=1)
    second = _tiny("certs", trace=1)
    assert first["correct"] and second["correct"], first["problems"]
    assert [(k, m["unit"]) for k, m in first["metrics"].items()] == _declared("per_layer")
    counts = [k for k, m in first["metrics"].items()
              if k.endswith(("_calls", "_elems")) or k.startswith("io.bytes")]
    assert counts
    for k in counts:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k
    assert first["metrics"]["cpmaps.apply_calls"]["value"] > 0
    tensor = _tiny("tensor", trace=1)
    assert tensor["correct"], tensor["problems"]
    assert tensor["metrics"]["cpmaps.apply_calls"]["value"] == 0
    assert tensor["metrics"]["subspace.orth_calls"]["value"] > 0


def _report(workload, cid, tmp_path):
    """Run one generated document through the CLI in this process."""
    from starlift.cli import cmd_dispatch
    manifest = gen.build(workload, 4, str(tmp_path))
    cls = next(c for c in manifest["classes"] if c["id"] == cid)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cmd_dispatch(cls["argv"])
    return cls, code, buf.getvalue()


def test_oracle_accepts_true_reports_and_flags_altered_ones(tmp_path):
    cls, code, out = _report("maps", "cp-check/stinespring/n4", tmp_path)
    assert oracle.check(cls, code, out) == []
    doc = json.loads(out)
    doc["defect"] += 1e-6
    assert oracle.check(cls, code, json.dumps(doc))
    assert oracle.check(cls, 2, "")
    assert oracle.check(cls, 1, out)


def test_oracle_flags_frozen_audit_outcomes(tmp_path):
    cls, code, out = _report("certs", "lemma-audit/eqtr1_scale1", tmp_path)
    assert oracle.check(cls, code, out) == []
    doc = json.loads(out)
    doc["report"]["witness"]["ratio"] = 1.0
    assert any("ratio" in p for p in oracle.check(cls, code, json.dumps(doc)))


def test_grade_counts_non_identical_repeats():
    manifest = {"classes": [{"id": "x", "subcommand": "choi", "expect": {"exit": 0}}]}
    result = {"outputs": {}, "attempts": [["x", 0, 0.1, 0.1, True],
                                          ["x", 0, 0.1, 0.1, False],
                                          ["x", 2, 0.1, 0.1, True]]}
    failed, problems = run.grade(manifest, result)
    assert failed == 2
    assert problems["x"] == ["stdout of 1 repeats differs from the first"]


def test_recorder_rebinds_every_import_site_and_counts_linalg():
    import starlift.cpmaps
    import starlift.matrix
    original = starlift.matrix.op_norm
    rec = spans.Recorder()
    rec.install()
    try:
        assert starlift.cpmaps.op_norm is not original
        assert starlift.matrix.op_norm.__wrapped__ is original
        rec.current_doc = 0
        starlift.matrix.op_norm(np.eye(3))
        np.linalg.pinv(np.eye(4))
        np.linalg.norm(np.ones(5))
    finally:
        rec.uninstall()
    assert starlift.cpmaps.op_norm is original
    assert rec.counts["linalg.svd_calls"] == 1
    assert rec.counts["linalg.svd_elems"] == 9
    assert rec.counts["linalg.pinv_calls"] == 1
    arrays = rec.arrays()
    names = [arrays["names"][i] for i in arrays["name"]]
    assert names == ["matrix.op_norm", "matrix.as_array", "linalg.norm",
                     "linalg.pinv", "linalg.norm"]
    assert list(arrays["parent"]) == [-1, 0, 0, -1, -1]
    self_t = spans.self_times(arrays)
    dur = arrays["end"] - arrays["start"]
    assert self_t[0] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert self_t[3] == pytest.approx(dur[3])
