"""Smoke test of tools/bench_record.py: one short cycle, schema only."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def _tool():
    spec = importlib.util.spec_from_file_location(
        "bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_record_schema(monkeypatch):
    tool = _tool()
    monkeypatch.setattr(tool, "REPEATS", 1)
    monkeypatch.setattr(tool, "RUN", {"seconds": 0, "min_docs": 1, "spawns": 1})
    rec, problems = tool.record("smoke")
    assert problems == {}
    assert rec["label"] == "smoke"
    assert rec["protocol"]["seed"] == 7 and rec["protocol"]["repeats"] == 1
    for key in ("commit", "python", "numpy", "blas", "blas_threads", "nproc", "src_dirty"):
        assert key in rec["environment"]
    assert sorted(rec["workloads"]) == sorted(w["name"] for w in BENCHMARK["workloads"])
    for data in rec["workloads"].values():
        e2e = data["end_to_end"]
        assert [(k, v["unit"]) for k, v in e2e.items()] == \
            [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
        for stats in e2e.values():
            assert len(stats["runs"]) == 1
            assert stats["q1"] <= stats["median"] <= stats["q3"]
        assert {m["name"] for m in BENCHMARK["per_layer"]} <= set(data["per_layer"])
        assert isinstance(data["per_layer"]["linalg.svd_calls"]["value"], int)
    json.dumps(rec)
