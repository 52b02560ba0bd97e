"""Smoke test of tools/diff_reports.py: the working tree against itself."""

import importlib.util
import io
import os
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "diff_reports", os.path.join(ROOT, "tools", "diff_reports.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _matches_itself(workload: str) -> None:
    tool = _tool()
    src = os.path.join(ROOT, "src")
    out = io.StringIO()
    assert tool.diff_reports(src, src, workloads=(workload,), seeds=(1,), out=out) == 0
    lines = out.getvalue().splitlines()
    assert lines[-1].endswith(" identical, 0 differ, 0 oracle problems")
    assert len(lines) > 1 and all(line.startswith(f"same  {workload}/seed1/")
                                  for line in lines[:-1])


def test_working_tree_matches_itself_on_seed_one_maps():
    _matches_itself("maps")


def test_working_tree_matches_itself_on_seed_one_certs():
    # The certs documents hold every subcommand that takes --seed, the
    # lemma audits among them; none draws from it.
    _matches_itself("certs")


def test_max_float_diff():
    diff = _tool().max_float_diff
    assert diff({"a": [1.0, 2]}, {"a": [1.5, 2]}) == 0.5
    assert diff({"a": 1.0}, {"b": 1.0}) is None
    assert diff([1.0, "x"], [1.0, "y"]) is None
    assert diff([True], [1]) is None


def test_integer_and_float_spellings_differ_in_bytes_but_not_in_value():
    tool = _tool()
    assert tool.max_float_diff({"a": 1}, {"a": 1.0}) == 0.0
    docs = [("one", []), ("exit", []), ("same", [])]
    base = {"one": [0, '{"a":1}\n', ""], "exit": [0, '{"a":1}\n', ""], "same": [1, "{}\n", ""]}
    new = {"one": [0, '{"a":1.0}\n', ""], "exit": [1, '{"a":1.0}\n', ""],
           "same": [1, "{}\n", ""]}
    differ, lines = tool.compare(base, new, docs)
    assert differ == 2
    assert lines[0] == "DIFF  one  exit 0 -> 0, stdout differs: max float difference 0.000e+00"
    assert lines[-1] == ("3 documents, 1 of the differing ones equal in exit code and value: "
                         "1 identical, 2 differ")


def test_a_structure_change_names_the_first_differing_path():
    tool = _tool()
    first = tool.first_difference
    assert first({"a": 1, "b": [1.0]}, {"a": 1, "b": [2.0]}) is None
    assert first({"r": {"x": 1.0}}, {"r": {"x": 1.0}, "provenance": {}}) == "provenance added"
    assert first({"r": {"x": 1.0, "y": "s"}}, {"r": {"x": 1.0}}) == "r.y removed"
    assert first({"r": [1.0, "s"]}, {"r": [1.0, "t"]}) == "r[1] changed"
    assert first({"r": [1.0]}, {"r": [1.0, 2.0]}) == "r[1] added"
    assert first([True], [1]) == "[0] changed"
    docs = [("choi", []), ("exit", []), ("text", [])]
    base = {"choi": [0, '{"c":1.0}\n', ""], "exit": [0, '{"c":1.0}\n', ""],
            "text": [0, "{}\n", ""]}
    new = {"choi": [0, '{"c":1.0,"provenance":{"tol":1e-9}}\n', ""],
           "exit": [2, "", "error: x\n"], "text": [0, '{"c":true}\n', ""]}
    differ, lines = tool.compare(base, new, docs)
    assert differ == 3
    assert lines[:3] == ["DIFF  choi  exit 0 -> 0, stdout differs: provenance added",
                         "DIFF  exit  exit 0 -> 2, stdout differs: not both JSON, stderr differs",
                         "DIFF  text  exit 0 -> 0, stdout differs: c added"]
    assert lines[-1] == ("3 documents, 0 of the differing ones equal in exit code and value: "
                         "0 identical, 3 differ")


def test_a_stderr_change_alone_makes_a_document_differ():
    # A new diagnostic on a success path changes neither the exit code nor
    # the report, but the document still counts as differing.
    tool = _tool()
    docs = [("warn", []), ("same", [])]
    base = {"warn": [0, "{}\n", ""], "same": [2, "", "error: x\n"]}
    new = {"warn": [0, "{}\n", "note: slow path\n"], "same": [2, "", "error: x\n"]}
    differ, lines = tool.compare(base, new, docs)
    assert differ == 1
    assert lines == ["DIFF  warn  exit 0 -> 0, stderr differs", "same  same  exit 2",
                     "2 documents, 0 of the differing ones equal in exit code and value: "
                     "1 identical, 1 differ"]


def test_the_oracle_grades_each_report():
    tool = _tool()
    with tempfile.TemporaryDirectory() as tmp:
        classes = tool.build_documents(tmp, ("certs",), (1,))[:2]
    (first, cls), (second, _) = classes
    want = cls["expect"]["exit"]
    results = {first: [2, ""], second: [classes[1][1]["expect"]["exit"], "not json"]}
    assert tool.oracle_problems(classes, results) == [
        f"ORACLE  {first}  exit code 2, expected {want}",
        f"ORACLE  {second}  stdout is not one JSON report"]


def test_an_oracle_problem_fails_the_run(monkeypatch):
    tool = _tool()
    monkeypatch.setattr(tool, "oracle_problems", lambda classes, results: ["ORACLE  x  y"])
    src = os.path.join(ROOT, "src")
    out = io.StringIO()
    assert tool.diff_reports(src, src, workloads=("tensor",), seeds=(1,), out=out) == 1
    lines = out.getvalue().splitlines()
    assert lines[-2:] == ["ORACLE  x  y", lines[-1]]
    assert lines[-1].endswith(" identical, 0 differ, 1 oracle problems")
