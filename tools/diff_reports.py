"""Compare the CLI reports of the working tree with those of a git revision.

    python3 tools/diff_reports.py REV [--seeds 1 2 3]

Builds every ``maps``, ``tensor`` and ``certs`` document that
``bench/gen.py`` makes for each seed and runs each document's argv through
``starlift.cli.cmd_dispatch`` twice: once with the working tree's ``src/``
and once with REV's ``src/``, extracted with ``git archive`` into a
temporary directory.  Each side runs all documents in one subprocess with
one BLAS thread, so the two sides differ only in their source.  For each
document it prints whether the exit code, the stdout bytes and the stderr
text match.  When the stdout bytes differ it prints the largest difference
between corresponding floats, or, if the reports differ in more than float
values, the first JSON path at which they do (``provenance added``, say).
The summary also counts the differing documents whose exit codes match
and whose reports parse to equal values, as after a change of float
spelling.  Each working-tree report is also graded by the benchmark's
correctness oracle, ``bench/oracle.py`` (imported, not changed): each
problem it finds is printed, and the summary line ends with their count.
Exits 0 iff every document matches byte for byte, stderr included, and
the oracle finds no problem.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("maps", "tensor", "certs")

# Runs in each side's subprocess: reads [[name, argv], ...] on stdin and
# writes {"module": ..., "results": {name: [code, stdout, stderr]}} to stdout.
_SIDE = r"""
import contextlib, io, json, sys
import starlift
from starlift import cli
results = {}
for name, argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.cmd_dispatch(argv)
        except Exception as exc:
            code, out = -1, io.StringIO(f"uncaught {type(exc).__name__}: {exc}")
    results[name] = [code, out.getvalue(), err.getvalue()]
json.dump({"module": starlift.__file__, "results": results}, sys.stdout)
"""


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(ROOT, "bench", f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def build_documents(outdir: str, workloads, seeds) -> list[tuple[str, dict]]:
    """(name, document class of the manifest) of every document of the
    workloads at the seeds."""
    gen = _load_bench("gen")
    docs = []
    for workload in workloads:
        for seed in seeds:
            where = os.path.join(outdir, f"{workload}-{seed}")
            os.makedirs(where)
            for cls in gen.build(workload, seed, where)["classes"]:
                docs.append((f"{workload}/seed{seed}/{cls['id']}", cls))
    return docs


def extract_src(rev: str, dest: str) -> str:
    """Write REV's src/ under dest with git archive; returns its path."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def run_side(src: str, docs, cwd: str) -> dict:
    """Exit code, stdout and stderr of each document, run with ``src`` on
    the path."""
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("STARLIFT_TOL", None)
    proc = subprocess.run([sys.executable, "-c", _SIDE], input=json.dumps(docs),
                          capture_output=True, text=True, env=env, cwd=cwd)
    if proc.returncode != 0:
        raise RuntimeError(f"side {src} failed:\n{proc.stderr}")
    side = json.loads(proc.stdout)
    if not os.path.realpath(side["module"]).startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"side {src} imported starlift from {side['module']}")
    return side["results"]


def max_float_diff(a, b) -> float | None:
    """Largest |x - y| over corresponding numbers of two JSON values, or
    None when their structure (keys, lengths, types, other values) differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        parts = [max_float_diff(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        parts = [max_float_diff(x, y) for x, y in zip(a, b)]
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        return abs(a - b)
    else:
        return 0.0 if type(a) is type(b) and a == b else None
    if any(p is None for p in parts):
        return None
    return max(parts, default=0.0)


def first_difference(a, b, path: str = "") -> str | None:
    """Where two JSON values first differ in structure or in a non-float
    value, keys in sorted order: "PATH added" or "PATH removed" when a key
    or list item exists on one side only, "PATH changed" otherwise.  None
    when they differ at most in the values of numbers."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            where = f"{path}.{key}" if path else key
            if key not in a:
                return f"{where} added"
            if key not in b:
                return f"{where} removed"
            found = first_difference(a[key], b[key], where)
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        if len(a) == len(b):
            return None
        return f"{path}[{min(len(a), len(b))}] " + ("added" if len(b) > len(a) else "removed")
    if max_float_diff(a, b) is not None:
        return None
    return f"{path or '(root)'} changed"


def compare(base: dict, new: dict, docs) -> tuple[int, list[str]]:
    """Number of documents that differ, and one report line per document
    followed by the summary line."""
    lines, differ, equal = [], 0, 0
    for name, _ in docs:
        (code_a, out_a, err_a), (code_b, out_b, err_b) = base[name], new[name]
        if base[name] == new[name]:
            lines.append(f"same  {name}  exit {code_a}")
            continue
        differ += 1
        note = f"exit {code_a} -> {code_b}"
        if out_a != out_b:
            try:
                doc_a, doc_b = json.loads(out_a), json.loads(out_b)
            except ValueError:
                what = "not both JSON"
            else:
                diff = max_float_diff(doc_a, doc_b)
                if code_a == code_b and diff == 0.0:
                    equal += 1
                what = (first_difference(doc_a, doc_b) if diff is None
                        else f"max float difference {diff:.3e}")
            note += ", stdout differs: " + what
        if err_a != err_b:
            note += ", stderr differs"
        lines.append(f"DIFF  {name}  {note}")
    lines.append(f"{len(docs)} documents, {equal} of the differing ones equal in exit code "
                 f"and value: {len(docs) - differ} identical, {differ} differ")
    return differ, lines


def oracle_problems(classes, results) -> list[str]:
    """One line per problem ``bench/oracle.py`` finds in a report."""
    check = _load_bench("oracle").check
    return [f"ORACLE  {name}  {problem}" for name, cls in classes
            for problem in check(cls, *results[name][:2])]


def diff_reports(base_src: str, new_src: str, workloads=WORKLOADS, seeds=(1, 2, 3),
                 out=None) -> int:
    """Print the comparison of the two source trees and the oracle's
    problems with the new one; 0 iff all documents match and none has one."""
    with tempfile.TemporaryDirectory() as tmp:
        classes = build_documents(tmp, workloads, seeds)
        docs = [(name, cls["argv"]) for name, cls in classes]
        base = run_side(base_src, docs, tmp)
        new = run_side(new_src, docs, tmp)
    differ, lines = compare(base, new, docs)
    problems = oracle_problems(classes, new)
    lines[-1:-1] = problems
    lines[-1] += f", {len(problems)} oracle problems"
    for line in lines:
        print(line, file=out)
    return 0 if differ == 0 and not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision whose src/ is the baseline")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        base_src = extract_src(args.rev, tmp)
        return diff_reports(base_src, os.path.join(ROOT, "src"), seeds=args.seeds)


if __name__ == "__main__":
    sys.exit(main())
