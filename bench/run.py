"""Benchmark for the starlift CLI.

    python3 bench/run.py --workload {maps,tensor,certs} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root.  It generates the workload's JSON
documents from the seed (``gen.py``), starts one fresh worker process
that sends them to ``starlift.cli.cmd_dispatch`` in a closed loop
(``worker.py``), checks every report (``oracle.py``) and prints each
metric by name and unit.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: throughput, latency
percentiles and CPU time per document (each document timed by the
fastest of its repeats in the run, see :func:`end_to_end`), peak RSS of
the worker, the share of documents that passed the oracle, and
``setup_s``, the median wall time of fresh ``python -m starlift.cli
--version`` processes: the cold start a CLI user pays on every call.
``--trace 1`` reports the per-layer metrics from spans taken around the
program's public functions (``spans.py``).

A results file with the environment, the mix and the metrics is written
to ``.bench_results/``; generated documents live in ``.bench_work/``
and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import gen
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))

# BLAS threads for the program under test.  One thread: at these matrix
# sizes a second OpenBLAS thread mostly spins, costing a second core and
# run-to-run noise without making documents faster.
BLAS_THREADS = 1
SETUP_SPAWNS = 15
# p90 needs at least ten documents beyond it.
MIN_DOCS = 100
# Latest start of a document inside the worker, seconds after it starts;
# keeps a run under its three-minute limit when the program slows down.
WORKER_DEADLINE_S = 120.0
WORKER_TIMEOUT_S = 160.0

END_TO_END = (("setup_s", "s"), ("docs_per_s", "1/s"), ("doc_p50_ms", "ms"),
              ("doc_p90_ms", "ms"), ("cpu_ms_per_doc", "ms"),
              ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))

# Coverage check: a traced document's outer wall time may exceed its
# root span by this share plus this many seconds of wrapper overhead.
COVERAGE_SHARE = 0.02
COVERAGE_ABS_S = 5e-4


def _env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("STARLIFT_TOL", None)
    return env


def measure_setup(root: str, env: dict, spawns: int) -> list[float]:
    """Wall times of fresh ``python -m starlift.cli --version`` processes."""
    times = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "starlift.cli", "--version"],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"starlift --version failed: {proc.stderr.strip()}")
    return times


def environment(root: str, seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"commit": commit, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "seed": seed}


def run_worker(root, env, work, manifest, seconds, trace, min_docs) -> dict:
    mpath = os.path.join(work, "manifest.json")
    with open(mpath, "w", encoding="utf-8") as fh:
        json.dump({"classes": [{k: c[k] for k in ("id", "subcommand", "argv")}
                               for c in manifest["classes"]],
                   "cycle": manifest["cycle"]}, fh)
    out = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--manifest", mpath,
           "--seconds", str(seconds), "--trace", str(trace),
           "--min-docs", str(min_docs), "--deadline", str(WORKER_DEADLINE_S),
           "--out", out]
    if trace:
        cmd += ["--spans", os.path.join(root, ".bench_results",
                                        f"{manifest['workload']}-spans.npz")]
    proc = subprocess.run(cmd, cwd=root, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def grade(manifest: dict, result: dict) -> tuple[int, dict]:
    """Failed attempts, and the oracle's problems per document class."""
    classes = {c["id"]: c for c in manifest["classes"]}
    problems = {}
    for cid, cls in classes.items():
        if cid not in result["outputs"]:
            continue
        p = oracle.check(cls, result["first_codes"][cid], result["outputs"][cid])
        if p:
            problems[cid] = p + [f"stderr: {result['errors'][cid].strip()[:300]}"]
    failed = 0
    differing: dict[str, int] = {}
    for cid, code, _, _, same in result["attempts"]:
        failed += code != classes[cid]["expect"]["exit"] or cid in problems or not same
        if not same:
            differing[cid] = differing.get(cid, 0) + 1
    for cid, n in differing.items():
        problems.setdefault(cid, []).append(f"stdout of {n} repeats differs from the first")
    return failed, problems


def end_to_end(result: dict, failed: int, setup: list[float]) -> dict:
    """End-to-end metrics of an untraced run.

    Every document is sent many times (whole cycles of the mix).  Each
    attempt is credited with its document's fastest wall and CPU time in
    the run: interference from other tenants of a shared machine only
    ever adds time, and best-of-repeats filters it out.  Latency
    percentiles and throughput are then taken over all attempts, so each
    document class counts with its weight in the mix.
    """
    attempts = result["attempts"]
    best_wall: dict[str, float] = {}
    best_cpu: dict[str, float] = {}
    for cid, _, wall, cpu, _ in attempts:
        best_wall[cid] = min(wall, best_wall.get(cid, wall))
        best_cpu[cid] = min(cpu, best_cpu.get(cid, cpu))
    lat = np.array([best_wall[a[0]] for a in attempts])
    cpu = np.array([best_cpu[a[0]] for a in attempts])
    return {
        "setup_s": statistics.median(setup),
        "docs_per_s": lat.size / float(lat.sum()),
        "doc_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "doc_p90_ms": float(np.percentile(lat, 90)) * 1e3,
        "cpu_ms_per_doc": float(cpu.mean()) * 1e3,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "ok_ratio": (lat.size - failed) / lat.size,
    }


def per_layer(result: dict, problems: dict) -> dict:
    """Counts from the first traced cycle (all cycles must agree), self
    times and overhead as medians over traced cycles."""
    passes = result["passes"]
    first = passes[0]["summary"]
    out = {}
    for key, value in first.items():
        if isinstance(value, int):
            if any(p["summary"][key] != value for p in passes[1:]):
                problems.setdefault("trace", []).append(f"{key} differs between cycles")
            out[key] = value
        else:
            out[key] = statistics.median(p["summary"][key] for p in passes)
    out["trace.overhead_ratio"] = statistics.median(p["overhead_ratio"] for p in passes)
    for p in passes:
        for i, (wall, self_sum, root, nroots) in enumerate(p["coverage"]):
            if nroots != 1 or abs(self_sum - root) > 1e-6 \
                    or wall - root > COVERAGE_SHARE * wall + COVERAGE_ABS_S:
                problems.setdefault("trace", []).append(
                    f"document {i}: self times cover {self_sum:.6f} s of "
                    f"{wall:.6f} s ({nroots} root spans)")
    return out


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("io.bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def bench(root: str, workload: str, seed: int, seconds: float, trace: int,
          min_docs: int = MIN_DOCS, spawns: int = SETUP_SPAWNS) -> dict:
    """One run; returns the results record (also written to .bench_results/).

    Raises RuntimeError when the program is missing or a process fails.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "starlift", "cli.py")):
        raise RuntimeError(f"no starlift sources under {src}; run from the repository root")
    env = _env(src)
    for d in (".bench_work", ".bench_results"):
        os.makedirs(os.path.join(root, d), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(root, ".bench_work"))
    try:
        # Cold starts are timed half before and half after the worker, so
        # their median spans the run rather than one moment of it.
        setup = [] if trace else measure_setup(root, env, spawns // 2)
        docs = os.path.join(work, "docs")
        os.mkdir(docs)
        manifest = gen.build(workload, seed, docs)
        result = run_worker(root, env, work, manifest, seconds, trace, min_docs)
        if not trace:
            setup += measure_setup(root, env, spawns - spawns // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not result["attempts"] or (trace and not result["passes"]):
        raise RuntimeError("the deadline passed before a whole cycle of the mix")
    failed, problems = grade(manifest, result)
    if trace:
        values = per_layer(result, problems)
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in values.items()}
    else:
        values = end_to_end(result, failed, setup)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    per_class: dict[str, list] = {}
    for cid, _, wall, *_ in result["attempts"]:
        per_class.setdefault(cid, []).append(wall)
    record = {
        "environment": environment(root, seed),
        "workload": workload, "seconds": seconds, "trace": trace,
        "mix": [{"id": c["id"], "subcommand": c["subcommand"], "size": c["size"],
                 "weight": c["weight"], "attempted": len(per_class.get(c["id"], [])),
                 "median_ms": statistics.median(per_class[c["id"]]) * 1e3
                 if c["id"] in per_class else None}
                for c in manifest["classes"]],
        "cycle_length": len(manifest["cycle"]),
        "setup_runs_s": setup,
        "correct": failed == 0 and not problems,
        "attempted": len(result["attempts"]), "failed": failed,
        "problems": problems, "metrics": metrics,
    }
    path = os.path.join(root, ".bench_results",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="starlift CLI benchmark")
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        rec = bench(os.getcwd(), args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for cid, p in rec["problems"].items():
        print(f"FAIL {cid}: {'; '.join(p)}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} attempted={rec['attempted']} "
          f"failed={rec['failed']} "
          f"subcommands={len({m['subcommand'] for m in rec['mix']})}")
    for k, m in rec["metrics"].items():
        print(f"{k:36s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
