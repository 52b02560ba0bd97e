"""Record one point of the benchmark trajectory for the working tree.

    python3 tools/bench_record.py LABEL

Runs the ``maps``, ``tensor`` and ``certs`` workloads of ``bench/run.py``
at seed ``SEED``: ``REPEATS`` untraced runs of each, taken in alternating
order (maps, tensor, certs, maps, ...) so a slow phase of a shared machine
spreads over all three, then one traced run per workload.  Every run has
one BLAS thread (``bench/run.py`` sets it).  Writes ``BENCH_<LABEL>.json``
at the repository root with

- the median and quartiles (and the raw values) of every end-to-end
  metric,
- the per-layer counters and self times of the traced run,
- the git revision, whether ``src/`` differs from it, the numpy and BLAS
  versions and the CPU count.

Exits 1 without writing the file when any run fails the benchmark's
oracle, so a committed record always describes correct runs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import run  # noqa: E402

SEED = 7
WORKLOADS = ("maps", "tensor", "certs")
REPEATS = 5
# Arguments of each ``run.bench`` call: seconds of closed-loop load, the
# floor on documents per run and the cold-start spawns timed per run.
RUN = {"seconds": 10.0, "min_docs": run.MIN_DOCS, "spawns": run.SETUP_SPAWNS}


def _src_dirty() -> bool | None:
    """Whether src/ differs from the checked-out revision (None outside git)."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def _summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"unit": unit, "median": float(median), "q1": float(q1), "q3": float(q3),
            "runs": values}


def record(label: str) -> tuple[dict, dict]:
    """Run the benchmark; returns (the record, oracle problems by run)."""
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for _ in range(REPEATS):
        for workload in WORKLOADS:
            runs[workload].append(run.bench(ROOT, workload, SEED, trace=0, **RUN))
    traced = {w: run.bench(ROOT, w, SEED, trace=1, **RUN) for w in WORKLOADS}

    problems = {}
    workloads = {}
    for w in WORKLOADS:
        for i, rec in enumerate(runs[w] + [traced[w]]):
            if not rec["correct"]:
                problems[f"{w}/{'traced' if i == REPEATS else i}"] = rec["problems"]
        workloads[w] = {
            "end_to_end": {
                name: _summary([rec["metrics"][name]["value"] for rec in runs[w]], unit)
                for name, unit in run.END_TO_END},
            "per_layer": traced[w]["metrics"],
            "attempted": [rec["attempted"] for rec in runs[w]],
        }
    env = dict(traced[WORKLOADS[0]]["environment"])
    env.pop("seed")
    env["src_dirty"] = _src_dirty()
    return {
        "label": label,
        "environment": env,
        "protocol": {"seed": SEED, "repeats": REPEATS, "order": "alternating", **RUN},
        "workloads": workloads,
    }, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output file BENCH_<LABEL>.json")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("LABEL may hold only letters, digits, '.', '_' and '-'")
    rec, problems = record(args.label)
    if problems:
        for name, p in problems.items():
            print(f"FAIL {name}: {p}", file=sys.stderr)
        return 1
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for w, data in rec["workloads"].items():
        e2e = data["end_to_end"]
        print(f"{w:7s} docs_per_s {e2e['docs_per_s']['median']:8.2f} "
              f"[{e2e['docs_per_s']['q1']:.2f}, {e2e['docs_per_s']['q3']:.2f}]  "
              f"svd_calls {data['per_layer']['linalg.svd_calls']['value']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
