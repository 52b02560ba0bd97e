"""Alternating pairs of benchmark runs: the working tree against a git revision.

    python3 tools/bench_pairs.py REV --workload W [--pairs N] [--seed S] [--seconds T]

Runs N pairs of ``bench/run.py`` (its frozen code, from the working tree):
in each pair one run with the working tree's ``src/`` and one with REV's
``src/``, extracted with ``git archive`` as ``tools/diff_reports.py``
does.  The side that runs first alternates from pair to pair, since the
first run after a pause can read slower on either tree.  For each
end-to-end metric of ``BENCHMARK.json`` it prints each side's median and
quartiles, the number of pairs the change won, and whether two rules
hold for a claimed gain: the change wins at least nine pairs in ten, and
its median is better than REV's by more than REV's interquartile range.
Below the table it names each metric whose median with the change is
worse than REV's by more than the metric's ``bound``, a relative change.
Incorrect runs are counted per side; exits 1 when a run fails or the
benchmark's oracle grades a run of the change incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from diff_reports import extract_src  # noqa: E402


def _end_to_end() -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def end_to_end_metrics() -> list[tuple[str, str]]:
    """(name, "lower" or "higher") of each end-to-end metric."""
    return [(m["name"], m["better"]) for m in _end_to_end()]


def end_to_end_bounds() -> dict[str, float]:
    """The bound of each end-to-end metric, a relative change."""
    return {m["name"]: m["bound"] for m in _end_to_end()}


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one ``bench/run.py`` run with root's src/."""
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py failed under {root}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(base: list[dict], new: list[dict], metrics) -> list[dict]:
    """Per metric: each side's quartiles, the pairs the change won, and the
    two rules.  ``base`` and ``new`` hold one {metric: value} per pair."""
    rows = []
    for name, better in metrics:
        a = np.array([run[name] for run in base])
        b = np.array([run[name] for run in new])
        sign = 1.0 if better == "lower" else -1.0
        qa, qb = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
        wins = int(np.sum(sign * (a - b) > 0))
        rows.append({"metric": name, "base": qa.tolist(), "new": qb.tolist(), "wins": wins,
                     "pairs": len(a), "nine_in_ten": 10 * wins >= 9 * len(a),
                     "beyond_iqr": bool(sign * (qa[1] - qb[1]) > qa[2] - qa[0])})
    return rows


def beyond_bounds(rows: list[dict], metrics, bounds: dict[str, float]) -> list[str]:
    """One line per metric whose change median is worse than the base
    median by more than its bound, as a share of the base median, or one
    line saying that none is."""
    better = dict(metrics)
    lines = []
    for r in rows:
        base, new = r["base"][1], r["new"][1]
        worse = (new - base if better[r["metric"]] == "lower" else base - new) / abs(base)
        if worse > bounds[r["metric"]]:
            lines.append(f"{r['metric']}: the change's median {new:.4g} is {100 * worse:.1f}% "
                         f"worse than {base:.4g}, beyond the bound of "
                         f"{100 * bounds[r['metric']]:g}%")
    return lines or ["no end-to-end median is worse than its bound"]


def format_rows(rows: list[dict], rev: str) -> list[str]:
    def q(v):
        return f"{v[1]:.4g} [{v[0]:.4g}, {v[2]:.4g}]"
    lines = [f"{'metric':16s} {rev + ' median [q1, q3]':30s} {'change median [q1, q3]':30s} "
             f"won    9/10  >IQR"]
    for r in rows:
        won = f"{r['wins']}/{r['pairs']}"
        lines.append(f"{r['metric']:16s} {q(r['base']):30s} {q(r['new']):30s} {won:6s} "
                     f"{'yes' if r['nine_in_ten'] else 'no':5s} "
                     f"{'yes' if r['beyond_iqr'] else 'no'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision whose src/ is the baseline")
    parser.add_argument("--workload", required=True, choices=("maps", "tensor", "certs"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    metrics = end_to_end_metrics()
    runs = {"base": [], "new": []}
    bad = {"base": 0, "new": 0}
    with tempfile.TemporaryDirectory() as tmp:
        extract_src(args.rev, tmp)
        for i in range(args.pairs):
            sides = [("base", tmp), ("new", ROOT)]
            for side, root in sides if i % 2 == 0 else sides[::-1]:
                try:
                    result = run_once(root, args.workload, args.seed, args.seconds)
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                bad[side] += not result["correct"]
                runs[side].append({k: result["metrics"][k]["value"] for k, _ in metrics})
            print(f"pair {i + 1}: " + ", ".join(
                f"{k} {runs['base'][-1][k]:.4g} -> {runs['new'][-1][k]:.4g}" for k, _ in metrics),
                file=sys.stderr)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s, "
          f"{args.rev} first in odd pairs, incorrect runs: {bad['base']} at {args.rev}, "
          f"{bad['new']} with the change")
    rows = summarize(runs["base"], runs["new"], metrics)
    for line in format_rows(rows, args.rev) + beyond_bounds(rows, metrics, end_to_end_bounds()):
        print(line)
    return 1 if bad["new"] else 0

if __name__ == "__main__":
    sys.exit(main())
