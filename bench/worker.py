"""Benchmark worker: one workload, one fresh process, one closed-loop client.

Sends the manifest's documents to ``starlift.cli.cmd_dispatch`` in
process, one after the other (the next document starts when the
previous one has returned), and records exit code, wall time, CPU time
and stdout per document.  Only the dispatch call is timed; comparing a
repeat's stdout with the first one happens outside that region.

Untraced mode repeats whole cycles of the mix until ``--seconds`` have
passed and at least ``--min-docs`` documents are done.  Traced mode
alternates an untraced and a traced cycle; counts come from each traced
cycle and must agree between cycles.

Run by ``run.py``; the result goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time

import numpy as np

import spans


class Client:
    """Runs documents and keeps the first stdout of each document class."""

    def __init__(self, classes: list[dict]):
        from starlift import cli
        self.cli = cli
        self.classes = {c["id"]: c for c in classes}
        self.outputs: dict[str, str] = {}
        self.errors: dict[str, str] = {}
        self.first_codes: dict[str, int] = {}

    def send(self, cid: str) -> tuple:
        """Run one document; returns (code, wall_s, cpu_s, same_as_first)."""
        argv = self.classes[cid]["argv"]
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            # Looked up on the module at each call, so a traced cycle goes
            # through the wrapped dispatch.
            code = self.cli.cmd_dispatch(argv)
        except Exception as exc:  # an escaped exception is a failed document
            code = -1
            print(f"uncaught {type(exc).__name__}: {exc}", file=err)
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            sys.stdout, sys.stderr = saved
        text = out.getvalue()
        first = self.outputs.setdefault(cid, text)
        self.errors.setdefault(cid, err.getvalue())
        self.first_codes.setdefault(cid, code)
        return code, wall, cpu, text == first

    def cycle(self, ids: list[str], attempts: list, deadline: float) -> bool:
        """Run one cycle; False if the deadline cut it short."""
        for cid in ids:
            if time.perf_counter() > deadline:
                return False
            attempts.append((cid, *self.send(cid)))
        return True


def warm_up(client: Client, classes: list[dict]) -> None:
    """First class of each subcommand once: imports and lazy set-up."""
    seen = set()
    for c in classes:
        if c["subcommand"] not in seen:
            seen.add(c["subcommand"])
            client.send(c["id"])


def run_untraced(client, cycle, seconds, min_docs, deadline) -> dict:
    attempts: list = []
    t0 = time.perf_counter()
    while client.cycle(cycle, attempts, deadline):
        if time.perf_counter() - t0 >= seconds and len(attempts) >= min_docs:
            break
    return {"attempts": attempts}


def run_traced(client, cycle, seconds, deadline, spans_path) -> dict:
    attempts: list = []
    passes = []
    t0 = time.perf_counter()
    last_pair = 0.0
    rec = None
    while not passes or time.perf_counter() - t0 + last_pair <= seconds:
        start = time.perf_counter()
        plain: list = []
        if not client.cycle(cycle, plain, deadline):
            attempts.extend(plain)
            break
        rec = spans.Recorder()
        traced: list = []
        rec.install()
        try:
            for i, cid in enumerate(cycle):
                rec.current_doc = i
                traced.append((cid, *client.send(cid)))
        finally:
            rec.uninstall()
        attempts.extend(plain + traced)
        arrays = rec.arrays()
        summary = spans.summarize(arrays, rec.counts)
        untraced_wall = sum(a[2] for a in plain)
        traced_wall = sum(a[2] for a in traced)
        passes.append({
            "summary": summary,
            "overhead_ratio": traced_wall / untraced_wall,
            "coverage": _coverage(arrays, traced),
            "spans": rec.span_count(),
        })
        last_pair = time.perf_counter() - start
        if time.perf_counter() > deadline:
            break
    if rec is not None and spans_path:
        np.savez(spans_path, **rec.arrays())
    return {"attempts": attempts, "passes": passes}


def _coverage(arrays: dict, traced: list) -> list:
    """Per traced document: (outer wall, summed self time, root duration,
    number of root spans)."""
    cov = spans.doc_coverage(arrays)
    out = []
    for i, (_, _, wall, _, _) in enumerate(traced):
        self_sum, root, nroots = cov.get(i, (0.0, 0.0, 0))
        out.append((wall, self_sum, root, nroots))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-docs", type=int, default=100)
    ap.add_argument("--deadline", type=float, default=140.0,
                    help="start no document after this many seconds")
    ap.add_argument("--spans", help="write the last traced cycle's spans here (.npz)")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    client = Client(manifest["classes"])
    warm_up(client, manifest["classes"])
    deadline = start + args.deadline
    if args.trace:
        result = run_traced(client, manifest["cycle"], args.seconds, deadline,
                            args.spans)
    else:
        result = run_untraced(client, manifest["cycle"], args.seconds,
                              args.min_docs, deadline)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["outputs"] = client.outputs
    result["errors"] = client.errors
    result["first_codes"] = client.first_codes
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
