"""The exit-code contract under malformed input.

One seed-7 document class per subcommand of ``bench/gen.py`` (imported,
not changed) has each of its input files mutated at every object key and
at the first item of every list: the key is dropped, or its value is
replaced by null, a string, a bool, a 400-digit integer or a nested
list.  Location i takes mutations i and i + 3 of that list (mod 6), which
keeps the test to a few hundred runs.  Every run exits 0, 1 or 2; no
exit-2 message is an internal error, and each names the JSON path it
rejects unless its message is on ``NO_PATH``.
"""

import importlib.util
import json
import os
import re

from starlift.cli import cmd_dispatch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DROP = object()
MUTATIONS = (DROP, None, "x", True, 10 ** 400, [[0.0]])
# Messages about a property of the whole input rather than a field of it.
NO_PATH = ("trace witness is not tracial",)
NAMES_A_PATH = re.compile(r"error: [A-Za-z_]+(\.[A-Za-z_]+|\[\d+\])*: ")


def _classes(tmp_path) -> list[dict]:
    """The document class with the fewest input bytes of each subcommand
    that reads an input file, at seed 7."""
    spec = importlib.util.spec_from_file_location("bench_gen",
                                                  os.path.join(ROOT, "bench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    best = {}
    for workload in gen.WORKLOADS:
        where = tmp_path / workload
        where.mkdir()
        for cls in gen.build(workload, 7, str(where))["classes"]:
            files = [a for a in cls["argv"] if a.endswith(".json") and os.path.isfile(a)]
            size = sum(map(os.path.getsize, files))
            if files and size < best.get(cls["argv"][0], (size + 1,))[0]:
                best[cls["argv"][0]] = (size, cls["argv"], files)
    return [{"argv": argv, "files": files} for _, argv, files in best.values()]


def _locations(doc, path=()):
    """The path of the document, of each object value and of each list's
    first item, recursively."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _locations(value, path + (key,))
    elif isinstance(doc, list) and doc:
        yield from _locations(doc[0], path + (0,))


def _mutated(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def test_malformed_inputs_exit_by_the_contract(tmp_path, capsys):
    runs, problems = 0, []
    for cls in _classes(tmp_path):
        for name in cls["files"]:
            with open(name) as fh:
                doc = json.load(fh)
            for i, path in enumerate(_locations(doc)):
                for value in (MUTATIONS[i % 6], MUTATIONS[(i + 3) % 6]):
                    if value is DROP and not (path and isinstance(path[-1], str)):
                        continue
                    bad = tmp_path / "bad.json"
                    bad.write_text(json.dumps(_mutated(doc, path, value)))
                    argv = [str(bad) if a == name else a for a in cls["argv"]]
                    code = cmd_dispatch(argv)
                    err = capsys.readouterr().err
                    runs += 1
                    ok = code in (0, 1) or (
                        code == 2 and not err.startswith("internal error")
                        and (NAMES_A_PATH.match(err) or any(m in err for m in NO_PATH)))
                    if not ok:
                        problems.append((argv[0], os.path.basename(name), path, value, code, err))
    assert 300 < runs < 700
    assert problems == []
