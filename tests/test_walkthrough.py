"""The README walkthrough, in-process with relative paths, against a committed
record of its artifacts' digests.

The walk is the one CI's "CLI artifacts equal the base commit's" step runs,
without its service cascade: that artifact echoes the stub's port, which
changes from run to run. An artifact is digested in the form that step
compares: a CSV as its rows without ``wall_clock_ms``, a scenario through
``canonical_scenario_bytes`` and any other file byte for byte.

A change that moves an artifact on purpose rewrites the record with
``PYTHONPATH=src python tests/test_walkthrough.py`` and declares the move.
Before it rewrites the record, that command prints one line per artifact
whose digest moved, appeared or disappeared, such as ``moved:
classifier.json``: the list to declare.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from bugdedup import cli
from bugdedup.cascade import canonical_scenario_bytes

RECORD = Path(__file__).with_name("walkthrough_digests.json")

_DATA = ["--corpus", "corpus.jsonl", "--clusters", "clusters.json", "--manifest", "manifest.json"]
_LOGISTIC = ["--classifier-backend", "logistic", "--model", "classifier.json"]
_SCENARIO = ["--k", "10", "--seed", "1", "--dim", "128"]
_MODES = ("one-vs-all", "all-vs-all")
_METHODS = ("retrieval", "classification", "cascade")


def _bom_csv() -> None:
    """``corpus.jsonl`` written out as a CSV that starts with a byte order mark."""
    with open("corpus.jsonl", encoding="utf-8") as fh, \
            open("corpus.csv", "w", encoding="utf-8-sig", newline="") as out:
        writer = csv.DictWriter(out, ["bug_id", "title", "description", "dup_of"])
        writer.writeheader()
        writer.writerows(map(json.loads, fh))


def _steps() -> list:
    """The walk: each step a command line, or a callable that writes a file."""
    steps: list = [
        ["synth", "--clusters", "100", "--seed", "11", "--out", "corpus.jsonl"],
        ["synth", "--clusters", "40", "--mean-size", "2.5", "--topics", "7", "--independents", "9",
         "--seed", "4", "--out", "corpus_flags.jsonl"],
        _bom_csv,
        ["ingest", "--in", "corpus.csv", "--format", "csv", "--out", "ingested.jsonl"],
        ["cluster", "--corpus", "corpus.jsonl", "--out", "clusters.json"],
        ["split", "--clusters", "clusters.json", "--seed", "3", "--out", "manifest.json"],
        ["train-projection", *_DATA, "--seed", "5", "--dim", "128", "--dim-out", "32", "--epochs", "3",
         "--out", "projection.json"],
        ["train-classifier", *_DATA, "--seed", "5", "--dim", "128", "--epochs", "20",
         "--out", "classifier.json"],
        ["train-projection", *_DATA, "--seed", "6", "--dim", "128", "--dim-out", "16", "--epochs", "2",
         "--batch-size", "7", "--margin", "0.5", "--lr", "0.05", "--out", "projection_b7.json"],
        ["train-classifier", *_DATA, "--seed", "6", "--dim", "128", "--epochs", "5", "--batch-size", "5",
         "--lr", "0.3", "--out", "classifier_b5.json"],
        ["train-classifier", *_DATA, "--seed", "5", "--dim", "128", "--epochs", "20",
         "--threshold-step", "0.03", "--out", "classifier_s03.json"],
        ["eval-retrieval", *_DATA, "--dim", "128", "--out", "retrieval_tfidf.csv"],
        ["eval-retrieval", *_DATA, "--backend", "projection", "--projection", "projection.json",
         "--out", "retrieval_projection.csv"],
        ["eval-retrieval", *_DATA, "--dim", "128", "--k-list", "7,1,7,3,500", "--out", "retrieval_klist.csv"],
        ["eval-classification", *_DATA, "--dim", "128", "--backend", "logistic", "--model", "classifier.json",
         "--out", "classification_logistic.csv"],
        ["eval-classification", *_DATA, "--dim", "128", "--backend", "similarity",
         "--out", "classification_similarity.csv"],
    ]
    for mode in _MODES:
        steps += [
            ["run-cascade", *_DATA, "--mode", mode, "--method", method, *_SCENARIO, *_LOGISTIC,
             "--out", f"scen_{mode}_{method}.json"]
            for method in _METHODS
        ]
        # The inputs in the order a shell expands scen_<mode>_*.json.
        inputs = sorted(f"scen_{mode}_{method}.json" for method in _METHODS)
        steps.append(["report", "--in", *inputs, "--out", f"report_{mode}.csv"])
    for method in ("classification", "cascade"):
        steps += [
            ["run-cascade", *_DATA, "--mode", "all-vs-all", "--method", method, "--dedup-pairs",
             *_SCENARIO, *_LOGISTIC, "--out", f"scen_dedup_{method}.json"],
            ["run-cascade", *_DATA, "--mode", "one-vs-all", "--method", method, *_SCENARIO,
             "--classifier-backend", "similarity", "--out", f"scen_sim_{method}.json"],
        ]
    steps.append(["run-cascade", *_DATA, "--mode", "one-vs-all", "--method", "cascade",
                  "--exclude-independents", *_SCENARIO, *_LOGISTIC, "--out", "scen_excl_cascade.json"])
    return steps


def _form(path: Path) -> bytes:
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [{k: v for k, v in row.items() if k != "wall_clock_ms"} for row in csv.DictReader(fh)]
        return json.dumps(rows).encode("utf-8")
    if path.name.startswith("scen_") and not path.name.endswith(".config.json"):
        return canonical_scenario_bytes(json.loads(path.read_text(encoding="utf-8")))
    return path.read_bytes()


def walk(directory: Path) -> dict[str, str]:
    """Run the walk in ``directory``, which must be empty, and return the
    sha256 of each artifact's compared form, by file name."""
    here = Path.cwd()
    os.chdir(directory)
    try:
        for step in _steps():
            if callable(step):
                step()
                continue
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(step)
            assert code == 0, f"{step[0]} exited {code}: {err.getvalue()}"
    finally:
        os.chdir(here)
    return {p.name: hashlib.sha256(_form(p)).hexdigest() for p in sorted(directory.iterdir())}


def moves(got: dict[str, str], want: dict[str, str]) -> dict[str, list[str]]:
    """The names whose digest differs between ``want``, the record, and
    ``got``: ``moved`` in both with other digests, ``appeared`` only in
    ``got``, ``disappeared`` only in ``want``."""
    return {
        "moved": sorted(name for name in got.keys() & want.keys() if got[name] != want[name]),
        "appeared": sorted(got.keys() - want.keys()),
        "disappeared": sorted(want.keys() - got.keys()),
    }


def test_the_walkthrough_artifacts_equal_the_record(tmp_path):
    differ = moves(walk(tmp_path), json.loads(RECORD.read_text(encoding="utf-8")))
    assert not any(differ.values()), f"walkthrough artifacts differ from {RECORD.name}: {differ}"


def test_moves_names_each_kind_of_change():
    want = {"a": "1", "b": "2", "c": "3"}
    got = {"a": "1", "b": "9", "d": "4"}
    assert moves(got, want) == {"moved": ["b"], "appeared": ["d"], "disappeared": ["c"]}
    assert moves(want, want) == {"moved": [], "appeared": [], "disappeared": []}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        digests = walk(Path(directory))
    old = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.exists() else {}
    for kind, names in moves(digests, old).items():
        for name in names:
            print(f"{kind}: {name}")
    RECORD.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{RECORD}: {len(digests)} artifacts", file=sys.stderr)
