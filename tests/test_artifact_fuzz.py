"""No artifact read from disk ends in a traceback.

Each artifact of the README walkthrough that a command reads (one corpus
line, the clusters, the manifest, both model files and one scenario) is
mutated once per example: a key dropped, a value swapped for one of another
JSON type, a string swapped for an unknown enum value or an id that is in no
corpus, the file truncated or given bytes that are not UTF-8. A command that
reads it then runs in-process, and must exit 0, or exit 1 or 2 with one JSON
error that names the artifact's flag and its file.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback

import pytest
from hypothesis import given, settings, strategies as st

from bugdedup import cli

_DATA = ["--corpus", "{w}/corpus.jsonl", "--clusters", "{w}/clusters.json", "--manifest", "{w}/manifest.json"]
_MODEL = ["--model", "{w}/classifier.json"]
_CASCADE = ["run-cascade", *_DATA, "--mode", "one-vs-all", "--method", "cascade", "--k", "10", "--seed", "1",
            "--dim", "128", "--classifier-backend", "logistic", *_MODEL]

# Each artifact: the flag its readers take it by, and the commands that read
# it, with "{w}" for the walk's directory.
_READERS = {
    "corpus.jsonl": ("--corpus", [
        ["cluster", "--corpus", "{w}/corpus.jsonl"],
        ["eval-retrieval", *_DATA, "--dim", "128"],
        _CASCADE,
    ]),
    "clusters.json": ("--clusters", [
        ["split", "--clusters", "{w}/clusters.json", "--seed", "3"],
        ["eval-retrieval", *_DATA, "--dim", "128"],
        _CASCADE,
    ]),
    "manifest.json": ("--manifest", [
        ["eval-retrieval", *_DATA, "--dim", "128"],
        ["eval-classification", *_DATA, "--dim", "128", "--backend", "logistic", *_MODEL],
        _CASCADE,
    ]),
    "classifier.json": ("--model", [
        ["eval-classification", *_DATA, "--dim", "128", "--backend", "logistic", *_MODEL],
        _CASCADE,
    ]),
    "projection.json": ("--projection", [
        ["eval-retrieval", *_DATA, "--backend", "projection", "--projection", "{w}/projection.json"],
        ["run-cascade", *_DATA, "--mode", "all-vs-all", "--method", "retrieval", "--k", "5", "--seed", "1",
         "--embed-backend", "projection", "--projection", "{w}/projection.json"],
    ]),
    "scen_one-vs-all_cascade.json": ("--in", [["report", "--in", "{w}/scen_one-vs-all_cascade.json"]]),
}

# A value of each JSON type, for a swap to one of another type.
_VALUES = ("x", 1, 0.5, [1], {"x": 1}, None, True)


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def _entries(node, depth: int = 3, path: tuple = ()):
    """The path of every entry of ``node`` at most ``depth`` levels down:
    a key of an object or an index of a list at each level."""
    if depth == 0 or not isinstance(node, (dict, list)):
        return
    for key in node if isinstance(node, dict) else range(len(node)):
        yield path + (key,)
        yield from _entries(node[key], depth - 1, path + (key,))


def _at(node, path: tuple):
    """The container that holds ``path``'s entry, and its key there."""
    for key in path[:-1]:
        node = node[key]
    return node, path[-1]


@st.composite
def _mutated_json(draw, payload):
    """``payload``, a parsed JSON value, with one mutation, and what it was."""
    kind = draw(st.sampled_from(["drop", "swap", "enum", "unknown-id"]))
    paths = list(_entries(payload))
    if kind in ("enum", "unknown-id"):
        # A string value, or for an unknown id a key of an object too.
        paths = [p for p in paths if isinstance(_at(payload, p)[0][p[-1]], str)
                 or kind == "unknown-id" and isinstance(_at(payload, p)[0], dict)]
    # The depth first, so that the few top-level keys are drawn as often as
    # the many entries of a vocabulary or an assignment.
    depth = draw(st.sampled_from(sorted({len(p) for p in paths})))
    path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
    holder, key = _at(payload, path)
    if kind == "drop":
        del holder[key]
        return payload, f"drop {path}"
    if kind == "swap":
        value = draw(st.sampled_from([v for v in _VALUES if _json_type(v) != _json_type(holder[key])]))
    elif kind == "enum":
        value = "nope"
    else:
        value = draw(st.sampled_from(["zz404", "999"]))
        # An object's key is renamed to the id, or a string value set to it.
        if isinstance(holder, dict) and (not isinstance(holder[key], str) or draw(st.booleans())):
            holder[value] = holder.pop(key)
            return payload, f"rename {path} to {value!r}"
    holder[key] = value
    return payload, f"set {path} to {value!r}"


@st.composite
def _mutated_bytes(draw, text: str, serialize):
    """The bytes of ``text``, a JSON text, with one mutation, and what it was;
    ``serialize`` writes a mutated value back as text."""
    # Two mutations in three are of the JSON value, as it has more ways to go wrong.
    kind = draw(st.sampled_from(["json"] * 4 + ["truncate", "not-utf8"]))
    raw = text.encode("utf-8")
    if kind == "json":
        payload, what = draw(_mutated_json(json.loads(text)))
        return serialize(payload).encode("utf-8"), what
    at = draw(st.integers(0, len(raw) - 1))
    if kind == "truncate":
        return raw[:at], f"truncate at byte {at}"
    return raw[:at] + b"\xff" + raw[at:], f"insert 0xff at byte {at}"


@st.composite
def _mutated_artifact(draw, name: str, original: str):
    """The bytes of artifact ``name`` with one mutation, and what it was; a
    corpus has one of its lines mutated."""
    if name.endswith(".jsonl"):
        lines = original.splitlines()
        i = draw(st.integers(0, len(lines) - 1))
        line, what = draw(_mutated_bytes(lines[i], lambda value: json.dumps(value, ensure_ascii=False)))
        kept = ["".join(f"{text}\n" for text in part).encode("utf-8") for part in (lines[:i], lines[i + 1:])]
        return kept[0] + line + b"\n" + kept[1], f"line {i + 1}: {what}"
    return draw(_mutated_bytes(original, lambda value: json.dumps(value, indent=1, sort_keys=True)))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name", list(_READERS))
@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(data=st.data())
def test_no_artifact_from_disk_ends_in_a_traceback(walkthrough, scratch, name, data):
    directory = walkthrough[0]
    flag, commands = _READERS[name]
    content, mutation = data.draw(_mutated_artifact(name, (directory / name).read_text(encoding="utf-8")))
    bad = scratch / name
    bad.write_bytes(content)
    argv = [arg.format(w=directory) for arg in data.draw(st.sampled_from(commands))]
    argv[argv.index(flag) + 1] = str(bad)
    argv += ["--out", str(scratch / "out")]
    where = f"{name} ({mutation}) read by {argv[0]}"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = cli.main(argv)
        except Exception:  # the traceback is the failure under test
            pytest.fail(f"{where} raised:\n{traceback.format_exc()}")
    said = f"{where} exited {code}: {err.getvalue()}"
    try:
        lines = [json.loads(line) for line in err.getvalue().splitlines()]
    except json.JSONDecodeError:
        pytest.fail(f"{said}\n(a stderr line is not JSON)")
    errors = [line for line in lines if "error" in line]
    if code == 0:
        assert not errors, said
        return
    assert code in (1, 2) and len(errors) == 1, said
    assert flag in errors[0]["message"] and str(bad) in errors[0]["message"], said
