"""JSON artifacts: the one writer, the one reader and the field guard."""

from __future__ import annotations

import json
import re
from dataclasses import asdict, fields

import numpy as np
import pytest

from bugdedup.artifacts import (
    ArtifactError, config, field, integer, load, number, numbers, one_of, save, string
)
from bugdedup.cascade import ScenarioConfig
from bugdedup.classifier import ClassifierTrainConfig
from bugdedup.embedder import TrainConfig
from bugdedup.synth import SynthConfig


@pytest.mark.parametrize(
    "indent, text",
    [(None, '{"a": [1, 2], "b": 1}\n'), (1, '{\n "a": [\n  1,\n  2\n ],\n "b": 1\n}\n')],
)
def test_save_sorts_keys_and_ends_with_a_newline(tmp_path, indent, text):
    path = tmp_path / "a.json"
    save(path, {"b": 1, "a": [1, 2]}, indent)
    assert path.read_text(encoding="utf-8") == text
    assert load(path, lambda payload: payload, "test file") == {"a": [1, 2], "b": 1}


@pytest.mark.parametrize(
    "content, error, says",
    [
        (b"{not json", json.JSONDecodeError, "this file is not JSON"),
        (b'{"a": "\xff"}', ArtifactError, "this file is not UTF-8"),
        (b'{"a": 1}', ArtifactError, "lacks 'b'"),
        (b'{"b": "x"}', ArtifactError, "malformed 'b' (TypeError: 'x' is not a number)"),
        (b"[]", ArtifactError, "list is not an object to read 'b' from"),
    ],
)
def test_every_load_error_names_the_file(tmp_path, content, error, says):
    path = tmp_path / "a.json"
    path.write_bytes(content)
    with pytest.raises(error) as caught:
        load(path, lambda payload: field(payload, "b", number), "test file")
    assert type(caught.value) is error
    assert str(caught.value).startswith(f"test file {path}: {says}")


@pytest.mark.parametrize("value", [True, "0.5", None, [1]])
def test_number_takes_json_numbers_only(value):
    with pytest.raises(TypeError):
        number(value)


def test_number_and_numbers_return_what_they_check():
    assert number(2) == 2 and number(0.5) == 0.5 and integer(3) == 3
    for value in (3.0, True, "3"):
        with pytest.raises(TypeError, match="not an integer"):
            integer(value)
    assert numbers([1, 2.5]) == [1, 2.5]
    for values in ("12", (1, 2), [1, "2"], [False]):
        with pytest.raises(TypeError):
            numbers(values)


def test_field_names_a_payload_that_is_not_an_object_by_its_type():
    for payload, name in ((5, "int"), ([], "list"), ("x", "str"), (None, "NoneType")):
        with pytest.raises(ArtifactError, match=f"^{name} is not an object to read 'x' from$"):
            field(payload, "x")
    with pytest.raises(ArtifactError, match="^lacks 'x'$"):
        field({"y": 1}, "x")
    assert field({"x": 2}, "x", integer) == 2


def test_string_takes_json_strings_only():
    assert string("a") == "a"
    for value in (1, None, ["a"], b"a"):
        with pytest.raises(TypeError, match="is not a string"):
            string(value)


def test_one_of_takes_a_choice_of_the_same_type_only():
    assert one_of(1, (0, 1)) == 1 and one_of("dev", ("train", "dev")) == "dev"
    for value in (True, 1.0, "1", 2, None):
        with pytest.raises(ValueError, match="is not one of"):
            one_of(value, (0, 1))


_SEEDED_CONFIGS = [
    ("SynthConfig", lambda seed: SynthConfig(seed=seed)),
    ("TrainConfig", lambda seed: TrainConfig(seed=seed)),
    ("ClassifierTrainConfig", lambda seed: ClassifierTrainConfig(seed=seed)),
    ("ScenarioConfig", lambda seed: ScenarioConfig(mode="one_vs_all", method="cascade", seed=seed)),
]


@pytest.mark.parametrize("seed", [True, False, 1.0, 2.5, "3", None, np.int64(3)])
@pytest.mark.parametrize("make", [make for _, make in _SEEDED_CONFIGS], ids=[n for n, _ in _SEEDED_CONFIGS])
def test_every_config_with_a_seed_refuses_a_seed_that_is_not_an_int(make, seed):
    # A bool would pass as 0 or 1, and a float or a string would name
    # another substream than the int it spells (seeding hashes its text).
    with pytest.raises(ValueError, match=f"^seed must be an int, got {re.escape(repr(seed))}$"):
        make(seed)
    assert make(-3).seed == -3


_CONFIGS = [
    TrainConfig(margin=0.5), ClassifierTrainConfig(epochs=3),
    ScenarioConfig(mode="one_vs_all", method="cascade", dedup_pairs=True),
]


@pytest.mark.parametrize("made", _CONFIGS, ids=[type(c).__name__ for c in _CONFIGS])
def test_config_reads_every_field_with_its_json_type(made):
    cls, payload = type(made), asdict(made)
    assert config(cls, payload) == made
    for name in (f.name for f in fields(cls)):
        with pytest.raises(ArtifactError, match=f"^lacks '{name}'$"):
            config(cls, {k: v for k, v in payload.items() if k != name})
        # A string in a number's field, and a number in a string's or a bool's.
        wrong = 1 if isinstance(payload[name], (str, bool)) else "1"
        with pytest.raises(ArtifactError, match=f"^malformed '{name}'"):
            config(cls, {**payload, name: wrong})
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        config(cls, {**payload, "bogus": 1})
