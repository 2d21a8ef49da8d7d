"""JSON artifacts: one writer, one reader and one field guard.

Every JSON artifact (clusters, manifest, scenario, the two trained models
and the CLI's ``.config.json`` sidecars) is written by ``save`` and read by
``load``; each kind of artifact keeps only its pure ``*_to_json`` and
``*_from_json``. A ``*_from_json`` reads each key through ``field``, whose
parsers check JSON types rather than convert them (``number``, ``integer``,
``numbers``, ``string``), so a malformed file raises ``ArtifactError``
naming the file and the key. ``config`` reads a config dataclass field by
field, and ``counts`` holds the count fields of a config to the same
integer test.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path


class ArtifactError(ValueError):
    """Raised when a JSON artifact is not UTF-8, lacks a key, holds a
    malformed value or fails its checksum."""


def save(path: str | Path, payload: dict, indent: int | None = None) -> None:
    """``payload`` as JSON at ``path``: sorted keys and a final newline,
    indented by ``indent`` or, when it is None, compact."""
    text = json.dumps(payload, sort_keys=True, indent=indent) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load(path: str | Path, parse, kind: str):
    """``parse`` of the JSON in the ``kind`` file at ``path``.

    Every error names the file: text that is not JSON raises
    ``json.JSONDecodeError`` still, and text that is not UTF-8, or a
    ``ValueError`` from ``parse``, raises ``ArtifactError``.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        message = f"{kind} {path}: this file is not JSON: {exc.msg}"
        raise json.JSONDecodeError(message, exc.doc, exc.pos) from exc
    except UnicodeDecodeError as exc:
        raise ArtifactError(f"{kind} {path}: this file is not UTF-8: {exc}") from exc
    try:
        return parse(payload)
    except ValueError as exc:
        raise ArtifactError(f"{kind} {path}: {exc}") from exc


def field(payload, key: str, parse=lambda value: value):
    """``parse`` of ``payload[key]``. A payload that is not an object, or
    one that lacks ``key``, raises ``ArtifactError`` saying which, and a
    value that ``parse`` rejects raises one that calls it malformed."""
    if not isinstance(payload, dict):
        raise ArtifactError(f"{type(payload).__name__} is not an object to read {key!r} from")
    if key not in payload:
        raise ArtifactError(f"lacks {key!r}")
    try:
        return parse(payload[key])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed {key!r} ({type(exc).__name__}: {exc})") from exc


def number(value, types: tuple[type, ...] = (int, float)):
    """``value`` if its type is one of ``types``, JSON's numbers by default;
    a bool or a string of digits is no number and raises ``TypeError``."""
    if type(value) not in types:
        raise TypeError(f"{value!r} is not {'a number' if float in types else 'an integer'}")
    return value


def integer(value) -> int:
    """``value`` if it is a JSON integer (see ``number``)."""
    return number(value, (int,))


def string(value) -> str:
    """``value`` if it is a JSON string; anything else raises ``TypeError``."""
    if type(value) is not str:
        raise TypeError(f"{value!r} is not a string")
    return value


def counts(config, minimums: dict[str, int | None]) -> None:
    """Check the integer fields of ``config`` that ``minimums`` names: each
    must be an ``int`` of at least its minimum (any ``int`` where that is
    None, as for a seed), and a bool is none, so ``True`` does not pass as
    1. Any other raises ``ValueError`` naming the field."""
    for name, low in minimums.items():
        value = getattr(config, name)
        if type(value) is not int or low is not None and value < low:
            bound = "" if low is None else f" >= {low}"
            raise ValueError(f"{name} must be an int{bound}, got {value!r}")


def one_of(value, choices: tuple):
    """``value`` if it has the type of ``choices``, which share one, and
    equals one of them, so that ``true`` is not the integer 1; any other
    raises ``ValueError``."""
    if type(value) is not type(choices[0]) or value not in choices:
        raise ValueError(f"{value!r} is not one of {choices}")
    return value


_JSON_TYPES = {
    "int": integer, "float": number, "str": string, "bool": lambda on: one_of(on, (True, False)),
}


def config(cls, payload):
    """A ``cls``, a config dataclass, from the object ``payload``: each field
    read through ``field`` with the JSON type that its annotation names
    (``int``, ``float``, ``str`` or ``bool``), so a missing key raises
    ``ArtifactError`` rather than taking its default. A key that is no field
    is passed on, and the constructor refuses it."""
    values = {f.name: field(payload, f.name, _JSON_TYPES[f.type]) for f in dataclasses.fields(cls)}
    return cls(**payload | values)


def numbers(values) -> list:
    """``values`` if it is a list of numbers (see ``number``); anything
    else raises ``TypeError``."""
    if type(values) is not list:
        raise TypeError(f"{values!r} is not a list of numbers")
    return [number(value) for value in values]
