"""Config tables and their one reader.  A table is a sequence of `Key`
rows; the scenario document (`scenario._KEYS`) and every field profile
(`profiles._PROFILES`) are read through `read_keys`."""

from __future__ import annotations

import math
from typing import NamedTuple


class ConfigError(ValueError):
    """Scenario document violates the schema; message names the field."""


class Key(NamedTuple):
    """A settable value: path (dotted in a scenario), type, default (None:
    unset, or derived where it is read), rule as (text, predicate), the
    tasks that read it (None: every task) and a note for the schema."""

    path: str
    kind: str
    default: object = None
    rule: tuple = None
    tasks: tuple = None
    note: str = ""


REQUIRED = "required"
POSITIVE = ("positive and finite", lambda v: math.isfinite(v) and v > 0)
COUNT = (">= 1", lambda v: v >= 1)
_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str, "mapping": dict,
          "list": list}


def typed(value, kind, path):
    """`value` read as `kind`, "list of <kind>" for a list; a profile
    grammar name passes unchecked.  A bool or a string is not a number;
    an int is read as a float where a float is expected, and a float must
    be finite (YAML's .nan and .inf are refused)."""
    base = kind.split()[0]
    if base not in _TYPES:
        return value
    if isinstance(value, _TYPES[base]) and (base == "bool") == isinstance(value, bool):
        if base == "list":
            return [typed(v, kind[len("list of "):], f"{path}[{i}]") for i, v in enumerate(value)]
        if base == "float" and not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite float, got {value!r}")
        return float(value) if base == "float" else value
    raise ConfigError(f"{path}: expected {kind}, got {type(value).__name__} {value!r}")


def read_keys(given, keys, prefix="", task=None):
    """The values in the mapping `given` of the keys in `keys`, by path:
    typed, checked against their rules, defaults filled in.  A dotted
    path is read from nested mappings.  A key not in the table, a key
    that `task` does not read and a missing required key are ConfigErrors
    naming the full path, prefix + path."""
    paths = {key.path for key in keys}
    sections = {path.rsplit(".", k)[0] for path in paths for k in range(1, path.count(".") + 1)}
    found, todo = {}, [("", given)]
    while todo:
        path, section = todo.pop(0)
        if section is None:
            continue
        if not isinstance(section, dict):
            raise ConfigError(f"{prefix}{path}: expected mapping, got {type(section).__name__}")
        for name, value in section.items():
            sub = f"{path}.{name}" if path else str(name)
            if sub in sections:
                todo.append((sub, value))
            elif sub in paths:
                found[sub] = value
            else:
                raise ConfigError(f"{prefix}{sub}: unknown key")
    values = {}
    for key in keys:
        path, value = prefix + key.path, found.get(key.path)
        if key.tasks is not None and task not in key.tasks:
            if value is not None:
                raise ConfigError(f"{path}: not read by task {task!r}, only by "
                                  + ", ".join(key.tasks))
        elif value is None:
            if key.default is REQUIRED:
                raise ConfigError(f"{path}: required field missing")
            values[key.path] = key.default
        else:
            values[key.path] = value = typed(value, key.kind, path)
            if key.rule is not None and not key.rule[1](value):
                raise ConfigError(f"{path}: must be {key.rule[0]}, got {value!r}")
    return values
