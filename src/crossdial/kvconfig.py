"""Flat ``key = value`` config files.

All on-disk configuration in this package (synthetic corpus specs,
experiment specs, resolved-config echoes) uses one format: UTF-8 text,
one ``key = value`` entry per line, ``#`` comments, blank lines ignored.
Keys may be stage-prefixed (``adapt.lr``).  Flat files keep diffs
reviewable and make override semantics trivial.

The config dataclasses declare their keys: :func:`config_schema` flattens
an instance into ``{key: (parse, value)}`` entries and :func:`config_from`
turns parsed entries back into an instance.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Callable, Mapping, TypeVar

from .artifact import read_text, write_lines

C = TypeVar("C")


class ConfigError(ValueError):
    """Raised for unparseable files, unknown keys, or bad values."""


def parse_kv_text(text: str, source: str = "<string>") -> dict[str, str]:
    """Parse flat key=value text into an ordered dict of raw strings."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        # trailing comments need whitespace before the '#'
        value = re.split(r"\s#", value, maxsplit=1)[0].strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_kv(path: str) -> dict[str, str]:
    """Load a flat key=value file."""
    return parse_kv_text(read_text(path), source=str(path))


def dump_kv(entries: Mapping[str, object]) -> str:
    """Render entries as flat key=value text, one per line, in given order.

    Every entry is written, an empty value as ``key = `` (it reads back as
    ""); sequences are comma-joined.
    """
    lines = []
    for key, value in entries.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def write_kv(path: str, entries: Mapping[str, object]) -> None:
    write_lines(path, [dump_kv(entries)[:-1]])  # dump_kv text ends in exactly one "\n"


def parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {value!r}")


def coerce(
    raw: Mapping[str, str],
    schema: Mapping[str, Callable[[str], object]],
    source: str = "<config>",
) -> dict[str, object]:
    """Convert raw string entries using ``schema``; unknown keys are errors."""
    out: dict[str, object] = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"{source}: unknown config key {key!r}")
        try:
            out[key] = schema[key](value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{source}: bad value for {key!r}: {exc}") from None
    return out


# Parsers by annotation; the config modules use postponed (string) annotations.
_PARSERS: dict[str, Callable[[str], object]] = {
    "int": int,
    "float": float,
    "str": str,
}


def _key(field: dataclasses.Field, prefix: str) -> str:
    return prefix + field.metadata.get("key", field.name)


def config_schema(config, prefix: str = "") -> dict[str, tuple[Callable[[str], object], object]]:
    """Flatten a config dataclass instance into ``{key: (parse, value)}``.

    A field's key is its name, or ``metadata["key"]`` where the file
    spelling differs; its parser is ``metadata["parse"]`` or follows from
    its annotation.  A nested config contributes its own entries under a
    ``<key>.`` prefix, minus the keys named in ``metadata["omit"]``.
    """
    out: dict[str, tuple[Callable[[str], object], object]] = {}
    for field in dataclasses.fields(config):
        key = _key(field, prefix)
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            omit = {f"{key}.{name}" for name in field.metadata.get("omit", ())}
            out.update((k, entry) for k, entry in config_schema(value, key + ".").items() if k not in omit)
        else:
            out[key] = (field.metadata.get("parse") or _PARSERS[field.type], value)
    return out


def config_from(config: C, values: Mapping[str, object], prefix: str = "") -> C:
    """Inverse of :func:`config_schema`: ``config`` with every field whose
    key is in ``values`` replaced by that (parsed) value; other keys are
    ignored.

    A value the dataclass's own checks reject raises ConfigError naming
    its key, so a bad value is a configuration error wherever it came from.
    """
    changes: dict[str, object] = {}
    keys: dict[str, str] = {}  # field name -> key, for the scalar fields set here
    for field in dataclasses.fields(config):
        key = _key(field, prefix)
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            changes[field.name] = config_from(value, values, key + ".")
        elif key in values:
            changes[field.name] = values[key]
            keys[field.name] = key
    try:
        return dataclasses.replace(config, **changes)
    except ConfigError:
        raise
    except ValueError as exc:
        culprits = [key for name, key in keys.items() if not _accepts(config, name, changes[name])]
        named = ", ".join(repr(key) for key in culprits or keys.values())
        raise ConfigError(f"bad value for {named}: {exc}") from None


def _accepts(config, name: str, value: object) -> bool:
    try:
        dataclasses.replace(config, **{name: value})
    except ValueError:
        return False
    return True
