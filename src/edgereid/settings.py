"""Settings: dataclass fields that declare their type, default and range
once, and the one reader (and writer) of their JSON form.

A settings class is a frozen dataclass deriving from Settings that declares
each scalar setting as `name: type = setting(default, check)` (X | None
allows null), so construction, `dataclasses.replace` and `read` all check
the same declaration.
"""

import dataclasses
import functools
import typing

from .errors import ConfigError


def positive(x) -> bool:
    return x > 0


def non_negative(x) -> bool:
    return x >= 0


def at_least_two(x) -> bool:
    return x >= 2


def setting(default=dataclasses.MISSING, check=None, key=None):
    """A field whose values must pass check (its range; NaN must fail),
    under the JSON key `key` when that is not its name. No default makes it
    required."""
    return dataclasses.field(default=default,
                             metadata={"check": check, "key": key})


@functools.cache
def _settings(kind) -> tuple:
    """(name, JSON key, allowed types, check, required) of each setting of
    kind, its types resolved from annotations a module may have postponed."""
    hints = typing.get_type_hints(kind)
    return tuple(
        (f.name, f.metadata["key"] or f.name,
         typing.get_args(hints[f.name]) or (hints[f.name],),
         f.metadata["check"], f.default is dataclasses.MISSING)
        for f in dataclasses.fields(kind) if "check" in f.metadata)


def _value(types: tuple, check, raw, path: str):
    """raw as a value of the first of types (an int promotes to float, and
    None passes where NoneType is allowed), checked against check."""
    if raw is None:
        if type(None) in types:
            return None
        raise ConfigError(f"{path}: must not be null")
    kind = types[0]
    if kind is int and isinstance(raw, bool):
        raise ConfigError(f"{path}: expected an integer")
    if kind is float and isinstance(raw, int) and not isinstance(raw, bool):
        try:
            raw = float(raw)
        except OverflowError:
            raise ConfigError(f"{path}: value {raw!r} out of range") from None
    if not isinstance(raw, kind):
        raise ConfigError(f"{path}: expected {kind.__name__}")
    if check is not None and not check(raw):
        raise ConfigError(f"{path}: value {raw!r} out of range")
    return raw


def check_settings(self) -> None:
    """A settings class's __post_init__: check each setting of self."""
    for name, _, types, check, _ in _settings(type(self)):
        object.__setattr__(self, name,
                           _value(types, check, getattr(self, name), name))


class Settings:
    """Base of a settings dataclass: construction checks every setting."""

    __post_init__ = check_settings


def mapping(doc, path: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping" if path
                          else "expected a mapping")
    return doc


def read(kind, doc, path: str, **parsed):
    """A kind instance from its JSON mapping, strictly: keys that are not
    fields are errors, and each setting not in parsed (fields the caller
    built) is checked against its declaration. Errors name the bad value's
    path below path ("" for none)."""
    at, where = (f"{path}.", f"{path}: ") if path else ("", "")
    known = {f.metadata.get("key") or f.name for f in dataclasses.fields(kind)}
    unknown = sorted(set(mapping(doc, path)) - known)
    if unknown:
        raise ConfigError(f"{where}unknown keys: {', '.join(unknown)}")
    values = {}
    for name, key, types, check, required in _settings(kind):
        if name in parsed:
            continue
        if key in doc:
            values[name] = _value(types, check, doc[key], at + key)
        elif required:
            raise ConfigError(f"{at}{key}: missing")
    try:
        return kind(**values, **parsed)
    except ConfigError as exc:  # a check across fields
        raise ConfigError(f"{where}{exc}") from None


def write(obj):
    """The JSON form of obj, read's inverse: a dataclass as a mapping under
    its JSON keys, a tuple as a list."""
    if dataclasses.is_dataclass(obj):
        return {f.metadata.get("key") or f.name: write(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [write(item) for item in obj]
    return obj
