"""Dotted-path scenario overrides: the ``--set`` grammar.

``--set fleet.nodes=8 --set ftl.gc_policy=cost-benefit`` turns one preset
into a sweep cell without a line of Python.  Values are coerced by the
*declared field type* (int/float/bool/str, optionals, string tuples), so a
typo'd key or an un-coercible value is a :class:`ConfigError` naming the
valid fields — never a silently-ignored kwarg.

Optional sub-configs instantiate on demand: ``--set retry.max_attempts=2``
on a scenario with ``retry=None`` first materialises the default
:class:`~repro.faults.retry.RetryPolicy`, then sets the field.  ``--set
retry=none`` clears it again.  Structured lists (``faults.events``) accept
inline JSON.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from typing import Any, Iterable

from repro.config.codec import ConfigError, _decode, _type_hints

__all__ = ["apply_overrides", "parse_assignments"]

_TRUE = frozenset({"true", "1", "yes", "on"})
_FALSE = frozenset({"false", "0", "no", "off"})
_NONE = frozenset({"none", "null"})


def parse_assignments(pairs: Iterable[str]) -> list[tuple[str, str]]:
    """``["a.b=1", ...]`` -> ``[("a.b", "1"), ...]`` (order preserved)."""
    out = []
    for raw in pairs:
        key, sep, value = raw.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"override {raw!r} is not of the form path=value")
        out.append((key.strip(), value.strip()))
    return out


def apply_overrides(config: Any, pairs: Iterable[str | tuple[str, str]]) -> Any:
    """Return ``config`` with every ``path=value`` override applied in order."""
    assignments = [
        pair if isinstance(pair, tuple) else parse_assignments([pair])[0]
        for pair in pairs
    ]
    for path, raw in assignments:
        config = _apply_one(config, path.split("."), raw, path)
    return config


def _apply_one(node: Any, segments: list[str], raw: str, full_path: str) -> Any:
    cls = type(node)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    head = segments[0]
    if head not in fields:
        raise ConfigError(
            f"unknown key {full_path!r}: {cls.__name__} has no field {head!r}; "
            f"valid keys: {', '.join(fields)}"
        )
    if "removed" in fields[head].metadata:
        raise ConfigError(f"{full_path!r}: {fields[head].metadata['removed']}")
    hints = _type_hints(cls)
    hint = hints[head]
    if len(segments) == 1:
        value = _coerce(hint, raw, full_path)
        try:
            return dataclasses.replace(node, **{head: value})
        except ValueError as exc:
            raise ConfigError(f"{full_path}={raw!r}: {exc}") from exc
    child_cls = _section_type(hint)
    if child_cls is None:
        raise ConfigError(
            f"{full_path!r}: {head!r} is a {_name(hint)} leaf, not a section"
        )
    child = getattr(node, head)
    if child is None:
        child = child_cls()  # materialise an optional section on demand
    new_child = _apply_one(child, segments[1:], raw, full_path)
    return dataclasses.replace(node, **{head: new_child})


def _section_type(hint: Any) -> type | None:
    """The dataclass type behind a (possibly optional) section field."""
    if dataclasses.is_dataclass(hint):
        return hint
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        concrete = [a for a in typing.get_args(hint) if a is not type(None)]
        if len(concrete) == 1 and dataclasses.is_dataclass(concrete[0]):
            return concrete[0]
    return None


def _name(hint: Any) -> str:
    return getattr(hint, "__name__", str(hint))


def _coerce(hint: Any, raw: str, path: str) -> Any:
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        args = typing.get_args(hint)
        if raw.lower() in _NONE and type(None) in args:
            return None
        concrete = [a for a in args if a is not type(None)]
        if len(concrete) != 1:
            raise ConfigError(f"{path}: unsupported union type {hint}")
        return _coerce(concrete[0], raw, path)
    if dataclasses.is_dataclass(hint):
        raise ConfigError(
            f"{path}: is a section; set one of its fields "
            f"({', '.join(f.name for f in dataclasses.fields(hint))})"
        )
    if origin is tuple:
        elem = typing.get_args(hint)[0]
        if raw.startswith("["):  # inline JSON for structured lists
            try:
                data = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON list: {exc}") from exc
            return _decode(hint, data, path)
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        return tuple(_coerce(elem, part, path) for part in parts)
    if hint is bool:
        lowered = raw.lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise ConfigError(f"{path}: expected a boolean, got {raw!r}")
    if hint is int:
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: expected an integer, got {raw!r}") from exc
    if hint is float:
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: expected a number, got {raw!r}") from exc
    if hint is str:
        return raw
    raise ConfigError(f"{path}: unsupported field type {hint}")
