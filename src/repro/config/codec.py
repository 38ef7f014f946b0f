"""Canonical serialisation for :class:`~repro.config.schema.ScenarioConfig`.

One scenario, one JSON string, one digest:

- :func:`to_dict` / :func:`from_dict` walk the typed dataclass tree, so the
  round-trip is lossless and *validated* — unknown keys and wrong types are
  loud errors, not silently-absorbed kwargs;
- :func:`canonical_json` is the same canonical form the parallel runner
  hashes (sorted keys, no whitespace, NaN rejected), so a scenario embedded
  in a :class:`~repro.parallel.jobs.JobSpec`'s kwargs contributes exactly
  its canonical bytes to the cache key;
- :func:`config_digest` is the sha256 hex printed in every scorecard
  header: paste it back through ``python -m repro config show`` and you get
  the scenario that produced the run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
import typing
from typing import Any, Mapping

from repro.config.schema import ConfigError, ScenarioConfig

__all__ = [
    "ConfigError",
    "canonical_json",
    "config_digest",
    "flatten",
    "from_dict",
    "scenario_from_dict",
    "to_dict",
]


def canonical_json(value: Any) -> str:
    """Sorted keys, no whitespace, NaN rejected — one serialisation per value."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def to_dict(config: Any) -> dict:
    """A scenario (or any schema node) as a plain JSON-encodable dict."""
    return _encode(config)


def _encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # ``omit_if_none`` fields (sections added after digest goldens were
        # pinned) stay out of the canonical JSON while unset, so old
        # scenarios keep their digests byte-for-byte.
        return {
            f.name: _encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if not (
                getattr(value, f.name) is None and f.metadata.get("omit_if_none")
            )
        }
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigError(f"unencodable config value: {value!r}")


def from_dict(cls: type, data: Mapping[str, Any], path: str = "") -> Any:
    """Rebuild a schema dataclass from a plain dict, validating as it goes.

    Missing keys take the schema defaults; unknown keys raise
    :class:`ConfigError` naming the valid fields (the same error surface
    as ``--set`` overrides).
    """
    return _decode(cls, dict(data), path or cls.__name__)


def scenario_from_dict(data: Mapping[str, Any]) -> ScenarioConfig:
    return from_dict(ScenarioConfig, data, path="scenario")


def config_digest(config: Any) -> str:
    """sha256 over the canonical JSON of the scenario (its identity)."""
    return hashlib.sha256(canonical_json(to_dict(config)).encode()).hexdigest()


# -- typed decode -----------------------------------------------------------


def _type_hints(cls: type) -> dict[str, Any]:
    return typing.get_type_hints(cls)


def _decode(tp: Any, data: Any, path: str) -> Any:
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        args = typing.get_args(tp)
        if data is None:
            if type(None) in args:
                return None
            raise ConfigError(f"{path}: null is not allowed")
        concrete = [a for a in args if a is not type(None)]
        if len(concrete) != 1:
            raise ConfigError(f"{path}: unsupported union type {tp}")
        return _decode(concrete[0], data, path)
    if dataclasses.is_dataclass(tp):
        if not isinstance(data, Mapping):
            raise ConfigError(f"{path}: expected an object, got {data!r}")
        for f in dataclasses.fields(tp):
            if f.name in data and "removed" in f.metadata:
                raise ConfigError(f"{path}.{f.name}: {f.metadata['removed']}")
        names = [f.name for f in dataclasses.fields(tp)]
        unknown = sorted(set(data) - set(names))
        if unknown:
            raise ConfigError(
                f"{path}: unknown key(s) {', '.join(unknown)}; "
                f"valid keys: {', '.join(names)}"
            )
        hints = _type_hints(tp)
        kwargs = {
            name: _decode(hints[name], data[name], f"{path}.{name}")
            for name in names
            if name in data
        }
        try:
            return tp(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if origin is tuple:
        args = typing.get_args(tp)
        if len(args) != 2 or args[1] is not Ellipsis:
            raise ConfigError(f"{path}: unsupported tuple type {tp}")
        if not isinstance(data, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {data!r}")
        return tuple(
            _decode(args[0], item, f"{path}[{i}]") for i, item in enumerate(data)
        )
    if tp is float:
        if isinstance(data, bool) or not isinstance(data, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {data!r}")
        return float(data)
    if tp is int:
        if isinstance(data, bool) or not isinstance(data, int):
            raise ConfigError(f"{path}: expected an integer, got {data!r}")
        return data
    if tp is bool:
        if not isinstance(data, bool):
            raise ConfigError(f"{path}: expected a boolean, got {data!r}")
        return data
    if tp is str:
        if not isinstance(data, str):
            raise ConfigError(f"{path}: expected a string, got {data!r}")
        return data
    raise ConfigError(f"{path}: unsupported field type {tp}")


# -- flat views -------------------------------------------------------------


def flatten(config: Any, prefix: str = "") -> dict[str, Any]:
    """Dotted-path -> leaf value, the view ``config show --flat`` and
    ``config diff`` operate on.  Structured tuples (fault events) are
    rendered as their canonical JSON so they stay one comparable line."""
    out: dict[str, Any] = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        key = f"{prefix}{f.name}"
        if value is None and f.metadata.get("omit_if_none"):
            continue
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            out.update(flatten(value, prefix=f"{key}."))
        elif isinstance(value, tuple) and any(
            dataclasses.is_dataclass(v) for v in value
        ):
            out[key] = canonical_json(_encode(value))
        else:
            out[key] = value
    return out
