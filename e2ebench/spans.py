"""Span tracing for the benchmark's traced run, installed from outside.

The tracer wraps the entry points of every ``repro`` layer package (a layer
is one top-level package such as ``repro.ftl``) in place, from this file, so
the program itself carries no tracing code:

- methods of the classes a layer module defines: every generator method,
  public or private, and every public plain method;
- public module-level functions (only callers that look the name up on the
  module at call time see the wrapper).

A plain call is one span.  A generator is a simulation process or a
``yield from`` step of one, so it is timed on every resume: one span per
``send``/``throw``, closed when it yields back to the kernel.  Time it spends
suspended is never charged to it.

Spans live in memory as five parallel arrays (name, start, end, parent, op)
and are written out once, at the end.  A span's self time is its duration
minus the durations of its child spans (:func:`self_times`).

Operation ids: the workload names the generator entry points that start one
operation (a minion, a served request, an object PUT).  A generator created
through such an entry point outside any operation gets a fresh id; every
other span inherits the id current when it opens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from array import array
from time import perf_counter_ns
from typing import Iterable

import numpy as np

__all__ = ["LAYERS", "SpanLog", "check_nesting", "install", "self_times"]

#: The ``repro`` packages traced as layers, in report order.
LAYERS = (
    "workloads", "config", "cluster", "sim", "apps", "isos", "isps", "cpu",
    "nvme", "pcie", "flash", "ecc", "ftl", "host", "service", "objstore",
    "power", "obs",
)

#: Name of the benchmark's own root span around the traced loop.
ROOT = "other.loop"


class SpanLog:
    """Spans recorded while :attr:`active`, plus the open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("I")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = [-1]
        self.ops: list[int] = [0]
        self.active = False
        self.last_op = 0

    def name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def open(self, name_id: int) -> int:
        index = len(self.end)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.ops[-1])
        self.end.append(0)
        self.stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self.stack.pop()

    def new_op(self) -> int:
        self.last_op += 1
        return self.last_op

    def __len__(self) -> int:
        return len(self.end)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write every span (and the name table) as one compressed ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of its direct
    children.  ``parent`` is the parent's index, -1 for a root.  The tracer
    is single-threaded and opens and closes spans as a stack, so children lie
    inside their parent and siblings never overlap (:func:`check_nesting`).
    Integer in, integer out (the tracer records nanoseconds)."""
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    if np.any(duration < 0):
        raise ValueError("a span ends before it starts")
    child = np.flatnonzero(parent >= 0)
    cover = np.bincount(parent[child], weights=duration[child], minlength=len(start))
    return duration - cover.astype(np.int64)


def check_nesting(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> list[str]:
    """What breaks the stack discipline :func:`self_times` relies on: a span
    left open, or a child that does not lie within its parent."""
    problems = []
    open_ = int(np.count_nonzero(end == 0))
    if open_:
        problems.append(f"{open_} spans left open")
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    outside = int(np.count_nonzero((start[child] < start[p]) | (end[child] > end[p])))
    if outside:
        problems.append(f"{outside} spans do not lie within their parent")
    return problems


# -- wrapping ---------------------------------------------------------------


def _wrap_call(fn, name_id: int, log: SpanLog):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not log.active:
            return fn(*args, **kwargs)
        index = log.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            log.close(index)

    return traced


def _resumes(gen, name_id: int, op: int, log: SpanLog):
    """Delegate to ``gen``, one span per resume."""
    send, throw = gen.send, gen.throw
    value = None
    error: BaseException | None = None
    while True:
        active = log.active
        if active:
            log.ops.append(op)
            index = log.open(name_id)
        try:
            item = send(value) if error is None else throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            if active:
                log.close(index)
                log.ops.pop()
        error = None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # delivered into gen on the next resume
            value, error = None, exc


def _wrap_generator(fn, name_id: int, log: SpanLog, op_entry: bool):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        current = log.ops[-1]
        op = log.new_op() if op_entry and current == 0 else current
        return _resumes(fn(*args, **kwargs), name_id, op, log)

    return traced


def _wrap(fn, qualname: str, log: SpanLog, op_entries: frozenset[str]):
    name_id = log.name_id(qualname)
    if inspect.isgeneratorfunction(fn):
        return _wrap_generator(fn, name_id, log, qualname in op_entries)
    return _wrap_call(fn, name_id, log)


def _layer_modules(layer: str) -> list:
    """The layer package and its direct modules (sub-packages excluded)."""
    package = importlib.import_module(f"repro.{layer}")
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if not info.ispkg:
            modules.append(importlib.import_module(f"repro.{layer}.{info.name}"))
    return modules


def install(
    log: SpanLog, layers: Iterable[str] = LAYERS, op_entries: Iterable[str] = ()
) -> int:
    """Wrap every layer's entry points in place; returns how many."""
    op_entries = frozenset(op_entries)
    wrapped = 0
    for layer in layers:
        for module in _layer_modules(layer):
            mod = module.__name__
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != mod:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    setattr(module, attr, _wrap(obj, f"{mod}.{attr}", log, op_entries))
                    wrapped += 1
                elif inspect.isclass(obj):
                    wrapped += _wrap_class(obj, f"{mod}.{obj.__name__}", log, op_entries)
    return wrapped


def _wrap_class(cls, prefix: str, log: SpanLog, op_entries: frozenset[str]) -> int:
    wrapped = 0
    for attr, member in list(vars(cls).items()):
        if attr.startswith("__"):
            continue
        kind = type(member) if isinstance(member, (staticmethod, classmethod)) else None
        fn = member.__func__ if kind is not None else member
        if not inspect.isfunction(fn):
            continue
        if attr.startswith("_") and not inspect.isgeneratorfunction(fn):
            continue
        traced = _wrap(fn, f"{prefix}.{attr}", log, op_entries)
        setattr(cls, attr, kind(traced) if kind is not None else traced)
        wrapped += 1
    return wrapped


def layer_of(name: str) -> str:
    """``repro.ftl.ftl.FlashTranslationLayer.read`` -> ``ftl``;
    :data:`ROOT` -> ``other``."""
    parts = name.split(".")
    return parts[1] if parts[0] == "repro" else parts[0]


def attribute(
    log: SpanLog, modules: Iterable[str] = ()
) -> tuple[dict[str, float], dict[str, float]]:
    """Seconds of self time per layer (``<layer>.self_s``, the root counting
    as ``other``) and per listed module (``<module>.self_s``)."""
    layers: dict[str, float] = {}
    picked = {f"{module}.self_s": 0.0 for module in modules}
    for name, ns in self_times_by_name(log).items():
        key = f"{layer_of(name)}.self_s"
        layers[key] = layers.get(key, 0.0) + ns / 1e9
        for module in modules:
            if name.startswith(module + "."):
                picked[f"{module}.self_s"] += ns / 1e9
    return layers, picked


def self_times_by_name(log: SpanLog) -> dict[str, int]:
    """Total self nanoseconds per span name."""
    arrays = log.arrays()
    own = self_times(arrays["start"], arrays["end"], arrays["parent"])
    totals = np.bincount(arrays["name"], weights=own, minlength=len(log.names))
    return {name: int(totals[i]) for i, name in enumerate(log.names) if totals[i]}
