"""Executables and dynamic task loading.

An :class:`Executable` is the model's stand-in for an ELF binary: a named
object whose ``run(ctx)`` generator performs filesystem I/O and charges CPU
cycles through the :class:`ExecContext`.  The :class:`ExecutableRegistry` is
the OS's ``$PATH``; CompStor's **dynamic task loading** (a Query carrying an
ISC_LOAD command) installs new executables into a running device's registry.

The same executable object runs on the host and inside the SSD — only the
context differs (CPU spec, block device, ISA cost table).  That is the
paper's "no modification" porting claim, made structural.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Protocol, runtime_checkable

from repro.cpu.scheduler import RunQueue
from repro.isos.filesystem import ExtentFileSystem
from repro.sim import Simulator

__all__ = ["ExecContext", "Executable", "ExecutableRegistry", "ExitStatus"]


@runtime_checkable
class Executable(Protocol):
    """The binary interface: a name and a generator entry point."""

    name: str

    def run(self, ctx: "ExecContext") -> Generator: ...


@dataclass(slots=True)
class ExitStatus:
    """What an executable leaves behind."""

    code: int = 0
    stdout: bytes = b""
    detail: dict[str, Any] = field(default_factory=dict)


class ExecContext:
    """Everything a running executable may touch.

    Attributes
    ----------
    sim, fs, runq:
        Simulator, the mounted filesystem, and the sliced CPU scheduler.
    isa:
        Cost-table key for this execution environment (``"arm-a53"`` inside
        CompStor, ``"xeon"`` on the host) — see
        :mod:`repro.analysis.calibration`.
    args:
        argv[1:] for the executable.
    stdin:
        Bytes piped from the previous pipeline stage (or ``None``).
    """

    def __init__(
        self,
        sim: Simulator,
        fs: ExtentFileSystem,
        runq: RunQueue,
        isa: str,
        args: list[str] | None = None,
        stdin: bytes | None = None,
        priority: int = 0,
    ):
        self.sim = sim
        self.fs = fs
        self.runq = runq
        self.isa = isa
        self.args = args or []
        self.stdin = stdin
        self.priority = priority
        self.bytes_read = 0
        self.bytes_written = 0
        self.cycles_charged = 0.0

    def compute(self, cycles: float) -> Generator:
        """Charge CPU work (sliced, fair-shared)."""
        self.cycles_charged += cycles
        yield from self.runq.run_cycles(cycles, priority=self.priority)
        return None

    def read_file(self, name: str) -> Generator:
        data = yield from self.fs.read_file(name)
        self.bytes_read += self.fs.stat(name).size
        return data

    def write_file(self, name: str, data: bytes | None, size: int | None = None) -> Generator:
        yield from self.fs.write_file(name, data, size)
        self.bytes_written += len(data) if data is not None else (size or 0)
        return None

    def stream_pages(self, name: str) -> "PageStream":
        """Page-at-a-time reader for large scans."""
        return PageStream(self, name)


class PageStream:
    """Iterates a file's pages; each ``next_page()`` is a simulation process.

    The page index is claimed *eagerly* when ``next_page()`` is called (not
    when the returned generator first runs), so a reader may keep several
    reads in flight — the readahead that lets apps overlap IO with compute.
    """

    def __init__(self, ctx: ExecContext, name: str):
        self.ctx = ctx
        self.name = name
        self.index = 0
        self.total = ctx.fs.page_count(name)

    @property
    def exhausted(self) -> bool:
        return self.index >= self.total

    def next_page(self) -> Generator:
        """Returns ``(data_or_None, valid_len)``; raises past the end."""
        if self.exhausted:
            raise IndexError(f"stream of {self.name!r} exhausted")
        index = self.index
        self.index += 1
        return self._read(index)

    def _read(self, index: int) -> Generator:
        data, take = yield from self.ctx.fs.read_page_of(self.name, index)
        self.ctx.bytes_read += take
        return data, take


class ExecutableNotFound(KeyError):
    """The command names an executable this machine has not installed."""


class ExecutableRegistry:
    """Named executables installed on a machine (host or CompStor)."""

    def __init__(self, preloaded: dict[str, Executable] | None = None):
        self._table: dict[str, Executable] = dict(preloaded or {})
        self.loads = 0  # dynamic loads performed at runtime

    def install(self, executable: Executable) -> None:
        """Dynamic task loading: make a new executable available."""
        if not executable.name:
            raise ValueError("executable must have a name")
        self._table[executable.name] = executable
        self.loads += 1

    def resolve(self, name: str) -> Executable:
        exe = self._table.get(name)
        if exe is None:
            raise ExecutableNotFound(
                f"executable not found: {name!r} (installed: {sorted(self._table)})"
            )
        return exe

    def instantiate(self, name: str) -> Executable:
        """A fresh per-execution copy of the installed prototype.

        Executables keep scan state on ``self`` (like a process keeps state
        in its address space), so concurrent invocations must not share one
        object.
        """
        import copy

        return copy.copy(self.resolve(name))

    def installed(self) -> list[str]:
        return sorted(self._table)

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def clone(self) -> "ExecutableRegistry":
        """Independent copy (each device gets its own registry)."""
        fresh = ExecutableRegistry(dict(self._table))
        fresh.loads = 0
        return fresh
