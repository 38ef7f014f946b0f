"""Embedded OS model ("in-storage operating system").

CompStor's headline capability is running a full Linux inside the SSD so
unmodified executables and shell commands run in-place.  This package
models the OS services those claims rest on:

- :mod:`repro.isos.blockdev` — block devices: the **flash access device
  driver** (direct, low-latency ISPS->FTL path) and an NVMe-attached device
  (the host's view, paying the PCIe toll);
- :mod:`repro.isos.filesystem` — an extent filesystem over a block device;
- :mod:`repro.isos.loader` — the executable registry (dynamic task loading);
- :mod:`repro.isos.shell` — command-line parsing, pipelines, scripts;
- :mod:`repro.isos.process` / :mod:`repro.isos.os` — processes and the OS
  facade (spawn/wait/ps, telemetry).
"""

from repro.isos.blockdev import BlockDevice, FlashAccessDevice, NvmeBlockDevice
from repro.isos.filesystem import ExtentFileSystem, FsError
from repro.isos.loader import (
    ExecContext,
    Executable,
    ExecutableNotFound,
    ExecutableRegistry,
)
from repro.isos.os import EmbeddedOS
from repro.isos.process import OsProcess, ProcessState
from repro.isos.shell import ShellError, parse_command_line, split_pipeline

__all__ = [
    "BlockDevice",
    "EmbeddedOS",
    "ExecContext",
    "Executable",
    "ExecutableNotFound",
    "ExecutableRegistry",
    "ExtentFileSystem",
    "FlashAccessDevice",
    "FsError",
    "NvmeBlockDevice",
    "OsProcess",
    "ProcessState",
    "ShellError",
    "parse_command_line",
    "split_pipeline",
]
