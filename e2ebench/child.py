from time import perf_counter as _clock

_T0 = _clock()  # set-up starts here, before anything else is imported

# One benchmark child: set up one workload, run its loop once, report.
#
# Usage: ``python child.py <src-dir> <workload> <seed> <plain|traced|setup> <full|small> [spans.npz]``
#
# ``setup`` stops after set-up and reports only its times.
#
# Prints ``RESULT <json>`` (the scorecard) as soon as the loop's numbers are
# known, then runs the slower output checks and prints ``CHECK <json>``.  The
# parent times the process from spawn to the RESULT line.  ``small`` runs a
# tiny version of the workload: the parent's warm-up child uses it so that
# every module on the path is compiled and cached before the timed children.
#
# Host time is reported twice: as measured, and in reference seconds.  A
# 10 ms interval timer runs a fixed probe and samples the simulator's event
# count; the host's speed at each moment is the probe's nominal time over its
# measured time (a running median), and a reference second is a host second
# times that speed.  The parent uses the reference times and the event
# samples to time the same stretch of the (deterministic) loop in every
# child.

import bisect
import json
import resource
import signal
import statistics
import sys
from pathlib import Path

SAMPLE_S = 0.01
#: Seconds :func:`probe` takes on a 2-vCPU Xeon VM at its fastest.
PROBE_S = 40e-6
#: Probes on each side of a sample in the running median of probe times.
SMOOTH = 5


def probe() -> None:
    """A fixed pure-Python micro-workload, timed on every sample."""
    counts: dict[int, int] = {}
    for i in range(400):
        counts[i & 63] = counts.get(i & 63, 0) + i


class HostClock:
    """Every :data:`SAMPLE_S`: the probe's duration and the event count of
    :attr:`sim` (0 until it is set)."""

    def __init__(self) -> None:
        self.sim = None
        self.times = [_T0]
        self.probes: list[float] = []
        self.events = [0]

    def __call__(self, signum, frame) -> None:
        start = _clock()
        probe()
        self.probes.append(_clock() - start)
        self.times.append(start)
        self.events.append(self.sim.events_processed if self.sim is not None else 0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.speed = [
            PROBE_S / statistics.median(self.probes[max(0, i - SMOOTH):i + SMOOTH + 1])
            for i in range(len(self.probes))
        ] or [1.0]
        # reference seconds since _T0 at each sample; speed[i] holds
        # between samples i and i + 1
        self.ref = [0.0]
        for i in range(1, len(self.times)):
            self.ref.append(self.ref[-1] + (self.times[i] - self.times[i - 1]) * self.speed[i - 1])

    def reference(self, t: float) -> float:
        """Reference seconds from _T0 to host time ``t``."""
        i = bisect.bisect_right(self.times, t) - 1
        return self.ref[i] + (t - self.times[i]) * self.speed[min(i, len(self.speed) - 1)]

    def progress(self, start: float, end: float, events0: int, events1: int) -> list:
        """``(reference seconds, events)`` since ``start`` at every sample
        between ``start`` and ``end``, and at both ends."""
        ref0 = self.reference(start)
        inside = [
            (self.ref[i] - ref0, self.events[i] - events0)
            for i in range(len(self.times))
            if start < self.times[i] < end
        ]
        return [(0.0, 0)] + inside + [(self.reference(end) - ref0, events1 - events0)]


def main(argv: list[str]) -> int:
    src, workload, seed, mode, size = argv[:5]
    clock = HostClock()
    if mode != "traced":
        clock.start()
    sys.path[:0] = [src, str(Path(__file__).resolve().parent)]
    from workloads import WORKLOADS

    run = WORKLOADS[workload](int(seed), small=(size == "small"))
    run.timed("setup.import_s", run.import_modules)
    log = None
    if mode == "traced":
        import spans

        log = spans.SpanLog()
        spans.install(log, op_entries=run.op_entries)
    run.setup()
    setup_end = _clock()
    result: dict = {"setup_s": setup_end - _T0, "phases": run.phases}
    if mode != "setup":
        if log is not None:
            log.active = True
            root = log.open(log.name_id(spans.ROOT))
        clock.sim = run.sim
        events0 = run.sim.events_processed
        start = _clock()
        run.loop()
        end = _clock()
        events1 = run.sim.events_processed
        if log is not None:
            log.close(root)
            log.active = False
        loop_s = end - start
        run.score()
        result.update(run.result(), loop_s=loop_s)
    clock.stop()
    if mode != "traced":
        phases: dict[str, float] = {}
        for name, begun, ended in run.intervals:
            phases[name] = phases.get(name, 0.0) + clock.reference(ended) - clock.reference(begun)
        result["ref"] = {"setup_s": clock.reference(setup_end), "phases": phases}
    if mode == "setup":
        print("RESULT " + json.dumps(result), flush=True)
        print("CHECK " + json.dumps({"failures": []}), flush=True)
        return 0
    if mode != "traced":
        result["ref"]["progress"] = clock.progress(start, end, events0, events1)
    result.update(
        workload=workload,
        mode=mode,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print("RESULT " + json.dumps(result), flush=True)

    failures = list(run.verify())
    check: dict = {"failures": failures}
    if log is not None:
        arrays = log.arrays()
        root_s = (int(arrays["end"][root]) - int(arrays["start"][root])) / 1e9
        # with every span nested in the root, self times add up to the root
        nesting = spans.check_nesting(arrays["start"], arrays["end"], arrays["parent"])
        if nesting:
            print("traced run: " + "; ".join(nesting), file=sys.stderr)
            return 1
        layers, modules = spans.attribute(log, ("repro.isos.shell", "repro.objstore.chunking"))
        if abs(root_s - loop_s) > 0.01 * loop_s:
            failures.append(f"root span {root_s} s differs from loop time {loop_s} s")
        check.update(layers=layers, modules=modules, root_s=root_s, spans=len(log),
                     ops=log.last_op)
        if len(argv) > 5:
            log.save(argv[5])
    print("CHECK " + json.dumps(check), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
