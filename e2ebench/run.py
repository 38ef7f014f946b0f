"""The repo's end-to-end benchmark: three workloads, checked, with traced
per-layer attribution.

    python3 e2ebench/run.py                      # every workload, both runs
    python3 e2ebench/run.py --workload jobs-paper --seed 3 --seconds 20 --trace 0

Every workload runs in fresh single-threaded child processes
(``child.py``), one at a time, all with the same fixed environment.  Each
workload first compiles the sources and runs a discarded warm-up child, so
bytecode compilation and a cold page cache never land in a timed child's
set-up.

``--trace 0`` runs timed children for ``--seconds`` (at least three), plus
set-up-only children, and reports the end-to-end metrics with host times
in reference seconds, taken part by part at their fastest
(:func:`fastest`).  ``--trace 1`` runs one
untraced child, whose counters and set-up phases it reports, and one traced
child, whose span self times give ``<layer>.self_s``; no end-to-end metric
comes from the traced child.  Every child's outputs are checked, and every
child of a run must produce the same digest of simulated metrics and
counts.  Any failure exits non-zero.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Where the traced child writes its spans (git-ignored).
OUT = ROOT / ".benchout"

WORKLOADS = ("jobs-paper", "serve-poisson", "objstore-churn")
#: Every child gets exactly this environment.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "LC_ALL": "C",
}
#: One ``--workload``/``--trace`` run, children included, ends within this.
RUN_DEADLINE_S = 170.0
MIN_CHILDREN = 3
#: Equal stretches of loop events timed separately (see :func:`fastest`).
SEGMENTS = 20
#: Share of a ``--trace 0`` run spent in set-up-only children.
SETUP_SHARE = 0.25


class BenchError(Exception):
    """A child failed, an output was wrong, or runs disagreed."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(
    workload: str, seed: int, mode: str, small: bool = False, deadline: float | None = None
) -> dict:
    """One child process; returns its RESULT merged with its CHECK.  The
    child is killed at ``deadline`` (``time.perf_counter()`` seconds)."""
    cmd = [
        sys.executable, "-s", str(HERE / "child.py"), str(SRC),
        workload, str(seed), mode, "small" if small else "full",
    ]
    if mode == "traced":
        OUT.mkdir(exist_ok=True)
        cmd.append(str(OUT / f"spans-{workload}.npz"))
    started = time.perf_counter()
    if deadline is None:
        deadline = started + RUN_DEADLINE_S
    if deadline <= started:
        raise BenchError(f"{workload} {mode} child: out of time")
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=CHILD_ENV, cwd=str(ROOT)
    )
    lines: dict[str, dict] = {}
    watchdog = threading.Timer(deadline - started, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            tag, _, body = line.partition(" ")
            if tag == "RESULT":
                wall = time.perf_counter() - started
                lines[tag] = json.loads(body)
                lines[tag]["wall_s"] = wall
            elif tag == "CHECK":
                lines[tag] = json.loads(body)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or set(lines) != {"RESULT", "CHECK"}:
        raise BenchError(f"{workload} {mode} child exited {code} without a full report")
    result = lines["RESULT"]
    result.update(lines["CHECK"])
    return result


def warm_up(workload: str, seed: int, deadline: float) -> None:
    """Compile every module to bytecode, then run a discarded small child so
    the code it touches is in the page cache before any timed child."""
    subprocess.run(
        [sys.executable, "-s", "-m", "compileall", "-q", str(SRC), str(HERE)],
        env=CHILD_ENV, check=True, stdout=subprocess.DEVNULL,
        timeout=deadline - time.perf_counter(),
    )
    run_child(workload, seed, "plain", True, deadline)


def crossings(progress: list, total: int, segments: int) -> list[float]:
    """Seconds into the loop at which its event count first reaches each of
    ``segments`` equal steps of ``total`` (interpolated between samples)."""
    times = [0.0]
    i = 0
    for k in range(1, segments + 1):
        target = total * k / segments
        while progress[i][1] < target:
            i += 1
        (t0, e0), (t1, e1) = progress[i - 1], progress[i]
        times.append(t0 + (t1 - t0) * (target - e0) / (e1 - e0))
    return times


def fastest(children: list[dict], setups: list[dict]) -> dict[str, float]:
    """Set-up and loop time of the children's shared work in reference
    seconds (see ``child.py``), each part at its fastest: every set-up phase
    takes its shortest time over the children and the set-up-only children,
    and each of :data:`SEGMENTS` equal stretches of the loop's events its
    shortest over the children.  All children do the same work (their
    digests must agree)."""
    phases: dict[str, list[float]] = {}
    for child in children + setups:
        ref = child["ref"]
        rest = ref["setup_s"] - sum(ref["phases"].values())
        for name, seconds in list(ref["phases"].items()) + [("rest", rest)]:
            phases.setdefault(name, []).append(seconds)
    setup = sum(min(times) for times in phases.values())
    progress = [child["ref"]["progress"] for child in children]
    total = min(p[-1][1] for p in progress)  # equal unless digests differ
    marks = [crossings(p, total, SEGMENTS) for p in progress]
    loop = sum(
        min(m[k] - m[k - 1] for m in marks) for k in range(1, SEGMENTS + 1)
    )
    # spawn to first statement, and loop end to scorecard, as measured
    around = min(c["wall_s"] - c["setup_s"] - c["loop_s"] for c in children)
    return {"setup_s": setup, "loop_s": loop, "wall_s": around + setup + loop}


def end_to_end(children: list[dict], setups: list[dict]) -> dict[str, float]:
    """Every ``end_to_end`` metric over the timed children."""
    best = fastest(children, setups)
    metrics = {
        "setup_s": best["setup_s"],
        "wall_s": best["wall_s"],
        "ops_per_s": children[0]["finished"] / best["loop_s"],
        "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in children),
    }
    metrics.update(children[0]["sim"])
    return metrics


def per_layer(plain: dict, traced: dict, spec: dict) -> dict[str, float]:
    """Counts and phases of the untraced child, self times of the traced one."""
    metrics: dict[str, float] = {name: 0.0 for name in (m["name"] for m in spec["per_layer"])}
    counts = plain["counts"]
    metrics.update({k: v for k, v in counts.items() if k in metrics})
    metrics.update({k: v for k, v in plain["phases"].items() if k in metrics})
    metrics["sim.host_us_per_event"] = plain["loop_s"] / counts["sim.events"] * 1e6
    metrics["failed_frac"] = (plain["failed"] + plain["refused"]) / plain["attempted"]
    layers = traced["layers"]
    for name in list(metrics):
        if name.endswith(".self_s"):
            metrics[name] = layers.get(name, 0.0)
    metrics["isos.shell_s"] = traced["modules"]["repro.isos.shell.self_s"]
    metrics["objstore.chunk_s"] = traced["modules"]["repro.objstore.chunking.self_s"]
    metrics["trace.overhead_frac"] = traced["loop_s"] / plain["loop_s"] - 1.0
    return metrics


def units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def bench(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """One workload, one mode: the report object (not yet printed)."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    warm_up(workload, seed, deadline)
    if trace:
        children = [
            run_child(workload, seed, "plain", deadline=deadline),
            run_child(workload, seed, "traced", deadline=deadline),
        ]
    else:
        # full children, with set-up-only children taking up to a quarter
        # of the time: set-up is short and sees few draws otherwise
        children, setups = [], []
        started = time.perf_counter()
        setup_time = 0.0
        while True:
            children.append(run_child(workload, seed, "plain", deadline=deadline))
            while setup_time < SETUP_SHARE * (time.perf_counter() - started):
                begun = time.perf_counter()
                setups.append(run_child(workload, seed, "setup", deadline=deadline))
                setup_time += time.perf_counter() - begun
            elapsed = time.perf_counter() - started
            if len(children) >= MIN_CHILDREN and elapsed * (1 + 1 / len(children)) > seconds:
                break
    failures = [f for child in children for f in child["failures"]]
    digests = {child["digest"] for child in children}
    if len(digests) != 1:
        failures.append(f"simulated metrics and counts differ between runs: {sorted(digests)}")
    if len({child["attempted"] for child in children}) != 1:
        failures.append("runs attempted different numbers of ops")
    if trace:
        metrics = per_layer(children[0], children[1], spec)
    else:
        metrics = end_to_end(children, setups)
    return {
        "correct": not failures,
        "attempted": sum(child["attempted"] for child in children),
        "failed": sum(child["failed"] for child in children),
        "failures": failures,
        "children": len(children),
        "digest": children[0]["digest"],
        "metrics": metrics,
    }


def report(workload: str, trace: int, result: dict, spec: dict) -> None:
    unit = units(spec)
    kind = "per-layer (traced run)" if trace else "end-to-end"
    print(f"== {workload}: {kind}, {result['children']} children, "
          f"{result['attempted']} ops attempted, {result['failed']} failed")
    for failure in result["failures"][:20]:
        print(f"FAIL {failure}")
    for name, value in result["metrics"].items():
        print(f"{name:32s} {value:16.6f} {unit[name]}")
    if workload == "serve-poisson" and not trace:
        print("(arrivals are events in simulated time, so the generator never runs late)")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit[name]}
            for name, value in result["metrics"].items()
        },
    }
    print(json.dumps(line), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer; default both")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    ok = True
    for workload in workloads:
        digests = set()
        for trace in traces:
            try:
                result = bench(workload, args.seed, seconds, trace, spec)
            except (BenchError, subprocess.SubprocessError) as exc:
                print(f"e2ebench: {exc}", file=sys.stderr)
                return 1
            digests.add(result["digest"])
            if len(digests) > 1:
                result["correct"] = False
                result["failures"].append(
                    "the traced and untraced runs' simulated metrics and counts differ"
                )
            report(workload, trace, result, spec)
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
