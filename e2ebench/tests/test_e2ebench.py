"""Tests for the benchmark's own code.

Run from the repo root: ``python3 -m pytest -q e2ebench/tests``
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import JobsPaper, ObjstoreChurn, ServePoisson  # noqa: E402


# -- workload inputs are a pure function of the seed ---------------------------


def _arrivals(seed: int) -> list:
    from repro.service.traffic import TrafficGenerator

    workload = ServePoisson(seed)
    return [
        TrafficGenerator(traffic).arrivals()
        for traffic in workload.traffic_plan(workload.scenario())
    ]


def test_arrivals_are_a_pure_function_of_the_seed():
    assert _arrivals(7) == _arrivals(7)
    assert _arrivals(7) != _arrivals(8)


def _objects(seed: int) -> tuple[list, list]:
    from repro.objstore.workload import generate_objects

    workload = ObjstoreChurn(seed, small=True)
    return generate_objects(workload.scenario().objstore.spec()), workload.plan()


def test_object_bytes_and_op_plan_are_a_pure_function_of_the_seed():
    payloads, plan = _objects(7)
    assert (payloads, plan) == _objects(7)
    other_payloads, other_plan = _objects(8)
    assert [p for _, p in payloads] != [p for _, p in other_payloads]
    assert plan != other_plan


def _jobs(seed: int) -> tuple[list, list]:
    names = [f"book{i:04d}" for i in range(384)]

    def place(books):
        return {f"d{d}": books[d::16] for d in range(16)}

    return JobsPaper(seed).plan(names, place)


def test_job_placement_and_order_are_a_pure_function_of_the_seed():
    assert _jobs(7) == _jobs(7)
    books, jobs = _jobs(7)
    assert sorted(books) == sorted(_jobs(8)[0])
    assert (books, jobs) != _jobs(8)
    assert len(jobs) == 4 * len(books)


def test_scenario_seeds_follow_the_benchmark_seed():
    for workload in (JobsPaper, ServePoisson, ObjstoreChurn):
        assert workload(7).scenario() == workload(7).scenario()
        assert workload(7).scenario().seed != workload(8).scenario().seed


# -- self-time arithmetic ---------------------------------------------------------


def test_self_times_of_a_hand_built_nest():
    # kernel [0, 100]; a generator resumed twice by it ([10, 20] and
    # [50, 70], suspended in between), each resume making one call; plus a
    # call with two children of its own.
    spans_ = [
        # start, end, parent
        (0, 100, -1),   # 0 kernel
        (10, 20, 0),    # 1 generator resume #1
        (12, 15, 1),    # 2 call inside resume #1
        (50, 70, 0),    # 3 generator resume #2
        (60, 65, 3),    # 4 call inside resume #2
        (80, 90, 0),    # 5 call with two children
        (81, 85, 5),    # 6
        (86, 88, 5),    # 7
    ]
    start, end, parent = (np.array(col) for col in zip(*spans_))
    assert spans.check_nesting(start, end, parent) == []
    own = spans.self_times(start, end, parent)
    assert own.tolist() == [100 - 10 - 20 - 10, 7, 3, 15, 5, 10 - 4 - 2, 4, 2]
    assert own.sum() == 100


def test_nesting_check_finds_open_and_escaping_spans():
    start, end, parent = np.array([0, 10, 30]), np.array([50, 60, 0]), np.array([-1, 0, 0])
    problems = spans.check_nesting(start, end, parent)
    assert problems == ["1 spans left open", "1 spans do not lie within their parent"]


def test_self_times_reject_a_span_that_ends_before_it_starts():
    with pytest.raises(ValueError):
        spans.self_times(np.array([5]), np.array([4]), np.array([-1]))


class _Layer:
    """Stands in for a layer class: a generator process and a plain call."""

    def work(self, seconds: float) -> None:
        time.sleep(seconds)

    def process(self, steps: int):
        for _ in range(steps):
            self.work(0.002)
            yield "event"
        return "done"


def test_traced_generator_is_timed_per_resume_not_while_suspended():
    log = spans.SpanLog()
    assert spans._wrap_class(_Layer, "repro.fake.layer._Layer", log, frozenset(
        {"repro.fake.layer._Layer.process"}
    )) == 2
    layer = _Layer()
    log.active = True
    root = log.open(log.name_id(spans.ROOT))
    gen = layer.process(3)
    results = []
    while True:  # a minimal kernel: resume, then idle while suspended
        try:
            results.append(next(gen))
        except StopIteration as stop:
            results.append(stop.value)
            break
        time.sleep(0.01)
    log.close(root)
    log.active = False
    assert results == ["event"] * 3 + ["done"]
    names = [log.names[i] for i in log.name]
    assert names.count("repro.fake.layer._Layer.process") == 4  # one per resume
    assert names.count("repro.fake.layer._Layer.work") == 3
    assert set(log.op.tolist()[1:]) == {1}  # one op, inherited by the calls
    by_name = spans.self_times_by_name(log)
    # three 2 ms calls; the generator itself only pays its bookkeeping, and
    # the 3 x 10 ms it sat suspended stays with the kernel (the root)
    assert 6e6 <= by_name["repro.fake.layer._Layer.work"] < 15e6
    assert by_name["repro.fake.layer._Layer.process"] < 3e6
    assert by_name[spans.ROOT] >= 30e6
    arrays = log.arrays()
    assert sum(by_name.values()) == int(arrays["end"][root] - arrays["start"][root])
    layers, modules = spans.attribute(log, ("repro.fake.layer",))
    assert set(layers) == {"fake.self_s", "other.self_s"}
    assert modules["repro.fake.layer.self_s"] == layers["fake.self_s"]


# -- host time at its fastest ----------------------------------------------------------


def test_fastest_takes_each_part_at_its_shortest(monkeypatch):
    monkeypatch.setattr(run, "SEGMENTS", 2)
    # child A runs the loop's two halves in 1.0 s and 1.0 s, child B in
    # 0.5 s and 2.5 s (the 50-event mark falls between B's samples)
    a = {"setup_s": 1.3, "loop_s": 2.1, "wall_s": 4.0, "ref": {
        "setup_s": 1.2, "phases": {"corpus": 1.0},
        "progress": [(0.0, 0), (1.0, 50), (2.0, 100)]}}
    b = {"setup_s": 1.2, "loop_s": 3.1, "wall_s": 5.0, "ref": {
        "setup_s": 1.1, "phases": {"corpus": 0.8},
        "progress": [(0.0, 0), (0.25, 25), (0.75, 75), (3.0, 100)]}}
    setup_only = {"ref": {"setup_s": 1.0, "phases": {"corpus": 0.7}}}
    assert run.crossings(b["ref"]["progress"], 100, 2) == [0.0, 0.5, 3.0]
    best = run.fastest([a, b], [setup_only])
    assert best["setup_s"] == pytest.approx(0.7 + 0.2)  # corpus + rest
    assert best["loop_s"] == pytest.approx(0.5 + 1.0)
    # around the set-up and loop, as measured: A's 0.6 s
    assert best["wall_s"] == pytest.approx(0.6 + 0.9 + 1.5)


# -- the command's output ------------------------------------------------------------


def _small(monkeypatch):
    """Run every child of :func:`run.bench` at warm-up size."""
    real = run.run_child

    def small(workload, seed, mode, small=False, deadline=None):
        return real(workload, seed, mode, True, deadline)

    monkeypatch.setattr(run, "run_child", small)
    return real


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_in_benchmark_json(trace, monkeypatch):
    _small(monkeypatch)
    spec = run.load_spec()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    for workload in run.WORKLOADS:
        result = run.bench(workload, 1, 0.0, trace, spec)
        assert result["correct"], result["failures"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.report(workload, trace, result, spec)
        lines = out.getvalue().splitlines()
        final = json.loads(lines[-1])
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert set(final["metrics"]) == wanted
        for name, value in final["metrics"].items():
            assert value["unit"] == declared[name]
        printed = {line.split()[0] for line in lines[1:-1] if not line.startswith("(")}
        assert printed <= set(declared)


def test_differing_digests_fail_the_run(monkeypatch):
    real = _small(monkeypatch)
    calls = []

    def tampered(workload, seed, mode, small=False, deadline=None):
        result = real(workload, seed, mode, True, deadline)
        calls.append(mode)
        if mode == "plain" and calls.count("plain") == 3:  # warm-up, then two timed
            result["digest"] = "different"
        return result

    monkeypatch.setattr(run, "run_child", tampered)
    result = run.bench("objstore-churn", 1, 0.0, 0, run.load_spec())
    assert not result["correct"]
    assert any("differ" in failure for failure in result["failures"])


def test_differing_trace_digests_fail_the_command(monkeypatch, capsys):
    def fake(workload, seed, seconds, trace, spec):
        names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        return {"correct": True, "attempted": 1, "failed": 0, "failures": [],
                "children": 1, "digest": f"d{trace}",
                "metrics": {name: 1.0 for name in names}}

    monkeypatch.setattr(run, "bench", fake)
    assert run.main(["--workload", "jobs-paper"]) == 1
    final = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert final["correct"] is False


def test_a_child_past_its_deadline_is_killed():
    with pytest.raises(run.BenchError):
        run.run_child("objstore-churn", 1, "plain", True, time.perf_counter() - 1.0)
    with pytest.raises(run.BenchError):
        run.run_child("objstore-churn", 1, "plain", False, time.perf_counter() + 0.2)
