"""The 100k-request deterministic soak (ROADMAP scale item), marked slow.

One ``traffic-soak`` run pushes 100,000 seeded Poisson arrivals through
the monolithic serving path — long enough to surface slow state leaks
(queue residue, ID drift, horizon creep) that the short pinned drills
never see.  The test asserts:

- request conservation: ``admitted + shed == offered == 100_000`` and
  ``completed + lost == admitted``, per class and in aggregate;
- the soak actually serves: more than a tenth of the offered load
  completes;
- a ``--workers 4`` cached replay through the parallel runner returns
  byte-identical payloads with ``executed == 0`` (the soak caches like
  any matrix cell).

Excluded from the default run by the ``slow`` marker (`addopts` carries
``-m 'not slow'``); CI runs it as a separate non-blocking job::

    PYTHONPATH=src python -m pytest -q -m slow tests/test_traffic_soak.py
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.config.codec import to_dict
from repro.config.presets import preset

pytestmark = pytest.mark.slow

REQUESTS = 100_000


def _per_class(registry, name: str) -> Counter:
    """A tracker counter summed per ``cls`` label (over any other labels)."""
    totals: Counter = Counter()
    for labels, value, _t in registry[name].samples():
        totals[labels["cls"]] += int(value)
    return totals


def test_soak_conserves_requests_and_replays_from_cache(monkeypatch) -> None:
    from repro.obs import MetricsRegistry
    from repro.parallel import ResultCache, canonical_json, run_jobs, traffic_jobs
    from repro.service.frontend import ServiceFrontend

    # The scorecard payload carries per-class requests and completions
    # only, so read the per-class shed/lost split off the SLO tracker of
    # the (in-process, workers=1) run.
    trackers = []
    serve = ServiceFrontend.run

    def spying_run(self):
        trackers.append(self.tracker)
        return (yield from serve(self))

    monkeypatch.setattr(ServiceFrontend, "run", spying_run)

    specs = traffic_jobs(to_dict(preset("traffic-soak")), mixes=("poisson",))
    cache = ResultCache()
    report = run_jobs(specs, workers=1, cache=cache, metrics=MetricsRegistry())
    values = report.values()
    assert len(values) == 1 and len(trackers) == 1
    value = values[0]

    shed = sum(value["shed"].values())
    assert value["requests"] == REQUESTS
    assert value["admitted"] + shed == value["requests"]
    assert value["completed"] + value["lost"] == value["admitted"]
    assert value["completed"] > REQUESTS // 10

    registry = trackers[0].registry
    offered = _per_class(registry, "service.requests")
    shed_by = _per_class(registry, "service.shed")
    completed = _per_class(registry, "service.completed")
    lost = _per_class(registry, "service.lost")
    assert set(offered) == set(value["per_class"])
    for name, stats in value["per_class"].items():
        admitted = offered[name] - shed_by[name]  # admitted + shed == offered
        assert stats["requests"] == offered[name]
        assert stats["completed"] == completed[name]
        assert completed[name] + lost[name] == admitted, name
    assert sum(offered.values()) == value["requests"]
    assert sum(shed_by.values()) == shed
    assert sum(lost.values()) == value["lost"]

    replay = run_jobs(specs, workers=4, cache=cache, metrics=MetricsRegistry())
    assert replay.executed == 0, "cached soak replay recomputed cells"
    assert canonical_json(replay.values()) == canonical_json(values), (
        "cached replay diverged byte-for-byte"
    )
