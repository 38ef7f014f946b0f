"""The benchmark's three workloads, driven through public ``repro`` APIs.

Each workload turns the benchmark seed into the program's inputs (scenario
seeds, book placement and submission order, arrival streams, object specs,
the operation plan), builds the system with the ``repro.config`` presets and
factories, runs its timed loop with ``Simulator.run``, and reads the layers'
public counters before and after the loop.  Nothing here imports ``repro``
at module level: the child process times that import as part of set-up.

The book corpora are the presets' fixed datasets.  The corpus generator's
realised book size depends on its seed (for some seeds every book comes out
up to 15 % short), so a seeded corpus would put that spread into every
metric of the two book workloads.

- ``jobs-paper``: the paper's batch job (Figs 6-8).  One node, 16 CompStors
  of 48 MiB, 24 distinct 64 KiB books per device; every book goes through
  gzip, bzip2, grep and gawk, submitted as one ``InSituClient.gather``.
- ``serve-poisson``: open-loop serving in simulated time on the traffic-soak
  fleet (4x4 devices, 2 replicas), 128 books, no sharding, no faults; four
  back-to-back ``ServiceFrontend`` phases at fixed offered rates.
- ``objstore-churn``: one closed-loop client on the objstore-smoke fleet
  (2x2, 2 replicas, no faults, 8 MiB devices) doing rounds of PUT, overwrite,
  GET+verify, DELETE and a store GC pass through ``DedupObjectStore``.
"""

from __future__ import annotations

import bz2
import hashlib
import json
import random
import zlib
from dataclasses import replace
from time import perf_counter

__all__ = ["WORKLOADS", "derive", "percentile"]

#: Offered rates of the serving ladder, requests per simulated second.
PHASE_RATES = (4000.0, 8000.0, 10000.0, 12000.0)
#: The phase whose latency is the end-to-end ``sim_p50_ms``/``sim_p99_ms``.
LATENCY_RATE = 8000.0
#: p99 objective (simulated ms) for ``sim_slo_rps``.
SLO_P99_MS = 5.0


def derive(seed: int, stream: str) -> int:
    """A program seed for one named input stream of a benchmark seed."""
    return zlib.crc32(f"{seed}:{stream}".encode()) & 0x7FFFFFFF


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def _digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class Workload:
    """Shared skeleton: set-up phases, timed loop, counters, checks."""

    name = ""
    #: Generator entry points (``module.Class.method``) that start one op.
    op_entries: tuple[str, ...] = ()
    #: Modules imported in the ``setup.import_s`` phase.
    modules: tuple[str, ...] = ("repro", "repro.config")

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small
        self.phases: dict[str, float] = {}
        #: ``(phase, start, end)`` host times of every timed set-up step
        self.intervals: list[tuple[str, float, float]] = []
        self.failures: list[str] = []
        self.failed = 0
        self.refused = 0

    # -- set-up -------------------------------------------------------------
    def timed(self, phase: str, fn, *args):
        start = perf_counter()
        value = fn(*args)
        end = perf_counter()
        self.phases[phase] = self.phases.get(phase, 0.0) + end - start
        self.intervals.append((phase, start, end))
        return value

    def import_modules(self) -> None:
        import importlib

        for module in self.modules:
            importlib.import_module(module)

    def setup(self) -> None:
        raise NotImplementedError

    def loop(self) -> None:
        """The timed operations, between :meth:`begin` and :meth:`end`."""
        raise NotImplementedError

    def score(self) -> None:
        """Op accounting and the cheap output checks (after the loop)."""
        raise NotImplementedError

    # -- counters -------------------------------------------------------------
    def counters(self) -> dict[str, float]:
        """Cumulative public counters of every layer, summed over devices."""
        devices = [ssd for node in self.nodes for ssd in node.compstors]
        ftl = [ssd.ftl.stats() for ssd in devices]
        fleet = getattr(self, "fleet", None)
        return {
            "sim.events": self.sim.events_processed,
            "flash.reads": sum(ssd.flash.stats.reads for ssd in devices),
            "flash.programs": sum(ssd.flash.stats.programs for ssd in devices),
            "flash.erases": sum(ssd.flash.stats.erases for ssd in devices),
            "ecc.pages_decoded": sum(ssd.ecc.pages_decoded for ssd in devices),
            "ecc.bits_corrected": sum(ssd.ecc.bits_corrected for ssd in devices),
            "ftl.host_writes": sum(s.get("host_writes", 0) for s in ftl),
            "ftl.gc_collections": sum(s.get("gc_collections", 0) for s in ftl),
            "ftl.gc_pages_relocated": sum(s.get("gc_pages_relocated", 0) for s in ftl),
            "ftl.host_pages_programmed": sum(
                s.get("host_pages_programmed", 0) for s in ftl
            ),
            "ftl.host_reads": sum(s.get("host_reads", 0) for s in ftl),
            "ftl.buffer_read_hits": sum(s.get("buffer_read_hits", 0) for s in ftl),
            "nvme.commands": sum(ssd.controller.commands_executed for ssd in devices),
            "nvme.isc_commands": sum(ssd.controller.isc_commands for ssd in devices),
            "pcie.bytes": sum(
                sum(port.downlink.bytes_moved.values())
                for node in self.nodes
                for port in node.fabric.ports
            ),
            "isps.minions_served": sum(ssd.agent.minions_served for ssd in devices),
            "host.minions_sent": sum(node.client.minions_sent for node in self.nodes),
            "host.retries": sum(node.client.retries for node in self.nodes),
            "cluster.failovers": fleet.failovers_total if fleet is not None else 0,
            "cluster.host_fallbacks": (
                fleet.host_fallbacks_total if fleet is not None else 0
            ),
        }

    def begin(self) -> None:
        """Mark counters and energy just before the timed loop."""
        self._before = self.counters()
        self._energy = [node.meter.snapshot() for node in self.nodes]
        self._sim_start = self.sim.now

    def end(self) -> None:
        """Counter deltas and energy over the timed loop."""
        after = self.counters()
        self.counts = {key: after[key] - self._before[key] for key in after}
        self.energy_j = sum(
            node.meter.window(mark).total_j
            for node, mark in zip(self.nodes, self._energy)
        )
        self.sim_s = self.sim.now - self._sim_start

    # -- results ----------------------------------------------------------------
    def result(self) -> dict:
        """Simulated metrics, counts and the determinism digest."""
        counts = dict(self.counts)
        programs = counts.pop("ftl.host_pages_programmed")
        reads = counts.pop("ftl.host_reads")
        hits = counts.pop("ftl.buffer_read_hits")
        counts["ftl.write_amplification"] = (
            counts["flash.programs"] / programs if programs else 0.0
        )
        counts["ftl.buffer_read_hit_ratio"] = hits / reads if reads else 0.0
        counts["power.total_j"] = self.energy_j
        counts["apps.bytes_in"] = self.app_bytes
        counts.update(self.extra())
        p50_ms, p99_ms = self.latency_ms()
        sim = {
            "sim_s": self.sim_s,
            "sim_p50_ms": p50_ms,
            "sim_p99_ms": p99_ms,
            "sim_mb_per_s": self.user_bytes / 1e6 / self.sim_s,
            "sim_j_per_gb": self.energy_j / (self.user_bytes / 1e9),
        }
        return {
            "sim": sim,
            "counts": counts,
            "attempted": self.attempted,
            "finished": self.finished,
            "failed": self.failed,
            "refused": self.refused,
            "digest": _digest({"sim": sim, "counts": counts}),
        }

    def latency_ms(self) -> tuple[float, float]:
        """(p50, p99) of the per-op simulated latency, in ms."""
        return percentile(self.latencies, 50) * 1e3, percentile(self.latencies, 99) * 1e3

    def extra(self) -> dict[str, float]:
        return {}

    def verify(self) -> list[str]:
        """Output checks made after the scorecard (outside the timed loop)."""
        return self.failures


class JobsPaper(Workload):
    name = "jobs-paper"
    op_entries = ("repro.host.insitu.InSituClient.send_minion",)
    modules = Workload.modules + ("repro.proto.entities",)
    apps = ("gzip", "bzip2", "grep", "gawk")

    def scenario(self):
        from repro.config import apply_overrides, preset

        devices, books, size = (2, 2, 4096) if self.small else (16, 24, 64 * 1024)
        return apply_overrides(preset("fig6"), [
            f"seed={derive(self.seed, 'sim')}",
            f"fleet.devices_per_node={devices}",
            f"corpus.files={devices * books}",
            f"corpus.mean_file_bytes={size}",
            "corpus.size_spread=0.0",
        ])

    def setup(self) -> None:
        from repro.config import build_corpus, build_node
        from repro.proto.entities import Command

        def build():
            config = self.scenario()
            return config, build_node(config)

        config, self.node = self.timed("config.build_s", build)
        self.needle = config.corpus.needle
        books = self.timed("workloads.corpus_s", build_corpus, config)
        self.books, self.jobs = self.plan(books, self.node.device_books)
        self.nodes = [self.node]
        self.sim = self.node.sim

        def stage():
            self.sim.run(self.sim.process(self.node.stage_corpus(self.books, compressed=False)))

        self.timed("cluster.stage_s", stage)
        self.assignments = [
            (device, Command(command_line=(
                f"{app} {book.name}" if app in ("gzip", "bzip2")
                else f"{app} {self.needle} {book.name}"
            )))
            for app, book, device in self.jobs
        ]

    def plan(self, books, place) -> tuple[list, list]:
        """Seeded book order (so which device holds which book) and minion
        submission order.  ``place`` maps a book list to ``{device: books}``
        the way staging does; returns ``(books, [(app, book, device)])``."""
        rng = random.Random(derive(self.seed, "placement"))
        ordered = rng.sample(books, len(books))
        jobs = [
            (app, book, device)
            for app in self.apps
            for device, part in place(ordered).items()
            for book in part
        ]
        rng.shuffle(jobs)
        return ordered, jobs

    def loop(self) -> None:
        client = self.node.client

        def batch():
            return (yield from client.gather(self.assignments))

        self.begin()
        self.responses = self.sim.run(self.sim.process(batch()))
        self.end()

    def score(self) -> None:
        self.attempted = self.finished = len(self.responses)
        self.latencies = [r.execution_seconds for r in self.responses]
        self.app_bytes = self.user_bytes = sum(
            book.plain_size for _, book, _ in self.jobs
        )
        self.expected = {
            book.name: sum(
                1 for line in book.plain.split(b"\n") if self.needle.encode() in line
            )
            for book in self.books
        }
        for (app, book, _), response in zip(self.jobs, self.responses):
            problem = self._check_response(app, book, response)
            if problem:
                self.failed += 1
                self.failures.append(problem)

    def _check_response(self, app, book, response) -> str | None:
        want = self.expected[book.name]
        if app in ("grep", "gawk"):
            # grep exits 1 when nothing matched, like the real tool
            if response.status.value not in ("ok", "app-error"):
                return f"{app} {book.name}: status {response.status.value}"
            fields = response.stdout.split()
            got = int(fields[0]) if fields else -1
            if got != want or (response.exit_code != 0) != (app == "grep" and want == 0):
                return f"{app} {book.name}: {got} matches, expected {want}"
            return None
        if not response.ok:
            return f"{app} {book.name}: status {response.status.value}"
        return None

    def verify(self) -> list[str]:
        """Decompress every gzip/bzip2 output back to the staged text."""
        codecs = {"gzip": (".gz", zlib.decompress), "bzip2": (".bz2", bz2.decompress)}
        fs_of = {ssd.name: ssd.fs for ssd in self.node.compstors}
        outputs = [
            (app, book, fs_of[device], book.name + codecs[app][0])
            for app, book, device in self.jobs
            if app in codecs
        ]

        def read_all():
            blobs = []
            for _, _, fs, name in outputs:
                blobs.append((yield from fs.read_file(name)))
            return blobs

        blobs = self.sim.run(self.sim.process(read_all()))
        for (app, book, _, name), blob in zip(outputs, blobs):
            if codecs[app][1](blob) != book.plain:
                self.failures.append(f"{name}: does not decompress to the staged text")
        return self.failures


class ServePoisson(Workload):
    name = "serve-poisson"
    op_entries = ("repro.cluster.fleet.StorageFleet.serve_one",)
    modules = Workload.modules + ("repro.service.frontend", "repro.proto.entities")

    def scenario(self):
        from repro.config import apply_overrides, preset

        base = replace(preset("traffic-soak"), sharding=None)
        # 128 books, not the preset's 16: with 16 the uncontended median
        # request is always the same book, so p50 would not depend on the
        # arrivals at all
        return apply_overrides(base, [
            f"seed={derive(self.seed, 'sim')}",
            "corpus.files=128",
        ])

    def traffic_plan(self, config) -> list:
        """Each phase's open-loop Poisson stream (a ``TrafficConfig``)."""
        return [
            replace(
                config.traffic,
                requests=50 if self.small else 1250,
                rate=rate,
                seed=derive(self.seed, f"arrivals{index}"),
            )
            for index, rate in enumerate(PHASE_RATES)
        ]

    def setup(self) -> None:
        from repro.config import build_corpus, build_fleet
        from repro.proto.entities import Command

        def build():
            config = self.scenario()
            return config, build_fleet(config)

        self.config, self.fleet = self.timed("config.build_s", build)
        self.sim = self.fleet.sim
        self.nodes = self.fleet.nodes
        self.books = self.timed("workloads.corpus_s", build_corpus, self.config)

        def stage():
            self.sim.run(self.sim.process(
                self.fleet.stage_corpus(self.books, replicas=self.config.fleet.replicas)
            ))

        self.timed("cluster.stage_s", stage)
        needle = self.config.corpus.needle
        self.dispatched_bytes = 0

        def command_for(book, tenant):
            self.dispatched_bytes += book.plain_size
            return Command(command_line=f"grep {needle} {book.name}")

        self.command_for = command_for
        self.traffic = self.traffic_plan(self.config)

    def loop(self) -> None:
        from repro.service.frontend import ServiceFrontend

        def ladder():
            reports = []
            for traffic in self.traffic:
                frontend = ServiceFrontend(
                    self.fleet, self.config.service, traffic, self.books,
                    command_for=self.command_for,
                )
                reports.append((yield from frontend.run()))
            return reports

        self.begin()
        self.reports = self.sim.run(self.sim.process(ladder()))
        self.end()

    def score(self) -> None:
        self.attempted = sum(r.requests for r in self.reports)
        completed = sum(r.completed for r in self.reports)
        self.refused = sum(r.shed_total for r in self.reports)
        self.failed = sum(r.lost for r in self.reports)
        self.finished = completed + self.refused
        for rate, report in zip(PHASE_RATES, self.reports):
            if report.completed + report.shed_total + report.lost != report.requests:
                self.failures.append(f"phase {rate:.0f}/s: requests not conserved")
            if report.lost:
                self.failures.append(f"phase {rate:.0f}/s: {report.lost} requests lost")
        self.latency_report = self.reports[PHASE_RATES.index(LATENCY_RATE)]
        self.app_bytes = self.user_bytes = self.dispatched_bytes

    def latency_ms(self) -> tuple[float, float]:
        # request sojourn in the 8k phase: the frontend's exact quantiles
        return self.latency_report.p50_ms, self.latency_report.p99_ms

    def extra(self) -> dict[str, float]:
        reports = self.reports
        met = [
            rate for rate, r in zip(PHASE_RATES, reports)
            if r.p99_ms <= SLO_P99_MS and r.shed_total == 0
        ]
        out = {
            "service.admitted": sum(r.admitted for r in reports),
            "service.shed": sum(r.shed_total for r in reports),
            "service.peak_queue": max(r.peak_queue for r in reports),
            "service.queue_wait_p99_sim_ms": self.latency_report.queue_wait_p99_ms,
            "sim_slo_rps": max(met) if met else 0.0,
        }
        for rate, report in zip(PHASE_RATES, reports):
            out[f"service.p99_sim_ms.r{rate / 1000:02.0f}k"] = report.p99_ms
        return out


class ObjstoreChurn(Workload):
    name = "objstore-churn"
    op_entries = tuple(
        f"repro.objstore.dedup.DedupObjectStore.{op}" for op in ("put", "get", "delete")
    )
    modules = Workload.modules + ("repro.objstore.dedup", "repro.objstore.workload")

    def shape(self) -> tuple[int, int, int, int]:
        """(rounds, new keys per round, overwrites per round, GETs per round)."""
        return (2, 6, 2, 4) if self.small else (20, 40, 12, 20)

    def scenario(self):
        from repro.config import FaultsConfig, apply_overrides, preset

        rounds, new, overwrites, _ = self.shape()
        base = replace(preset("objstore-smoke"), faults=FaultsConfig())
        return apply_overrides(base, [
            f"seed={derive(self.seed, 'sim')}",
            f"flash.capacity_bytes={8 * 1024 * 1024}",
            f"objstore.objects={rounds * (new + overwrites)}",
            "objstore.mean_object_bytes=12288",
            "objstore.segment_bytes=4096",
            "objstore.dedup_ratio=0.5",
            f"objstore.seed={derive(self.seed, 'objects')}",
        ])

    def plan(self) -> list[tuple]:
        """The op sequence: a pure function of the seed, made without the
        program.  ``("put", key, payload_index)``, ``("get", key)``,
        ``("delete", key)``, ``("gc",)``."""
        rounds, new, overwrites, gets = self.shape()
        rng = random.Random(derive(self.seed, "plan"))
        live: list[str] = []
        ops: list[tuple] = []
        payload = 0
        for r in range(rounds):
            for i in range(new):
                key = f"r{r:03d}k{i:03d}"
                ops.append(("put", key, payload))
                payload += 1
                live.append(key)
            for key in rng.sample(live, min(overwrites, len(live))):
                ops.append(("put", key, payload))
                payload += 1
            for key in rng.sample(live, min(gets, len(live))):
                ops.append(("get", key))
            doomed = set(rng.sample(live, len(live) // 2))
            ops.extend(("delete", key) for key in live if key in doomed)
            live = [key for key in live if key not in doomed]
            ops.append(("gc",))
        return ops

    def setup(self) -> None:
        from repro.config import build_fleet
        from repro.objstore.dedup import DedupObjectStore
        from repro.objstore.workload import generate_objects

        def build():
            config = self.scenario()
            fleet = build_fleet(config)
            store = DedupObjectStore(
                fleet, params=config.objstore.params(), replicas=config.objstore.replicas
            )
            return config, fleet, store

        self.config, self.fleet, self.store = self.timed("config.build_s", build)
        self.sim = self.fleet.sim
        self.nodes = self.fleet.nodes
        self.payloads = self.timed(
            "objstore.objects_s", generate_objects, self.config.objstore.spec()
        )
        self.ops = self.plan()

    def loop(self) -> None:
        from repro.objstore.store import ObjectStoreError

        store, sim = self.store, self.sim
        latest: dict[str, bytes] = {}
        put_ms: list[float] = []
        get_ms: list[float] = []
        moved = [0]

        def churn():
            for op in self.ops:
                kind = op[0]
                if kind == "gc":
                    yield from store.gc()
                    continue
                start = sim.now
                try:
                    if kind == "put":
                        data = self.payloads[op[2]][1]
                        yield from store.put(op[1], data)
                        latest[op[1]] = data
                        put_ms.append(sim.now - start)
                        moved[0] += len(data)
                    elif kind == "get":
                        data = yield from store.get(op[1])
                        get_ms.append(sim.now - start)
                        moved[0] += len(data)
                        if data != latest[op[1]]:
                            self.failed += 1
                            self.failures.append(f"get {op[1]}: wrong bytes")
                    else:
                        yield from store.delete(op[1])
                        del latest[op[1]]
                except ObjectStoreError as exc:
                    self.failed += 1
                    self.failures.append(f"{kind} {op[1]}: {exc}")

        self.begin()
        sim.run(sim.process(churn()))
        self.end()
        self.latencies = put_ms
        self.get_latencies = get_ms
        self.user_bytes = moved[0]

    def score(self) -> None:
        store = self.store
        self.attempted = self.finished = sum(1 for op in self.ops if op[0] != "gc")
        self.app_bytes = store.stats.offered_bytes
        # "ok" includes the accounting identity stored + deduped == offered
        integrity = store.check_integrity()
        if not integrity["ok"]:
            self.failures.append(f"check_integrity failed: {integrity}")

    def extra(self) -> dict[str, float]:
        stats = self.store.stats
        return {
            "objstore.dedup_ratio": stats.dedup_ratio,
            "objstore.chunks_offered": stats.chunks_offered,
            "objstore.host_chunk_fallbacks": stats.host_chunk_fallbacks,
            "objstore.gc_bytes_reclaimed": stats.gc_bytes_reclaimed,
            "objstore.get_p99_sim_ms": percentile(self.get_latencies, 99) * 1e3,
        }


WORKLOADS = {w.name: w for w in (JobsPaper, ServePoisson, ObjstoreChurn)}
