"""``service-eagle``: one client driving a live in-process service.

A fresh :class:`PlacementService` (one scheduler worker, a one-worker
runner with its cache inside the fresh store) serves a closed loop: the
cold phase submits a place, two large-circuit map and one ensemble
request on eagle-127 and waits for each artifact; the hit phase
resubmits the same requests until at least ``MIN_HITS`` artifacts have
been served from the store and the session has lasted ``--seconds``.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Tuple

from harness import Context, setup
from layers import LAYERS, check_trace, layer_metrics
from report import Report, canonical, digest, peak_rss_mb, tail
from spans import Tracer

from repro.analysis.experiments import run_map_request, run_place_request
from repro.analysis.metrics import resonator_integrity
from repro.analysis.runner import ParallelRunner
from repro.circuits.library import get_benchmark
from repro.circuits.mapping import evaluation_mappings
from repro.core.config import PlacerConfig
from repro.core.preprocess import build_problem
from repro.core.wirelength import hpwl
from repro.crosstalk.hotspots import hotspot_report
from repro.devices.netlist import build_netlist
from repro.devices.topology import get_topology
from repro.ensembles import check_layout_legal, run_ensemble_request
from repro.io.serialization import layout_from_dict
from repro.service import PlacementService, ServiceClient, parse_request

TOPOLOGY = "eagle-127"
WARMUP_TOPOLOGY = "grid-25"
#: Large eagle-suite circuits: the routing-heavy map requests.
CIRCUITS = ("qaoa-100", "hhqaoa-127")
NUM_MAPPINGS = 50
ENSEMBLE = {"sigmas": [0.05], "samples": 32, "repair_samples": 2}
MIN_HITS = 200
#: Client poll interval while a cold job runs.
POLL_S = 0.05


def _requests(seed: int) -> List[Tuple[str, Dict[str, Any]]]:
    place = {"topology": TOPOLOGY, "strategies": ["qplacer"], "seed": seed}
    maps = [("map", {"benchmark": name, "topology": TOPOLOGY,
                     "num_mappings": NUM_MAPPINGS, "base_seed": seed})
            for name in CIRCUITS]
    # Same strategy and seed as the place request, so the ensemble's
    # own placement is a runner-cache hit, as a real client would see.
    ensemble = {"topology": TOPOLOGY, "strategy": "qplacer", "seed": seed,
                "base_seed": seed, **ENSEMBLE}
    return [("place", place), *maps, ("ensemble", ensemble)]


class _Session:
    """The client's view: per-call latencies of one service."""

    def __init__(self, client: ServiceClient) -> None:
        self.client = client
        self.submit_ms: List[float] = []
        self.fetch_ms: List[float] = []

    def submit(self, kind: str, request: Dict[str, Any]) -> Dict[str, Any]:
        start = time.perf_counter()
        job = self.client.submit(kind, request)
        self.submit_ms.append(1e3 * (time.perf_counter() - start))
        return job

    def fetch(self, digest: str) -> Dict[str, Any]:
        start = time.perf_counter()
        doc = self.client.artifact(digest)
        self.fetch_ms.append(1e3 * (time.perf_counter() - start))
        return doc


def _boot(ctx: Context, k: int) -> PlacementService:
    store = ctx.tmp / f"store-{k}"
    service = PlacementService(
        store, port=0, workers=1,
        runner=ParallelRunner(max_workers=1,
                              cache_dir=store / "runner-cache"))
    service.start()
    return service


def _map_rows(mappings) -> List[Dict[str, float]]:
    """The fields of a map artifact's rows that routing determines."""
    return [{"swap_count": m.swap_count, "duration_ns": m.duration_ns,
             "two_qubit_gates": m.timed_gate_totals()[1]} for m in mappings]


def run(ctx: Context, report: Report) -> None:
    services: List[PlacementService] = []
    try:
        _run(ctx, report, services)
    finally:
        for service in services:
            service.stop()


def _run(ctx: Context, report: Report,
         services: List[PlacementService]) -> None:
    requests = _requests(ctx.seed)

    def set_up(k: int) -> _Session:
        for service in services:
            service.stop()
        services.clear()
        build_netlist(get_topology(TOPOLOGY))
        services.append(_boot(ctx, k))
        session = _Session(ServiceClient(services[0].base_url))
        session.client.healthz()
        session.client.run("place", {"topology": WARMUP_TOPOLOGY,
                                     "strategies": ["qplacer"],
                                     "seed": ctx.seed})
        return session

    session = setup(ctx, report, set_up)
    client = session.client
    before = client.metrics()

    # -- cold phase: each request computed once ---------------------------
    session_start = time.perf_counter()
    cold: List[Dict[str, Any]] = []
    records: List[Dict[str, Any]] = []
    cold_s: Dict[str, float] = {"place": 0.0, "map": 0.0, "ensemble": 0.0}
    for kind, request in requests:
        start = time.perf_counter()
        job = session.submit(kind, request)
        report.check(f"cold {kind} request is computed, not a store hit",
                     job["disposition"] == "queued")
        record = client.wait(job["job_id"], poll_s=POLL_S)
        cold.append(session.fetch(record["artifact"]))
        cold_s[kind] += time.perf_counter() - start
        records.append(record)
    report.ops(len(requests))
    after_cold = client.metrics()

    # -- hit phase: the same requests, served from the store -------------
    hit_ms: List[float] = []
    misses = mismatches = 0
    while (len(hit_ms) < MIN_HITS
           or time.perf_counter() - session_start < ctx.seconds):
        for (kind, request), first in zip(requests, cold):
            start = time.perf_counter()
            job = session.submit(kind, request)
            doc = session.fetch(job["digest"])
            hit_ms.append(1e3 * (time.perf_counter() - start))
            misses += job["disposition"] != "cache_hit"
            mismatches += canonical(doc) != canonical(first)
    wall = time.perf_counter() - session_start
    after_hits = client.metrics()
    report.ops(len(hit_ms))
    report.end_to_end["wall_s"] = wall
    report.end_to_end["peak_rss_mb"] = peak_rss_mb()
    report.tally("hit requests served from the store", misses, len(hit_ms))
    report.tally("hit artifacts byte-equal to the cold ones", mismatches,
                 len(hit_ms))

    # -- quality and correctness of the cold artifacts --------------------
    place_doc, *map_docs, ensemble_doc = (doc["result"] for doc in cold)
    layout = layout_from_dict(place_doc["strategies"]["qplacer"]["layout"])
    problem = build_problem(layout.netlist, PlacerConfig(seed=ctx.seed))
    report.end_to_end["hpwl_mm"] = hpwl(layout.positions, problem.nets)
    report.details["amer_mm2"] = (layout.amer(), "mm2")
    ph = hotspot_report(layout).ph_percent
    report.check("eagle-127 qplacer layout is legal",
                 check_layout_legal(problem, layout.positions))
    report.check("resonator integrity is 1.0",
                 resonator_integrity(layout) == 1.0)
    topology = get_topology(TOPOLOGY)
    for name, doc in zip(CIRCUITS, map_docs):
        direct = evaluation_mappings(get_benchmark(name), topology,
                                     num_mappings=NUM_MAPPINGS,
                                     base_seed=ctx.seed)
        served = [{k: row[k] for k in ("swap_count", "duration_ns",
                                       "two_qubit_gates")}
                  for row in doc["mappings"]]
        report.check(f"map {name} equals a direct evaluation_mappings call",
                     served == _map_rows(direct))
    point = ensemble_doc["points"][0]
    report.check("every repaired ensemble layout is legal",
                 point["repair"]["attempted"] > 0
                 and point["repair"]["legal_all"])

    rows = [row for doc in map_docs for row in doc["mappings"]]
    percentile, tail_ms = tail(hit_ms)
    report.details.update({
        "place_cold_s": (cold_s["place"], "s"),
        "map_cold_s": (cold_s["map"], "s"),
        "ensemble_cold_s": (cold_s["ensemble"], "s"),
        "hit_p50_ms": (statistics.median(hit_ms), "ms"),
        "hit_tail_ms": (tail_ms, "ms"),
        "routed_2q_gates": (statistics.fmean(
            r["two_qubit_gates"] for r in rows), "count"),
        "ensemble_yield_after_repair": (point["yield_after_repair"],
                                        "ratio"),
        "ph_percent": (ph, "%"),
    })
    report.notes["hit_tail_ms.percentile"] = f"p{percentile:g}"
    report.notes["hit_ms.samples"] = len(hit_ms)
    report.notes["quality_digest"] = digest({
        "hpwl_mm": report.end_to_end["hpwl_mm"],
        "amer_mm2": layout.amer(), "ph_percent": ph,
        "maps": map_docs, "ensemble": ensemble_doc["points"]})

    # The cold phase's store hit ratio is 0 by the "computed, not a store
    # hit" checks above (its artifact fetches count as store hits).
    hits = after_hits["artifact_hits"] - after_cold["artifact_hits"]
    store_hit_ratio = hits / (hits + after_hits["artifact_misses"]
                              - after_cold["artifact_misses"])
    report.check("hit phase store hit ratio is 1", store_hit_ratio == 1.0)

    if ctx.trace:
        service = {
            "service.api.submit_ms": statistics.median(session.submit_ms),
            "service.api.fetch_ms": statistics.median(session.fetch_ms),
            "service.queue.wait_s": sum(r["started_at"] - r["submitted_at"]
                                        for r in records),
            "service.store.hit_ratio": store_hit_ratio,
            "analysis.runner.cache_hits": (after_cold["runner_cache_hits"]
                                           - before["runner_cache_hits"]),
            "analysis.runner.cache_misses": (
                after_cold["runner_cache_misses"]
                - before["runner_cache_misses"]),
        }
        for kind in cold_s:
            service[f"service.scheduler.execute_s.{kind}"] = sum(
                r["finished_at"] - r["started_at"] for r in records
                if r["kind"] == kind)
        _traced(ctx, report, requests, cold, service)


def _traced(ctx: Context, report: Report, requests, cold,
            service: Dict[str, float]) -> None:
    """Call what each executor calls, with the same request fields, and
    check every output against the artifact the service served."""
    runner = ParallelRunner(max_workers=1, cache_dir=ctx.tmp / "traced")
    parsed = [(kind, parse_request(kind, request))
              for kind, request in requests]
    tracer = Tracer()
    outputs = []
    with tracer.installed(LAYERS):
        start = time.perf_counter()
        for kind, req in parsed:
            with tracer.span(kind):
                if kind == "place":
                    outputs.append(run_place_request(
                        topology=req.topology,
                        segment_size_mm=req.segment_size_mm,
                        strategies=req.strategies, seed=req.seed,
                        config=req.config,
                        include_layouts=req.include_layouts,
                        runner=runner, warm_start=req.warm_start))
                elif kind == "map":
                    outputs.append(run_map_request(
                        benchmark=req.benchmark, topology=req.topology,
                        num_mappings=req.num_mappings,
                        base_seed=req.base_seed, router=req.router,
                        optimization_level=req.optimization_level,
                        runner=runner))
                else:
                    outputs.append(run_ensemble_request(
                        topology=req.topology, sigmas=req.sigmas,
                        samples=req.samples,
                        resonator_sigma_scale=req.resonator_sigma_scale,
                        base_seed=req.base_seed, strategy=req.strategy,
                        segment_size_mm=req.segment_size_mm, seed=req.seed,
                        config=req.config,
                        repair_samples=req.repair_samples,
                        max_ph_percent=req.max_ph_percent,
                        warm_start=req.warm_start,
                        bootstrap=req.bootstrap, runner=runner))
        wall = time.perf_counter() - start

    # Timings inside payloads differ by nature; everything else must not.
    def stable(kind: str, payload: Dict[str, Any]) -> str:
        if kind == "place":
            return canonical({name: (entry["layout"], entry["metrics"])
                              for name, entry
                              in payload["strategies"].items()})
        return canonical({k: v for k, v in payload.items() if k != "phases"})

    for (kind, _), direct, doc in zip(requests, outputs, cold):
        report.check(f"traced {kind} output equals the served artifact",
                     stable(kind, direct) == stable(kind, doc["result"]))
    executed = sum(service[f"service.scheduler.execute_s.{kind}"]
                   for kind in ("place", "map", "ensemble"))
    report.layers = layer_metrics(tracer, wall, wall - executed,
                                  service=service)
    check_trace(tracer, wall, report)
