"""``evaluate-paper``: the paper's own evaluation (Figs. 11-13).

Six paper topologies x {qplacer, classic, human} x paper-8 x 50
mappings through the analysis runner with one in-process worker and no
cache.  All placement here is on the dense backend with zero detailed
passes; the time goes to many small placements, violation and hotspot
scans and about 7k fidelity estimates.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List, Tuple

from harness import Context, closed_loop, setup
from layers import LAYERS, check_trace, layer_metrics
from report import Report, digest, geomean, peak_rss_mb
from spans import Layer, Tracer

from repro.analysis.experiments import evaluation_payload
from repro.analysis.metrics import resonator_integrity
from repro.analysis.runner import (EvaluationJob, ParallelRunner,
                                   PlacementJob, run_topology_evaluation)
from repro.circuits.library import PAPER_BENCHMARKS
from repro.core.wirelength import hpwl
from repro.devices.netlist import build_netlist
from repro.devices.topology import PAPER_TOPOLOGY_ORDER, get_topology
from repro.ensembles import check_layout_legal

NUM_MAPPINGS = 50
#: Keeps each placed suite so layouts can be checked after the run.
CAPTURE = Layer("evaluate.suite", "repro.analysis.runner",
                "run_placement_job", keep=True)

#: The paper's headline fidelity claims, printed beside the measurement.
PAPER_CLAIMS = ("paper headline ratios: 36.7x (arithmetic-mean fidelity "
                "gain over classic) and 12.76x")


def _jobs(seed: int, topologies=PAPER_TOPOLOGY_ORDER,
          benchmarks=PAPER_BENCHMARKS, num_mappings=NUM_MAPPINGS
          ) -> List[EvaluationJob]:
    """``run_full_evaluation``'s jobs, with the workload seed applied to
    both the placer config and the mapping base seed."""
    return [EvaluationJob(placement=PlacementJob(topology=name, seed=seed),
                          benchmarks=tuple(benchmarks),
                          num_mappings=num_mappings, base_seed=seed)
            for name in topologies]


def _evaluate(jobs: List[EvaluationJob], tracer: Tracer, layers
              ) -> Tuple[Dict[str, object], list]:
    """One full evaluation; returns its payload and the placed suites."""
    runner = ParallelRunner(max_workers=1, cache_dir=None)
    with tracer.installed(layers):
        results = runner.map(run_topology_evaluation, jobs,
                             namespace="evaluation")
    payload = evaluation_payload(
        dict(zip((j.placement.topology for j in jobs), results)))
    return payload, [s.result for s in tracer.named(CAPTURE.name)]


def run(ctx: Context, report: Report) -> None:
    jobs = _jobs(ctx.seed)
    warmup = _jobs(ctx.seed, topologies=("grid-25",), benchmarks=("bv-4",),
                   num_mappings=2)

    def set_up(_: int) -> None:
        for name in PAPER_TOPOLOGY_ORDER:
            build_netlist(get_topology(name))
        _evaluate(warmup, Tracer(), [CAPTURE])

    setup(ctx, report, set_up)
    # Untraced: at least three repeats, so one slow stretch of a shared
    # machine does not set the median, and the digests can be compared.
    # A traced run compares its traced repeat instead.
    runs, times = closed_loop(
        ctx.seconds, lambda: _evaluate(jobs, Tracer(), [CAPTURE]),
        min_ops=1 if ctx.trace else 3)
    report.ops(len(runs))
    report.end_to_end["wall_s"] = report.timing("wall_s", times)
    report.end_to_end["peak_rss_mb"] = peak_rss_mb()

    payload, suites = runs[0]
    qplacer = [suite.results["qplacer"] for suite in suites]
    report.end_to_end["hpwl_mm"] = sum(
        hpwl(r.layout.positions, r.problem.nets) for r in qplacer)
    report.details["amer_mm2"] = (sum(r.layout.amer() for r in qplacer),
                                  "mm2")
    ph = [row["ph_percent"] for entry in payload.values()
          for row in entry["summary"] if row["strategy"] == "qplacer"]
    ratios = [row["qplacer"] / row["classic"] for entry in payload.values()
              for row in entry["fidelity"].values()]
    report.details["ph_percent"] = (statistics.fmean(ph), "%")
    report.details["fidelity_gain"] = (geomean(ratios), "x")
    report.details["fidelity_gain_arith"] = (statistics.fmean(ratios), "x")
    report.notes["engine_iterations"] = sum(
        r.iterations for suite in suites for r in suite.results.values()
        if r is not None)
    report.notes["paper_claims"] = PAPER_CLAIMS
    report.notes["payload_digest"] = digest(payload)
    report.notes["quality_digest"] = digest({
        "hpwl_mm": report.end_to_end["hpwl_mm"],
        "amer_mm2": report.details["amer_mm2"][0],
        "payload": report.notes["payload_digest"]})

    for result in qplacer:
        name = result.layout.netlist.topology.name
        report.check(f"{name} qplacer layout is legal",
                     check_layout_legal(result.problem,
                                        result.layout.positions))
        report.check(f"{name} resonator integrity is 1.0",
                     resonator_integrity(result.layout) == 1.0)
    report.check("fidelity ratios are finite and positive",
                 all(r > 0 and math.isfinite(r) for r in ratios))
    digests = [digest(p) for p, _ in runs]

    if ctx.trace:
        tracer = Tracer()
        start = time.perf_counter()
        with tracer.span("evaluate"):
            traced, _ = _evaluate(jobs, tracer, LAYERS + [CAPTURE])
        wall = time.perf_counter() - start
        digests.append(digest(traced))
        overhead = wall - report.end_to_end["wall_s"]
        report.layers = layer_metrics(tracer, wall, overhead)
        check_trace(tracer, wall, report)
    report.check(f"payload digests identical across {len(digests)} "
                 "repeats", len(set(digests)) == 1)
