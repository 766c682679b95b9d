"""``place-condor``: QPlacer.place on condor-sm-433 at default config.

The only workload on the sparse backend (Verlet neighbor lists,
incremental density, one detailed pass), and the ROADMAP's headline
placement target.
"""

from __future__ import annotations

import time

import numpy as np

from harness import Context, closed_loop, setup
from layers import LAYERS, check_trace, layer_metrics
from report import Report, digest, peak_rss_mb
from spans import Tracer

from repro.analysis.metrics import resonator_integrity
from repro.core.config import PlacerConfig
from repro.core.placer import QPlacer
from repro.core.wirelength import hpwl
from repro.crosstalk.hotspots import hotspot_report
from repro.devices.netlist import build_netlist
from repro.devices.topology import get_topology
from repro.ensembles import check_layout_legal

TOPOLOGY = "condor-sm-433"
#: Small dense placement that runs the flow's lazy imports in set-up.
WARMUP_TOPOLOGY = "grid-25"


def run(ctx: Context, report: Report) -> None:
    placer = QPlacer(PlacerConfig(seed=ctx.seed))

    def set_up(_: int):
        placer.place(build_netlist(get_topology(WARMUP_TOPOLOGY)))
        return build_netlist(get_topology(TOPOLOGY))

    netlist = setup(ctx, report, set_up)
    # Untraced: two placements, so one slow stretch of a shared machine
    # does not set the median; a traced run places once more, traced.
    results, times = closed_loop(ctx.seconds, lambda: placer.place(netlist),
                                 min_ops=1 if ctx.trace else 2)
    report.ops(len(results))
    report.end_to_end["wall_s"] = report.timing("wall_s", times)
    report.end_to_end["peak_rss_mb"] = peak_rss_mb()

    result = results[0]
    layout = result.layout
    hotspots = hotspot_report(layout)
    report.end_to_end["hpwl_mm"] = hpwl(layout.positions, result.problem.nets)
    report.details["amer_mm2"] = (layout.amer(), "mm2")
    report.details["ph_percent"] = (hotspots.ph_percent, "%")
    report.notes["engine_iterations"] = result.iterations
    report.notes["quality_digest"] = digest({
        "hpwl_mm": report.end_to_end["hpwl_mm"],
        "amer_mm2": layout.amer(),
        "ph_percent": hotspots.ph_percent,
        "positions": layout.positions.tolist()})

    report.check("qplacer layout is legal",
                 check_layout_legal(result.problem, layout.positions))
    report.check("resonator integrity is 1.0",
                 resonator_integrity(layout) == 1.0)
    report.check("repeated placements are identical",
                 all(np.array_equal(r.layout.positions, layout.positions)
                     for r in results[1:]))

    if ctx.trace:
        tracer = Tracer()
        with tracer.installed(LAYERS):
            start = time.perf_counter()
            with tracer.span("devices"):
                traced_netlist = build_netlist(get_topology(TOPOLOGY))
            with tracer.span("place"):
                traced = placer.place(traced_netlist)
            with tracer.span("quality"):
                hpwl(traced.layout.positions, traced.problem.nets)
                hotspot_report(traced.layout)
            wall = time.perf_counter() - start
        report.check("traced layout equals the untraced one",
                     np.array_equal(traced.layout.positions,
                                    layout.positions))
        overhead = (tracer.named("place")[0].duration
                    - report.end_to_end["wall_s"])
        report.layers = layer_metrics(tracer, wall, overhead)
        check_trace(tracer, wall, report)
