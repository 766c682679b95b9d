"""Which layer entry points a traced run wraps, and the per-layer
metrics derived from the spans they leave behind."""

from __future__ import annotations

from typing import Dict, List, Optional

from report import SPEC
from spans import Layer, Tracer

#: Public entry points, one or more per layer.  Spans keep arguments and
#: results only where a count is read from them afterwards.
LAYERS: List[Layer] = [
    Layer("devices.topology", "repro.devices.topology", "get_topology"),
    Layer("devices.netlist", "repro.devices.netlist", "build_netlist"),
    Layer("core.preprocess", "repro.core.preprocess", "build_problem"),
    Layer("core.engine", "repro.core.engine", "GlobalPlacer.run",
          keep=True),
    Layer("core.legalizer", "repro.core.legalizer", "Legalizer.run",
          keep=True),
    Layer("core.detailed", "repro.core.detailed", "refine_placement",
          keep=True),
    Layer("crosstalk.violations", "repro.crosstalk.violations",
          "find_spatial_violations", keep=True),
    Layer("crosstalk.hotspots", "repro.crosstalk.hotspots",
          "hotspot_report"),
    Layer("crosstalk.fidelity.table", "repro.crosstalk.fidelity",
          "ViolationTable.build"),
    Layer("crosstalk.fidelity.estimate", "repro.crosstalk.fidelity",
          "estimate_program_fidelity"),
    Layer("circuits.mapping", "repro.circuits.mapping",
          "evaluation_mappings", keep=True),
    Layer("ensembles.sampling", "repro.ensembles.sampling", "sample_batch"),
    Layer("ensembles.evaluation", "repro.ensembles.evaluation",
          "FrozenLayoutScorer.score_batch"),
    Layer("ensembles.repair", "repro.ensembles.repair", "repair_sample",
          keep=True),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall_s: float,
                  overhead_s: float,
                  service: Optional[Dict[str, float]] = None
                  ) -> Dict[str, float]:
    """Every per-layer metric; layers the run never called read 0.

    ``service`` carries the figures only a live service can give
    (API latencies, queue wait, execute time, store and runner cache
    counters); other workloads pass ``None``.
    """
    from repro.crosstalk.violations import count_candidate_pairs

    out: Dict[str, float] = {m["name"]: 0.0 for m in SPEC["per_layer"]}
    out["devices.build_s"] = (tracer.total("devices.topology")
                              + tracer.total("devices.netlist"))
    out["core.preprocess.build_problem_s"] = tracer.total("core.preprocess")

    engine = [s.result for s in tracer.named("core.engine")]
    run_s = tracer.total("core.engine")
    iterations = sum(r.iterations for r in engine)
    rebuilds = sum(r.freq_list_rebuilds for r in engine)
    reuses = sum(r.freq_list_reuses for r in engine)
    out.update({
        "core.engine.run_s": run_s,
        "core.engine.iterations": iterations,
        "core.engine.s_per_iteration": _ratio(run_s, iterations),
        "core.engine.freq_list_rebuilds": rebuilds,
        "core.engine.freq_list_reuse_ratio": _ratio(reuses,
                                                    rebuilds + reuses),
        "core.engine.peak_collision_pairs": max(
            (r.peak_collision_pairs for r in engine), default=0),
        "core.engine.peak_pair_candidates": max(
            (r.peak_pair_candidates for r in engine), default=0),
        "core.engine.density_flushes": sum(r.density_flushes
                                           for r in engine),
        "core.engine.density_rescattered": sum(r.density_rescattered
                                               for r in engine),
    })

    legal = [s.result[1] for s in tracer.named("core.legalizer")]
    out.update({
        "core.legalizer.legalize_s": tracer.total("core.legalizer"),
        "core.legalizer.resonant_relaxations": sum(
            st.resonant_relaxations for st in legal),
        "core.legalizer.integration_failures": sum(
            st.integration_failures for st in legal),
        "core.legalizer.displacement_mm": sum(
            st.qubit_displacement_mm + st.segment_displacement_mm
            for st in legal),
    })

    detailed = [s.result[1] for s in tracer.named("core.detailed")]
    scored = sum(st.candidates_scored for st in detailed)
    applied = sum(st.swaps_applied + st.slides_applied for st in detailed)
    out.update({
        "core.detailed.refine_s": tracer.total("core.detailed"),
        "core.detailed.candidates_scored": scored,
        "core.detailed.accept_ratio": _ratio(applied, scored),
    })

    scans = tracer.named("crosstalk.violations")
    out.update({
        "crosstalk.violations.find_s": tracer.total("crosstalk.violations"),
        # Counted after the traced section, so the recount is untimed.
        "crosstalk.violations.candidate_pairs": sum(
            count_candidate_pairs(s.kwargs["layout"] if "layout" in s.kwargs
                                  else s.args[0]) for s in scans),
        "crosstalk.hotspots.report_s": tracer.total("crosstalk.hotspots"),
        "crosstalk.fidelity.table_s": tracer.total(
            "crosstalk.fidelity.table"),
        "crosstalk.fidelity.estimate_s": tracer.total(
            "crosstalk.fidelity.estimate"),
        "crosstalk.fidelity.calls": len(
            tracer.named("crosstalk.fidelity.estimate")),
    })

    suites = tracer.named("circuits.mapping")
    mapped = [m for s in suites for m in s.result]
    out.update({
        "circuits.mapping.suite_s": _ratio(
            tracer.total("circuits.mapping"), len(suites)),
        "circuits.mapping.mappings": len(mapped),
        "circuits.mapping.routed_2q_gates": _ratio(
            sum(m.timed_gate_totals()[1] for m in mapped), len(mapped)),
    })

    repairs = [s.result for s in tracer.named("ensembles.repair")]
    out.update({
        "ensembles.sampling.sample_s": tracer.total("ensembles.sampling"),
        "ensembles.evaluation.score_s": tracer.total(
            "ensembles.evaluation"),
        "ensembles.repair.repair_s": tracer.total("ensembles.repair"),
        "ensembles.repair.repairs": len(repairs),
        "ensembles.repair.legal_ratio": _ratio(
            sum(r.legal for r in repairs), len(repairs)),
    })

    if service:
        out.update(service)
    top = sum(s.duration for s in tracer.top_level())
    out["trace.coverage"] = _ratio(top, traced_wall_s)
    out["trace.overhead_s"] = overhead_s
    return out


def check_trace(tracer: Tracer, traced_wall_s: float, report) -> None:
    """The phase tree adds up: top-level spans cover the traced wall
    and no span's self time is negative."""
    for span in tracer.top_level():
        key = f"trace.top.{span.name}_s"
        report.notes[key] = report.notes.get(key, 0.0) + span.duration
    top = sum(s.duration for s in tracer.top_level())
    report.check(f"trace: top-level spans cover the traced wall "
                 f"({top:.3f} of {traced_wall_s:.3f} s)",
                 0.95 * traced_wall_s <= top <= traced_wall_s + 1e-6)
    worst = min(tracer.self_times(), default=0.0)
    report.check(f"trace: self times non-negative (min {worst:.2e} s)",
                 worst >= -1e-6)
