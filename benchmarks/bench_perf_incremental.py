"""Incremental placement engine: identity + speedup gates (ISSUE 6).

The condor-scale inner-loop rework has three moving parts — frequency-
banded neighbor-list candidates, Verlet list reuse, and incremental
density updates with periodic full-rebuild checkpoints.  This harness
pins the two contracts that make them safe to default on:

* **eagle-127 bit-identity**: with increments flushed every evaluation
  (``density_flush_interval=1``) the incremental density path must
  reproduce the dense-recompute global placement bit for bit — every
  flush adopts a fresh rasterise, so flush-1 *is* the dense path plus a
  live divergence assertion;
* **condor speedup**: the new defaults must beat the PR 2 baseline path
  (no banding, dense density recompute every iteration) by a safe
  margin on condor-sm-433 in smoke mode, and by >= 5x — landing global
  placement in single-digit seconds — on condor-1121 under
  ``REPRO_BENCH_FULL=1``.

Telemetry (rebuild/reuse counts, flush counts and max checkpoint error,
peak pair/candidate high-water marks) goes to
``benchmarks/results/perf_incremental.json``.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import time
from typing import Dict

import numpy as np

from repro.core.config import PlacerConfig
from repro.core.engine import GlobalPlacer
from repro.core.preprocess import build_problem
from repro.devices.netlist import build_netlist
from repro.devices.topology import get_topology

from conftest import FULL, emit

#: Speedup gate vs the PR 2 path: conservative in smoke mode (CI noise,
#: shared runners), the paper-facing >= 5x only at condor-1121 scale.
MIN_SPEEDUP_SMOKE = 2.5
MIN_SPEEDUP_FULL = 5.0

#: Full-mode wall-clock gate: condor-1121 global placement must land in
#: single-digit seconds on the new path.
MAX_CONDOR_1121_PLACE_S = 10.0

CONDOR_TOPOLOGY = "condor-1121" if FULL else "condor-sm-433"
MIN_SPEEDUP = MIN_SPEEDUP_FULL if FULL else MIN_SPEEDUP_SMOKE

#: Count gate on the new path: at least this share of the screened
#: neighbor-list candidates must survive as collision pairs.  Gap-aware
#: band labels keep non-resonant frequency levels out of the candidate
#: set (~0.34 on condor-sm-433; adjacent-label pairing gave ~0.13).
MIN_PAIR_YIELD = 0.25

#: The PR 2 baseline path: every-iteration dense density recompute and
#: an unbanded (spatial-only) neighbor-list grid.
BASELINE = dict(incremental_density="off", freq_pair_banding=False)


def _run(topology: str, **overrides) -> Dict[str, object]:
    config = dataclasses.replace(PlacerConfig(), **overrides)
    problem = build_problem(build_netlist(get_topology(topology)), config)
    engine = GlobalPlacer(problem, config)
    t0 = time.perf_counter()
    result = engine.run()
    place_s = time.perf_counter() - t0
    return {
        "topology": topology,
        "overrides": overrides,
        "num_instances": problem.num_instances,
        "place_s": round(place_s, 3),
        "iterations": result.iterations,
        "converged": result.converged,
        "final_overflow": result.final_overflow,
        "peak_collision_pairs": result.peak_collision_pairs,
        "peak_pair_candidates": result.peak_pair_candidates,
        "freq_list_rebuilds": result.freq_list_rebuilds,
        "freq_list_reuses": result.freq_list_reuses,
        "density_flushes": result.density_flushes,
        "density_rescattered": result.density_rescattered,
        "density_max_flush_error": result.density_max_flush_error,
        "positions": result.positions,
    }


def _strip(row: Dict[str, object]) -> Dict[str, object]:
    return {k: v for k, v in row.items() if k != "positions"}


def test_perf_incremental(results_dir):
    # -- gate 1: eagle-127 flush-1 bit-identity -------------------------
    eagle_inc = _run("eagle-127", incremental_density="on",
                     density_flush_interval=1,
                     density_move_threshold_mm=0.0)
    eagle_ref = _run("eagle-127", incremental_density="off")
    identical = bool(np.array_equal(eagle_inc["positions"],
                                    eagle_ref["positions"]))

    # -- gate 2: condor speedup vs the PR 2 baseline path ---------------
    new = _run(CONDOR_TOPOLOGY)  # the new defaults
    old = _run(CONDOR_TOPOLOGY, **BASELINE)
    speedup = old["place_s"] / max(new["place_s"], 1e-9)
    pair_yield = new["peak_collision_pairs"] / max(
        new["peak_pair_candidates"], 1)

    report = {
        "bench": "perf_incremental",
        "mode": "full" if FULL else "smoke",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "eagle_flush1_identity": identical,
        "eagle_incremental": _strip(eagle_inc),
        "eagle_reference": _strip(eagle_ref),
        "condor_topology": CONDOR_TOPOLOGY,
        "condor_new": _strip(new),
        "condor_baseline": _strip(old),
        "condor_speedup": round(speedup, 2),
        "condor_pair_yield": round(pair_yield, 3),
        "min_speedup": MIN_SPEEDUP,
    }
    text = json.dumps(report, indent=2)
    emit(results_dir, "perf_incremental", text)
    (results_dir / "perf_incremental.json").write_text(text + "\n")

    # -- gates ----------------------------------------------------------
    assert identical, \
        "flush-every-iteration incremental density diverged from the " \
        "dense recompute on eagle-127"
    # flush-1 means every incremental evaluation ran the divergence
    # checkpoint; the recorded worst error stays within float drift.
    assert eagle_inc["density_flushes"] >= eagle_inc["iterations"]
    assert speedup >= MIN_SPEEDUP, (
        f"{CONDOR_TOPOLOGY}: new path {new['place_s']}s vs baseline "
        f"{old['place_s']}s = {speedup:.2f}x < required {MIN_SPEEDUP}x")
    if FULL:
        assert new["place_s"] <= MAX_CONDOR_1121_PLACE_S, (
            f"condor-1121 global placement took {new['place_s']}s "
            f"(> {MAX_CONDOR_1121_PLACE_S}s)")
    # the sparse machinery actually engaged on the condor tier
    assert new["freq_list_reuses"] > 0, "Verlet list never reused"
    assert new["density_flushes"] > 0, "incremental density never flushed"
    assert new["density_rescattered"] > 0
    # banding must shrink the candidate screening set vs the baseline
    assert new["peak_pair_candidates"] < old["peak_pair_candidates"]
    assert pair_yield >= MIN_PAIR_YIELD, (
        f"{CONDOR_TOPOLOGY}: {new['peak_collision_pairs']} pairs of "
        f"{new['peak_pair_candidates']} candidates = {pair_yield:.3f} "
        f"< {MIN_PAIR_YIELD}")
