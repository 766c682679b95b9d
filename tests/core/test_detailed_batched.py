"""Tests for the swap-table detailed-placement engine vs the scalar seed.

The swap table's gains must agree with the preserved scalar oracle
everywhere, stay exact under incremental maintenance, and come from an
exact Chebyshev window; the full refinement must match the reference
implementation's invariants (legality kept, wirelength never increased)
while reaching equivalent quality.
"""

import copy

import numpy as np
import pytest

from repro.core import detailed_reference
from repro.core.config import PlacerConfig
from repro.core.detailed import (DetailedPlacer, DetailedPlaceStats,
                                 _SwapTable, refine_placement, window_graph)
from repro.core.engine import GlobalPlacer
from repro.core.legalizer import Legalizer, legalize
from repro.core.placer import QPlacer
from repro.core.preprocess import build_problem
from repro.devices import build_netlist, grid_topology
from repro.devices.topology import get_topology

#: Window wide enough to hold every same-kind pair of grid-16.
WHOLE_CHIP_MM = 1e3


@pytest.fixture(scope="module")
def legal_grid16(fast_config):
    problem = build_problem(build_netlist(grid_topology(4, 4)), fast_config)
    positions = GlobalPlacer(problem).run().positions
    legal, _ = legalize(problem, positions, fast_config)
    return problem, legal


@pytest.fixture(scope="module")
def eagle_runs():
    """eagle-127 placed with one detailed pass under both screenings."""
    netlist = build_netlist(get_topology("eagle-127"))
    return {mode: QPlacer(PlacerConfig(legalizer_screening=mode,
                                       detailed_passes=1)).place(netlist)
            for mode in ("hash", "scan")}


@pytest.fixture(scope="module")
def legal_eagle(eagle_runs):
    """The legalized (pre-detailed) eagle-127 layout."""
    result = eagle_runs["hash"]
    config = PlacerConfig()
    legal, _ = legalize(result.problem, result.global_layout.positions,
                        config)
    return result.problem, config, legal


def _filled_table(problem, config, legal, radius):
    placer = DetailedPlacer(problem, config)
    table = _SwapTable(legal, placer._kind_id, radius)
    placer._fill(table, placer._instance_wl_all(legal))
    return placer, table


class TestSwapGainKernel:
    def test_batched_matches_scalar_oracle(self, legal_grid16, fast_config):
        problem, legal = legal_grid16
        placer, table = _filled_table(problem, fast_config, legal,
                                      WHOLE_CHIP_MM)
        rng = np.random.default_rng(7)
        rows = np.repeat(np.arange(problem.num_instances),
                         np.diff(table.indptr))
        picks = rng.choice(table.cols.size, size=min(200, table.cols.size),
                           replace=False)
        expected = [placer._swap_gain(legal, int(table.inst_at[rows[e]]),
                                      int(table.inst_at[table.cols[e]]))
                    for e in picks]
        np.testing.assert_allclose(table.gains[picks], expected, atol=1e-9)
        # Both directions of a pair carry bit-identical gains.
        np.testing.assert_array_equal(table.gains, table.gains[table.mirror])

    def test_shared_net_partner_correction(self, legal_grid16, fast_config):
        """Swapping two *connected* instances must use post-swap geometry."""
        problem, legal = legal_grid16
        placer, table = _filled_table(problem, fast_config, legal,
                                      WHOLE_CHIP_MM)
        kind = placer._kind_id
        a, b = next((int(a), int(b)) for a, b in problem.nets
                    if kind[a] == kind[b])
        row = slice(table.indptr[a], table.indptr[a + 1])
        e = table.indptr[a] + int(np.flatnonzero(table.cols[row] == b)[0])
        assert table.gains[e] == pytest.approx(placer._swap_gain(legal, a, b),
                                               abs=1e-9)

    def test_instance_wl_all_matches_scalar(self, legal_grid16, fast_config):
        problem, legal = legal_grid16
        placer = DetailedPlacer(problem, fast_config)
        wl = placer._instance_wl_all(legal)
        for i in range(problem.num_instances):
            assert wl[i] == pytest.approx(placer._instance_wl(legal, i),
                                          abs=1e-12)


class TestSwapTable:
    def test_window_rows_are_exact(self, legal_eagle):
        """Each row is the brute-force same-kind Chebyshev window."""
        problem, config, legal = legal_eagle
        kind = DetailedPlacer(problem, config)._kind_id
        radius = 2.5
        indptr, cols, mirror = window_graph(legal, kind, radius)
        for s in range(problem.num_instances):
            brute = np.flatnonzero(
                (kind == kind[s])
                & (np.abs(legal[:, 0] - legal[s, 0]) <= radius)
                & (np.abs(legal[:, 1] - legal[s, 1]) <= radius))
            brute = brute[brute != s]
            np.testing.assert_array_equal(cols[indptr[s]:indptr[s + 1]],
                                          brute)
        rows = np.repeat(np.arange(problem.num_instances), np.diff(indptr))
        np.testing.assert_array_equal(rows[mirror], cols)
        np.testing.assert_array_equal(cols[mirror], rows)

    def test_maintained_gains_match_recompute(self, legal_eagle):
        """After a full pass every maintained entry equals a fresh fill."""
        problem, config, legal = legal_eagle
        placer = DetailedPlacer(problem, config)
        legalizer = Legalizer(problem, config)
        legalizer.load(legal)
        table = _SwapTable(legalizer.positions, placer._kind_id, 2.5)
        wl = placer._instance_wl_all(legalizer.positions)
        placer._fill(table, wl)
        stats = DetailedPlaceStats()
        assert placer._sweep(table, legalizer, wl, None, stats)
        assert stats.swaps_applied > 0
        np.testing.assert_array_equal(legalizer.positions[:, 0],
                                      table.x[table.site_of])
        np.testing.assert_array_equal(table.px, legalizer.positions[:, 0])
        np.testing.assert_array_equal(table.py, legalizer.positions[:, 1])
        fresh = copy.copy(table)
        fresh.cost = np.full_like(table.cost, np.nan)
        fresh.gains = np.full_like(table.gains, np.nan)
        placer._fill(fresh, placer._instance_wl_all(legalizer.positions))
        np.testing.assert_allclose(table.cost, fresh.cost, rtol=0, atol=1e-9)
        np.testing.assert_allclose(table.gains, fresh.gains, rtol=0,
                                   atol=1e-9)

    def test_result_independent_of_screening(self, eagle_runs):
        """Hash and scan screening give the same final eagle-127 layout."""
        hash_run, scan_run = eagle_runs["hash"], eagle_runs["scan"]
        np.testing.assert_array_equal(hash_run.layout.positions,
                                      scan_run.layout.positions)
        assert (hash_run.detailed_stats.candidates_scored
                == scan_run.detailed_stats.candidates_scored)


class TestBatchedRefinement:
    def test_quality_parity_with_reference(self, legal_grid16, fast_config):
        problem, legal = legal_grid16
        _, ref_stats = detailed_reference.refine_placement(
            problem, legal.copy(), fast_config, max_passes=2)
        _, new_stats = refine_placement(
            problem, legal.copy(), fast_config, max_passes=2)
        assert new_stats.hpwl_after <= new_stats.hpwl_before + 1e-9
        if ref_stats.hpwl_after > 0:
            assert new_stats.hpwl_after <= 1.05 * ref_stats.hpwl_after

    def test_candidates_scored_counted(self, legal_grid16, fast_config):
        problem, legal = legal_grid16
        _, stats = refine_placement(problem, legal.copy(), fast_config,
                                    max_passes=1)
        assert stats.candidates_scored > 0
        assert stats.passes == 1

    def test_uses_no_private_legalizer_members(self):
        """The batched placer must drive only the public legalizer API."""
        import inspect

        from repro.core import detailed

        source = inspect.getsource(detailed)
        for private in ("_placed", "_unplace(", "_place(", "_can_place",
                        "_grid", "_segments_by_resonator", "_clusters"):
            assert ("legalizer." + private) not in source, private
