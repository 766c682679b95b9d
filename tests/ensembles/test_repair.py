"""Incremental re-place repair against frozen design geometry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.preprocess import build_problem
from repro.devices import netlist_with_frequencies
from repro.ensembles import (
    DisorderSpec,
    check_layout_legal,
    place_from_scratch,
    problem_with_frequencies,
    repair_sample,
    sample_batch,
)


@pytest.fixture(scope="module")
def design(grid9_netlist, fast_config):
    return build_problem(grid9_netlist, fast_config)


@pytest.fixture(scope="module")
def noisy_netlist(grid9_netlist):
    batch = sample_batch(grid9_netlist, DisorderSpec(0.05, 0.05),
                         base_seed=0, count=1)
    return netlist_with_frequencies(grid9_netlist, *batch.row(0))


class TestCheckLayoutLegal:
    def test_placed_layout_is_legal(self, design, grid9_placed):
        assert check_layout_legal(design, grid9_placed.layout.positions)

    def test_overlap_detected(self, design, grid9_placed):
        positions = grid9_placed.layout.positions.copy()
        positions[1] = positions[0]  # stack two instances
        assert not check_layout_legal(design, positions)

    def test_shape_mismatch_rejected(self, design):
        with pytest.raises(ValueError):
            check_layout_legal(design, np.zeros((3, 2)))


class TestProblemWithFrequencies:
    def test_geometry_frozen(self, design, noisy_netlist):
        noisy = problem_with_frequencies(design, noisy_netlist)
        assert noisy.num_instances == design.num_instances
        assert np.array_equal(noisy.sizes, design.sizes)
        assert [i.name for i in noisy.instances] \
            == [i.name for i in design.instances]

    def test_frequencies_follow_the_realisation(self, design,
                                                noisy_netlist):
        noisy = problem_with_frequencies(design, noisy_netlist)
        qubit_freq = {q.index: q.frequency for q in noisy_netlist.qubits}
        for inst, freq in zip(noisy.instances, noisy.frequencies):
            assert inst.frequency == freq
            if not hasattr(inst, "resonator_index"):
                assert freq == qubit_freq[inst.index]
        assert not np.array_equal(noisy.frequencies, design.frequencies)

    def test_design_problem_untouched(self, design, noisy_netlist):
        before = design.frequencies.copy()
        problem_with_frequencies(design, noisy_netlist)
        assert np.array_equal(design.frequencies, before)


class TestRepairSample:
    def test_repair_is_legal_and_tagged(self, design, noisy_netlist,
                                        grid9_placed, fast_config):
        result = repair_sample(design, noisy_netlist,
                               grid9_placed.layout.positions, fast_config)
        assert result.legal
        assert result.layout.strategy == "qplacer+disorder+repair"
        assert result.moved_mm >= 0.0
        assert result.layout.netlist is noisy_netlist

    def test_misaligned_positions_rejected(self, design, noisy_netlist,
                                           fast_config):
        with pytest.raises(ValueError) as err:
            repair_sample(design, noisy_netlist, np.zeros((3, 2)),
                          fast_config)
        assert "do not align" in str(err.value)

    def test_repair_is_deterministic(self, design, noisy_netlist,
                                     grid9_placed, fast_config):
        a = repair_sample(design, noisy_netlist,
                          grid9_placed.layout.positions, fast_config)
        b = repair_sample(design, noisy_netlist,
                          grid9_placed.layout.positions, fast_config)
        assert np.array_equal(a.positions, b.positions)


class TestPlaceFromScratch:
    def test_scratch_is_the_direct_placer_layout(self, noisy_netlist,
                                                 fast_config):
        from repro.core import QPlacer
        layout = place_from_scratch(noisy_netlist, fast_config)
        direct = QPlacer(fast_config).place(noisy_netlist).layout
        assert np.array_equal(layout.positions, direct.positions)
        assert layout.strategy == "qplacer+disorder+scratch"
        assert layout.netlist is noisy_netlist
