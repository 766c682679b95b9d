"""Unit tests for the repro.placers portfolio subsystem."""

import numpy as np
import pytest

from repro.core import PlacerConfig
from repro.core.config import PLACER_CHOICES
from repro.core.legalizer import Legalizer
from repro.core.preprocess import build_problem
from repro.devices.netlist import build_netlist
from repro.devices.topology import get_topology
from repro.placers import (Annealer, CostModel, ForceDirectedPlacer,
                           PortfolioPlacer, SimulatedAnnealingPlacer,
                           SubgraphPlacer, TrivialPlacer,
                           band_round_robin_order, make_placer,
                           score_layout, seed_grid_positions)
from repro.placers.seeds import seed_grid_positions as _grid


@pytest.fixture(scope="module")
def sa_config():
    return PlacerConfig(sa_rounds=4, sa_moves_per_round=60,
                        sa_probe_moves=16)


class TestMakePlacer:
    def test_dispatch(self):
        for name, cls in [("force", ForceDirectedPlacer),
                          ("sa", SimulatedAnnealingPlacer),
                          ("trivial", TrivialPlacer),
                          ("subgraph", SubgraphPlacer),
                          ("portfolio", PortfolioPlacer)]:
            placer = make_placer(PlacerConfig(placer=name))
            assert isinstance(placer, cls)
            assert placer.name == name

    def test_default_is_force(self):
        assert isinstance(make_placer(), ForceDirectedPlacer)

    def test_config_rejects_unknown_placer_listing_choices(self):
        with pytest.raises(ValueError) as err:
            PlacerConfig(placer="genetic")
        message = str(err.value)
        assert "genetic" in message
        for choice in PLACER_CHOICES:
            assert choice in message

    def test_config_rejects_bad_portfolio_member(self):
        with pytest.raises(ValueError) as err:
            PlacerConfig(portfolio_members=("force", "portfolio"))
        assert "portfolio_members" in str(err.value)

    def test_config_rejects_bad_sa_knobs(self):
        with pytest.raises(ValueError):
            PlacerConfig(sa_cooling=1.5)
        with pytest.raises(ValueError):
            PlacerConfig(sa_uphill_probability=0.0)
        with pytest.raises(ValueError):
            PlacerConfig(sa_rounds=0)


class TestSeedPlacers:
    def test_trivial_places_everything(self, grid9_netlist):
        result = TrivialPlacer(PlacerConfig()).place(grid9_netlist)
        assert result.layout.strategy == "qplacer"
        assert np.isfinite(result.layout.positions).all()
        assert result.num_cells == result.problem.num_instances
        assert {"preprocess", "seed", "legalize"} <= set(
            result.phase_profile)

    def test_subgraph_interleaves_bands(self, grid9_netlist):
        config = PlacerConfig()
        problem = build_problem(grid9_netlist, config)
        order = band_round_robin_order(problem)
        assert sorted(order.tolist()) == list(range(problem.num_instances))
        # Consecutive slots cycle bands: the first #bands slots hold
        # pairwise distinct bands.
        from repro.core.interactions import frequency_bands
        bands = frequency_bands(problem.frequencies,
                                config.detuning_threshold_ghz)
        distinct = len(np.unique(bands))
        head = bands[order[:distinct]]
        assert len(np.unique(head)) == distinct

    @pytest.mark.parametrize("topology", ["grid-9", "eagle-127"])
    def test_subgraph_order_matches_raw_band_labels(self, topology):
        """Gap-aware band labels never reshuffle the subgraph seed."""
        config = PlacerConfig()
        problem = build_problem(build_netlist(get_topology(topology)),
                                config)
        width = config.detuning_threshold_ghz * (1.0 + 1e-9) + 1e-12
        raw = np.floor(problem.frequencies / width).astype(np.int64)
        n = raw.shape[0]
        by_band = np.lexsort((np.arange(n), raw))
        run_starts = np.flatnonzero(
            np.diff(raw[by_band], prepend=raw[by_band[0]] - 1))
        rank = np.empty(n, dtype=np.int64)
        rank[by_band] = np.arange(n) - np.repeat(
            run_starts, np.diff(np.append(run_starts, n)))
        expected = np.lexsort((raw, rank))
        assert np.array_equal(band_round_robin_order(problem), expected)

    def test_seed_grid_is_deterministic(self, grid9_netlist):
        config = PlacerConfig()
        problem = build_problem(grid9_netlist, config)
        a = seed_grid_positions(problem)
        b = _grid(problem)
        assert np.array_equal(a, b)

    def test_seed_placers_are_deterministic(self, grid9_netlist):
        for cls in (TrivialPlacer, SubgraphPlacer):
            one = cls(PlacerConfig()).place(grid9_netlist)
            two = cls(PlacerConfig()).place(grid9_netlist)
            assert np.array_equal(one.layout.positions,
                                  two.layout.positions)


class TestCostModel:
    def test_delta_matches_full_recompute(self, grid9_netlist):
        config = PlacerConfig()
        problem = build_problem(grid9_netlist, config)
        legal, _ = Legalizer(problem, config).run(_grid(problem))
        model = CostModel(problem)
        model.load(legal)
        rng = np.random.default_rng(1)
        for _ in range(50):
            i = int(rng.integers(problem.num_instances))
            target = (float(legal[i, 0] + rng.normal()),
                      float(legal[i, 1] + rng.normal()))
            moves = [(i, target)]
            delta = model.delta(moves)
            after = model.positions.copy()
            after[i] = target
            full = model.full_cost(after) - model.full_cost(model.positions)
            assert delta == pytest.approx(full, abs=1e-9)

    def test_apply_tracks_cost(self, grid9_netlist):
        config = PlacerConfig()
        problem = build_problem(grid9_netlist, config)
        legal, _ = Legalizer(problem, config).run(_grid(problem))
        model = CostModel(problem)
        model.load(legal)
        moves = [(0, (float(legal[0, 0]) + 0.7, float(legal[0, 1])))]
        delta = model.delta(moves)
        model.apply(moves, delta)
        assert model.cost == pytest.approx(
            model.full_cost(model.positions), abs=1e-9)


class TestSimulatedAnnealing:
    def test_same_seed_bit_identical(self, grid9_netlist, sa_config):
        one = SimulatedAnnealingPlacer(sa_config).place(grid9_netlist)
        two = SimulatedAnnealingPlacer(sa_config).place(grid9_netlist)
        assert np.array_equal(one.layout.positions, two.layout.positions)

    def test_different_seed_may_differ_but_stays_legal(
            self, grid9_netlist, sa_config):
        import dataclasses
        other = dataclasses.replace(sa_config, seed=7)
        result = SimulatedAnnealingPlacer(other).place(grid9_netlist)
        assert np.isfinite(result.layout.positions).all()

    def test_round_costs_monotone_non_increasing(self, grid9_netlist,
                                                 sa_config):
        placer = SimulatedAnnealingPlacer(sa_config)
        placer.place(grid9_netlist)
        costs = placer.last_anneal_stats.round_costs
        assert len(costs) == sa_config.sa_rounds
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_deadline_stops_early(self, grid9_netlist, sa_config):
        import time
        config = PlacerConfig(sa_probe_moves=8)
        problem = build_problem(grid9_netlist, config)
        legalizer = Legalizer(problem, config)
        legal, _ = legalizer.run(_grid(problem))
        model = CostModel(problem)
        model.load(legal)
        annealer = Annealer(problem, config, legalizer, model,
                            np.random.default_rng(0))
        _, stats = annealer.run(10_000, 10_000,
                                deadline=time.monotonic() + 0.2)
        assert stats.rounds < 10_000

    def test_warm_start_accepted(self, grid9_netlist, sa_config):
        problem = build_problem(grid9_netlist, sa_config)
        warm = _grid(problem)
        result = SimulatedAnnealingPlacer(sa_config).place(
            grid9_netlist, initial_positions=warm)
        assert result.layout.num_instances == problem.num_instances


class TestPortfolio:
    def test_rigged_scorer_argmax(self, grid9_netlist):
        config = PlacerConfig(portfolio_members=("trivial", "subgraph"))
        want = SubgraphPlacer(config).place(grid9_netlist)
        # Rig: subgraph's layout scores higher.
        reference = want.layout.positions

        def rigged(layout):
            return 1.0 if np.array_equal(layout.positions, reference) \
                else 0.0

        placer = PortfolioPlacer(config, scorer=rigged)
        result = placer.place(grid9_netlist)
        assert np.array_equal(result.layout.positions, reference)
        assert result.portfolio_scores == {"trivial": 0.0, "subgraph": 1.0}

    def test_tie_keeps_first_member(self, grid9_netlist):
        config = PlacerConfig(portfolio_members=("trivial", "subgraph"))
        first = TrivialPlacer(config).place(grid9_netlist)
        placer = PortfolioPlacer(config, scorer=lambda layout: 1.0)
        result = placer.place(grid9_netlist)
        assert np.array_equal(result.layout.positions,
                              first.layout.positions)

    def test_member_telemetry_folded_in(self, grid9_netlist):
        config = PlacerConfig(portfolio_members=("trivial", "subgraph"))
        result = PortfolioPlacer(config).place(grid9_netlist)
        assert "portfolio/trivial" in result.phase_profile
        assert "portfolio/subgraph" in result.phase_profile
        assert set(result.portfolio_scores) == {"trivial", "subgraph"}

    def test_scores_bounded(self, grid9_netlist):
        config = PlacerConfig(portfolio_members=("trivial",))
        result = PortfolioPlacer(config).place(grid9_netlist)
        for score in result.portfolio_scores.values():
            assert 0.0 < score <= 1.0
        assert score_layout(result.layout) == pytest.approx(
            result.portfolio_scores["trivial"])
