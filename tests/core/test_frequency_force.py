"""Unit tests for the frequency repulsive force (Eqs. 9-10)."""

import numpy as np
import pytest

from repro.core.frequency_force import (
    frequency_energy_and_grad,
    repulsion_force_magnitude,
    resonant_pair_distances,
)


class TestEnergy:
    def test_energy_decreases_with_distance(self):
        pairs = np.array([[0, 1]])
        near = frequency_energy_and_grad(
            np.array([[0.0, 0.0], [0.5, 0.0]]), pairs, 0.1)[0]
        far = frequency_energy_and_grad(
            np.array([[0.0, 0.0], [5.0, 0.0]]), pairs, 0.1)[0]
        assert near > far

    def test_finite_at_coincidence(self):
        pairs = np.array([[0, 1]])
        energy, grad = frequency_energy_and_grad(
            np.zeros((2, 2)), pairs, 0.3)
        assert np.isfinite(energy)
        assert np.all(np.isfinite(grad))

    def test_no_pairs(self):
        energy, grad = frequency_energy_and_grad(
            np.zeros((3, 2)), np.zeros((0, 2), dtype=int), 0.3)
        assert energy == 0.0
        assert np.allclose(grad, 0.0)

    def test_smoothing_validation(self):
        with pytest.raises(ValueError):
            frequency_energy_and_grad(np.zeros((2, 2)),
                                      np.array([[0, 1]]), 0.0)


class TestGradient:
    def test_repulsion_direction(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        pairs = np.array([[0, 1]])
        _, grad = frequency_energy_and_grad(positions, pairs, 0.1)
        # Descent direction -grad pushes 0 left and 1 right: apart.
        assert -grad[0, 0] < 0
        assert -grad[1, 0] > 0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        positions = rng.normal(size=(5, 2)) * 2.0
        pairs = np.array([[0, 1], [1, 2], [0, 3], [3, 4]])
        s = 0.3
        _, grad = frequency_energy_and_grad(positions, pairs, s)
        eps = 1e-6
        for i in range(5):
            for dim in range(2):
                plus = positions.copy()
                plus[i, dim] += eps
                minus = positions.copy()
                minus[i, dim] -= eps
                numeric = (frequency_energy_and_grad(plus, pairs, s)[0]
                           - frequency_energy_and_grad(minus, pairs, s)[0]) \
                    / (2 * eps)
                assert grad[i, dim] == pytest.approx(numeric, abs=1e-5)

    def test_only_listed_pairs_interact(self):
        positions = np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 0.4]])
        pairs = np.array([[0, 1]])
        _, grad = frequency_energy_and_grad(positions, pairs, 0.1)
        assert np.allclose(grad[2], 0.0)


class TestForceMagnitude:
    def test_inverse_square_far_field(self):
        s = 0.1
        d = np.array([2.0, 4.0])
        f = repulsion_force_magnitude(d, s)
        # Doubling the distance quarters the force (Eq. 9).
        assert f[0] / f[1] == pytest.approx(4.0, rel=0.02)

    def test_softened_core(self):
        f0 = repulsion_force_magnitude(np.array([0.0]), 0.3)
        assert f0[0] == 0.0  # symmetric softening: no force at the core


class TestDiagnostics:
    def test_pair_distances(self):
        positions = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = resonant_pair_distances(positions, np.array([[0, 1]]))
        assert d[0] == pytest.approx(5.0)

    def test_empty(self):
        assert resonant_pair_distances(np.zeros((2, 2)),
                                       np.zeros((0, 2), dtype=int)).size == 0


def _row_form_energy_and_grad(positions, collision_pairs, smoothing_mm,
                              pair_index=None):
    """The ``(m, 2)`` row-gather formulation the column split replaced."""
    grad = np.zeros_like(positions)
    a = collision_pairs[:, 0]
    b = collision_pairs[:, 1]
    delta = positions[a] - positions[b]
    dist2 = (delta * delta).sum(axis=1) + smoothing_mm * smoothing_mm
    inv = 1.0 / np.sqrt(dist2)
    energy = float(inv.sum())
    n = positions.shape[0]
    force = delta * (inv / dist2)[:, None]
    idx = pair_index if pair_index is not None else np.concatenate([a, b])
    m = a.shape[0]
    w = np.empty(2 * m)
    for axis in (0, 1):
        np.negative(force[:, axis], out=w[:m])
        w[m:] = force[:, axis]
        grad[:, axis] = np.bincount(idx, weights=w, minlength=n)
    return energy, grad


class TestColumnSplitIdentity:
    """The per-column kernel is bit-identical to the row formulation."""

    @pytest.fixture(scope="class")
    def problem(self):
        from repro.core.config import PlacerConfig
        from repro.core.preprocess import build_problem
        from repro.devices.netlist import build_netlist
        from repro.devices.topology import get_topology
        return build_problem(build_netlist(get_topology("grid-25")),
                             PlacerConfig())

    def _pair_sets(self, problem):
        from repro.core.interactions import PrunedCollisionPairs
        rng = np.random.default_rng(21)
        positions = problem.initial_positions \
            + rng.normal(0, 1.5, size=(problem.num_instances, 2))
        dense = problem.collision_pairs
        assert dense.size
        sparse, _ = PrunedCollisionPairs(
            problem.frequencies, problem.resonator_index,
            problem.config.detuning_threshold_ghz,
            cutoff_mm=3.0, skin_mm=1.0).pairs(positions)
        assert 0 < sparse.shape[0] < dense.shape[0]
        return positions, {"dense": dense, "sparse": sparse}

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("with_index", [False, True])
    def test_bit_identical_to_row_form(self, problem, kind, with_index):
        positions, pair_sets = self._pair_sets(problem)
        pairs = pair_sets[kind]
        index = (np.concatenate([pairs[:, 0], pairs[:, 1]])
                 if with_index else None)
        energy, grad = frequency_energy_and_grad(
            positions, pairs, 0.3, pair_index=index)
        ref_energy, ref_grad = _row_form_energy_and_grad(
            positions, pairs, 0.3, pair_index=index)
        assert energy == ref_energy
        assert np.array_equal(grad, ref_grad)
