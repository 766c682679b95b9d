"""Frequency repulsive force (Eqs. 9-10, the paper's core novelty).

Instances that share (near-)resonant frequencies repel each other like
equal charges.  Eq. (9) prescribes a force of magnitude ``1/d^2`` on
every colliding pair, i.e. the pairwise potential

``U(i, j) = tau(w_i, w_j, Delta_c) * (1 - delta(r_i, r_j)) / d_ij``

softened as ``1/sqrt(d^2 + s^2)`` so coincident points stay finite.  The
collision map (which already excludes sibling segments and non-resonant
pairs) is precomputed once in :mod:`repro.core.preprocess`, so each
evaluation only touches the colliding pairs — never all-to-all.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def frequency_energy_and_grad(positions: np.ndarray,
                              collision_pairs: np.ndarray,
                              smoothing_mm: float,
                              pair_index: np.ndarray = None
                              ) -> Tuple[float, np.ndarray]:
    """Total repulsive potential and its gradient.

    Args:
        positions: ``(n, 2)`` instance centres.
        collision_pairs: ``(p, 2)`` precomputed resonant pairs.
        smoothing_mm: Softening length ``s`` (mm).
        pair_index: Optional precomputed ``concatenate([a, b])`` of the
            pair columns — the optimizer evaluates this function every
            iteration with the same static pair set, so the caller can
            build the scatter index once.

    Returns:
        ``(energy, grad)`` with ``grad`` shaped ``(n, 2)``.
    """
    if smoothing_mm <= 0:
        raise ValueError("smoothing length must be positive")
    grad = np.zeros_like(positions)
    if collision_pairs.size == 0:
        return 0.0, grad
    a = collision_pairs[:, 0]
    b = collision_pairs[:, 1]
    # Column-split kernel: each axis is gathered and scaled on its own,
    # bit-equal to the (m, 2) row form (a two-term sum is one addition).
    x, y = positions[:, 0], positions[:, 1]
    dx = x[a] - x[b]
    dy = y[a] - y[b]
    dist2 = dx * dx + dy * dy + smoothing_mm * smoothing_mm
    inv = 1.0 / np.sqrt(dist2)
    energy = float(inv.sum())
    # dU/dp_a = -delta / (d^2 + s^2)^(3/2)  (repulsion: -grad pushes apart)
    n = positions.shape[0]
    scale = inv / dist2
    # One bincount over the concatenated (a, b) index stream scatter-adds
    # in the same sequential order as the former np.add.at pair, bit for
    # bit, while running an order of magnitude faster.
    idx = pair_index if pair_index is not None else np.concatenate([a, b])
    m = a.shape[0]
    w = np.empty(2 * m)
    for axis, d in enumerate((dx, dy)):
        force = d * scale
        np.negative(force, out=w[:m])
        w[m:] = force
        grad[:, axis] = np.bincount(idx, weights=w, minlength=n)
    return energy, grad


def repulsion_force_magnitude(distance_mm: np.ndarray,
                              smoothing_mm: float) -> np.ndarray:
    """Force magnitude ``d / (d^2 + s^2)^(3/2)`` (≈ 1/d^2 for d >> s).

    Exposed for tests and the physics benches: verifies the Eq. (9)
    inverse-square behaviour away from the softened core.
    """
    d = np.asarray(distance_mm, dtype=float)
    return d / np.power(d * d + smoothing_mm * smoothing_mm, 1.5)


def resonant_pair_distances(positions: np.ndarray,
                            collision_pairs: np.ndarray) -> np.ndarray:
    """Euclidean centre distances of every colliding pair (diagnostics)."""
    if collision_pairs.size == 0:
        return np.zeros(0)
    delta = positions[collision_pairs[:, 0]] - positions[collision_pairs[:, 1]]
    return np.sqrt((delta * delta).sum(axis=1))
