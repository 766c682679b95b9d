"""Nesterov accelerated gradient optimizer with Barzilai-Borwein steps.

This is the optimizer of ePlace [56] (which DREAMPlace [53], the engine
the paper builds on, re-implements in PyTorch): Nesterov's accelerated
first-order method whose step length is predicted by the Barzilai-Borwein
(BB) secant rule instead of an expensive line search.  Steps are clamped
to a trust radius so the noisy FFT density gradient cannot explode the
iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

GradFn = Callable[[np.ndarray], Tuple[float, np.ndarray]]


@dataclass
class OptimizerState:
    """Internal optimizer state exposed for inspection/tests."""

    iteration: int
    value: float
    grad_norm: float
    step_length: float
    #: Largest single-coordinate displacement of the accepted iterate in
    #: this step (mm) — the quantity the engine's incremental density
    #: and Verlet neighbor-list reuse are keyed on.
    max_move_mm: float = 0.0


class NesterovOptimizer:
    """Nesterov + BB first-order minimiser over ``(n, 2)`` positions."""

    def __init__(self, objective: GradFn, x0: np.ndarray,
                 max_move: float, initial_step: Optional[float] = None,
                 project: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> None:
        """Args:
            objective: Callback returning ``(value, grad)`` at a point.
            x0: Initial positions, shape ``(n, 2)``.
            max_move: Trust radius — no coordinate moves further than
                this in one step (mm).
            initial_step: First step length; defaults to ``max_move``
                divided by the initial gradient infinity-norm.
            project: Optional feasibility projection applied after every
                step (e.g. clamping into the placement region).
        """
        if max_move <= 0:
            raise ValueError("max_move must be positive")
        self.objective = objective
        self.max_move = max_move
        self.project = project if project is not None else (lambda x: x)
        self.x = np.array(x0, dtype=float)
        self.v = self.x.copy()  # lookahead (reference) point
        self.a = 1.0            # Nesterov momentum coefficient
        self._initial_step = initial_step
        self._prev_v: Optional[np.ndarray] = None
        self._prev_grad: Optional[np.ndarray] = None
        self.state = OptimizerState(iteration=0, value=np.inf,
                                    grad_norm=np.inf, step_length=0.0)

    def _bb_step(self, grad: np.ndarray) -> float:
        """Barzilai-Borwein step-length prediction."""
        if self._prev_v is None or self._prev_grad is None:
            if self._initial_step is not None:
                return self._initial_step
            gmax = float(np.abs(grad).max())
            return self.max_move / max(gmax, 1e-12)
        dv = self.v - self._prev_v
        dg = grad - self._prev_grad
        # Plain numpy sums, not BLAS dot products: a threaded BLAS splits
        # long dots across threads, which would make the step (and the
        # whole layout) depend on the BLAS thread count.
        denom = float(np.sum(dg * dg))
        if denom <= 1e-18:
            return self.state.step_length or self.max_move
        return abs(float(np.sum(dv * dg))) / denom

    def step(self) -> OptimizerState:
        """One Nesterov iteration; returns the updated state."""
        value, grad = self.objective(self.v)
        # Adaptive restart (O'Donoghue & Candes): momentum past a valley
        # makes the objective climb — drop it and continue from x.  The
        # 10% slack tolerates the engine's growing penalty multipliers.
        if (self.state.iteration > 0 and np.isfinite(self.state.value)
                and value > 1.10 * abs(self.state.value)):
            self.a = 1.0
            self.v = self.x.copy()
            value, grad = self.objective(self.v)
        alpha = self._bb_step(grad)
        # Trust region: cap the largest single-coordinate displacement.
        gmax = float(np.abs(grad).max())
        if gmax > 0:
            alpha = min(alpha, self.max_move / gmax)
        x_new = self.project(self.v - alpha * grad)
        a_new = 0.5 * (1.0 + np.sqrt(4.0 * self.a * self.a + 1.0))
        v_new = self.project(x_new + (self.a - 1.0) / a_new * (x_new - self.x))

        self._prev_v = self.v
        self._prev_grad = grad
        moved = float(np.abs(x_new - self.x).max()) if x_new.size else 0.0
        self.x, self.v, self.a = x_new, v_new, a_new
        self.state = OptimizerState(
            iteration=self.state.iteration + 1,
            value=value,
            grad_norm=float(np.linalg.norm(grad)),
            step_length=alpha,
            max_move_mm=moved,
        )
        return self.state
