"""Unit tests for the Nesterov/Barzilai-Borwein optimizer."""

import numpy as np
import pytest

from repro.core.optimizer import NesterovOptimizer


def quadratic_objective(target):
    def fn(x):
        delta = x - target
        return float((delta ** 2).sum()), 2.0 * delta
    return fn


class TestConvergence:
    def test_minimises_quadratic(self):
        target = np.array([[1.0, 2.0], [3.0, -1.0]])
        opt = NesterovOptimizer(quadratic_objective(target),
                                x0=np.zeros((2, 2)), max_move=0.5)
        for _ in range(200):
            opt.step()
        assert np.allclose(opt.x, target, atol=1e-3)

    def test_faster_than_no_momentum_baseline(self):
        # Ill-conditioned quadratic: Nesterov+BB should converge in a
        # modest number of iterations.
        scales = np.array([[1.0, 100.0]])

        def fn(x):
            return float((scales * x * x).sum()), 2.0 * scales * x

        opt = NesterovOptimizer(fn, x0=np.array([[10.0, 10.0]]), max_move=1.0)
        for _ in range(300):
            opt.step()
        assert float(np.abs(opt.x).max()) < 1e-2


class TestMechanics:
    def test_trust_region_respected(self):
        def fn(x):
            return float(x.sum()), np.full_like(x, 1e9)  # huge gradient

        opt = NesterovOptimizer(fn, x0=np.zeros((3, 2)), max_move=0.25)
        x_before = opt.x.copy()
        opt.step()
        assert float(np.abs(opt.x - x_before).max()) <= 0.25 + 1e-12

    def test_projection_applied(self):
        target = np.array([[10.0, 10.0]])

        def project(x):
            return np.clip(x, 0.0, 1.0)

        opt = NesterovOptimizer(quadratic_objective(target),
                                x0=np.zeros((1, 2)), max_move=5.0,
                                project=project)
        for _ in range(50):
            opt.step()
        assert np.all(opt.x <= 1.0 + 1e-12)
        assert np.allclose(opt.x, 1.0, atol=1e-6)

    def test_state_tracking(self):
        opt = NesterovOptimizer(quadratic_objective(np.ones((1, 2))),
                                x0=np.zeros((1, 2)), max_move=1.0)
        s1 = opt.step()
        s2 = opt.step()
        assert s1.iteration == 1 and s2.iteration == 2
        assert s1.grad_norm > 0
        assert s2.step_length > 0

    def test_initial_step_override(self):
        opt = NesterovOptimizer(quadratic_objective(np.ones((1, 2))),
                                x0=np.zeros((1, 2)), max_move=10.0,
                                initial_step=0.01)
        state = opt.step()
        assert state.step_length == pytest.approx(0.01)

    def test_max_move_validation(self):
        with pytest.raises(ValueError):
            NesterovOptimizer(quadratic_objective(np.zeros((1, 2))),
                              x0=np.zeros((1, 2)), max_move=0.0)

    def test_zero_gradient_stable(self):
        def fn(x):
            return 0.0, np.zeros_like(x)

        opt = NesterovOptimizer(fn, x0=np.ones((2, 2)), max_move=1.0)
        for _ in range(3):
            opt.step()
        assert np.allclose(opt.x, 1.0)


#: Runs the optimizer on a synthetic 8,000-point objective and prints
#: the bytes of the final iterate (hex).
_THREADS_SCRIPT = """
import numpy as np
from repro.core.optimizer import NesterovOptimizer

rng = np.random.default_rng(3)
target = rng.normal(size=(8000, 2))
weight = rng.uniform(0.5, 2.0, size=(8000, 2))

def fn(x):
    d = x - target
    return float((weight * d ** 4).sum()), 4.0 * weight * d ** 3

opt = NesterovOptimizer(fn, x0=np.zeros((8000, 2)), max_move=0.5)
for _ in range(30):
    opt.step()
print(opt.x.tobytes().hex())
"""


class TestThreadIndependence:
    def test_iterate_independent_of_blas_threads(self):
        """The BB step must not depend on how BLAS splits a dot product."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT],
                                 env=env, capture_output=True, text=True,
                                 check=True, timeout=120)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]
