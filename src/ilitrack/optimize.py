"""Limited-memory BFGS minimization with Armijo backtracking line search.

Deterministic full-batch quasi-Newton descent for smooth convex objectives.
The caller supplies fun(x) -> (loss, gradient); no stochasticity, so equal
inputs give bit-equal iterates.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

log = logging.getLogger(__name__)

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]

# Curvature pairs kept; the Armijo constant c1; the step's shrink factor per
# backtrack; and the backtracks a line search may take before it gives up.
_MEMORY = 10
_C1 = 1e-4
_SHRINK = 0.5
_MAX_BACKTRACKS = 60


@dataclass(slots=True)
class OptimizeResult:
    x: np.ndarray
    loss: float
    grad_max: float
    iterations: int
    converged: bool
    # Loss after each accepted step, starting with the initial loss.
    loss_history: list[float] = field(default_factory=list)


def minimize_lbfgs(
    fun: Objective, x0: np.ndarray, tol: float = 1e-8, max_iters: int = 500
) -> OptimizeResult:
    """Minimize fun starting at x0.

    Convergence means max|gradient| < tol. Each accepted step satisfies the
    Armijo condition f(x + a*d) <= f(x) + _C1*a*g.d, so the loss history never
    increases (the decrease is strict until it falls below float resolution).
    Returns converged=False (never raises) when the iteration or line-search
    budget runs out.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    loss, grad = fun(x)
    _check_finite(loss, grad)
    history: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=_MEMORY)
    losses = [loss]

    for iteration in range(1, max_iters + 1):
        grad_max = float(np.max(np.abs(grad))) if grad.size else 0.0
        if grad_max < tol:
            return OptimizeResult(x, loss, grad_max, iteration - 1, True, losses)

        direction = _two_loop_direction(grad, history)
        descent = float(direction @ grad)
        if descent >= 0.0:
            # Curvature history has gone stale; fall back to steepest descent.
            history.clear()
            direction = -grad
            descent = float(direction @ grad)

        step = _armijo_step(fun, x, loss, direction, descent)
        if step is None and history:
            history.clear()
            direction = -grad
            descent = float(direction @ grad)
            step = _armijo_step(fun, x, loss, direction, descent)
        if step is None:
            log.warning("line search stalled at iteration %d", iteration)
            return OptimizeResult(x, loss, grad_max, iteration, False, losses)

        alpha, new_loss, new_grad = step
        new_x = x + alpha * direction
        s = new_x - x
        y = new_grad - grad
        sy = float(s @ y)
        # Keep the inverse Hessian estimate positive definite.
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            history.append((s, y, 1.0 / sy))
        x, loss, grad = new_x, new_loss, new_grad
        losses.append(loss)

    grad_max = float(np.max(np.abs(grad))) if grad.size else 0.0
    converged = grad_max < tol
    if not converged:
        log.warning(
            "L-BFGS hit max_iters=%d with max|grad|=%.3e >= tol=%.0e",
            max_iters, grad_max, tol,
        )
    return OptimizeResult(x, loss, grad_max, max_iters, converged, losses)


def _two_loop_direction(
    grad: np.ndarray,
    history: deque[tuple[np.ndarray, np.ndarray, float]],
) -> np.ndarray:
    """Apply the implicit inverse-Hessian estimate to -grad."""
    q = grad.copy()
    alphas: list[float] = []
    for s, y, rho in reversed(history):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if history:
        s, y, _ = history[-1]
        gamma = float(s @ y) / float(y @ y)
        q *= gamma
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


def _armijo_step(
    fun: Objective, x: np.ndarray, loss: float, direction: np.ndarray, descent: float
) -> tuple[float, float, np.ndarray] | None:
    alpha = 1.0
    for _ in range(_MAX_BACKTRACKS):
        trial_loss, trial_grad = fun(x + alpha * direction)
        if np.isfinite(trial_loss) and trial_loss <= loss + _C1 * alpha * descent:
            _check_finite(trial_loss, trial_grad)
            return alpha, trial_loss, trial_grad
        alpha *= _SHRINK
    return None


def _check_finite(loss: float, grad: np.ndarray) -> None:
    if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
        raise FloatingPointError("objective returned a non-finite loss or gradient")
