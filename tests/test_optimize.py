"""Quasi-Newton minimizer against closed-form and scipy oracles."""

import logging
from unittest import mock

import numpy as np
import pytest
import scipy.optimize

from ilitrack import optimize
from ilitrack.optimize import OptimizeResult, minimize_lbfgs


def quadratic(A, b):
    def fun(x):
        r = A @ x - b
        return 0.5 * float(x @ A @ x) - float(b @ x), r

    return fun


def test_quadratic_reaches_closed_form_solution():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(6, 6))
    A = M @ M.T + 6 * np.eye(6)  # definitely positive definite
    b = rng.normal(size=6)
    res = minimize_lbfgs(quadratic(A, b), np.zeros(6), tol=1e-10)
    assert res.converged
    np.testing.assert_allclose(res.x, np.linalg.solve(A, b), atol=1e-8)
    assert res.grad_max < 1e-10


def test_identity_quadratic_one_step():
    # With A = I the first steepest-descent step lands exactly on the optimum.
    fun = quadratic(np.eye(3), np.array([1.0, -2.0, 3.0]))
    res = minimize_lbfgs(fun, np.zeros(3), tol=1e-12)
    assert res.converged
    assert res.iterations <= 2
    np.testing.assert_allclose(res.x, [1.0, -2.0, 3.0], atol=1e-12)


def test_rosenbrock():
    def fun(x):
        a, b = x
        loss = (1 - a) ** 2 + 100 * (b - a * a) ** 2
        grad = np.array(
            [-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)]
        )
        return loss, grad

    res = minimize_lbfgs(fun, np.array([-1.2, 1.0]), tol=1e-8, max_iters=2000)
    assert res.converged
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)


def test_matches_scipy_on_smooth_convex_objective():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 5))
    y = rng.integers(0, 2, size=40).astype(float)

    def fun(theta):
        z = X @ theta
        loss = float(np.sum(np.logaddexp(0.0, z) - y * z)) + 0.5 * float(theta @ theta)
        p = 0.5 * (1.0 + np.tanh(0.5 * z))
        grad = X.T @ (p - y) + theta
        return loss, grad

    ours = minimize_lbfgs(fun, np.zeros(5), tol=1e-9)
    ref = scipy.optimize.minimize(
        fun, np.zeros(5), jac=True, method="L-BFGS-B",
        options={"maxiter": 500, "ftol": 1e-15, "gtol": 1e-10},
    )
    assert ours.converged
    assert ours.loss == pytest.approx(ref.fun, abs=1e-8)
    np.testing.assert_allclose(ours.x, ref.x, atol=1e-5)


def test_loss_history_never_increases():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(8, 8))
    A = M @ M.T + np.eye(8)
    fun = quadratic(A, rng.normal(size=8))
    res = minimize_lbfgs(fun, rng.normal(size=8), tol=1e-8)
    assert res.converged
    assert res.loss_history[0] > res.loss_history[-1]
    for before, after in zip(res.loss_history, res.loss_history[1:]):
        assert after <= before
    assert res.loss == res.loss_history[-1]


def test_budget_exhaustion_reports_not_raises(caplog):
    fun = quadratic(np.diag([1.0, 1000.0]), np.array([1.0, 1.0]))
    with caplog.at_level(logging.WARNING, logger="ilitrack.optimize"):
        res = minimize_lbfgs(fun, np.array([500.0, -500.0]), tol=1e-14, max_iters=2)
    assert isinstance(res, OptimizeResult)
    assert not res.converged
    assert res.iterations == 2
    assert "max_iters" in caplog.text


def test_starting_at_optimum_returns_immediately():
    fun = quadratic(np.eye(2), np.zeros(2))
    res = minimize_lbfgs(fun, np.zeros(2), tol=1e-10)
    assert res.converged
    assert res.iterations == 0
    assert res.loss_history == [0.0]


def test_non_finite_objective_raises():
    def fun(x):
        return float("nan"), np.zeros_like(x)

    with pytest.raises(FloatingPointError, match="non-finite"):
        minimize_lbfgs(fun, np.ones(2))


def test_deterministic_bit_equal():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(7, 7))
    A = M @ M.T + np.eye(7)
    b = rng.normal(size=7)
    x0 = rng.normal(size=7)
    r1 = minimize_lbfgs(quadratic(A, b), x0, tol=1e-10)
    r2 = minimize_lbfgs(quadratic(A, b), x0, tol=1e-10)
    assert np.array_equal(r1.x, r2.x)
    assert r1.loss == r2.loss
    assert r1.loss_history == r2.loss_history


def test_memory_one_still_converges():
    rng = np.random.default_rng(6)
    M = rng.normal(size=(5, 5))
    A = M @ M.T + np.eye(5)
    b = rng.normal(size=5)
    with mock.patch.object(optimize, "_MEMORY", 1):
        res = minimize_lbfgs(quadratic(A, b), np.zeros(5), tol=1e-9, max_iters=5000)
    assert res.converged
    np.testing.assert_allclose(res.x, np.linalg.solve(A, b), atol=1e-7)
