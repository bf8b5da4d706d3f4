"""Tests for repro.baselines._prototypes — the shared softmax machinery.

The analytic gradients power both the LFR and iFair optimizers, so they are
checked against finite differences exactly.
"""

import numpy as np
import pytest

from repro.baselines._prototypes import assignment_backprop, soft_assignments


@pytest.fixture
def setup(rng):
    X = rng.normal(size=(7, 4))
    V = rng.normal(size=(3, 4))
    alpha = rng.uniform(0.5, 2.0, size=4)
    return X, V, alpha


class TestForward:
    def test_rows_sum_to_one(self, setup):
        X, V, alpha = setup
        U, _ = soft_assignments(X, V, alpha)
        np.testing.assert_allclose(U.sum(axis=1), 1.0, atol=1e-12)

    def test_probabilities_positive(self, setup):
        X, V, alpha = setup
        U, _ = soft_assignments(X, V, alpha)
        assert U.min() > 0.0

    def test_nearest_prototype_dominates(self, rng):
        V = np.array([[0.0, 0.0], [10.0, 10.0]])
        X = np.array([[0.1, 0.0], [9.9, 10.0]])
        U, _ = soft_assignments(X, V)
        assert U[0, 0] > 0.99
        assert U[1, 1] > 0.99

    def test_unweighted_equals_unit_weights(self, setup):
        X, V, _ = setup
        U1, D1 = soft_assignments(X, V, None)
        U2, D2 = soft_assignments(X, V, np.ones(X.shape[1]))
        np.testing.assert_allclose(U1, U2)
        np.testing.assert_allclose(D1, D2)

    def test_distances_weighted(self, setup):
        X, V, alpha = setup
        _, D = soft_assignments(X, V, alpha)
        i, k = 2, 1
        expected = np.sum(alpha * (X[i] - V[k]) ** 2)
        assert D[i, k] == pytest.approx(expected)

    def test_stable_for_far_points(self):
        # Huge distances must not overflow the softmax.
        X = np.array([[1e4, 1e4]])
        V = np.array([[0.0, 0.0], [1.0, 1.0]])
        U, _ = soft_assignments(X, V)
        assert np.all(np.isfinite(U))
        np.testing.assert_allclose(U.sum(), 1.0)


def broadcast_soft_assignments(X, V, alpha=None):
    """Reference forward pass: the direct ``(n, K, m)`` difference tensor."""
    diff = X[:, None, :] - V[None, :, :]
    weights = np.ones(X.shape[1]) if alpha is None else alpha
    D = np.sum(diff * diff * weights[None, None, :], axis=2)
    logits = -D - (-D).max(axis=1, keepdims=True)
    expd = np.exp(logits)
    return expd / expd.sum(axis=1, keepdims=True), D


class TestExpandedDistanceParity:
    """The expanded-distance kernel against the broadcast oracle."""

    @staticmethod
    def _assert_parity(X, V, alpha):
        U, D = soft_assignments(X, V, alpha)
        U_ref, D_ref = broadcast_soft_assignments(X, V, alpha)
        np.testing.assert_allclose(U, U_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(D, D_ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n, K, m", [(1, 1, 1), (7, 3, 4), (200, 10, 27)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_random_inputs(self, n, K, m, weighted):
        rng = np.random.default_rng(n * 100 + K * 10 + m)
        alpha = rng.uniform(0.0, 2.0, size=m) if weighted else None
        self._assert_parity(rng.normal(size=(n, m)), rng.normal(size=(K, m)), alpha)

    def test_zero_weight_columns(self):
        rng = np.random.default_rng(1)
        X, V = rng.normal(size=(50, 6)), rng.normal(size=(5, 6))
        alpha = rng.uniform(0.5, 2.0, size=6)
        alpha[[1, 4]] = 0.0
        self._assert_parity(X, V, alpha)
        # A zero-weight column cannot move the assignments.
        X_moved = X.copy()
        X_moved[:, [1, 4]] += 100.0
        np.testing.assert_allclose(
            soft_assignments(X_moved, V, alpha)[0],
            soft_assignments(X, V, alpha)[0],
            rtol=1e-12,
            atol=1e-12,
        )

    @pytest.mark.parametrize("weighted", [False, True])
    def test_far_points(self, weighted):
        rng = np.random.default_rng(2)
        X = 1e4 + rng.normal(size=(20, 3))
        V = rng.normal(size=(4, 3))
        alpha = rng.uniform(0.5, 2.0, size=3) if weighted else None
        self._assert_parity(X, V, alpha)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_row_on_a_prototype_has_nonnegative_distance(self, weighted):
        # Unclamped, rounding in |x|² - 2x·v + |v|² leaves these rows at
        # about -2e-13 from their own prototype.
        rng = np.random.default_rng(3)
        V = rng.normal(size=(6, 5)) * 10.0
        X = np.vstack([V, V[::-1] + 1e-9])
        alpha = rng.uniform(0.5, 2.0, size=5) if weighted else None
        _, D = soft_assignments(X, V, alpha)
        assert D.min() >= 0.0
        np.testing.assert_allclose(np.diag(D[:6]), 0.0, atol=1e-10)


def _numeric_grad(f, theta, eps=1e-6):
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        up = theta.copy()
        up[i] += eps
        down = theta.copy()
        down[i] -= eps
        grad[i] = (f(up) - f(down)) / (2 * eps)
    return grad


class TestBackprop:
    """Check ∂L/∂V and ∂L/∂α against finite differences for a loss that
    depends on U in a generic nonlinear way."""

    @staticmethod
    def _loss_through_U(X, Vflat, alpha, K, target):
        V = Vflat.reshape(K, X.shape[1])
        U, _ = soft_assignments(X, V, alpha)
        return float(np.sum((U - target) ** 2))

    def test_grad_V(self, setup):
        X, V, alpha = setup
        rng = np.random.default_rng(7)
        target = rng.random((X.shape[0], V.shape[0]))

        U, _ = soft_assignments(X, V, alpha)
        G = 2.0 * (U - target)  # ∂L/∂U for the squared loss
        grad_V, _ = assignment_backprop(X, V, U, G, alpha)

        numeric = _numeric_grad(
            lambda th: self._loss_through_U(X, th, alpha, V.shape[0], target),
            V.ravel(),
        ).reshape(V.shape)
        np.testing.assert_allclose(grad_V, numeric, atol=1e-5)

    def test_grad_alpha(self, setup):
        X, V, alpha = setup
        rng = np.random.default_rng(8)
        target = rng.random((X.shape[0], V.shape[0]))

        U, _ = soft_assignments(X, V, alpha)
        G = 2.0 * (U - target)
        _, grad_alpha = assignment_backprop(
            X, V, U, G, alpha, want_alpha_grad=True
        )

        def loss_of_alpha(a):
            U2, _ = soft_assignments(X, V, a)
            return float(np.sum((U2 - target) ** 2))

        numeric = _numeric_grad(loss_of_alpha, alpha.copy())
        np.testing.assert_allclose(grad_alpha, numeric, atol=1e-5)

    def test_grad_V_unweighted(self, setup):
        X, V, _ = setup
        rng = np.random.default_rng(9)
        target = rng.random((X.shape[0], V.shape[0]))
        U, _ = soft_assignments(X, V)
        G = 2.0 * (U - target)
        grad_V, none = assignment_backprop(X, V, U, G, None)
        assert none is None
        numeric = _numeric_grad(
            lambda th: self._loss_through_U(
                X, th, None, V.shape[0], target
            ),
            V.ravel(),
        ).reshape(V.shape)
        np.testing.assert_allclose(grad_V, numeric, atol=1e-5)
