"""LFR — Learning Fair Representations (Zemel et al., ICML 2013).

The paper's supervised representation-learning baseline (§4.1): map each
individual to soft assignments over ``K`` prototypes, trading off

* reconstruction  ``L_x = (1/n) Σ_n ||x̂_n - x_n||²``,
* prediction      ``L_y = (1/n) Σ_n BCE(y_n, ŷ_n)`` with
  ``ŷ_n = Σ_k U_nk w_k``,
* demographic parity on prototype occupancy
  ``L_z = Σ_k | mean_{s=0} U_nk - mean_{s=1} U_nk |``,

minimizing ``A_x L_x + A_y L_y + A_z L_z`` over prototypes ``V`` and
prototype label weights ``w ∈ [0,1]^K``. Unlike the reference code (which
used numerical differentiation), this implementation supplies exact
gradients to L-BFGS, making it fast enough to grid-search.

The learned representation used downstream is the assignment matrix ``U``
(``transform``), matching how the paper feeds LFR output to a logistic
regression.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from .._validation import (
    check_array,
    check_binary_labels,
    check_consistent_length,
    check_is_fitted,
    check_random_state,
    check_X_y,
    column_or_1d,
)
from ..exceptions import ValidationError
from ..ml.base import BaseEstimator, TransformerMixin
from ._prototypes import assignment_backprop, soft_assignments

__all__ = ["LFR"]

_PROB_EPS = 1e-6


def _parity_weights(in_first: np.ndarray) -> np.ndarray:
    """Signed per-row weights ``c`` of the parity term, shape ``(n,)``.

    ``c`` is ``+1/|S0|`` on the first group and ``-1/|S1|`` on the second,
    so ``c @ U`` is the gap of group means ``mean_{s=0} U - mean_{s=1} U``.
    """
    return np.where(in_first, 1.0 / in_first.sum(), -1.0 / (~in_first).sum())


class LFR(BaseEstimator, TransformerMixin):
    """Learning Fair Representations (Zemel et al. 2013).

    Parameters
    ----------
    n_prototypes:
        Number of prototypes ``K`` (the latent dimensionality).
    a_x, a_y, a_z:
        Weights of the reconstruction, prediction, and parity terms.
    max_iter:
        L-BFGS iteration budget.
    seed:
        Seed for prototype initialization (random data points + noise).

    Attributes
    ----------
    prototypes_ : ndarray of shape (K, m)
        Learned prototype locations ``V``.
    label_weights_ : ndarray of shape (K,)
        Learned per-prototype positive-class weights ``w``.
    loss_ : float
        Final training objective value.
    """

    def __init__(
        self,
        n_prototypes: int = 10,
        a_x: float = 0.01,
        a_y: float = 1.0,
        a_z: float = 50.0,
        max_iter: int = 200,
        seed=0,
    ):
        self.n_prototypes = n_prototypes
        self.a_x = a_x
        self.a_y = a_y
        self.a_z = a_z
        self.max_iter = max_iter
        self.seed = seed

    def _unpack(self, theta: np.ndarray, m: int):
        K = self.n_prototypes
        V = theta[: K * m].reshape(K, m)
        w = theta[K * m :]
        return V, w

    def _loss_grad(self, theta, X, y, group_weights):
        n, m = X.shape
        V, w = self._unpack(theta, m)
        U, _ = soft_assignments(X, V)

        # --- forward ---------------------------------------------------
        X_hat = U @ V
        residual = X_hat - X
        loss_x = float(np.sum(residual * residual)) / n

        y_hat = np.clip(U @ w, _PROB_EPS, 1.0 - _PROB_EPS)
        loss_y = float(-np.mean(y * np.log(y_hat) + (1 - y) * np.log(1 - y_hat)))

        gaps = group_weights @ U  # mean_{s=0} U - mean_{s=1} U
        loss_z = float(np.sum(np.abs(gaps)))

        loss = self.a_x * loss_x + self.a_y * loss_y + self.a_z * loss_z

        # --- backward ---------------------------------------------------
        # ∂L/∂U has three contributions. It is built as its (K, n)
        # transpose, the memory layout soft_assignments gives U.
        # reconstruction: ∂L_x/∂U_nk = (2/n) residual_n · v_k
        G_t = self.a_x * (2.0 / n) * (V @ residual.T)
        # prediction: ∂L_y/∂ŷ_n = (ŷ-y)/(ŷ(1-ŷ)) / n ; ∂ŷ/∂U_nk = w_k
        bce_grad = (y_hat - y) / (y_hat * (1.0 - y_hat)) / n
        G_t += np.outer(w, self.a_y * bce_grad)
        # parity: ∂L_z/∂U_nk = sign(gap_k) * (±1/|group|)
        G_t += np.outer(np.sign(gaps), self.a_z * group_weights)

        grad_V, _ = assignment_backprop(X, V, U, G_t.T, None)
        # Direct dependence of L_x on V (through X_hat = U V).
        grad_V += self.a_x * (2.0 / n) * (U.T @ residual)
        # ∂L_y/∂w_k = Σ_n bce_grad_n U_nk
        grad_w = self.a_y * (U.T @ bce_grad)

        grad = np.concatenate([grad_V.ravel(), grad_w])
        return loss, grad

    def fit(self, X, y, s=None):
        """Fit prototypes and label weights.

        Parameters
        ----------
        X:
            Feature matrix ``(n, m)``.
        y:
            Binary labels in {0, 1}.
        s:
            Binary protected-group membership; required (LFR's parity term
            is group-based).
        """
        X, y = check_X_y(X, y, min_samples=2)
        y = check_binary_labels(y)
        if s is None:
            raise ValidationError("LFR requires the protected attribute s")
        s = column_or_1d(s, name="s")
        check_consistent_length(X, s)
        group_values = np.unique(s)
        if len(group_values) != 2:
            raise ValidationError(
                f"LFR's parity term assumes two groups; got {len(group_values)}"
            )
        if self.n_prototypes < 1:
            raise ValidationError(f"n_prototypes must be >= 1; got {self.n_prototypes}")
        for name in ("a_x", "a_y", "a_z"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")

        n, m = X.shape
        K = self.n_prototypes
        rng = check_random_state(self.seed)
        # Initialize prototypes at jittered random data points.
        anchors = rng.choice(n, size=K, replace=n < K)
        V0 = X[anchors] + 0.01 * rng.standard_normal((K, m))
        w0 = rng.uniform(0.25, 0.75, size=K)
        theta0 = np.concatenate([V0.ravel(), w0])

        group_weights = _parity_weights(s == group_values[0])
        bounds = [(None, None)] * (K * m) + [(0.0, 1.0)] * K

        result = scipy.optimize.minimize(
            self._loss_grad,
            theta0,
            args=(X, y, group_weights),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": self.max_iter},
        )

        V, w = self._unpack(result.x, m)
        self.prototypes_ = V
        self.label_weights_ = w
        self.loss_ = float(result.fun)
        self.n_iter_ = int(result.nit)
        self.n_features_in_ = m
        return self

    def transform(self, X) -> np.ndarray:
        """Soft prototype assignments ``U`` — the fair representation, shape (n, K)."""
        check_is_fitted(self, "prototypes_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_in_:
            raise ValidationError(
                f"X must have shape (n, {self.n_features_in_}); got {X.shape}"
            )
        U, _ = soft_assignments(X, self.prototypes_)
        return np.ascontiguousarray(U)

    def predict_proba_positive(self, X) -> np.ndarray:
        """LFR's own label predictor ``ŷ = U w`` (used by the original paper)."""
        U = self.transform(X)
        return np.clip(U @ self.label_weights_, 0.0, 1.0)

    def fit_transform(self, X, y=None, s=None):
        """Fit and return the training-set assignments."""
        return self.fit(X, y, s=s).transform(X)
