"""iFair — individually fair representations (Lahoti et al., ICDE 2019).

The paper's unsupervised representation-learning baseline (§4.1): like LFR
it maps individuals to convex combinations of ``K`` prototypes,
``x̃_n = Σ_k U_nk v_k``, but its two objectives are

* **utility** — reconstruction ``L_util = (1/n) Σ_n ||x̃_n - x_n||²``, and
* **individual fairness** — the transported pairwise distances should match
  the distances in the *non-protected* feature subspace:
  ``L_fair = (1/|P|) Σ_{(i,j)∈P} ( ||x̃_i - x̃_j|| - d*_ij )²``,

where ``d*`` is the euclidean distance computed without the protected
columns. Protected-attribute obfuscation emerges through learned
per-feature distance weights ``α ≥ 0``: the optimizer can shrink the
protected columns' influence on the prototype assignment.

minimize  λ·L_util + μ·L_fair   over  V (K×m), α (m ≥ 0).

The pair set ``P`` is all pairs for small n and a random subsample for
large n (the objective is a U-statistic, so subsampling is unbiased).
Gradients are exact (see :mod:`repro.baselines._prototypes`).
"""

from __future__ import annotations

import numpy as np
import scipy.optimize
import scipy.sparse as sp

from .._validation import check_array, check_is_fitted, check_random_state
from ..exceptions import ValidationError
from ..ml.base import BaseEstimator, TransformerMixin
from ._prototypes import assignment_backprop, soft_assignments

__all__ = ["IFair"]

_DIST_EPS = 1e-9


def _pair_difference_operator(pairs: np.ndarray, n: int) -> sp.csr_matrix:
    """Sparse signed pair operator ``B``, shape ``(n_pairs, n)``.

    Row ``p`` holds +1 in column ``i`` and -1 in column ``j`` for the pair
    ``(i, j) = pairs[p]``, so ``B @ Z`` stacks the pairwise differences
    ``Z[i] - Z[j]`` and ``B.T @ G`` scatters a per-pair gradient back onto
    both rows of each pair. ``B`` is the transpose of the pairs' incidence
    matrix; stored as CSR, both products stream over the pair axis in order.
    """
    n_pairs = len(pairs)
    return sp.csr_matrix(
        (
            np.tile([1.0, -1.0], n_pairs),
            pairs.ravel(),
            np.arange(0, 2 * n_pairs + 1, 2),
        ),
        shape=(n_pairs, n),
    )


class IFair(BaseEstimator, TransformerMixin):
    """iFair representation learner (Lahoti et al. 2019).

    Parameters
    ----------
    n_prototypes:
        Number of prototypes ``K``; the learned representation ``x̃`` keeps
        the input dimensionality ``m``.
    lambda_util:
        Weight λ of the reconstruction term.
    mu_fair:
        Weight μ of the pairwise individual-fairness term.
    protected_columns:
        Indices excluded from the target distance ``d*`` (the attributes to
        obfuscate).
    max_pairs:
        Upper bound on the number of pairs in ``P``; all pairs are used when
        ``n(n-1)/2 <= max_pairs``.
    max_iter, seed:
        Optimizer budget and initialization seed.

    Attributes
    ----------
    prototypes_ : ndarray of shape (K, m)
    feature_weights_ : ndarray of shape (m,)
        Learned non-negative distance weights α.
    loss_ : float
    """

    def __init__(
        self,
        n_prototypes: int = 10,
        lambda_util: float = 1.0,
        mu_fair: float = 1.0,
        protected_columns=None,
        max_pairs: int = 10000,
        max_iter: int = 150,
        seed=0,
    ):
        self.n_prototypes = n_prototypes
        self.lambda_util = lambda_util
        self.mu_fair = mu_fair
        self.protected_columns = protected_columns
        self.max_pairs = max_pairs
        self.max_iter = max_iter
        self.seed = seed

    def _unpack(self, theta, m):
        K = self.n_prototypes
        V = theta[: K * m].reshape(K, m)
        alpha = theta[K * m :]
        return V, alpha

    def _sample_pairs(self, n: int, rng) -> np.ndarray:
        total = n * (n - 1) // 2
        if total <= self.max_pairs:
            rows, cols = np.triu_indices(n, k=1)
            return np.column_stack([rows, cols])
        left = rng.integers(0, n, size=self.max_pairs)
        right = rng.integers(0, n, size=self.max_pairs)
        distinct = left != right
        return np.column_stack([left[distinct], right[distinct]])

    def _loss_grad(self, theta, X, pair_op, target_distances):
        n, m = X.shape
        V, alpha = self._unpack(theta, m)
        U, _ = soft_assignments(X, V, alpha)
        X_tilde = U @ V

        # Utility: reconstruction.
        residual = X_tilde - X
        loss_util = float(np.sum(residual * residual)) / n

        # Fairness: match transported distances to d*.
        diff = pair_op @ X_tilde  # row p: x̃_i - x̃_j for pair p = (i, j)
        distances = np.sqrt(np.einsum("pm,pm->p", diff, diff) + _DIST_EPS)
        errors = distances - target_distances
        n_pairs = pair_op.shape[0]
        loss_fair = float(errors @ errors) / n_pairs

        loss = self.lambda_util * loss_util + self.mu_fair * loss_fair

        # Gradient w.r.t. X_tilde: each pair adds +g to x̃_i and -g to x̃_j.
        R = self.lambda_util * (2.0 / n) * residual
        diff *= (self.mu_fair * (2.0 / n_pairs) * (errors / distances))[:, None]
        R += pair_op.T @ diff

        # Through U (softmax) and the direct U@V dependence. ∂L/∂U = R Vᵀ is
        # formed as (V Rᵀ)ᵀ to share the memory layout of U.
        G = (V @ R.T).T
        grad_V, grad_alpha = assignment_backprop(
            X, V, U, G, alpha, want_alpha_grad=True
        )
        grad_V += U.T @ R

        grad = np.concatenate([grad_V.ravel(), grad_alpha])
        return loss, grad

    def fit(self, X, y=None):
        """Learn prototypes and feature weights from unlabeled data."""
        X = check_array(X, name="X", min_samples=2)
        n, m = X.shape
        if self.n_prototypes < 1:
            raise ValidationError(f"n_prototypes must be >= 1; got {self.n_prototypes}")
        if self.lambda_util < 0 or self.mu_fair < 0:
            raise ValidationError("lambda_util and mu_fair must be non-negative")
        if self.max_pairs < 1:
            raise ValidationError(f"max_pairs must be >= 1; got {self.max_pairs}")

        if self.protected_columns is None:
            keep = np.arange(m)
        else:
            drop = np.unique(np.asarray(self.protected_columns, dtype=int))
            if drop.size and (drop.min() < 0 or drop.max() >= m):
                raise ValidationError(
                    f"protected_columns must be in [0, {m - 1}]; got {drop.tolist()}"
                )
            keep = np.setdiff1d(np.arange(m), drop)
            if keep.size == 0:
                raise ValidationError("protected_columns removes every feature")

        rng = check_random_state(self.seed)
        pair_op = _pair_difference_operator(self._sample_pairs(n, rng), n)
        target = np.linalg.norm(pair_op @ X[:, keep], axis=1)

        K = self.n_prototypes
        anchors = rng.choice(n, size=K, replace=n < K)
        V0 = X[anchors] + 0.01 * rng.standard_normal((K, m))
        alpha0 = np.ones(m)
        if self.protected_columns is not None:
            # Bias the search away from protected columns from the start.
            alpha0[np.asarray(self.protected_columns, dtype=int)] = 0.1
        theta0 = np.concatenate([V0.ravel(), alpha0])

        bounds = [(None, None)] * (K * m) + [(0.0, None)] * m
        result = scipy.optimize.minimize(
            self._loss_grad,
            theta0,
            args=(X, pair_op, target),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": self.max_iter},
        )

        V, alpha = self._unpack(result.x, m)
        self.prototypes_ = V
        self.feature_weights_ = alpha
        self.loss_ = float(result.fun)
        self.n_iter_ = int(result.nit)
        self.n_features_in_ = m
        return self

    def transform(self, X) -> np.ndarray:
        """Map individuals to their fair reconstructions ``x̃``, shape (n, m)."""
        check_is_fitted(self, "prototypes_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_in_:
            raise ValidationError(
                f"X has {X.shape[1]} features; fitted with {self.n_features_in_}"
            )
        U, _ = soft_assignments(X, self.prototypes_, self.feature_weights_)
        return U @ self.prototypes_
