"""Shared prototype-softmax machinery for the LFR and iFair baselines.

Both baselines represent each individual as a soft assignment over ``K``
learned prototypes:

    d_nk = Σ_m α_m (x_nm - v_km)²          (α ≡ 1 for LFR)
    U_nk = exp(-d_nk) / Σ_j exp(-d_nj)

The forward pass never forms the ``(n, K, m)`` difference tensor. It
expands the square instead,

    d_nk = Σ_m α_m x_nm²  -  ( 2 Σ_m x_nm α_m v_km  -  Σ_m α_m v_km² )
         =     r_n        -                ℓ_nk

so the logits ``ℓ = 2·X(αV)ᵀ - (α·V²)1`` are one ``(n, m) × (m, K)``
matrix product plus a ``K``-vector. The row term ``r_n`` is the same for
every prototype of row ``n``; a softmax is invariant to adding a constant
to a row, so ``softmax(-D) = softmax(ℓ)`` and ``U`` is computed from ``ℓ``
alone.

The distances themselves are still returned as ``D = max(r - ℓ, 0)``. The
expanded form subtracts two numbers of size ``|x|² + |v|²`` to get one of
size ``|x - v|²``, so where a row sits on a prototype rounding can leave a
tiny negative value; the clamp keeps ``D ≥ 0``, as a squared distance must
be. The absolute error is of order ``ε·(|x|² + |v|²)``, negligible for
standardised features such as the experiment harness feeds the baselines.

This module implements the forward pass and the exact backward pass
(gradients w.r.t. prototypes ``V`` and feature weights ``α``) so both
estimators can run L-BFGS with analytic gradients instead of the original
authors' numerical differentiation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["soft_assignments", "assignment_backprop"]


def soft_assignments(X: np.ndarray, V: np.ndarray, alpha: np.ndarray | None = None):
    """Softmax-over-distance assignments.

    Parameters
    ----------
    X:
        Data, shape ``(n, m)``.
    V:
        Prototypes, shape ``(K, m)``.
    alpha:
        Optional non-negative per-feature distance weights, shape ``(m,)``.

    Returns
    -------
    U : ndarray of shape (n, K)
        Row-stochastic soft assignments.
    D : ndarray of shape (n, K)
        The weighted squared distances used to compute ``U``, clamped at 0.

    Both are transposed views of ``(K, n)`` arrays (Fortran order).
    """
    if alpha is None:
        weighted_V = V
        row_term = np.einsum("nm,nm->n", X, X)
    else:
        weighted_V = V * alpha
        row_term = (X * X) @ alpha
    # Work on (K, n) arrays: every per-row reduction of the softmax then
    # runs across contiguous memory instead of along rows of length K.
    logits = 2.0 * (weighted_V @ X.T)
    logits -= np.einsum("km,km->k", weighted_V, V)[:, None]
    D = row_term - logits
    np.maximum(D, 0.0, out=D)
    # Stable softmax over the logits (= over -D, see the module docstring).
    logits -= logits.max(axis=0)
    U = np.exp(logits, out=logits)
    U /= U.sum(axis=0)
    return U.T, D.T


def assignment_backprop(
    X: np.ndarray,
    V: np.ndarray,
    U: np.ndarray,
    G: np.ndarray,
    alpha: np.ndarray | None = None,
    *,
    want_alpha_grad: bool = False,
):
    """Backpropagate a loss gradient through the soft assignments.

    Given ``G = ∂L/∂U`` (same shape as ``U``, best in the same memory
    layout), returns the gradients with respect to the prototypes (and
    optionally the feature weights) via the softmax Jacobian:

        ∂L/∂d_nj = -U_nj (G_nj - Σ_k G_nk U_nk)
        ∂d_nj/∂v_jm = -2 α_m (x_nm - v_jm)
        ∂d_nj/∂α_m  = (x_nm - v_jm)²

    Returns
    -------
    grad_V : ndarray of shape (K, m)
    grad_alpha : ndarray of shape (m,) or None
        Only when ``want_alpha_grad`` is set.
    """
    # P = ∂L/∂D, shape (n, K).
    inner = np.einsum("nk,nk->n", G, U)[:, None]
    P = -U * (G - inner)

    # ∂L/∂V through the distances: -2 α_m [ (Pᵀ X)_jm - (Σ_n P_nj) v_jm ]
    col_sums = P.sum(axis=0)  # s_j
    PtX = P.T @ X  # (K, m)
    grad_V = -2.0 * (PtX - col_sums[:, None] * V)
    if alpha is not None:
        grad_V *= alpha

    if not want_alpha_grad:
        return grad_V, None

    # ∂L/∂α_m = Σ_nj P_nj (x_nm² - 2 x_nm v_jm + v_jm²). The x² part is
    # Σ_n x_nm² Σ_j P_nj, and every row of P sums to zero (the softmax
    # ignores the row term), so only the cross and prototype terms remain.
    term_cross = np.sum(PtX * V, axis=0)  # Σ_nj P_nj x_nm v_jm
    term_v = col_sums @ (V * V)  # Σ_nj P_nj v_jm²
    grad_alpha = term_v - 2.0 * term_cross
    return grad_V, grad_alpha
