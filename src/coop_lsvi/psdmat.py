"""Dense SPD matrices maintained under rank-one updates.

Every covariance matrix in the simulator (per-agent, per-server, and the
universal diagnostic matrix) is one of these: a ridge-regularized sum of
feature outer products, with the inverse and log-determinant cached so a
single update costs O(d^2) instead of O(d^3).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# Full refactorization cadence: the Sherman-Morrison / logdet recurrences
# drift at roughly machine-eps per update, so a periodic Cholesky rebuild
# keeps the cached quantities within ~1e-12 of exact over long runs.
REFRESH_PERIOD = 512

# Instances are dense; dimensions beyond this are almost certainly a
# misconfigured one-hot embedding.
MAX_DIM = 4096


class PsdMatrix:
    """A d x d symmetric positive-definite matrix with cached inverse/logdet.

    Starts at ridge * I and grows by rank-one outer products vv^T of vectors
    with norm at most 1. The cached inverse is maintained with the rank-one
    inverse identity, the log-determinant with the matching recurrence
    logdet += log(1 + v^T inv v), and both are recomputed from a Cholesky
    factorization every REFRESH_PERIOD updates.
    """

    __slots__ = ("dim", "ridge", "mat", "inv", "logdet", "updates_since_refresh")

    def __init__(self, dim: int, ridge: float):
        if not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        if dim > MAX_DIM:
            raise ValueError(f"dim {dim} exceeds MAX_DIM={MAX_DIM}")
        if not ridge > 0.0:
            raise ValueError(f"ridge must be positive, got {ridge!r}")
        self.dim = int(dim)
        self.ridge = float(ridge)
        self.mat = np.eye(self.dim) * self.ridge
        self.inv = np.eye(self.dim) / self.ridge
        self.logdet = self.dim * math.log(self.ridge)
        self.updates_since_refresh = 0

    def copy(self) -> "PsdMatrix":
        """Deep copy preserving the refresh counter (bit-identical replay)."""
        out = object.__new__(PsdMatrix)
        out.dim = self.dim
        out.ridge = self.ridge
        out.mat = self.mat.copy()
        out.inv = self.inv.copy()
        out.logdet = self.logdet
        out.updates_since_refresh = self.updates_since_refresh
        return out

    def rank_one_update(self, v: np.ndarray) -> None:
        """Add vv^T in place; requires ||v|| <= 1 (feature-norm bound)."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(f"vector shape {v.shape} != ({self.dim},)")
        sq_norm = float(v @ v)
        if not sq_norm <= (1.0 + 1e-9) ** 2:
            raise ValueError(f"feature norm {math.sqrt(sq_norm):.6g} exceeds 1")
        u = self.inv @ v
        q = float(v @ u)
        self.mat += np.outer(v, v)
        self.inv -= np.outer(u, u) / (1.0 + q)
        self.logdet += math.log1p(q)
        self.updates_since_refresh += 1
        if self.updates_since_refresh >= REFRESH_PERIOD:
            self.refresh()

    def refresh(self) -> None:
        """Recompute inverse and logdet from scratch via Cholesky."""
        c, low = cho_factor(self.mat, lower=True)
        inv = cho_solve((c, low), np.eye(self.dim))
        self.inv = 0.5 * (inv + inv.T)
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
        self.updates_since_refresh = 0

    def quad_form(self, v: np.ndarray) -> float:
        """v^T inv v using the cached inverse (no solve per call)."""
        v = np.asarray(v, dtype=np.float64)
        return max(0.0, float(v @ self.inv @ v))

    def quad_form_many(self, vs: np.ndarray) -> np.ndarray:
        """Row-wise v^T inv v for an (n, d) stack of vectors.

        One matrix product and a row sum, so the O(n d^2) work runs in BLAS.
        Every instance is one-hot (mdp._tabular_to_linear), so a row e_j gives
        inv[j, j] plus exact zeros, whatever the summation order; on dense
        rows the result agrees with quad_form to rounding.
        """
        return np.maximum(((vs @ self.inv) * vs).sum(axis=1), 0.0)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve mat x = b via the cached inverse plus one refinement step."""
        b = np.asarray(b, dtype=np.float64)
        x = self.inv @ b
        # One step of iterative refinement squares the inverse-drift error,
        # keeping the residual at machine precision between refreshes.
        x += self.inv @ (b - self.mat @ x)
        return x


def det_ratio(base: PsdMatrix, delta: Iterable[np.ndarray]) -> float:
    """det(base + sum vv^T) / det(base), computed entirely in log space.

    A scratch copy of ``base`` receives the delta vectors as rank-one
    updates; the ratio is exp of the logdet difference, so no raw
    determinant is ever materialized.
    """
    return math.exp(log_det_ratio(base, delta))


def log_det_ratio(base: PsdMatrix, delta: Iterable[np.ndarray]) -> float:
    """log of det_ratio; this is the form the communication trigger compares."""
    scratch = base.copy()
    for v in delta:
        scratch.rank_one_update(v)
    return scratch.logdet - base.logdet
