"""SPD matrices maintained under rank-one updates.

Every covariance matrix in the simulator (per-agent and per-server) is a
ridge-regularized sum of feature outer products with cached inverse and
log-determinant. ``PsdMatrix`` is the dense reference, O(d^2) per update,
put in an agent or server only on purpose, to compare against.
``DiagonalPsdMatrix`` is what every agent and server builds: every instance
has one-hot features, so each update is some e_j and the matrix stays
ridge * I plus a diagonal of visit counts, at O(1) per update.
The run loop adds e_j by its index, ``add_bases(cells)`` with each j the
cell index of mdp.LinearMdp.cell, so no d-vector is built or searched for its
1, and a batch of updates pays one Python call.
On a diagonal matrix every off-diagonal product of the dense path is an
exact zero, so repeating its arithmetic entry by entry, Cholesky refresh
every REFRESH_PERIOD updates included, gives the same bits: a run's
trajectory does not depend on the class it uses.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Union

import numpy as np

# Full refactorization cadence: the Sherman-Morrison / logdet recurrences
# drift at roughly machine-eps per update, so a periodic Cholesky rebuild
# keeps the cached quantities within ~1e-12 of exact over long runs.
REFRESH_PERIOD = 512

# Slack on the feature-norm bound ||v|| <= 1: a unit feature vector computed
# in floating point (normalized, or a convex mix of unit rows) can overshoot 1
# by a few ulps, which must not be mistaken for an out-of-model feature.
FEATURE_NORM_SLACK = 1e-9

# Instances are dense; dimensions beyond this are almost certainly a
# misconfigured one-hot embedding.
MAX_DIM = 4096

# Relative error allowed in a cached inverse entry just after an update. The
# first update of a fresh matrix is the worst: with q = 1/ridge it computes
# q - q*q/(1+q), a value near 1/(1 + ridge) left by cancelling two values near
# q, so it carries a few ulps of q, about 2**-52 / ridge relative. A later
# visit to the cell, with q = inv_jj <= 1 by then, scales that error by
# 1/(1 + q) < 1 and loses at most one bit to cancellation itself. 1e-5 keeps
# a bonus beta * sqrt(inv_jj) within 5e-6 of itself, and admits ridges ten
# decades below the customary 1.
INV_REL_TOL = 1e-5

# Smallest power of ten whose first update meets INV_REL_TOL: scanned, the
# worst relative error is 9.5e-7 for ridge in [1e-10, 1e-9] and 1.5e-5 in
# [1e-11, 1e-10]. Lower still, the update loses the inverse outright: it is
# 0.0 at ridge 1e-16, a zero bonus at every visited cell until the refresh.
MIN_RIDGE = 1e-10


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
        self.dim, self.ridge = _checked_shape(dim, ridge)
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
        v = _dim_vector(v, self.dim, "vector")
        sq_norm = float(v @ v)
        if not sq_norm <= (1.0 + FEATURE_NORM_SLACK) ** 2:
            raise ValueError(f"feature norm {math.sqrt(sq_norm):.6g} exceeds 1")
        u = self.inv @ v
        q = float(v @ u)
        self.mat += np.outer(v, v)
        self.inv -= np.outer(u, u) / (1.0 + q)
        self.logdet += math.log1p(q)
        self.updates_since_refresh += 1
        if self.updates_since_refresh >= REFRESH_PERIOD:
            self.refresh()

    def add_basis(self, j: int) -> None:
        """Add e_j e_j^T in place: rank_one_update of the j-th basis vector."""
        _check_basis_index(j, self.dim)
        e_j = np.zeros(self.dim)
        e_j[j] = 1.0
        self.rank_one_update(e_j)

    def add_bases(self, cells: Iterable[int]) -> None:
        """add_basis(j) for each j of cells, in order."""
        for j in cells:
            self.add_basis(j)

    def refresh(self) -> None:
        """Recompute inverse and logdet from scratch via Cholesky: mat = L L^T,
        so with R = L^-1, inv = R^T R and logdet = 2 sum log diag L."""
        low = np.linalg.cholesky(self.mat)
        r = np.linalg.inv(low)
        inv = r.T @ r
        self.inv = 0.5 * (inv + inv.T)
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
        self.updates_since_refresh = 0

    def quad_form(self, v: np.ndarray) -> float:
        """v^T inv v using the cached inverse (no solve per call)."""
        v = np.asarray(v, dtype=np.float64)
        return max(0.0, float(v @ self.inv @ v))

    def quad_form_many(self, vs: np.ndarray) -> np.ndarray:
        """Row-wise v^T inv v for an (n, d) stack of vectors.

        One matrix product and a row sum, so the O(n d^2) work runs in BLAS.
        A row e_j gives inv[j, j] plus exact zeros, whatever the summation
        order, which is why the agent reads ``inv_diag`` for one-hot features;
        on dense rows the result agrees with quad_form to rounding.
        """
        return np.maximum(((vs @ self.inv) * vs).sum(axis=1), 0.0)

    diag = property(lambda self: self.mat.diagonal())  # read-only view
    inv_diag = property(lambda self: self.inv.diagonal())  # read-only view

    def solve(self, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Solve mat x = b via the cached inverse plus one refinement step,
        into ``out`` if given; b must have shape (dim,)."""
        return self._solve_into(_dim_vector(b, self.dim, "right-hand side"), out)

    def _solve_into(self, b: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        """solve without its checks, for a float64 (dim,) b; the refit's entry."""
        x = np.matmul(self.inv, b, out=out)
        # One step of iterative refinement squares the inverse-drift error,
        # keeping the residual at machine precision between refreshes.
        x += self.inv @ (b - self.mat @ x)
        return x


def _checked_shape(dim: int, ridge: float) -> tuple[int, float]:
    """(dim, ridge) as int and float, or ValueError if either is out of range."""
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    if dim > MAX_DIM:
        raise ValueError(f"dim {dim} exceeds MAX_DIM={MAX_DIM}")
    if not ridge > 0.0:
        raise ValueError(f"ridge must be positive, got {ridge!r}")
    if not ridge >= MIN_RIDGE:
        raise ValueError(f"ridge {ridge!r} is below MIN_RIDGE={MIN_RIDGE:g}")
    return int(dim), float(ridge)


def _dim_vector(x: np.ndarray, dim: int, what: str) -> np.ndarray:
    """x as a float64 array, or ValueError naming ``what`` unless its shape is (dim,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,):
        raise ValueError(f"{what} shape {x.shape} != ({dim},)")
    return x


def _check_basis_index(j: int, dim: int) -> None:
    """Raise ValueError unless j is an integer in [0, dim): a negative index
    must not wrap around to another basis vector."""
    if not (isinstance(j, (int, np.integer)) and 0 <= j < dim):
        raise ValueError(f"basis index {j!r} outside [0, {dim})")


def _read_only_diag(values: np.ndarray) -> np.ndarray:
    out = np.diag(values)
    out.setflags(write=False)
    return out


class DiagonalPsdMatrix:
    """ridge * I plus a diagonal of counts, grown by standard basis vectors.

    Stores the diagonals of the matrix and of its inverse. For e_j it computes
    what PsdMatrix computes (q = inv[j]; diag[j] += 1; inv[j] -= q*q/(1+q);
    logdet += log1p(q)). Its refresh is the dense Cholesky refresh done
    elementwise: on a diagonal every off-diagonal term is an exact zero, so
    L = sqrt(diag), R = 1/L and R^T R = R*R term for term, which 1/diag and
    (1/L)/L are not, bit for bit. ``mat`` and ``inv`` are read-only dense
    copies.
    """

    __slots__ = ("dim", "ridge", "diag", "inv_diag", "logdet", "updates_since_refresh")

    def __init__(self, dim: int, ridge: float):
        self.dim, self.ridge = _checked_shape(dim, ridge)
        self.diag = np.full(self.dim, self.ridge)
        self.inv_diag = 1.0 / self.diag
        self.logdet = self.dim * math.log(self.ridge)
        self.updates_since_refresh = 0

    mat = property(lambda self: _read_only_diag(self.diag))
    inv = property(lambda self: _read_only_diag(self.inv_diag))

    def copy(self) -> "DiagonalPsdMatrix":
        """Deep copy preserving the refresh counter (bit-identical replay)."""
        out = object.__new__(DiagonalPsdMatrix)
        out.dim = self.dim
        out.ridge = self.ridge
        out.diag = self.diag.copy()
        out.inv_diag = self.inv_diag.copy()
        out.logdet = self.logdet
        out.updates_since_refresh = self.updates_since_refresh
        return out

    def rank_one_update(self, v: np.ndarray) -> None:
        """Add e_j e_j^T in place; v must be a standard basis vector."""
        v = _dim_vector(v, self.dim, "vector")
        nonzero = v.nonzero()[0].tolist()
        if len(nonzero) != 1 or v.item(nonzero[0]) != 1.0:
            norm = float(np.linalg.norm(v))
            if not norm <= 1.0 + FEATURE_NORM_SLACK:
                raise ValueError(f"feature norm {norm:.6g} exceeds 1")
            raise ValueError("a diagonal covariance takes only standard basis vectors")
        self.add_basis(nonzero[0])

    def add_basis(self, j: int) -> None:
        """Add e_j e_j^T in place, in O(1)."""
        self.add_bases((j,))

    def add_bases(self, cells: Iterable[int]) -> None:
        """Add e_j e_j^T for each j of cells, in order, in O(1) each; the run
        loop's update. The result, bits and refresh cadence included, is that
        of adding the cells one call at a time; only the per-call costs are
        paid once. A bad j raises before it is used, with the cells before it
        applied."""
        dim, diag, inv = self.dim, self.diag, self.inv_diag
        logdet, n = self.logdet, self.updates_since_refresh
        try:
            for j in cells:
                if type(j) is not int or not 0 <= j < dim:
                    _check_basis_index(j, dim)  # numpy integers pass; the rest raise
                q = inv.item(j)
                # The sum on a Python float: the bits of diag[j] += 1.0, without
                # a numpy scalar per update.
                diag[j] = diag.item(j) + 1.0
                inv[j] = q - q * q / (1.0 + q)
                logdet += math.log1p(q)
                n += 1
                if n >= REFRESH_PERIOD:
                    self.refresh()
                    inv, logdet, n = self.inv_diag, self.logdet, 0
        finally:
            self.logdet, self.updates_since_refresh = logdet, n

    def refresh(self) -> None:
        """Recompute inverse and logdet from the diagonal's Cholesky factor."""
        c = np.sqrt(self.diag)
        r = 1.0 / c
        self.inv_diag = r * r
        self.logdet = 2.0 * float(np.sum(np.log(c)))
        self.updates_since_refresh = 0

    def solve(self, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Solve mat x = b with PsdMatrix.solve's refinement, elementwise,
        into ``out`` if given."""
        return self._solve_into(_dim_vector(b, self.dim, "right-hand side"), out)

    def _solve_into(self, b: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        """solve without its checks, for a float64 (dim,) b; the refit's entry."""
        x = np.multiply(self.inv_diag, b, out=out)
        x += self.inv_diag * (b - self.diag * x)
        return x


# Either class serves wherever the agent, server and trigger read a covariance.
Covariance = Union[PsdMatrix, DiagonalPsdMatrix]


def det_ratio(base: Covariance, delta: Iterable[np.ndarray]) -> float:
    """det(base + sum vv^T) / det(base), computed entirely in log space.

    A scratch copy of ``base`` receives the delta vectors as rank-one
    updates; the ratio is exp of the logdet difference, so no raw
    determinant is ever materialized.
    """
    return math.exp(log_det_ratio(base, delta))


def log_det_ratio(base: Covariance, delta: Iterable[np.ndarray]) -> float:
    """log of det_ratio (the trigger sums it from visit counts instead)."""
    scratch = base.copy()
    for v in delta:
        scratch.rank_one_update(v)
    return scratch.logdet - base.logdet
