"""Preconditioner calibration: coupling-matrix estimation from burn-in samples,
diagonal shift selection, and condition-number-driven factorization.  A
preconditioner stores each matrix once, as its diagonal where it is one; the
W = 0 one is built in closed form.  Both fits solve with numpy.linalg."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, RankDeficiencyError
from .targets import TargetModel

# Relative eigenvalue floor below which the Gram matrix of state moves is
# treated as singular.
RANK_TOL = 1e-10
# Default condition number of W + lam I below which the factor is Cholesky.
COND_THRESHOLD = 100.0


def _compact(matrix: np.ndarray) -> np.ndarray:
    """The diagonal of ``matrix`` if every off-diagonal entry is +0.0 (all bits
    zero), else ``matrix`` itself; a 1-d input is a diagonal already."""
    diag = np.diag(matrix).copy() if matrix.ndim == 2 else matrix
    nonzero_bits = lambda a: np.count_nonzero(a.view(np.uint64))
    return diag if nonzero_bits(matrix) == nonzero_bits(diag) else matrix


class Preconditioner:
    """Symmetric coupling matrix W, diagonal shift lam (D = lam I), and a
    factor L with W + lam I = L L^T, plus the log-determinant; W + lam I and
    the inverse transpose of L are derived here.  ``W`` and ``L`` are given
    ``(d, d)`` or as ``(d,)`` diagonals.  W, W + lam I, L and L^{-1} are each
    stored once, as a diagonal where :func:`_compact` finds one, else dense;
    the ``(d, d)`` attributes of a stored diagonal are built on access.
    """

    def __init__(self, W, lam: float, L, factorization_kind: str, logdet: float = 0.0):
        w, ell = np.asarray(W, dtype=float), np.asarray(L, dtype=float)
        shifted = w + lam if w.ndim == 1 else w + lam * np.eye(w.shape[0])
        # a diagonal L is positive, and 1 / l has the bits of LAPACK's inverse, +0.0 off it
        l_inv = 1.0 / ell if ell.ndim == 1 else np.linalg.inv(ell.T).T
        self.lam, self.factorization_kind, self.logdet = lam, factorization_kind, logdet
        self._factors = {k: _compact(m) for k, m in (("W", w), ("W_shifted", shifted), ("L", ell), ("L_inv", l_inv))}

    def _dense(self, name: str) -> np.ndarray:
        factor = self._factors[name]
        return np.diag(factor) if factor.ndim == 1 else factor

    W = property(lambda self: self._dense("W"))
    W_shifted = property(lambda self: self._dense("W_shifted"))
    L = property(lambda self: self._dense("L"))
    L_inv_T = property(lambda self: self._dense("L_inv").T)

    @property
    def dim(self) -> int:
        return self._factors["W"].shape[0]

    def times(self, x, name: str) -> np.ndarray:
        """``x @ M`` for M named ``"W"``, ``"W_shifted"``, ``"L"`` or ``"L_inv"`` (``L_inv_T.T``);
        a stored diagonal multiplies elementwise to the same values."""
        factor = self._factors[name]
        return x * factor if factor.ndim == 1 else x @ factor

    def to_dict(self) -> dict:
        """The record, W and L each as stored: a diagonal as its d entries, a dense matrix as rows."""
        return {
            "W": self._factors["W"].tolist(),
            "lambda": self.lam,
            "L": self._factors["L"].tolist(),
            "kind": self.factorization_kind,
            "logdet": self.logdet,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Preconditioner":
        return cls(
            W=np.asarray(payload["W"], dtype=float),
            lam=float(payload["lambda"]),
            L=np.asarray(payload["L"], dtype=float),
            factorization_kind=payload["kind"],
            logdet=float(payload.get("logdet", 0.0)),
        )


@dataclass
class CalibrationSample:
    """Burn-in trajectory: states s_1..s_{T+1} with matching gradients and
    energies.  Consecutive duplicates are allowed (rejected moves) but the
    distinct difference vectors must span the space for calibration."""

    states: np.ndarray
    grads: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.grads = np.asarray(self.grads, dtype=float)
        self.energies = np.asarray(self.energies, dtype=float)
        n = self.states.shape[0]
        if n < 2:
            raise ValueError("calibration needs at least two states")
        if self.grads.shape != self.states.shape:
            raise ValueError("grads must match states in shape")
        if self.energies.shape != (n,):
            raise ValueError("energies must match states in length")

    @classmethod
    def from_states(cls, target: TargetModel, states) -> "CalibrationSample":
        states = np.asarray(states, dtype=float)
        return cls(states, target.grad_batch(states), target.f_batch(states))

    def differences(self):
        """State and gradient one-step differences with zero moves dropped."""
        ds = np.diff(self.states, axis=0)
        df = np.diff(self.grads, axis=0)
        keep = np.any(ds != 0.0, axis=1)
        return ds[keep], df[keep], keep


def calibrate_w_gradient_diff(sample: CalibrationSample) -> np.ndarray:
    """Estimate W by matching gradient differences to W times state moves.

    Solves the symmetric-constrained least-squares stationarity equation
    G W + W G = C, G = Ds^T Ds and C = Ds^T Df + Df^T Ds, in the eigenbasis
    G = U diag(g) U^T: W = U [(U^T C U)_ij / (g_i + g_j)] U^T, the
    Bartels-Stewart solution for a symmetric G, whose Schur form is diagonal.
    """
    ds, df, _ = sample.differences()
    d = ds.shape[1]
    if ds.shape[0] < d:
        raise RankDeficiencyError(
            f"only {ds.shape[0]} distinct moves for dimension {d}; sample more burn-in"
        )
    gram = ds.T @ ds
    eigvals, basis = np.linalg.eigh(gram)
    if eigvals[0] <= RANK_TOL * eigvals[-1]:
        raise RankDeficiencyError(
            "state moves do not span the space (Gram matrix numerically singular)"
        )
    rotated = basis.T @ (ds.T @ df + df.T @ ds) @ basis
    w = basis @ (rotated / (eigvals[:, None] + eigvals[None, :])) @ basis.T
    return 0.5 * (w + w.T)


def calibrate_w_energy_diff(sample: CalibrationSample) -> np.ndarray:
    """Estimate W by least squares on second-order energy-difference residuals.

    Each move contributes a_t = f(s_{t+1}) - f(s_t) - grad f(s_t)^T (s_{t+1}-s_t)
    regressed on the half-vectorized outer product of the move, solved by SVD
    least squares that cuts singular values below eps times the largest.
    """
    ds, _, keep = sample.differences()
    d = ds.shape[1]
    rows, cols = np.triu_indices(d)
    n_par = rows.size
    if ds.shape[0] < n_par:
        raise RankDeficiencyError(
            f"{ds.shape[0]} distinct moves cannot identify {n_par} matrix entries"
        )
    grads = sample.grads[:-1][keep]
    e = sample.energies
    a = (e[1:] - e[:-1])[keep] - (grads * ds).sum(axis=1)
    design = ds[:, rows] * ds[:, cols]
    design[:, rows == cols] *= 0.5
    solution, _, rank, _ = np.linalg.lstsq(design, a, rcond=np.finfo(float).eps)
    if rank < n_par:
        raise RankDeficiencyError(
            f"design matrix rank {rank} < {n_par}; moves do not identify W"
        )
    w = np.zeros((d, d))
    w[rows, cols] = solution
    w[cols, rows] = solution
    return w


def lambda_shift(w: np.ndarray, delta: float) -> float:
    """Diagonal shift making W + lam I positive definite with floor delta.

    lam = delta - min(0, lambda_min(W)), so the smallest eigenvalue of the
    shifted matrix equals delta when W has a nonpositive eigenvalue and
    lambda_min(W) + delta otherwise.
    """
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    w = np.asarray(w, dtype=float)
    lam_min = float(np.linalg.eigvalsh(w)[0])
    return delta - min(0.0, lam_min)


def factorize(w: np.ndarray, lam: float, cond_threshold: float = COND_THRESHOLD) -> Preconditioner:
    """Factor W + lam I = L L^T, choosing the factor by condition number.

    Below ``cond_threshold`` L is the lower-triangular Cholesky factor;
    otherwise L = U Lambda^{1/2} from the eigendecomposition (eigenvalues
    sorted descending for reproducibility).
    """
    w = np.asarray(w, dtype=float)
    d = w.shape[0]
    shifted = w + lam * np.eye(d)
    eigvals = np.linalg.eigvalsh(shifted)
    if eigvals[0] <= 0:
        raise CalibrationError(
            f"W + lambda I is not positive definite (min eigenvalue {eigvals[0]:.3e})"
        )
    cond = eigvals[-1] / eigvals[0]
    if cond < cond_threshold:
        try:
            ell = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError as exc:
            raise CalibrationError(f"Cholesky factorization failed: {exc}") from exc
        kind = "cholesky"
    else:
        vals, vecs = np.linalg.eigh(shifted)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        ell = vecs * np.sqrt(vals)[None, :]
        kind = "eigen"
    return Preconditioner(W=w, lam=float(lam), L=ell, factorization_kind=kind, logdet=float(np.log(eigvals).sum()))


def first_order_preconditioner(dim: int, delta: float, cond_threshold: float = COND_THRESHOLD) -> Preconditioner:
    """The W = 0 specialization: lam = delta and L = sqrt(delta) I, as diagonals
    with the bits of ``factorize(np.zeros((dim, dim)), delta)``.  At a
    ``cond_threshold`` of 1 or below (an anti-diagonal eigen factor) and for a
    delta that ``lambda_shift`` rejects, that factorization runs instead."""
    if not (cond_threshold > 1.0 and 0.0 < delta < np.inf):
        w = np.zeros((dim, dim))
        return factorize(w, lambda_shift(w, delta), cond_threshold)
    lam = np.full(dim, float(delta))
    return Preconditioner(np.zeros(dim), float(delta), np.sqrt(lam), "cholesky", float(np.log(lam).sum()))


def exact_quadratic_preconditioner(
    target: TargetModel, delta: float, cond_threshold: float = COND_THRESHOLD
) -> Preconditioner:
    """Use the target's true quadratic coefficient matrix as W."""
    if target.W_true is None:
        raise CalibrationError("target has no exact quadratic coefficient matrix")
    return factorize(target.W_true, lambda_shift(target.W_true, delta), cond_threshold)


def scaling_check(target: TargetModel, c: float, sample: CalibrationSample, method: str = "gradient_diff"):
    """Calibrate on the sample and on its rescaled copy (states times c).

    Under y = c s the energies are unchanged and gradients scale by 1/c; the
    returned pair (W_s, W_y) satisfies W_y = W_s / c^2 up to solver noise.
    """
    del target  # states/grads/energies already carry everything needed
    if c == 0:
        raise ValueError("scale factor must be nonzero")
    if method == "gradient_diff":
        calibrate = calibrate_w_gradient_diff
    elif method == "energy_diff":
        calibrate = calibrate_w_energy_diff
    else:
        raise ValueError(f"unknown calibration method {method!r}")
    w_s = calibrate(sample)
    scaled = CalibrationSample(
        states=c * sample.states,
        grads=sample.grads / c,
        energies=sample.energies,
    )
    w_y = calibrate(scaled)
    return w_s, w_y
