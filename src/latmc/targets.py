"""Benchmark target distributions on finite product lattices.

A target couples a lattice support with a negative potential ``f`` (so that
pi(s) is proportional to exp(f(s))) and the gradient of ``f`` taken through
its natural continuous extension.  Evaluators are pure: repeated calls at the
same point return bit-identical values, and cached matrices are built once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EnumerationBudgetError

# Full-lattice enumeration cap (number of joint states).
ENUMERATION_BUDGET = 10**7
# Row cap of one enumeration block (which holds every value of the last
# coordinate at least): clock desk blocks then take 0.4 MB beside a 2 MB table.
ENUMERATION_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class LatticeSpec:
    """Product support ``{a_1 < ... < a_K}^dim`` with one shared value set."""

    dim: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if self.dim < 1:
            raise ValueError("lattice dimension must be a positive integer")
        if values.ndim != 1 or values.size < 2:
            raise ValueError("lattice needs an ordered set of at least two values")
        if not np.all(np.diff(values) > 0):
            raise ValueError("lattice values must be strictly ascending")
        object.__setattr__(self, "values", values)

    @property
    def n_values(self) -> int:
        return int(self.values.size)

    @property
    def index_dtype(self) -> np.dtype:
        """The smallest unsigned type holding every index, in which runs store their chains."""
        return np.min_scalar_type(self.n_values - 1)

    def index_of(self, s) -> np.ndarray:
        """Map a lattice point (values) to per-coordinate indices."""
        s = np.asarray(s, dtype=float)
        idx = np.clip(np.searchsorted(self.values, s), 0, self.n_values - 1)
        if not np.array_equal(self.values[idx], s):
            raise ValueError("point is not on the lattice")
        return idx

    def random_indices(self, rngs) -> np.ndarray:
        """The first draw of every chain: one uniform start per generator, ``(len(rngs), dim)``."""
        return np.stack([g.integers(0, self.n_values, size=self.dim) for g in rngs])

    def random_point(self, rng) -> np.ndarray:
        return self.values[self.random_indices([rng])[0]]


class TargetModel:
    """Evaluator contract shared by all targets.

    Subclasses implement ``f_batch`` and ``grad_batch`` over points ``(n, d)``,
    returning ``(n,)`` energies and ``(n, d)`` gradients; ``f`` and ``grad_f``
    are one-row calls of them.  These four serve any point, on the lattice or
    off it.  Samplers evaluate lattice points through ``evaluate_indices``,
    which a target may override with a faster evaluation that returns the same
    bits.  A row's result must not depend on the other rows of its batch:
    ``enumerate_joint`` and the samplers batch rows differently.
    ``W_true`` is W whenever f(s) = 1/2 s^T W s + b^T s holds exactly for
    some b, else ``None``.
    """

    W_true = None

    def __init__(self, lattice: LatticeSpec):
        self.lattice = lattice

    def f(self, s) -> float:
        return float(self.f_batch(np.asarray(s, dtype=float)[None])[0])

    def grad_f(self, s) -> np.ndarray:
        return self.grad_batch(np.asarray(s, dtype=float)[None])[0]

    def f_batch(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_batch(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate_indices(self, idx, grad: bool = True):
        """Points ``S``, energies ``F`` and gradients ``G`` at lattice indices
        ``idx`` ``(n, d)``; ``G`` is ``None`` unless ``grad``."""
        S = self.lattice.values[idx]
        return S, self.f_batch(S), self.grad_batch(S) if grad else None


class QuadraticTarget(TargetModel):
    """Exactly-quadratic negative potential f(s) = 1/2 s^T W_true s + b^T s."""

    def __init__(self, lattice: LatticeSpec, w_true, b):
        super().__init__(lattice)
        w_true = np.asarray(w_true, dtype=float)
        b = np.asarray(b, dtype=float)
        d = lattice.dim
        if w_true.shape != (d, d):
            raise ValueError("W_true must be dim x dim")
        if b.shape != (d,):
            raise ValueError("b must have length dim")
        if not np.allclose(w_true, w_true.T, atol=1e-12):
            raise ValueError("W_true must be symmetric")
        self.W_true = w_true
        self.b = b

    def f_batch(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return 0.5 * ((points @ self.W_true) * points).sum(axis=1) + points @ self.b

    def grad_batch(self, points) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.W_true + self.b


def integer_lattice(dim: int, k: int) -> LatticeSpec:
    """The symmetric integer lattice {-k, ..., k}^dim."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return LatticeSpec(dim, np.arange(-k, k + 1, dtype=float))


def discrete_gaussian(d: int, k: int, sigma: float, rho: float) -> QuadraticTarget:
    """Equi-correlated Gaussian potential restricted to {-k..k}^d.

    f(s) = -1/2 s^T Sigma^{-1} s with Sigma = sigma^2 [rho 11^T + (1-rho) I].
    The inverse is formed once through the rank-one update formula and cached
    inside the returned quadratic target (W_true = -Sigma^{-1}, b = 0).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    low = -1.0 / (d - 1) if d > 1 else -np.inf
    if not (low < rho < 1.0):
        raise ValueError(
            f"rho={rho} leaves the covariance indefinite; need {low} < rho < 1"
        )
    lattice = integer_lattice(d, k)
    # (c I + g 11^T)^-1 = (1/c)(I - g/(c + d g) 11^T), c = sigma^2 (1-rho)
    c = sigma**2 * (1.0 - rho)
    shrink = rho / (1.0 - rho + d * rho)
    sigma_inv = (np.eye(d) - shrink * np.ones((d, d))) / c
    sigma_inv = 0.5 * (sigma_inv + sigma_inv.T)
    return QuadraticTarget(lattice, -sigma_inv, np.zeros(d))


class MixtureTarget(TargetModel):
    """Log-sum of isotropic Gaussian kernels, evaluated with log-sum-exp."""

    def __init__(self, lattice: LatticeSpec, means, variances):
        super().__init__(lattice)
        means = np.asarray(means, dtype=float)
        variances = np.asarray(variances, dtype=float)
        if means.ndim != 2 or means.shape[1] != lattice.dim:
            raise ValueError("means must be (n_components, dim)")
        if variances.shape != (means.shape[0],):
            raise ValueError("variances must have one entry per component")
        if np.any(variances <= 0):
            raise ValueError("component variances must be positive")
        self.means = means
        self.variances = variances

    def _log_kernels(self, points):
        """Log-kernels ``(n, M)`` of the points ``(n, d)`` and ``means - points``."""
        diff = self.means - points[:, None, :]
        return -0.5 * (diff * diff).sum(axis=2) / self.variances, diff

    @staticmethod
    def _log_sum_exp(lk):
        """Max-shifted log-sum-exp of each row of log-kernels."""
        peak = lk.max(axis=1)
        return peak + np.log(np.exp(lk - peak[:, None]).sum(axis=1))

    def f_batch(self, points) -> np.ndarray:
        lk, _ = self._log_kernels(np.asarray(points, dtype=float))
        return self._log_sum_exp(lk)

    def grad_batch(self, points) -> np.ndarray:
        lk, diff = self._log_kernels(np.asarray(points, dtype=float))
        w = np.exp(lk - self._log_sum_exp(lk)[:, None])
        return (diff / self.variances[:, None] * w[:, :, None]).sum(axis=1)


def quadratic_mixture(
    d: int = 10,
    k: int = 10,
    M: int = 9,
    means=None,
    variances=None,
) -> MixtureTarget:
    """Mixture-of-quadratics benchmark on {-k..k}^d.

    With the default arguments the component means are equally spaced along
    the diagonal, mu_m = (-5.625 + 1.125 m) * 1 for m = 1..M, and outer
    components get larger variances, sigma_m^2 = 2.10 + 0.15 |m - 5|.
    """
    if M < 1:
        raise ValueError("need at least one mixture component")
    if means is None:
        means = np.stack(
            [(-5.625 + 1.125 * m) * np.ones(d) for m in range(1, M + 1)]
        )
    if variances is None:
        variances = np.array([2.10 + 0.15 * abs(m - 5) for m in range(1, M + 1)])
    return MixtureTarget(integer_lattice(d, k), means, variances)


class ClockPottsTarget(TargetModel):
    """Planar-rotor spins on a periodic square lattice.

    Spins live on an LxL torus and take values {0..q-1}, mapped to angles
    theta_i = 2 pi s_i / q.  The energy sums cos(theta_i - theta_j) over the
    right and down neighbor of every site (2 L^2 edge terms; on the 2x2
    torus each physical pair therefore appears twice).

    Spins take only q values, so ``evaluate_indices`` gathers every
    cos(theta_a - theta_b) and sin(theta_a - theta_b) from q x q tables built
    with the float operations of ``f_batch``/``grad_batch``, and returns
    their bits without a per-point trig call.  Above ``TABLE_MAX_Q`` values
    the tables would not be small, and the base evaluation runs instead.
    """

    TABLE_MAX_Q = 1024

    def __init__(self, side: int, q: int, coupling: float):
        if side < 2:
            raise ValueError("side must be >= 2")
        if q < 2:
            raise ValueError("q must be >= 2")
        d = side * side
        super().__init__(LatticeSpec(d, np.arange(q, dtype=float)))
        self.side = side
        self.q = q
        self.coupling = float(coupling)
        self.angle_scale = 2.0 * np.pi / q
        sites = np.arange(d).reshape(side, side)
        right = np.roll(sites, -1, axis=1).reshape(-1)
        down = np.roll(sites, -1, axis=0).reshape(-1)
        left = np.roll(sites, 1, axis=1).reshape(-1)
        up = np.roll(sites, 1, axis=0).reshape(-1)
        self._neighbors = {"right": right, "left": left, "down": down, "up": up}
        self._cos_table = self._sin_table = None
        if q <= self.TABLE_MAX_Q:
            theta = self.lattice.values * self.angle_scale
            diff = (theta[:, None] - theta[None, :]).reshape(-1)
            self._cos_table, self._sin_table = np.cos(diff), np.sin(diff)

    def f_batch(self, points) -> np.ndarray:
        theta = np.asarray(points, dtype=float) * self.angle_scale
        return self._energy(lambda nb: np.cos(theta - theta[:, self._neighbors[nb]]))

    def grad_batch(self, points) -> np.ndarray:
        theta = np.asarray(points, dtype=float) * self.angle_scale
        return self._gradient(lambda nb: np.sin(theta - theta[:, self._neighbors[nb]]))

    def evaluate_indices(self, idx, grad: bool = True):
        if self._cos_table is None:
            return super().evaluate_indices(idx, grad)
        # stored chain indices are compact (uint8 up to 256 values) and would wrap in idx * q
        idx = np.asarray(idx, dtype=np.intp)
        row = idx * self.q
        # the right and down table positions serve cos and sin alike: built once
        shared = {nb: row + idx[:, self._neighbors[nb]] for nb in ("right", "down")} if grad else {}
        at = lambda nb: shared[nb] if nb in shared else row + idx[:, self._neighbors[nb]]
        F = self._energy(lambda nb: self._cos_table[at(nb)])
        G = self._gradient(lambda nb: self._sin_table[at(nb)]) if grad else None
        return self.lattice.values[idx], F, G

    def _energy(self, cos_to):
        """Energies from ``cos_to(nb)``, the ``(n, d)`` plane of
        cos(theta_i - theta_nb(i)) over the edges to the right and down
        neighbors; one reduction for both evaluators."""
        return self.coupling * (cos_to("right").sum(axis=1) + cos_to("down").sum(axis=1))

    def _gradient(self, sin_to):
        """Gradients from ``sin_to(nb)``, the four neighbor planes added plane
        by plane in neighbor order (right, left, down, up)."""
        total = sin_to("right")
        for nb in ("left", "down", "up"):
            total += sin_to(nb)
        return -self.coupling * self.angle_scale * total


def clock_potts(side: int, q: int, coupling: float = 1.0) -> ClockPottsTarget:
    """Periodic clock-spin benchmark; ``coupling`` +1 ferro, -1 antiferro."""
    return ClockPottsTarget(side, q, coupling)


def enumerate_joint(target: TargetModel):
    """Exact pmf table of the whole lattice, one axis per coordinate.

    Normalizes exp(f(s) - max f) over every lattice state (:func:`marginal`
    sums it onto a coordinate tuple).  Raises :class:`EnumerationBudgetError`
    when K^d exceeds ``ENUMERATION_BUDGET``.  Energies are evaluated in index
    order, in blocks that differ in their leading columns only (every value of
    the most trailing coordinates that fit ``ENUMERATION_BLOCK_ROWS``, one at
    least), and normalized in place: memory is one table plus one block.
    """
    lattice = target.lattice
    K, d = lattice.n_values, lattice.dim
    total = K**d
    if total > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"enumeration of {K}^{d} = {total} states exceeds budget {ENUMERATION_BUDGET}"
        )
    tail = next(t for t in range(d, 0, -1) if t == 1 or K**t <= ENUMERATION_BLOCK_ROWS)
    lead = d - tail
    block = np.empty((K**tail, d), dtype=np.intp)
    block[:, lead:] = np.indices((K,) * tail).reshape(tail, -1).T
    table = np.empty(total)
    for n, start in enumerate(range(0, total, len(block))):
        block[:, :lead] = np.unravel_index(n, (K,) * lead)
        table[start : start + len(block)] = target.evaluate_indices(block, grad=False)[1]
    table = table.reshape((K,) * d)
    table -= table.max()
    np.exp(table, out=table)
    table /= table.sum()
    return table


def marginal(table: np.ndarray, coords) -> np.ndarray:
    """Sum a joint table onto the axes ``coords``, kept in the given order."""
    other = tuple(ax for ax in range(table.ndim) if ax not in coords)
    out = table.sum(axis=other) if other else table
    # remaining axes are sorted(coords); permute into the requested order
    return np.transpose(out, [sorted(coords).index(c) for c in coords])
