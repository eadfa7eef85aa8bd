"""Transition kernels: auxiliary-variable Gibbs, preconditioned gradient
proposals with and without momentum, over-relaxed state updates, and a
random-walk Metropolis baseline.

Each kernel exists once, as a batched core over ``(m, d)`` arrays of m
independent chains: ``propose`` maps one step's variates to proposed lattice
indices, and ``log_ratio`` gives the acceptance log-ratio together with the
proposal and joint log-densities behind it.  Rows ``(m, d, K)`` are stored value-major
(:mod:`latmc.proposals`); diagonal preconditioner matrices multiply elementwise.
:func:`run_chains` loops the core over steps; :func:`step_kernel` and
:func:`transition_terms` are one-chain calls of the same core.  The
core evaluates the target once per point, at lattice indices, through
``TargetModel.evaluate_indices``; ``f``/``grad_f``/``*_batch`` serve
off-lattice points.

Randomness consumption is fixed so that shared-seed comparisons are well
defined.  Each chain draws from its own generator: its start (d indices from
``LatticeSpec.random_indices``), for momentum kernels the d doubles of the
initial momentum, then each step's ``n_normals + n_coord + 1`` uniform
doubles, in this order:

* ``git_gibbs`` / ``pavg``: d refresh normals, d coordinate uniforms
  (ascending), one acceptance uniform (drawn and ignored by ``git_gibbs``).
* ``vpdhams``: d refresh normals (momentum refresh), d coordinate uniforms,
  one acceptance uniform.
* ``opdhams``: d refresh normals, two uniforms per coordinate ascending
  (interval draw, reflection draw), one acceptance uniform.
* ``metropolis``: d coordinate uniforms, one acceptance uniform.

A refresh normal takes one double: :func:`standard_normals` maps
``u = k 2^-53`` to ``ndtri(u + 2^-54)``, Cephes' ``ndtri`` evaluated in
numpy, so latmc loads no scipy module.  At exactly ``epsilon = 1`` the
refresh is degenerate (the intermediate momentum equals the current
momentum) and the momentum kernels take no refresh doubles.  The initial
momentum takes its d doubles the same way, so after the start a chain's
stream is nothing but ``random()`` doubles.  Because a step's width is
fixed, :func:`run_chains` draws whole blocks of steps with one call per
chain; the block size bounds memory only and cannot change a trajectory.

:func:`step_kernel` takes an optional ``noise`` triple in place of the
generator draws: one step's ``(normals or None, coord, acc)`` for one chain,
as :func:`_draw_noise` yields them (normals None where it draws none).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, InvalidStateError, NumericGuardError
from .precondition import Preconditioner
from .proposals import (
    cdf_interval_rows,
    cdf_rows,
    over_relax_log_prob_rows,
    over_relax_rows_from_cdf,
    proposal_log_entries,
    proposal_log_rows,
    row_entries,
    sample_rows_inverse_cdf,
)
from .targets import TargetModel

# The gradient kernels accept or reject a draw from the quadratic surrogate at
# any W; with W = 0 they are first-order specializations.
GRADIENT_KERNELS = ("pavg", "vpdhams", "opdhams")
KERNELS = ("metropolis", "git_gibbs", *GRADIENT_KERNELS)
MOMENTUM_KERNELS = ("vpdhams", "opdhams")

# Doubles per run_chains noise block (128 KB); it bounds memory only, since a
# step takes the same doubles whatever block they are drawn in.
NOISE_BLOCK_DOUBLES = 1 << 14


@dataclass(frozen=True)
class SamplerConfig:
    """Tuning parameters; each kernel reads only its relevant fields."""

    epsilon: float = 0.9
    delta: float = 0.1
    phi: float = 0.0
    beta: float = 1.0
    r: int = 1

    def __post_init__(self):
        for name in ("epsilon", "delta", "phi", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.phi < 0.0:
            raise ValueError("phi must be nonnegative")
        if self.r < 1:
            raise ValueError("r must be a positive integer")


@dataclass
class ChainState:
    """Lattice point plus, for momentum kernels, the transformed momentum."""

    s: np.ndarray
    v: np.ndarray | None = None


@dataclass
class StepOutcome:
    next: ChainState
    accepted: bool
    log_accept_ratio: float
    proposal: np.ndarray


@dataclass
class ChainRunResult:
    """Lockstep multi-chain run output: per-chain draw indices into the
    lattice values, energies of the recorded states, and per-step acceptance
    flags."""

    indices: np.ndarray
    energies: np.ndarray
    accepted: np.ndarray


def _cephes_rows(p, q):
    """Horner coefficients of a Cephes ``polevl`` numerator P and ``p1evl``
    denominator Q (its leading 1 written out, P zero-padded to Q's degree),
    one (2, 1) column per Horner step, so one pass advances both as (2, n)."""
    rows = np.zeros((len(q) + 1, 2, 1))
    rows[-len(p) :, 0, 0] = p
    rows[:, 1, 0] = [1.0, *q]
    return rows


# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989): P0/Q0 for |y - 1/2| < 1/2 - e^-2, then in x = sqrt(-2 log y) P1/Q1 for
# x < 8 and P2/Q2 from 8 up.
_NDTRI_CENTRAL = _cephes_rows(
    [-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
     1.39312609387279679503e1, -1.23916583867381258016e0],
    [1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
     -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
     1.59056225126211695515e1, -1.18331621121330003142e0],
)
_NDTRI_TAIL = _cephes_rows(
    [4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
     4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
     -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4],
    [1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
     1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
     -3.80806407691578277194e-2, -9.33259480895457427372e-4],
)
_NDTRI_FAR = _cephes_rows(
    [3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
     1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
     3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9],
    [6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
     2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
     2.89247864745380683936e-6, 6.79019408009981274425e-9],
)
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242


def _cephes_ratio(w, rows):
    """``w P(w) / Q(w)`` in Cephes' operation order."""
    acc = rows[0] * w
    acc += rows[1]
    for c in rows[2:]:
        acc *= w
        acc += c
    return np.divide(np.multiply(acc[0], w, out=acc[0]), acc[1], out=acc[0])


def standard_normals(u) -> np.ndarray:
    """Standard normals by inversion, one per uniform double ``u = k 2^-53``:
    ``ndtri((k + 1/2) 2^-53)``, finite for every k and exactly odd under
    ``k -> 2^53 - 1 - k``.  The upper half is evaluated as the mirror of the
    lower tail, where every intermediate is exact.  ``ndtri`` is Cephes'
    rational approximation evaluated in numpy: bit for bit where the folded
    argument exceeds ``e^-2`` (about 73% of draws), while in the tails numpy's
    ``log`` may differ from libm's in the last bit, moving a normal a few ulp."""
    h = np.asarray(u, dtype=float) - 0.5
    y = h.reshape(-1) + 2.0**-54
    np.abs(y, out=y)
    np.subtract(0.5, y, out=y)
    x = y - 0.5  # the central branch over every element; the tail overwrites its own
    t = _cephes_ratio(x * x, _NDTRI_CENTRAL)
    t *= x
    x += t
    x *= _SQRT_2PI
    tail = np.flatnonzero(y <= _EXP_M2)
    if tail.size:
        r = np.sqrt(-2.0 * np.log(np.take(y, tail)))
        z = 1.0 / r
        far = np.flatnonzero(r >= 8.0)
        t = _cephes_ratio(z, _NDTRI_TAIL)
        if far.size:
            t[far] = _cephes_ratio(np.take(z, far), _NDTRI_FAR)
        r -= np.log(r) / r
        r -= t
        x[tail] = r
    x = x.reshape(h.shape)
    return np.copysign(x, h, out=x)


def momentum_init(pre: Preconditioner, rng) -> np.ndarray:
    """Stationary momentum draw, distributed N(0, (W + lam I)^-1), from d
    uniform doubles."""
    return pre.times(standard_normals(rng.random(pre.dim)), "L_inv")


def _require_quadratic_match(target: TargetModel, pre: Preconditioner):
    if target.W_true is None:
        raise ContractError("auxiliary Gibbs requires an exactly quadratic target")
    if not np.allclose(target.W_true, pre.W, atol=1e-10, rtol=0.0):
        raise ContractError("preconditioner W does not match the target's quadratic matrix")


def _noise_widths(kernel_id, d, eps):
    """Refresh normals and coordinate uniforms per step; a step takes one
    more double, the acceptance uniform."""
    refresh = kernel_id != "metropolis" and not (kernel_id in MOMENTUM_KERNELS and eps == 1.0)
    return (d if refresh else 0), (2 * d if kernel_id == "opdhams" else d)


def _draw_noise(kernel_id, rngs, d, eps, steps):
    """Variates of ``steps`` steps for every chain, one ``random`` call per
    generator: (refresh normals or None, coordinate uniforms (pairs for
    opdhams), acceptance uniforms), each with leading axes (steps, chains)."""
    n_norm, n_coord = _noise_widths(kernel_id, d, eps)
    u = np.empty((steps, len(rngs), n_norm + n_coord + 1))
    for i, g in enumerate(rngs):
        u[:, i] = g.random((steps, u.shape[2]))
    normals = None
    if n_norm:
        normals = u[..., :n_norm]
        normals[...] = standard_normals(normals)  # in place, so u holds the whole block
    coord = u[..., n_norm : n_norm + n_coord]
    if kernel_id == "opdhams":
        coord = coord.reshape(steps, len(rngs), d, 2)
    return normals, coord, u[..., -1]


class _Points(NamedTuple):
    """Lattice indices, values, energies and (except for metropolis)
    gradients of one point per chain."""

    idx: np.ndarray
    S: np.ndarray
    F: np.ndarray
    G: np.ndarray | None


class _Ratio(NamedTuple):
    delta: np.ndarray
    v_star: np.ndarray | None
    log_q_fwd: np.ndarray
    log_q_bwd: np.ndarray
    log_joint_fwd: np.ndarray
    log_joint_bwd: np.ndarray


class _Core:
    """One kernel advancing m chains in lockstep."""

    def __init__(self, kernel_id: str, target: TargetModel, pre, config: SamplerConfig):
        if kernel_id not in KERNELS:
            raise ValueError(f"unknown kernel {kernel_id!r}")
        if kernel_id != "metropolis" and pre is None:
            raise ValueError(f"kernel {kernel_id!r} requires a preconditioner")
        if kernel_id == "git_gibbs":
            _require_quadratic_match(target, pre)
        self.kernel_id = kernel_id
        self.target = target
        self.vals = target.lattice.values
        self.pre = pre
        self.config = config
        self.momentum = kernel_id in MOMENTUM_KERNELS
        self.over_relaxed = kernel_id == "opdhams"

    def evaluate(self, idx) -> _Points:
        return _Points(idx, *self.target.evaluate_indices(idx, grad=self.kernel_id != "metropolis"))

    def _window(self, idx):
        """Metropolis index window of radius r, clipped at the lattice ends."""
        r = self.config.r
        lo = np.maximum(idx - r, 0)
        return lo, np.minimum(idx + r, self.vals.size - 1) - lo + 1

    def _rows(self, at: _Points, z):
        """Proposal rows around ``at``: log-probabilities, or for opdhams CDFs
        formed in place over them."""
        log_rows = proposal_log_rows(at.G, at.S, z, self.pre, self.vals)
        if not self.over_relaxed:
            return log_rows
        return cdf_rows(np.exp(log_rows, out=log_rows), in_place=True)

    def forward_rows(self, cur: _Points, aux):
        """Forward proposal rows given the auxiliary point ``z`` (momentum-free
        kernels) or the refreshed momentum ``v_half`` (momentum kernels); for
        opdhams, the CDF rows and the CDF interval of the current index."""
        rows = self._rows(cur, cur.S - aux if self.momentum else aux)
        return (rows, cdf_interval_rows(rows, cur.idx)) if self.over_relaxed else rows

    def propose(self, cur: _Points, V, noise):
        """Proposed indices from one step's variates, with the auxiliary
        point or refreshed momentum and the forward rows."""
        normals, coord, _ = noise
        if self.kernel_id == "metropolis":
            lo, width = self._window(cur.idx)
            return lo + np.minimum((coord * width).astype(np.int64), width - 1), None, None
        eps = self.config.epsilon
        if not self.momentum:
            aux = cur.S + self.pre.times(normals, "L_inv")
        elif eps == 1.0:
            aux = V
        else:
            aux = eps * V + math.sqrt(1.0 - eps * eps) * self.pre.times(normals, "L_inv")
        rows = self.forward_rows(cur, aux)
        if self.over_relaxed:
            (cdf, x0_interval), beta = rows, self.config.beta
            idx_star = over_relax_rows_from_cdf(cdf, cur.idx, beta, coord[..., 0], coord[..., 1], x0_interval=x0_interval)
        else:
            idx_star = sample_rows_inverse_cdf(np.exp(rows), coord, in_place=True)
        return idx_star, aux, rows

    def log_ratio(self, cur: _Points, aux, rows_f, new: _Points) -> _Ratio:
        """Acceptance log-ratio of the move ``cur -> new``; momentum kernels
        also return the deterministic momentum proposal ``v_star``."""
        if self.kernel_id == "metropolis":
            lq_f = -np.log(self._window(cur.idx)[1]).sum(axis=-1)
            lq_b = -np.log(self._window(new.idx)[1]).sum(axis=-1)
            return _Ratio(new.F - cur.F - lq_f + lq_b, None, lq_f, lq_b, cur.F, new.F)
        pre = self.pre
        if self.momentum:
            v_star = -aux + cur.S - new.S + self.config.phi * (new.G - cur.G + pre.times(cur.S - new.S, "W"))
            z_b, x_new, x_old = new.S + v_star, v_star, aux
        else:
            v_star, z_b, x_new, x_old = None, aux, aux - new.S, aux - cur.S
        kin_new, kin_old = (0.5 * (pre.times(x, "L") ** 2).sum(axis=-1) for x in (x_new, x_old))
        if self.over_relaxed:
            beta, (cdf, x0_interval) = self.config.beta, rows_f
            lq_f = over_relax_log_prob_rows(cdf, cur.idx, new.idx, beta, x0_interval=x0_interval).sum(axis=-1)
            lq_b = over_relax_log_prob_rows(self._rows(new, z_b), new.idx, cur.idx, beta).sum(axis=-1)
        else:
            lq_f = row_entries(rows_f, new.idx).sum(axis=-1)
            lq_b = proposal_log_entries(new.G, new.S, z_b, pre, self.vals, cur.idx).sum(axis=-1)
        with np.errstate(invalid="ignore"):
            delta = new.F - cur.F - kin_new + kin_old + lq_b - lq_f
            return _Ratio(delta, v_star, lq_f, lq_b, cur.F - kin_old, new.F - kin_new)

    def step(self, cur: _Points, V, noise):
        """One transition of every chain: (next points, next momentum,
        accepted flags, log-ratios, proposed indices)."""
        idx_star, aux, rows_f = self.propose(cur, V, noise)
        new = self.evaluate(idx_star)
        if self.kernel_id == "git_gibbs":
            m = idx_star.shape[0]
            return new, None, np.ones(m, dtype=bool), np.zeros(m), idx_star
        ratio = self.log_ratio(cur, aux, rows_f, new)
        delta = ratio.delta
        finite = np.isfinite(delta)
        if not finite.all():
            raise NumericGuardError("acceptance log-ratio", int(np.argmin(finite)))
        accept = (delta >= 0.0) | (noise[2] < np.exp(np.minimum(delta, 0.0)))
        keep = accept[:, None]
        idx = np.where(keep, idx_star, cur.idx)
        G = None if cur.G is None else np.where(keep, new.G, cur.G)
        nxt = _Points(idx, self.vals[idx], np.where(accept, new.F, cur.F), G)
        V = np.where(keep, ratio.v_star, -aux) if self.momentum else None
        return nxt, V, accept, delta, idx_star


def step_kernel(kernel_id: str, state: ChainState, target: TargetModel, pre, config: SamplerConfig, rng, noise=None) -> StepOutcome:
    """One step of one chain of any kernel in ``KERNELS``, as a one-chain call
    of the lockstep core: ``metropolis`` takes ``pre=None`` and reads only
    ``config.r``, and ``git_gibbs`` never rejects."""
    core = _Core(kernel_id, target, pre, config)
    if core.momentum and state.v is None:
        raise InvalidStateError("momentum kernel requires a state with momentum")
    if noise is None:
        drawn = _draw_noise(kernel_id, [rng], target.lattice.dim, config.epsilon, 1)
        noise = tuple(None if x is None else x[0] for x in drawn)  # step 0, still a leading chain axis
    else:
        noise = tuple(None if x is None else np.asarray(x)[None] for x in noise)
    cur = core.evaluate(target.lattice.index_of(state.s)[None])
    V = None if state.v is None else np.asarray(state.v)[None]
    nxt, V, accepted, delta, idx_star = core.step(cur, V, noise)
    v_next = None if V is None else V[0]
    return StepOutcome(ChainState(nxt.S[0], v_next), bool(accepted[0]), float(delta[0]), core.vals[idx_star[0]])


def transition_terms(kernel_id: str, s_t, v_half, s_star, target: TargetModel, pre: Preconditioner, config: SamplerConfig):
    """Closed-form quantities of a momentum kernel (``vpdhams`` or ``opdhams``)
    for a given proposal.

    Returns a dict with the deterministic momentum proposal ``v_star``, the
    normalized forward/backward proposal log-probabilities, the joint
    log-densities (up to the shared constant) of the endpoints, and the
    acceptance log-ratio ``delta``.
    """
    if kernel_id not in MOMENTUM_KERNELS:
        raise ValueError(f"transition terms need a momentum kernel {MOMENTUM_KERNELS}, got {kernel_id!r}")
    core = _Core(kernel_id, target, pre, config)
    both = core.evaluate(target.lattice.index_of(np.stack([s_t, s_star])))
    cur, new = (_Points(*(field[k : k + 1] for field in both)) for k in (0, 1))
    v_half = np.asarray(v_half, dtype=float)[None]
    ratio = core.log_ratio(cur, v_half, core.forward_rows(cur, v_half), new)
    return {name: value[0] for name, value in ratio._asdict().items()}


def run_chains(
    kernel_id: str,
    target: TargetModel,
    pre: Preconditioner | None,
    config: SamplerConfig,
    n_steps: int,
    rngs,
    init_indices: np.ndarray,
) -> ChainRunResult:
    """Advance independent chains in lockstep with per-chain generators.

    Chain ``i`` consumes the variates of the documented order from its own
    generator, so a chain's trajectory does not depend on the other chains.
    Momentum kernels draw each chain's initial momentum, ``momentum_init``,
    from its generator before the first step.  Indices are stored in ``lattice.index_dtype``, the
    smallest unsigned type that holds them (uint8 up to 256 values).
    """
    core = _Core(kernel_id, target, pre, config)
    m = len(rngs)
    d = target.lattice.dim
    idx = np.asarray(init_indices, dtype=np.int64)
    if idx.shape != (m, d):
        raise ValueError("init_indices must be (n_chains, dim)")

    out_idx = np.empty((m, n_steps, d), dtype=target.lattice.index_dtype)
    out_energy = np.empty((m, n_steps))
    out_accept = np.empty((m, n_steps), dtype=bool)

    cur = core.evaluate(idx)
    V = None
    if core.momentum:  # momentum_init's draws, with one transform for all chains
        z = standard_normals(np.array([g.random(d) for g in rngs]))
        V = np.array([pre.times(row, "L_inv") for row in z])
    width = sum(_noise_widths(kernel_id, d, config.epsilon)) + 1
    block = max(1, NOISE_BLOCK_DOUBLES // (m * width))
    for t0 in range(0, n_steps, block):
        normals, coord, acc = _draw_noise(kernel_id, rngs, d, config.epsilon, min(block, n_steps - t0))
        for j in range(len(acc)):
            t = t0 + j
            noise = (None if normals is None else normals[j], coord[j], acc[j])
            try:
                cur, V, accept, _, _ = core.step(cur, V, noise)
            except NumericGuardError as exc:
                raise NumericGuardError(exc.quantity, exc.chain, t) from None
            out_idx[:, t] = cur.idx
            out_energy[:, t] = cur.F
            out_accept[:, t] = accept
    return ChainRunResult(out_idx, out_energy, out_accept)
