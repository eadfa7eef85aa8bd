"""Transition kernels: auxiliary-variable Gibbs, preconditioned gradient
proposals with and without momentum, over-relaxed state updates, and a
random-walk Metropolis baseline.

Each kernel exists once, as a batched core over ``(m, d)`` arrays of m
independent chains: ``propose`` maps one step's variates to proposed lattice
indices, and ``log_ratio`` gives the acceptance log-ratio together with the
proposal and joint log-densities behind it.  :func:`run_chains` loops the
core over steps; the solo ``*_step`` functions and the
``*_transition_terms`` are one-chain calls of the same core.

Randomness consumption per step is fixed so that shared-seed comparisons are
well defined.  Each chain draws from its own generator, in this order:

* ``git_gibbs`` / ``pavg``: d standard normals, d coordinate uniforms
  (ascending), one acceptance uniform (drawn and ignored by ``git_gibbs``).
* ``vpdhams``: d standard normals (momentum refresh), d coordinate uniforms,
  one acceptance uniform.
* ``opdhams``: d standard normals, two uniforms per coordinate ascending
  (interval draw, reflection draw), one acceptance uniform.
* ``metropolis``: d coordinate uniforms, one acceptance uniform.

At exactly ``epsilon = 1`` the refresh is degenerate (the intermediate
momentum equals the current momentum) and the momentum kernels skip the
normal draws entirely.

Each solo step accepts an optional pre-drawn ``noise`` tuple in the same
order, which substitutes for the generator draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, InvalidStateError, NumericGuardError
from .precondition import Preconditioner
from .proposals import (
    cdf_rows,
    over_relax_log_prob_rows,
    over_relax_rows_from_cdf,
    proposal_log_rows,
    row_entries,
    sample_rows_inverse_cdf,
)
from .targets import TargetModel

KERNELS = ("metropolis", "git_gibbs", "pavg", "vpdhams", "opdhams")
MOMENTUM_KERNELS = ("vpdhams", "opdhams")


@dataclass(frozen=True)
class SamplerConfig:
    """Tuning parameters; each kernel reads only its relevant fields."""

    epsilon: float = 0.9
    delta: float = 0.1
    phi: float = 0.0
    beta: float = 1.0
    r: int = 1

    def __post_init__(self):
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

    @property
    def n_chains(self) -> int:
        return self.indices.shape[0]


def momentum_init(pre: Preconditioner, rng) -> np.ndarray:
    """Stationary momentum draw, distributed N(0, (W + lam I)^-1)."""
    return rng.standard_normal(pre.dim) @ pre.L_inv_T.T


def _require_quadratic_match(target: TargetModel, pre: Preconditioner):
    if target.quadratic_coeff is None:
        raise ContractError("auxiliary Gibbs requires an exactly quadratic target")
    w_true, _ = target.quadratic_coeff
    if not np.allclose(w_true, pre.W, atol=1e-10, rtol=0.0):
        raise ContractError("preconditioner W does not match the target's quadratic matrix")


def _draw_noise(kernel_id, rngs, d, eps):
    """One step's variates for every chain, each from its own generator in
    the documented order: (refresh normals or None, coordinate uniforms
    (pairs for opdhams), acceptance uniforms)."""
    m = len(rngs)
    refresh = kernel_id != "metropolis" and not (kernel_id in MOMENTUM_KERNELS and eps == 1.0)
    pairs = kernel_id == "opdhams"
    normals = np.empty((m, d)) if refresh else None
    coord = np.empty((m, d, 2) if pairs else (m, d))
    acc = np.empty(m)
    for i, g in enumerate(rngs):
        if refresh:
            normals[i] = g.standard_normal(d)
        coord[i] = g.random((d, 2)) if pairs else g.random(d)
        acc[i] = g.random()
    return normals, coord, acc


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
        S = self.vals[idx]
        F = self.target.f_batch(S)
        G = None if self.kernel_id == "metropolis" else self.target.grad_batch(S)
        return _Points(idx, S, F, G)

    def _window(self, idx):
        """Metropolis index window of radius r, clipped at the lattice ends."""
        r = self.config.r
        lo = np.maximum(idx - r, 0)
        return lo, np.minimum(idx + r, self.vals.size - 1) - lo + 1

    def _rows(self, at: _Points, z):
        """Proposal rows around ``at``: log-probabilities, or CDFs for opdhams."""
        log_rows = proposal_log_rows(at.G, at.S, z, self.pre, self.vals)
        return cdf_rows(np.exp(log_rows)) if self.over_relaxed else log_rows

    def _log_q(self, rows, idx_from, idx_to):
        if self.over_relaxed:
            lp = over_relax_log_prob_rows(rows, idx_from, idx_to, self.config.beta)
        else:
            lp = row_entries(rows, idx_to)
        return lp.sum(axis=-1)

    def forward_rows(self, cur: _Points, aux):
        """Forward proposal rows given the auxiliary point ``z`` (momentum-free
        kernels) or the refreshed momentum ``v_half`` (momentum kernels)."""
        return self._rows(cur, cur.S - aux if self.momentum else aux)

    def propose(self, cur: _Points, V, noise):
        """Proposed indices from one step's variates, with the auxiliary
        point or refreshed momentum and the forward rows."""
        normals, coord, _ = noise
        if self.kernel_id == "metropolis":
            lo, width = self._window(cur.idx)
            return lo + np.minimum((coord * width).astype(np.int64), width - 1), None, None
        eps = self.config.epsilon
        if not self.momentum:
            aux = cur.S + normals @ self.pre.L_inv_T.T
        elif eps == 1.0:
            aux = V
        else:
            aux = eps * V + math.sqrt(1.0 - eps * eps) * (normals @ self.pre.L_inv_T.T)
        rows = self.forward_rows(cur, aux)
        if self.over_relaxed:
            beta = self.config.beta
            idx_star = over_relax_rows_from_cdf(rows, cur.idx, beta, coord[..., 0], coord[..., 1])
        else:
            idx_star = sample_rows_inverse_cdf(np.exp(rows), coord)
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
            v_star = -aux + cur.S - new.S + self.config.phi * (new.G - cur.G + (cur.S - new.S) @ pre.W)
            z_b = new.S + v_star
            kin_new = 0.5 * ((v_star @ pre.L) ** 2).sum(axis=-1)
            kin_old = 0.5 * ((aux @ pre.L) ** 2).sum(axis=-1)
        else:
            v_star, z_b = None, aux
            kin_new = 0.5 * (((aux - new.S) @ pre.L) ** 2).sum(axis=-1)
            kin_old = 0.5 * (((aux - cur.S) @ pre.L) ** 2).sum(axis=-1)
        # forward and backward proposal terms in one batch
        lq_f, lq_b = self._log_q(
            np.stack([rows_f, self._rows(new, z_b)]),
            np.stack([cur.idx, new.idx]),
            np.stack([new.idx, cur.idx]),
        )
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
            raise NumericGuardError(f"non-finite acceptance log-ratio in chain {np.argmin(finite)}")
        accept = (delta >= 0.0) | (noise[2] < np.exp(np.minimum(delta, 0.0)))
        keep = accept[:, None]
        idx = np.where(keep, idx_star, cur.idx)
        G = None if cur.G is None else np.where(keep, new.G, cur.G)
        nxt = _Points(idx, self.vals[idx], np.where(accept, new.F, cur.F), G)
        V = np.where(keep, ratio.v_star, -aux) if self.momentum else None
        return nxt, V, accept, delta, idx_star


def step_kernel(kernel_id: str, state: ChainState, target: TargetModel, pre, config: SamplerConfig, rng, noise=None) -> StepOutcome:
    """Uniform dispatcher over the kernel registry: one step of one chain,
    as a one-chain call of the lockstep core."""
    core = _Core(kernel_id, target, pre, config)
    if core.momentum and state.v is None:
        raise InvalidStateError("momentum kernel requires a state with momentum")
    if noise is None:
        noise = _draw_noise(kernel_id, [rng], target.lattice.dim, config.epsilon)
    else:  # metropolis noise has no normals; at epsilon = 1 they may be None
        *normals, coord, acc_u = noise
        normals = np.asarray(normals[0])[None] if normals and normals[0] is not None else None
        noise = (normals, np.asarray(coord)[None], np.array([acc_u]))
    cur = core.evaluate(target.lattice.index_of(state.s)[None])
    V = None if state.v is None else np.asarray(state.v)[None]
    nxt, V, accepted, delta, idx_star = core.step(cur, V, noise)
    v_next = None if V is None else V[0]
    return StepOutcome(ChainState(nxt.S[0], v_next), bool(accepted[0]), float(delta[0]), core.vals[idx_star[0]])


def _transition_terms(kernel_id, s_t, v_half, s_star, target, pre, config):
    core = _Core(kernel_id, target, pre, config)
    both = core.evaluate(target.lattice.index_of(np.stack([s_t, s_star])))
    cur, new = (_Points(*(field[k : k + 1] for field in both)) for k in (0, 1))
    v_half = np.asarray(v_half, dtype=float)[None]
    ratio = core.log_ratio(cur, v_half, core.forward_rows(cur, v_half), new)
    return {name: value[0] for name, value in ratio._asdict().items()}


def git_gibbs_step(state: ChainState, target: TargetModel, pre: Preconditioner, rng, noise=None) -> StepOutcome:
    """Auxiliary-variable Gibbs sweep for quadratic targets; never rejects.

    Consumes the same variate pattern as the accept-reject kernels so that
    shared-seed trajectory comparisons line up step for step.
    """
    return step_kernel("git_gibbs", state, target, pre, SamplerConfig(), rng, noise)


def pavg_step(state: ChainState, target: TargetModel, pre: Preconditioner, rng, noise=None) -> StepOutcome:
    """Preconditioned auxiliary-variable step (momentum-free kernel)."""
    return step_kernel("pavg", state, target, pre, SamplerConfig(), rng, noise)


def vpdhams_transition_terms(s_t, v_half, s_star, target: TargetModel, pre: Preconditioner, config: SamplerConfig):
    """Closed-form quantities of the momentum kernel for a given proposal.

    Returns a dict with the deterministic momentum proposal ``v_star``, the
    normalized forward/backward proposal log-probabilities, the joint
    log-densities (up to the shared constant) of the endpoints, and the
    acceptance log-ratio ``delta``.
    """
    return _transition_terms("vpdhams", s_t, v_half, s_star, target, pre, config)


def vpdhams_step(state: ChainState, target: TargetModel, pre: Preconditioner, config: SamplerConfig, rng, noise=None) -> StepOutcome:
    """Momentum kernel: partial refresh, negated-momentum proposal, gradient
    correction, generalized Metropolis acceptance.  Rejection stores the
    negated intermediate momentum."""
    return step_kernel("vpdhams", state, target, pre, config, rng, noise)


def opdhams_transition_terms(s_t, v_half, s_star, target: TargetModel, pre: Preconditioner, config: SamplerConfig):
    """Like :func:`vpdhams_transition_terms` but with over-relaxed proposal
    probabilities computed from the exact conditional law per coordinate."""
    return _transition_terms("opdhams", s_t, v_half, s_star, target, pre, config)


def opdhams_step(state: ChainState, target: TargetModel, pre: Preconditioner, config: SamplerConfig, rng, noise=None) -> StepOutcome:
    """Momentum kernel with the state proposed coordinate-wise by CDF-space
    over-relaxation around the current point."""
    return step_kernel("opdhams", state, target, pre, config, rng, noise)


def metropolis_step(state: ChainState, target: TargetModel, r: int, rng, noise=None) -> StepOutcome:
    """Random-walk baseline: per coordinate, propose uniformly among values
    within index distance ``r`` (clipped at the lattice ends, current value
    permitted), with the clipping asymmetry corrected in the acceptance."""
    return step_kernel("metropolis", state, target, None, SamplerConfig(r=r), rng, noise)


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
    Momentum kernels draw their initial momentum from each chain's generator
    before the first step.
    """
    core = _Core(kernel_id, target, pre, config)
    m = len(rngs)
    d = target.lattice.dim
    idx = np.asarray(init_indices, dtype=np.int64)
    if idx.shape != (m, d):
        raise ValueError("init_indices must be (n_chains, dim)")

    out_idx = np.empty((m, n_steps, d), dtype=np.int16)
    out_energy = np.empty((m, n_steps))
    out_accept = np.empty((m, n_steps), dtype=bool)

    cur = core.evaluate(idx)
    V = None
    if core.momentum:
        V = np.empty((m, d))
        for i, g in enumerate(rngs):
            V[i] = momentum_init(pre, g)
    for t in range(n_steps):
        noise = _draw_noise(kernel_id, rngs, d, config.epsilon)
        try:
            cur, V, accept, _, _ = core.step(cur, V, noise)
        except NumericGuardError as exc:
            exc.args = (f"step {t}: {exc}",)
            raise
        out_idx[:, t] = cur.idx
        out_energy[:, t] = cur.F
        out_accept[:, t] = accept
    return ChainRunResult(out_idx, out_energy, out_accept)
