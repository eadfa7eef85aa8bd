"""Parameter tuning: stepsize search targeting an acceptance rate, and the
staged grid search selecting parameters by energy effective sample size."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, UndefinedESSError
from .diagnostics import ess_multichain
from .precondition import factorize, lambda_shift
from .samplers import MOMENTUM_KERNELS, SamplerConfig, run_chains
from .targets import TargetModel

# Acceptance-rate window gating stepsize candidates before ESS ranking.
ACCEPT_WINDOW = (0.5, 0.9)


@dataclass
class TuneTrace:
    """Record of a tuning run: stepsizes tried, observed acceptance rates,
    the chosen stepsize, and the energy-ESS table of the grid stages."""

    deltas: list = field(default_factory=list)
    rates: list = field(default_factory=list)
    chosen: float | None = None
    ess_table: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "deltas": [float(x) for x in self.deltas],
            "rates": [float(x) for x in self.rates],
            "chosen": None if self.chosen is None else float(self.chosen),
            "ess_table": {key: value for key, value in self.ess_table.items()},
        }


def _probe_run(kernel_id, target, pre, config, chains, length, rng, burn_in=0):
    """Short lockstep run returning (acceptance rate, energy ESS or None),
    both measured after the probe burn-in."""
    child = rng.spawn(chains)
    lattice = target.lattice
    init = np.stack([g.integers(0, lattice.n_values, size=lattice.dim) for g in child])
    result = run_chains(kernel_id, target, pre, config, burn_in + length, child, init)
    rate = float(result.accepted[:, burn_in:].mean())
    if chains >= 2 and length >= 2:
        try:
            ess = ess_multichain(result.energies[:, burn_in:])
        except UndefinedESSError:
            ess = None
    else:
        ess = None
    return rate, ess


def target_acceptance(
    kernel: str,
    target: TargetModel,
    w_matrix,
    delta0: float,
    alpha_target: float,
    rng,
    a: float = 0.6,
    M: int = 20,
    probe_len: int = 200,
    config: SamplerConfig = SamplerConfig(),
    cond_threshold: float = 100.0,
) -> TuneTrace:
    """Multiplicative stepsize search targeting an acceptance rate.

    At stage m the stepsize moves by exp(+(1+m)^-a) when the observed rate is
    below the target and exp(-(1+m)^-a) when above (unchanged on exact
    equality); the returned trace marks the stepsize whose rate came closest,
    first-found on ties.
    """
    if delta0 <= 0:
        raise ValueError("delta0 must be positive")
    if not 0.0 < alpha_target < 1.0:
        raise ValueError("alpha_target must lie strictly inside (0, 1)")
    if a <= 0 or M < 1:
        raise ValueError("need a > 0 and M >= 1")
    w_matrix = np.asarray(w_matrix, dtype=float)
    trace = TuneTrace()
    delta = float(delta0)
    for m in range(M + 1):
        cfg = replace(config, delta=delta)
        pre = factorize(w_matrix, lambda_shift(w_matrix, delta), cond_threshold)
        rate, _ = _probe_run(kernel, target, pre, cfg, chains=1, length=probe_len, rng=rng)
        trace.deltas.append(delta)
        trace.rates.append(rate)
        step = (1.0 + m) ** (-a)
        if rate < alpha_target:
            delta = delta * float(np.exp(step))
        elif rate > alpha_target:
            delta = delta * float(np.exp(-step))
    best = int(np.argmin([abs(r - alpha_target) for r in trace.rates]))
    trace.chosen = trace.deltas[best]
    return trace


def _rank_candidates(entries):
    """Pick the best (candidate, ess, rate) entry: ESS-maximal among
    candidates inside the acceptance window (all candidates when the window
    is empty), undefined ESS last, ties toward the earlier entry."""
    lo, hi = ACCEPT_WINDOW
    pool = [e for e in entries if lo <= e[2] <= hi] or entries
    return max((e for e in pool if e[1] is not None), key=lambda e: e[1], default=pool[0])


def staged_grid_search(
    kernel_family: str,
    target: TargetModel,
    pre_builder,
    grids: dict,
    chains: int,
    length: int,
    rng,
    base: SamplerConfig = SamplerConfig(),
    burn_in: int = 0,
) -> tuple[SamplerConfig, TuneTrace]:
    """Stagewise parameter selection by energy ESS.

    Stage 1 fixes the auto-regression parameter and the over-relaxation
    parameter at their ``base`` values.  Stage 2 grid-searches the stepsize
    with phi = 0; stage 3, for momentum kernels, keeps the chosen stepsize and
    selects phi.  Candidates are ranked by the energy-series ESS of short
    probe runs, undefined ESS ranking last, with deterministic ties toward the
    smaller stepsize and then the smaller phi.  The whole search is a pure
    function of the probe seeds and the grids.
    """
    deltas = sorted(float(x) for x in grids.get("delta", []))
    phis = sorted(float(x) for x in grids.get("phi", [0.0]))
    if not deltas:
        raise ConfigError("empty stepsize grid")
    if not phis:
        raise ConfigError("empty phi grid")

    trace = TuneTrace()
    best = replace(base, phi=0.0)
    stages = [("stage2", "delta", deltas)]
    if kernel_family in MOMENTUM_KERNELS:
        stages.append(("stage3", "phi", phis))
    for stage, name, grid in stages:
        entries = []
        for value in grid:
            cfg = replace(best, **{name: value})
            rate, ess = _probe_run(
                kernel_family, target, pre_builder(cfg.delta), cfg, chains, length, rng, burn_in
            )
            entries.append((cfg, ess, rate))
            key = (f"{stage}:epsilon={cfg.epsilon!r},delta={cfg.delta!r},phi={cfg.phi!r},"
                   f"beta={cfg.beta!r},r={cfg.r}")
            trace.ess_table[key] = None if ess is None else float(ess)
            if name == "delta":
                trace.deltas.append(value)
                trace.rates.append(rate)
        best = _rank_candidates(entries)[0]
    trace.chosen = best.delta
    return best, trace
