"""Parameter tuning: the staged grid search selecting the stepsize and then
phi by the energy effective sample size of short multi-chain probe runs."""

from __future__ import annotations

from dataclasses import replace

from .errors import ConfigError
from .diagnostics import ess_multichain
from .samplers import MOMENTUM_KERNELS, SamplerConfig, run_chains
from .targets import TargetModel

# Acceptance-rate window gating stepsize candidates before ESS ranking.
ACCEPT_WINDOW = (0.5, 0.9)


def _probe_run(kernel_id, target, pre, config, chains, length, rng, burn_in=0):
    """Short lockstep run returning (acceptance rate, energy ESS or None),
    both measured after the probe burn-in."""
    child = rng.spawn(chains)
    result = run_chains(kernel_id, target, pre, config, burn_in + length, child, target.lattice.random_indices(child))
    return float(result.accepted[:, burn_in:].mean()), ess_multichain(result.energies[:, burn_in:])


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
) -> tuple[SamplerConfig, dict]:
    """Stagewise parameter selection by energy ESS.

    Stage 1 fixes the auto-regression parameter and the over-relaxation
    parameter at their ``base`` values.  Stage 2 grid-searches the stepsize
    with phi = 0; stage 3, for momentum kernels, keeps the chosen stepsize and
    selects phi.  Candidates are ranked by the energy-series ESS of short
    probe runs, undefined ESS ranking last, with deterministic ties toward the
    smaller stepsize and then the smaller phi.  The whole search is a pure
    function of the probe seeds and the grids.  The trace maps ``deltas`` and
    ``rates`` to the stepsizes probed and their acceptance rates, ``chosen`` to
    the chosen stepsize and ``ess_table`` to each probe's energy ESS.
    """
    deltas = sorted(float(x) for x in grids.get("delta", []))
    phis = sorted(float(x) for x in grids.get("phi", [0.0]))
    if not deltas:
        raise ConfigError("empty stepsize grid")
    if not phis:
        raise ConfigError("empty phi grid")
    if chains < 2 or length < 2:
        raise ConfigError(f"probe runs need at least 2 chains of 2 steps, got {chains} x {length}")

    trace = {"deltas": [], "rates": [], "chosen": None, "ess_table": {}}
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
            trace["ess_table"][key] = ess
            if name == "delta":
                trace["deltas"].append(value)
                trace["rates"].append(rate)
        best = _rank_candidates(entries)[0]
    trace["chosen"] = best.delta
    return best, trace
