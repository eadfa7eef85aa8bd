"""Evaluation metrics over completed chains: total-variation distance against
exact tables, multi-chain batch-mean effective sample size, and moment
estimation bias/variance summaries."""

from __future__ import annotations

import numpy as np

from .errors import SupportMismatchError
from .targets import LatticeSpec, marginal


def tv_distance(p, q) -> float:
    """Half the L1 distance between two probability tables on one support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise SupportMismatchError(f"table shapes differ: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def index_pmf(idx, n_values: int) -> np.ndarray:
    """Frequency table of the rows of ``idx``, an (n, k) array of lattice
    indices, over the K^k joint values."""
    shape = (n_values,) * idx.shape[1]
    flat = np.ravel_multi_index(tuple(idx.T), shape)
    counts = np.bincount(flat, minlength=n_values ** idx.shape[1]).astype(float)
    return (counts / counts.sum()).reshape(shape)


def empirical_pmf(draws, lattice: LatticeSpec, coords) -> np.ndarray:
    """Frequency table of the selected coordinate tuple over the draws."""
    draws = np.asarray(draws, dtype=float)
    coords = [int(c) for c in coords]
    return index_pmf(lattice.index_of(draws[:, coords]), lattice.n_values)


def ess_multichain(x) -> float | None:
    """Batch-mean effective sample size from m chains of length T.

    ESS = T * W / B with W the pooled within-chain variance and B the
    between-chain variance of the chain means; None, as the ESS is then
    undefined, when all chain means coincide (B = 0).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected an (n_chains, n_draws) array")
    m, T = x.shape
    if m < 2 or T < 2:
        raise ValueError("need at least two chains with at least two draws")
    chain_means = x.mean(axis=1)
    grand_mean = chain_means.mean()
    within = ((x - chain_means[:, None]) ** 2).sum() / (m * (T - 1))
    between = T * ((chain_means - grand_mean) ** 2).sum() / (m - 1)
    if between == 0.0:
        return None
    return float(T * within / between)


def exact_moments(pmf: np.ndarray, values: np.ndarray) -> dict:
    """First and second moments of a joint table over a shared value set.

    Returns the mapping ``moment_report`` reads: ``mean`` (d,), ``second``
    (d,) and ``cross`` (d, d) with E[s_i s_j] off the diagonal.  Each pair is
    summed once, for i < j, and mirrored into ``cross[j, i]``.
    """
    d = pmf.ndim
    margs = [marginal(pmf, (i,)) for i in range(d)]
    mean = np.array([marg @ values for marg in margs])
    second = np.array([marg @ values**2 for marg in margs])
    cross = np.diag(second)
    for i, j in zip(*np.triu_indices(d, k=1)):
        cross[i, j] = cross[j, i] = values @ marginal(pmf, (i, j)) @ values
    return {"mean": mean, "second": second, "cross": cross}


def moment_report(chains, exact: dict | None = None) -> dict:
    """Across-chain squared bias and variance of E[s_i], E[s_i^2], E[s_i s_j].

    Per-chain estimates feed an across-chain mean (bias against the exact
    moments, when available) and variance; results are averaged over
    coordinates for the first two families and over index pairs for the
    cross moments.  Without exact moments the bias entries are None.
    ``chains`` yields one (T, d) array of draws per chain; each is read once
    and dropped, so an iterator holds one chain's draws at a time.  The
    estimates are stacked once per family, and the across-chain variance is
    taken in place over that stack.
    """
    per_chain = []
    for x in chains:
        x = np.asarray(x, dtype=float)
        iu = np.triu_indices(x.shape[1], k=1)
        per_chain.append((x.mean(axis=0), (x**2).mean(axis=0), (x.T @ x / x.shape[0])[iu]))
    if len(per_chain) < 2:
        raise ValueError("need at least two chains for across-chain variance")
    est_mean, est_second, est_cross = (np.stack(parts) for parts in zip(*per_chain))

    report = {}
    for name, est, truth in (
        ("mean", est_mean, None if exact is None else exact["mean"]),
        ("second", est_second, None if exact is None else exact["second"]),
        ("cross", est_cross, None if exact is None else exact["cross"][iu]),
    ):
        if est.shape[1] == 0:
            report[name] = {"bias2": None, "variance": None}
            continue
        across = est.mean(axis=0)
        bias2 = None if truth is None else float(((across - truth) ** 2).mean())
        # est.var(axis=0, ddof=1) to the bit, computed in place over the estimates
        est -= across
        np.multiply(est, est, out=est)
        variance = (est.sum(axis=0) / (len(est) - 1)).mean()
        report[name] = {"bias2": bias2, "variance": float(variance)}
    return report

