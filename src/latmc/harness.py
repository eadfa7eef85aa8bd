"""Experiment harness: config ingestion, reproducible multi-chain execution,
calibration orchestration, and CSV/JSON artifact emission."""

from __future__ import annotations

import csv
import json
import os
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import ConfigError, EnumerationBudgetError, NumericGuardError
from .diagnostics import ess_multichain, exact_moments, index_pmf, moment_report, tv_distance
from .precondition import (
    COND_THRESHOLD,
    CalibrationSample,
    calibrate_w_energy_diff,
    calibrate_w_gradient_diff,
    exact_quadratic_preconditioner,
    factorize,
    first_order_preconditioner,
    lambda_shift,
)
from .samplers import GRADIENT_KERNELS, KERNELS, SamplerConfig, run_chains
from .targets import (
    TargetModel,
    clock_potts,
    discrete_gaussian,
    enumerate_joint,
    integer_lattice,
    marginal,
    quadratic_mixture,
    QuadraticTarget,
)
from .tuning import staged_grid_search

FITTED_METHODS = ("gradient_diff", "energy_diff")
CALIBRATION_METHODS = FITTED_METHODS + ("exact_quadratic", "none")
# Kernels that run with the W = 0 burn-in preconditioner; git_gibbs needs the target's own W.
BURN_IN_KERNELS = ("metropolis", *GRADIENT_KERNELS)
CONFIG_KEYS = frozenset({
    "target", "kernel", "sampler", "calibration", "chains", "length", "burn_in", "base_seed",
    "output_dir", "checkpoints", "tv_coords", "workers", "cond_threshold", "tune",
})
CALIBRATION_KEYS = frozenset({"method", "burn_in_kernel", "burn_in_steps", "burn_in_r"})
TUNE_KEYS = frozenset({"delta_grid", "phi_grid", "probe_chains", "probe_length"})
TARGET_KEYS = {
    "discrete_gaussian": frozenset({"d", "k", "sigma", "rho"}),
    "quadratic_mixture": frozenset({"d", "k", "M", "means", "variances"}),
    "clock_potts": frozenset({"side", "q", "coupling"}),
    "quadratic": frozenset({"k", "w_true", "b"}),
}
TARGET_INT_KEYS = frozenset({"d", "k", "M", "side", "q"})
TARGET_ARRAY_KEYS = frozenset({"means", "variances", "w_true", "b"})
METRICS_HEADER = ("metric", "detail", "n_draws", "value")
TV_HEADER = ("metric", "coords", "n_draws", "mean", "sd")
SEEDING_SCHEME = (
    "numpy Philox via SeedSequence(entropy=base_seed, spawn_key=(stream,)); fixed-width doubles v2"
)

# Reserved spawn keys; experiment chains use their chain index.
CALIBRATION_STREAM = 1 << 20
TUNING_STREAM = (1 << 20) + 1

CHAIN_CSV_PREFIX = "chain_"
CSV_BLOCK_ROWS = 256  # chain-CSV rows formatted per write: memory O(block x d)


def _config_int(value, key: str, minimum: int | None = None) -> int:
    """An integer or integral-float config value of at least ``minimum``, else a ConfigError naming ``key``."""
    integral = isinstance(value, (int, np.integer)) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value!r}")
    return int(value)


def chain_rng(base_seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one stream: splittable and platform-stable."""
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seq))


def build_target(params: dict) -> TargetModel:
    """Instantiate a registered target from its config mapping; a key left
    out takes the target factory's default."""
    params = dict(params)
    try:
        name = params.pop("name")
    except KeyError as exc:
        raise ConfigError("target config needs a 'name'") from exc
    if not isinstance(name, str) or name not in TARGET_KEYS:
        raise ConfigError(f"unknown target {name!r}")
    _reject_unknown_keys(params, TARGET_KEYS[name], f"{name} target")
    try:
        kwargs = {
            key: _config_int(value, key) if key in TARGET_INT_KEYS
            else np.asarray(value, dtype=float) if key in TARGET_ARRAY_KEYS else float(value)
            for key, value in params.items()
        }
        for key, value in kwargs.items():
            if not np.isfinite(value).all():  # ConfigError is not among the errors caught below
                raise ConfigError(f"target.{key} must be finite, got {params[key]!r}")
        if name == "quadratic":
            w_true = kwargs["w_true"]
            b = kwargs.get("b", np.zeros(len(w_true)))
            return QuadraticTarget(integer_lattice(len(w_true), kwargs["k"]), w_true, b)
        factory = {"discrete_gaussian": discrete_gaussian, "quadratic_mixture": quadratic_mixture,
                   "clock_potts": clock_potts}[name]
        return factory(**kwargs)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad target config for {name!r}: {exc}") from exc


@dataclass
class ExperimentConfig:
    """Validated experiment description, every default filled in (the
    ``calibration`` and ``tune`` blocks included); ``raw`` keeps the
    normalized mapping that reproduces this config (and lands in the manifest),
    and ``model`` the target that checking the ``target`` mapping built."""

    target: dict
    kernel: str
    sampler: SamplerConfig
    calibration: dict
    chains: int
    length: int
    burn_in: int
    base_seed: int
    output_dir: str
    checkpoints: list
    tv_coords: list
    workers: int
    cond_threshold: float
    tune: dict
    raw: dict
    model: TargetModel = field(compare=False, repr=False)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        _reject_unknown_keys(payload, CONFIG_KEYS, "config")
        try:
            target = dict(payload["target"])
            kernel = str(payload["kernel"])
            chains = _config_int(payload["chains"], "chains", 2)
            length = _config_int(payload["length"], "length", 2)
            burn_in = _config_int(payload.get("burn_in", 0), "burn_in", 0)
            base_seed = _config_int(payload["base_seed"], "base_seed", 0)
            output_dir = str(payload["output_dir"])
            calibration = dict(payload.get("calibration", {}))
            checkpoints = [_config_int(c, "checkpoints", 1) for c in payload.get("checkpoints", [length])]
            tv_coords = [tuple(_config_int(i, "tv_coords", 0) for i in p) for p in payload.get("tv_coords", [])]
            workers = _config_int(payload.get("workers", 1), "workers", 1)
            cond_threshold = float(payload.get("cond_threshold", COND_THRESHOLD))
            tune = dict(payload.get("tune", {}))
        except KeyError as exc:
            raise ConfigError(f"missing config key: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc
        if kernel not in KERNELS:
            raise ConfigError(f"unknown kernel {kernel!r}; choose from {KERNELS}")
        if np.isnan(cond_threshold):
            raise ConfigError("cond_threshold must be a number, got nan")
        try:
            block = dict(payload.get("sampler", {}))
            sampler = SamplerConfig(**dict(block, r=_config_int(block.get("r", SamplerConfig.r), "sampler.r", 1)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad sampler block: {exc}") from exc
        _reject_unknown_keys(calibration, CALIBRATION_KEYS, "calibration")
        for key in sorted(calibration.keys() & {"burn_in_steps", "burn_in_r"}):
            calibration[key] = _config_int(calibration[key], f"calibration.{key}", 1)
        method = calibration.setdefault("method", "none")
        if method not in CALIBRATION_METHODS:
            raise ConfigError(
                f"unknown calibration method {method!r}; choose from {CALIBRATION_METHODS}"
            )
        if kernel == "git_gibbs" and method != "exact_quadratic":
            raise ConfigError(f"kernel git_gibbs needs calibration.method exact_quadratic, got {method!r}")
        model = build_target(target)
        if method == "exact_quadratic" and model.W_true is None:
            raise ConfigError("calibration.method exact_quadratic needs a target with an exact quadratic W")
        raw = dict(payload, calibration=calibration)
        calibration = {"burn_in_kernel": "metropolis", "burn_in_steps": 500, "burn_in_r": max(sampler.r, 2),
                       **calibration}
        if calibration["burn_in_kernel"] not in BURN_IN_KERNELS:
            raise ConfigError(f"calibration.burn_in_kernel must be one of {BURN_IN_KERNELS}, "
                              f"got {calibration['burn_in_kernel']!r}")
        if not checkpoints or any(c > length for c in checkpoints):
            raise ConfigError("checkpoints must list at least one step in [1, length]")
        d = model.lattice.dim
        for coords in tv_coords:
            if not coords or len(set(coords)) < len(coords) or max(coords) >= d:
                raise ConfigError(f"tv_coords entry {list(coords)} needs distinct axes inside [0, {d})")
        _reject_unknown_keys(tune, TUNE_KEYS, "tune")
        tune = {"delta_grid": [], "phi_grid": [0.0], "probe_chains": 4, "probe_length": 500, **tune}
        for key in ("probe_chains", "probe_length"):
            tune[key] = _config_int(tune[key], f"tune.{key}", 2)
        try:
            for name in ("delta", "phi"):
                tune[f"{name}_grid"] = [float(x) for x in tune[f"{name}_grid"]]
                for value in tune[f"{name}_grid"]:
                    replace(sampler, **{name: value})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad tune value: {exc}") from exc
        if not tune["phi_grid"]:
            raise ConfigError("tune.phi_grid must list at least one phi")
        return cls(
            target=target, kernel=kernel, sampler=sampler, calibration=calibration,
            chains=chains, length=length, burn_in=burn_in, base_seed=base_seed,
            output_dir=output_dir, checkpoints=sorted(set(checkpoints)),
            tv_coords=tv_coords, workers=workers, cond_threshold=cond_threshold,
            tune=tune, raw=raw, model=model,
        )

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                payload = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"config file {path} must hold a mapping")
        return cls.from_dict(payload)


def _reject_unknown_keys(mapping: dict, known, where: str):
    unknown = sorted(set(mapping) - known, key=str)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(map(str, unknown))}")


def _resolve_calibration(config: ExperimentConfig, chains_csv=None):
    """Resolve the calibration block into a map from stepsize to
    preconditioner and the record written to the manifest and to
    ``preconditioner.json``.  The fitting methods estimate W once, from the
    states of ``chains_csv`` when given, else from a fresh burn-in run; a
    chain CSV needs a fitting method."""
    method = config.calibration["method"]
    threshold, target = config.cond_threshold, config.model
    lattice = target.lattice
    info = {"method": method}
    if chains_csv is not None and method not in FITTED_METHODS:
        raise ConfigError("calibration from a chain sample needs gradient_diff or energy_diff")
    if method == "none":
        info["label"] = "first-order specialization (W = 0)"
        return (lambda delta: first_order_preconditioner(lattice.dim, delta, threshold)), info
    if method == "exact_quadratic":
        return (lambda delta: exact_quadratic_preconditioner(target, delta, threshold)), info
    if chains_csv is not None:
        info["source"] = str(chains_csv)
        indices = read_chain_csv(chains_csv, lattice)[0]
    else:
        kernel, steps = config.calibration["burn_in_kernel"], config.calibration["burn_in_steps"]
        info.update(burn_in_steps=steps, burn_in_kernel=kernel)
        burn_cfg = replace(config.sampler, r=config.calibration["burn_in_r"])
        rng = chain_rng(config.base_seed, CALIBRATION_STREAM)
        init = lattice.random_indices([rng])
        pre = None if kernel == "metropolis" else first_order_preconditioner(
            lattice.dim, burn_cfg.delta, threshold)
        result = run_chains(kernel, target, pre, burn_cfg, steps, [rng], init)
        indices = np.concatenate([init, result.indices[0]])
    S, F, G = target.evaluate_indices(indices)
    sample = CalibrationSample(S, G, F)
    if method == "gradient_diff":
        w = calibrate_w_gradient_diff(sample)
    else:
        w = calibrate_w_energy_diff(sample)
    return (lambda delta: factorize(w, lambda_shift(w, delta), threshold)), info


def build_preconditioner(config: ExperimentConfig):
    """The preconditioner at the configured stepsize and its calibration
    record; the metropolis kernel uses none."""
    if config.kernel == "metropolis":
        return None, {"method": config.calibration["method"]}
    by_delta, info = _resolve_calibration(config)
    return by_delta(config.sampler.delta), info


def _run_chain_block(config: ExperimentConfig, pre, chain_lo: int, chain_hi: int):
    """Worker entry: run the chains ``chain_lo..chain_hi-1`` of a validated
    config; a guard error names its chain by run index."""
    target = config.model
    rngs = [chain_rng(config.base_seed, i) for i in range(chain_lo, chain_hi)]
    total = config.burn_in + config.length
    try:
        result = run_chains(config.kernel, target, pre, config.sampler, total, rngs, target.lattice.random_indices(rngs))
    except NumericGuardError as exc:
        chain = None if exc.chain is None else chain_lo + exc.chain
        raise NumericGuardError(exc.quantity, chain, exc.step) from None
    return result.indices, result.energies, result.accepted


def _run_all_chains(config: ExperimentConfig, pre):
    """Whole-run (indices, energies, accepted) arrays from at most one worker per
    usable CPU, in-process for one; each worker block is copied in as it completes."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(config.workers, cpus)
    if workers == 1:
        return _run_chain_block(config, pre, 0, config.chains)
    from concurrent.futures import ProcessPoolExecutor, as_completed

    bounds = np.linspace(0, config.chains, workers + 1).astype(int)
    spans = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    out = None
    with ProcessPoolExecutor(max_workers=len(spans)) as pool:
        starts = {pool.submit(_run_chain_block, config, pre, lo, hi): lo for lo, hi in spans}
        for future in as_completed(starts):
            lo, block = starts.pop(future), future.result()
            del future  # the future holds the block too
            if out is None:
                out = tuple(np.empty((config.chains, *part.shape[1:]), part.dtype) for part in block)
            for whole, part in zip(out, block):
                whole[lo : lo + len(part)] = part
            del block
    return out


def _chain_csv_header(d: int) -> str:
    return ",".join(["chain", "t"] + [f"s_{i + 1}" for i in range(d)] + ["energy", "accepted"])


def _write_chain_csvs(out_dir: Path, values, indices, energies, accepted):
    """One CSV per chain, the bytes ``csv.writer`` renders: each lattice value is
    formatted once, and lines are built from its labels a block of rows at a time."""
    m, n, d = indices.shape
    header = _chain_csv_header(d)
    labels = np.array([repr(float(v)) for v in values], dtype=object)
    chains_dir = out_dir / "chains"
    chains_dir.mkdir(exist_ok=True)
    for c in range(m):
        with open(chains_dir / f"{CHAIN_CSV_PREFIX}{c:04d}.csv", "w", newline="") as fh:
            fh.write(header + "\r\n")
            for t0 in range(0, n, CSV_BLOCK_ROWS):
                block = c, slice(t0, t0 + CSV_BLOCK_ROWS)
                rows = zip(range(t0, n), labels[indices[block]].tolist(), energies[block].tolist(), accepted[block].tolist())
                fh.write("".join(f"{c},{t},{','.join(row)},{e!r},{a:d}\r\n" for t, row, e, a in rows))


def _scalar_metric_rows(config: ExperimentConfig, values, kept_idx, kept_energy, kept_accept):
    d = kept_idx.shape[2]
    rows = []
    coord_ess = [ess_multichain(values[kept_idx[:, :, i]]) for i in range(d)]
    defined = [e for e in coord_ess if e is not None]
    for label, value in (
        ("min", min(defined) if defined else None),
        ("median", float(np.median(defined)) if defined else None),
        ("max", max(defined) if defined else None),
    ):
        rows.append(("ess", label, config.length, value))
    rows.append(("ess", "energy", config.length, ess_multichain(kept_energy)))
    rates = kept_accept.mean(axis=1)
    rows.append(("acceptance_rate", "mean", config.length, float(rates.mean())))
    rows.append(("acceptance_rate", "min", config.length, float(rates.min())))
    rows.append(("acceptance_rate", "max", config.length, float(rates.max())))
    return rows


def _tv_rows(config: ExperimentConfig, joint, kept_idx):
    """TV rows per tuple and checkpoint: chain mean and sd, plus the averaged
    row over tuples of equal arity (chains first, tuples second)."""
    K = joint.shape[0]
    rows = []
    stats = {}  # (arity, n) -> the (mean, sd) of each tuple
    for coords in config.tv_coords:
        exact = marginal(joint, coords)
        label = "-".join(map(str, coords))
        for n in config.checkpoints:
            tvs = np.array([
                tv_distance(index_pmf(chain[:n][:, coords], K), exact) for chain in kept_idx
            ])
            rows.append(("tv", label, n, float(tvs.mean()), float(tvs.std(ddof=0))))
            stats.setdefault((len(coords), n), []).append(rows[-1][3:])
    for (arity, n), pairs in sorted(stats.items()):
        means, sds = zip(*pairs)
        rows.append(("tv", f"avg{arity}d", n, float(np.mean(means)), float(np.mean(sds))))
    return rows


def _write_metric_csv(path: Path, header, rows):
    """Write rows of three leading fields and trailing float values, a None
    value written as ``undefined``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            values = ["undefined" if v is None else repr(float(v)) for v in row[3:]]
            writer.writerow([*row[:3], *values])


def _write_json(path: Path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _write_metrics(out_dir: Path, config: ExperimentConfig, indices, energies, accepted, moments: bool = False):
    """Write ``metrics.csv``, ``tv.csv`` and, with ``moments``, ``moments.csv``
    from whole-run (chains, steps, ...) arrays of lattice indices, energies and
    accept flags.  The exact joint is enumerated at most once, for TV and
    moments together; moments take one chain's values at a time."""
    values = config.model.lattice.values
    kept = slice(config.burn_in, config.burn_in + config.length)
    kept_idx = indices[:, kept]
    _write_metric_csv(
        out_dir / "metrics.csv", METRICS_HEADER,
        _scalar_metric_rows(config, values, kept_idx, energies[:, kept], accepted[:, kept]),
    )
    joint = None
    if config.tv_coords or moments:
        try:
            joint = enumerate_joint(config.model)
        except EnumerationBudgetError as exc:
            if config.tv_coords:
                warnings.warn(f"TV metrics omitted: {exc}", stacklevel=2)
    if config.tv_coords and joint is not None:
        _write_metric_csv(out_dir / "tv.csv", TV_HEADER, _tv_rows(config, joint, kept_idx))
    if moments:
        exact = None if joint is None else exact_moments(joint, values)
        report = moment_report((values[chain] for chain in kept_idx), exact)
        rows = [(f"moment_{key}", family, config.length, entry[key])
                for family, entry in report.items() for key in ("bias2", "variance") if entry[key] is not None]
        _write_metric_csv(out_dir / "moments.csv", METRICS_HEADER, rows)


def run_experiment(config: ExperimentConfig) -> Path:
    """Calibrate, run all chains, and write chain CSVs, metric CSVs, and the
    reproducibility manifest into the output directory."""
    pre, calib_info = build_preconditioner(config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # an earlier run's chains and metric tables would outlive a rerun that writes fewer
    for stale in [*out_dir.glob(f"chains/{CHAIN_CSV_PREFIX}*.csv"),
                  *(out_dir / name for name in ("metrics.csv", "tv.csv", "moments.csv"))]:
        stale.unlink(missing_ok=True)

    indices, energies, accepted = _run_all_chains(config, pre)
    values = config.model.lattice.values
    _write_chain_csvs(out_dir, values, indices, energies, accepted)
    _write_metrics(out_dir, config, indices, energies, accepted)

    manifest = {
        "version": __version__,
        "config": config.raw,
        "kernel": config.kernel,
        "first_order_specialization": config.calibration["method"] == "none"
        and config.kernel in GRADIENT_KERNELS,
        "calibration": calib_info,
        "preconditioner": None if pre is None else pre.to_dict(),
        "lattice_values": values.tolist(),
        "seeding": {
            "scheme": SEEDING_SCHEME,
            "base_seed": config.base_seed,
            "chain_streams": f"0..{config.chains - 1}",
            "calibration_stream": CALIBRATION_STREAM,
            "tuning_stream": TUNING_STREAM,
        },
    }
    _write_json(out_dir / "manifest.json", manifest)
    return out_dir


def read_chain_csv(path, lattice, rows=None, chain=None):
    """Read one chain CSV back into (lattice indices, energies, accepted),
    checking that every row has the header's field count and finite cells,
    every accept flag is 0 or 1, the header and rows hold the lattice's d
    states, the states lie on the lattice, given ``rows``, the row count, and
    the rows are one chain's steps 0, 1, ... in order (given ``chain``, that chain's)."""
    try:
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt only warns of a file with no rows
            header = fh.readline().rstrip("\r\n").split(",")
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        if table.shape[1] != len(header):
            raise ValueError(f"{table.shape[1]} fields, the header has {len(header)}")
        bad = np.argwhere(~np.isfinite(table))
        if bad.size:
            row, col = bad[0]
            raise ValueError(f"data row {row + 1} holds a non-finite {header[col]} cell")
        accepted = table[:, -1]
        if not np.isin(accepted, (0, 1)).all():
            raise ValueError("accept flags must be 0 or 1")
        draws = table[:, 2:-2]
        if draws.shape[1] != lattice.dim:
            raise ValueError(f"states have width {draws.shape[1]}, the target has d = {lattice.dim}")
        if ",".join(header) != _chain_csv_header(lattice.dim):
            raise ValueError(f"first line is not the header chain,t,s_1..s_{lattice.dim},energy,accepted")
        if rows is not None and len(draws) != rows:
            raise ValueError(f"{len(draws)} rows, the config's burn_in + length is {rows}")
        if not np.array_equal(table[:, 1], np.arange(len(table))) or (table[:, 0] != table[0, 0]).any():
            raise ValueError(f"rows are not one chain's steps t = 0, 1, ..., {len(table) - 1} in order")
        if chain is not None and table[0, 0] != chain:
            raise ValueError(f"rows are chain {table[0, 0]:g}'s, the file name says chain {chain}")
    except (FileNotFoundError, ValueError, UserWarning) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        return lattice.index_of(draws), table[:, -2], accepted == 1
    except ValueError as exc:
        raise ConfigError(f"{path}: a state value is off the lattice") from exc


def recompute_metrics(run_dir, out_dir=None) -> Path:
    """Recompute the metric CSVs (plus a moment summary) from a finished run
    directory."""
    run_dir = Path(run_dir)
    out_dir = run_dir if out_dir is None else Path(out_dir)
    path = run_dir / "manifest.json"
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (FileNotFoundError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ConfigError(f"{path} must hold a mapping with a 'config' mapping")
    config = ExperimentConfig.from_dict(manifest["config"])
    lattice, rows = config.model.lattice, config.burn_in + config.length
    indices = np.empty((config.chains, rows, lattice.dim), lattice.index_dtype)
    energies = np.empty((config.chains, rows))
    accepted = np.empty((config.chains, rows), dtype=bool)
    for c in range(config.chains):
        path = run_dir / "chains" / f"{CHAIN_CSV_PREFIX}{c:04d}.csv"
        indices[c], energies[c], accepted[c] = read_chain_csv(path, lattice, rows, chain=c)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_metrics(out_dir, config, indices, energies, accepted, moments=True)
    return out_dir


def tune_command(config: ExperimentConfig) -> Path:
    """Staged grid search for the configured kernel; writes the chosen
    sampler parameters and the full tuning trace as JSON."""
    if config.kernel not in GRADIENT_KERNELS:
        raise ConfigError(f"tuning applies to the {'/'.join(GRADIENT_KERNELS)} kernels")
    tune = config.tune
    if not tune["delta_grid"]:
        raise ConfigError("tune.delta_grid must list candidate stepsizes")
    by_delta, _ = _resolve_calibration(config)
    chosen, trace = staged_grid_search(
        config.kernel, config.model, by_delta, {"delta": tune["delta_grid"], "phi": tune["phi_grid"]},
        chains=tune["probe_chains"], length=tune["probe_length"],
        rng=chain_rng(config.base_seed, TUNING_STREAM), base=config.sampler,
        burn_in=tune["probe_length"] // 10,
    )
    out_dir = Path(config.output_dir)
    _write_json(out_dir / "tuned_config.json", {"kernel": config.kernel, "sampler": asdict(chosen)})
    _write_json(out_dir / "tune_trace.json", trace)
    return out_dir


def calibrate_command(config: ExperimentConfig, chains_csv=None) -> Path:
    """Produce and serialize a preconditioner, either from a fresh burn-in
    run or from a stored chain CSV."""
    if chains_csv is None and config.kernel == "metropolis":
        raise ConfigError("the metropolis kernel uses no preconditioner")
    by_delta, info = _resolve_calibration(config, chains_csv)
    pre = by_delta(config.sampler.delta)
    out_dir = Path(config.output_dir)
    _write_json(out_dir / "preconditioner.json", dict(pre.to_dict(), calibration=info))
    return out_dir
