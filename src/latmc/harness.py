"""Experiment harness: config ingestion, reproducible multi-chain execution,
calibration orchestration, and CSV/JSON artifact emission."""

from __future__ import annotations

import csv
import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import ConfigError, EnumerationBudgetError, UndefinedESSError
from .diagnostics import (
    ChainRecord,
    ess_multichain,
    exact_moments,
    moment_report,
    tv_distance,
    write_metric_rows,
)
from .precondition import (
    CalibrationSample,
    Preconditioner,
    calibrate_w_energy_diff,
    calibrate_w_gradient_diff,
    exact_quadratic_preconditioner,
    factorize,
    first_order_preconditioner,
    lambda_shift,
)
from .samplers import KERNELS, SamplerConfig, run_chains
from .targets import (
    TargetModel,
    clock_potts,
    discrete_gaussian,
    enumerate_joint,
    integer_lattice,
    quadratic_mixture,
    QuadraticTarget,
)
from .tuning import staged_grid_search

CALIBRATION_METHODS = ("gradient_diff", "energy_diff", "exact_quadratic", "none")

# Reserved spawn keys; experiment chains use their chain index.
CALIBRATION_STREAM = 1 << 20
TUNING_STREAM = (1 << 20) + 1

CHAIN_CSV_PREFIX = "chain_"


def chain_rng(base_seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one stream: splittable and platform-stable."""
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seq))


def build_target(params: dict) -> TargetModel:
    """Instantiate a registered target from its config mapping."""
    params = dict(params)
    try:
        name = params.pop("name")
    except KeyError as exc:
        raise ConfigError("target config needs a 'name'") from exc
    try:
        if name == "discrete_gaussian":
            return discrete_gaussian(
                d=int(params["d"]), k=int(params["k"]),
                sigma=float(params["sigma"]), rho=float(params["rho"]),
            )
        if name == "quadratic_mixture":
            kwargs = {}
            if "means" in params:
                kwargs["means"] = np.asarray(params["means"], dtype=float)
            if "variances" in params:
                kwargs["variances"] = np.asarray(params["variances"], dtype=float)
            return quadratic_mixture(
                d=int(params.get("d", 10)), k=int(params.get("k", 10)),
                M=int(params.get("M", 9)), **kwargs,
            )
        if name == "clock_potts":
            return clock_potts(
                side=int(params["side"]), q=int(params["q"]),
                coupling=float(params.get("coupling", 1.0)),
            )
        if name == "quadratic":
            w_true = np.asarray(params["w_true"], dtype=float)
            b = np.asarray(params.get("b", np.zeros(w_true.shape[0])), dtype=float)
            lattice = integer_lattice(w_true.shape[0], int(params["k"]))
            return QuadraticTarget(lattice, w_true, b)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad target config for {name!r}: {exc}") from exc
    raise ConfigError(f"unknown target {name!r}")


@dataclass
class ExperimentConfig:
    """Validated experiment description; ``raw`` keeps the normalized mapping
    that reproduces this config (and lands in the manifest)."""

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
    workers: int = 1
    cond_threshold: float = 100.0
    tune: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        try:
            target = dict(payload["target"])
            kernel = str(payload["kernel"])
            chains = int(payload["chains"])
            length = int(payload["length"])
            burn_in = int(payload.get("burn_in", 0))
            base_seed = int(payload["base_seed"])
            output_dir = str(payload["output_dir"])
        except KeyError as exc:
            raise ConfigError(f"missing config key: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc
        if kernel not in KERNELS:
            raise ConfigError(f"unknown kernel {kernel!r}; choose from {KERNELS}")
        if chains < 1:
            raise ConfigError("chains must be >= 1")
        if length < 1:
            raise ConfigError("length must be >= 1")
        if burn_in < 0:
            raise ConfigError("burn_in must be >= 0")
        try:
            sampler = SamplerConfig(**payload.get("sampler", {}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad sampler block: {exc}") from exc
        calibration = dict(payload.get("calibration", {"method": "none"}))
        method = calibration.setdefault("method", "none")
        if method not in CALIBRATION_METHODS:
            raise ConfigError(
                f"unknown calibration method {method!r}; choose from {CALIBRATION_METHODS}"
            )
        checkpoints = [int(c) for c in payload.get("checkpoints", [length])]
        if any(c < 1 or c > length for c in checkpoints):
            raise ConfigError("checkpoints must lie in [1, length]")
        tv_coords = [tuple(int(i) for i in pair) for pair in payload.get("tv_coords", [])]
        workers = int(payload.get("workers", 1))
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        cond_threshold = float(payload.get("cond_threshold", 100.0))
        tune = dict(payload.get("tune", {}))
        raw = dict(payload)
        raw["calibration"] = calibration
        return cls(
            target=target, kernel=kernel, sampler=sampler, calibration=calibration,
            chains=chains, length=length, burn_in=burn_in, base_seed=base_seed,
            output_dir=output_dir, checkpoints=sorted(set(checkpoints)),
            tv_coords=tv_coords, workers=workers, cond_threshold=cond_threshold,
            tune=tune, raw=raw,
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


def _collect_calibration_sample(config: ExperimentConfig, target: TargetModel) -> CalibrationSample:
    calib = config.calibration
    steps = int(calib.get("burn_in_steps", 500))
    kernel = calib.get("burn_in_kernel", "metropolis")
    rng = chain_rng(config.base_seed, CALIBRATION_STREAM)
    lattice = target.lattice
    init = rng.integers(0, lattice.n_values, size=(1, lattice.dim))
    burn_cfg = SamplerConfig(
        epsilon=config.sampler.epsilon,
        delta=float(calib.get("burn_in_delta", config.sampler.delta)),
        phi=config.sampler.phi,
        beta=config.sampler.beta,
        r=int(calib.get("burn_in_r", max(config.sampler.r, 2))),
    )
    pre = None
    if kernel != "metropolis":
        pre = first_order_preconditioner(lattice.dim, burn_cfg.delta, config.cond_threshold)
    result = run_chains(kernel, target, pre, burn_cfg, steps, [rng], init)
    states = np.concatenate([lattice.values[init], lattice.values[result.indices[0]]])
    return CalibrationSample.from_states(target, states)


def _preconditioner_by_delta(config: ExperimentConfig, target: TargetModel, sample=None):
    """Map a stepsize to a preconditioner by the configured calibration
    method.  The fitting methods estimate W once, from ``sample`` or else
    from a fresh burn-in; a given sample requires a fitting method."""
    calib = config.calibration
    method = calib["method"]
    threshold = config.cond_threshold
    if sample is None and method == "exact_quadratic":
        return lambda delta: exact_quadratic_preconditioner(target, delta, threshold)
    if sample is None and method == "none":
        return lambda delta: first_order_preconditioner(target.lattice.dim, delta, threshold)
    if method not in ("gradient_diff", "energy_diff"):
        raise ConfigError("calibration from a chain sample needs gradient_diff or energy_diff")
    if sample is None:
        sample = _collect_calibration_sample(config, target)
    if method == "gradient_diff":
        w = calibrate_w_gradient_diff(sample, method=calib.get("solver", "lyapunov"))
    else:
        w = calibrate_w_energy_diff(sample)
    return lambda delta: factorize(w, lambda_shift(w, delta), threshold)


def build_preconditioner(config: ExperimentConfig, target: TargetModel):
    """Resolve the calibration method into a concrete preconditioner."""
    method = config.calibration["method"]
    info = {"method": method}
    if config.kernel == "metropolis":
        return None, info
    pre = _preconditioner_by_delta(config, target)(config.sampler.delta)
    if method == "none":
        info["label"] = "first-order specialization (W = 0)"
    elif method != "exact_quadratic":
        info["burn_in_steps"] = int(config.calibration.get("burn_in_steps", 500))
        info["burn_in_kernel"] = config.calibration.get("burn_in_kernel", "metropolis")
    return pre, info


def _run_chain_block(config_raw: dict, pre_payload, chain_lo: int, chain_hi: int):
    """Worker entry: rebuild everything from plain data and run a chain block."""
    config = ExperimentConfig.from_dict(config_raw)
    target = build_target(config.target)
    pre = None if pre_payload is None else Preconditioner.from_dict(pre_payload)
    rngs = [chain_rng(config.base_seed, i) for i in range(chain_lo, chain_hi)]
    lattice = target.lattice
    init = np.stack([g.integers(0, lattice.n_values, size=lattice.dim) for g in rngs])
    total = config.burn_in + config.length
    result = run_chains(config.kernel, target, pre, config.sampler, total, rngs, init)
    return result.indices, result.energies, result.accepted


def _run_all_chains(config: ExperimentConfig, pre):
    pre_payload = None if pre is None else pre.to_dict()
    blocks = []
    if config.workers == 1 or config.chains == 1:
        blocks.append(_run_chain_block(config.raw, pre_payload, 0, config.chains))
    else:
        bounds = np.linspace(0, config.chains, config.workers + 1).astype(int)
        spans = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
            futures = [
                pool.submit(_run_chain_block, config.raw, pre_payload, lo, hi)
                for lo, hi in spans
            ]
            blocks = [f.result() for f in futures]
    indices = np.concatenate([b[0] for b in blocks], axis=0)
    energies = np.concatenate([b[1] for b in blocks], axis=0)
    accepted = np.concatenate([b[2] for b in blocks], axis=0)
    return indices, energies, accepted


def _write_chain_csvs(out_dir: Path, config: ExperimentConfig, values, indices, energies, accepted):
    d = indices.shape[2]
    header = ["chain", "t"] + [f"s_{i + 1}" for i in range(d)] + ["energy", "accepted"]
    chains_dir = out_dir / "chains"
    chains_dir.mkdir(exist_ok=True)
    for c in range(indices.shape[0]):
        path = chains_dir / f"{CHAIN_CSV_PREFIX}{c:04d}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            pts = values[indices[c]]
            for t in range(indices.shape[1]):
                row = [c, t]
                row += [repr(float(x)) for x in pts[t]]
                row += [repr(float(energies[c, t])), int(accepted[c, t])]
                writer.writerow(row)


def _scalar_metric_rows(config: ExperimentConfig, values, kept_idx, kept_energy, kept_accept):
    d = kept_idx.shape[2]
    rows = []
    coord_ess = []
    for i in range(d):
        series = values[kept_idx[:, :, i]]
        try:
            coord_ess.append(ess_multichain(series))
        except UndefinedESSError:
            coord_ess.append(None)
    defined = [e for e in coord_ess if e is not None]
    for label, value in (
        ("min", min(defined) if defined else None),
        ("median", float(np.median(defined)) if defined else None),
        ("max", max(defined) if defined else None),
    ):
        rows.append(("ess", label, config.length, value))
    try:
        energy_ess = ess_multichain(kept_energy)
    except UndefinedESSError:
        energy_ess = None
    rows.append(("ess", "energy", config.length, energy_ess))
    rates = kept_accept.mean(axis=1)
    rows.append(("acceptance_rate", "mean", config.length, float(rates.mean())))
    rows.append(("acceptance_rate", "min", config.length, float(rates.min())))
    rows.append(("acceptance_rate", "max", config.length, float(rates.max())))
    return rows


def _write_scalar_metrics(path: Path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "detail", "n_draws", "value"])
        for metric, detail, n_draws, value in rows:
            text = "undefined" if value is None else repr(float(value))
            writer.writerow([metric, detail, n_draws, text])


def _tv_rows(config: ExperimentConfig, target: TargetModel, kept_idx):
    """TV rows per tuple and checkpoint: chain mean and sd, plus the averaged
    row over tuples of equal arity (chains first, tuples second)."""
    if not config.tv_coords:
        return []
    try:
        joint = enumerate_joint(target)
    except EnumerationBudgetError as exc:
        warnings.warn(f"TV metrics omitted: {exc}", stacklevel=2)
        return []
    lattice = target.lattice
    K = lattice.n_values
    m = kept_idx.shape[0]
    rows = []
    by_arity = {}
    d = lattice.dim
    for coords in config.tv_coords:
        other = tuple(ax for ax in range(d) if ax not in coords)
        exact = joint.sum(axis=other) if other else joint
        order = [sorted(coords).index(c) for c in coords]
        exact = np.transpose(exact, order)
        flat = np.ravel_multi_index(
            tuple(kept_idx[:, :, c] for c in coords), (K,) * len(coords)
        )
        per_checkpoint = []
        for n in config.checkpoints:
            tvs = np.empty(m)
            for c in range(m):
                counts = np.bincount(flat[c, :n], minlength=K ** len(coords)).astype(float)
                emp = (counts / counts.sum()).reshape((K,) * len(coords))
                tvs[c] = tv_distance(emp, exact)
            per_checkpoint.append((n, float(tvs.mean()), float(tvs.std(ddof=0))))
        label = "-".join(map(str, coords))
        for n, mean, sd in per_checkpoint:
            rows.append(("tv", label, n, mean, sd))
        by_arity.setdefault(len(coords), []).append(per_checkpoint)
    for arity, tuples in sorted(by_arity.items()):
        for j, n in enumerate(config.checkpoints):
            means = [t[j][1] for t in tuples]
            sds = [t[j][2] for t in tuples]
            rows.append(("tv", f"avg{arity}d", n, float(np.mean(means)), float(np.mean(sds))))
    return rows


def run_experiment(config: ExperimentConfig) -> Path:
    """Calibrate, run all chains, and write chain CSVs, metric CSVs, and the
    reproducibility manifest into the output directory."""
    target = build_target(config.target)
    pre, calib_info = build_preconditioner(config, target)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    indices, energies, accepted = _run_all_chains(config, pre)
    values = target.lattice.values
    kept = slice(config.burn_in, config.burn_in + config.length)
    kept_idx = indices[:, kept].astype(np.int64)
    kept_energy = energies[:, kept]
    kept_accept = accepted[:, kept]

    _write_chain_csvs(out_dir, config, values, indices, energies, accepted)
    _write_scalar_metrics(
        out_dir / "metrics.csv",
        _scalar_metric_rows(config, values, kept_idx, kept_energy, kept_accept),
    )
    tv_rows = _tv_rows(config, target, kept_idx)
    if tv_rows:
        write_metric_rows(out_dir / "tv.csv", tv_rows)

    manifest = {
        "version": __version__,
        "config": config.raw,
        "kernel": config.kernel,
        "first_order_specialization": config.calibration["method"] == "none"
        and config.kernel in ("pavg", "vpdhams", "opdhams"),
        "calibration": calib_info,
        "preconditioner": None if pre is None else pre.to_dict(),
        "lattice_values": values.tolist(),
        "seeding": {
            "scheme": "numpy Philox via SeedSequence(entropy=base_seed, spawn_key=(stream,))",
            "base_seed": config.base_seed,
            "chain_streams": f"0..{config.chains - 1}",
            "calibration_stream": CALIBRATION_STREAM,
            "tuning_stream": TUNING_STREAM,
        },
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return out_dir


def read_chain_csv(path):
    """Read one chain CSV back into (draws, energies, accepted)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        d = len(header) - 4
        draws, energies, accepted = [], [], []
        for row in reader:
            draws.append([float(x) for x in row[2 : 2 + d]])
            energies.append(float(row[2 + d]))
            accepted.append(bool(int(row[3 + d])))
    return np.asarray(draws), np.asarray(energies), np.asarray(accepted)


def recompute_metrics(run_dir, out_dir=None) -> Path:
    """Recompute the metric CSVs (plus a moment summary when the target is
    enumerable) from a finished run directory."""
    run_dir = Path(run_dir)
    out_dir = run_dir if out_dir is None else Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    config = ExperimentConfig.from_dict(manifest["config"])
    target = build_target(config.target)
    chain_paths = sorted((run_dir / "chains").glob(f"{CHAIN_CSV_PREFIX}*.csv"))
    if len(chain_paths) != config.chains:
        raise ConfigError(
            f"run directory holds {len(chain_paths)} chains, config expects {config.chains}"
        )
    lattice = target.lattice
    kept = slice(config.burn_in, config.burn_in + config.length)
    records = []
    for c, path in enumerate(chain_paths):
        draws, energies, accepted = read_chain_csv(path)
        records.append(
            ChainRecord(
                draws=draws[kept],
                energies=energies[kept],
                accept_count=int(accepted[kept].sum()),
                seed=(config.base_seed, c),
                kernel_id=config.kernel,
                config=manifest["config"],
            )
        )
        if c == 0:
            kept_accept = np.empty((len(chain_paths), config.length), dtype=bool)
        kept_accept[c] = accepted[kept]
    kept_idx = np.stack([
        np.stack([lattice.index_of(r.draws[:, i]) for i in range(lattice.dim)], axis=1)
        for r in records
    ])
    kept_energy = np.stack([r.energies for r in records])
    _write_scalar_metrics(
        out_dir / "metrics.csv",
        _scalar_metric_rows(config, lattice.values, kept_idx, kept_energy, kept_accept),
    )
    tv_rows = _tv_rows(config, target, kept_idx)
    if tv_rows:
        write_metric_rows(out_dir / "tv.csv", tv_rows)
    if config.chains >= 2:
        try:
            joint = enumerate_joint(target)
            mean, second, cross = exact_moments(joint, lattice.values)
            exact = {"mean": mean, "second": second, "cross": cross}
        except EnumerationBudgetError:
            exact = None
        report = moment_report(records, exact)
        rows = []
        for family, entry in report.items():
            if entry["bias2"] is not None:
                rows.append(("moment_bias2", family, config.length, entry["bias2"]))
            if entry["variance"] is not None:
                rows.append(("moment_variance", family, config.length, entry["variance"]))
        _write_scalar_metrics(out_dir / "moments.csv", rows)
    return out_dir


def tune_command(config: ExperimentConfig, out_dir=None) -> Path:
    """Staged grid search for the configured kernel; writes the chosen
    sampler parameters and the full tuning trace as JSON."""
    if config.kernel not in ("pavg", "vpdhams", "opdhams"):
        raise ConfigError("tuning applies to the pavg/vpdhams/opdhams kernels")
    tune = config.tune
    if not tune.get("delta_grid"):
        raise ConfigError("tune.delta_grid must list candidate stepsizes")
    target = build_target(config.target)
    rng = chain_rng(config.base_seed, TUNING_STREAM)
    probe_length = int(tune.get("probe_length", 500))
    chosen, trace = staged_grid_search(
        config.kernel,
        target,
        _preconditioner_by_delta(config, target),
        {"delta": tune["delta_grid"], "phi": tune.get("phi_grid", [0.0])},
        chains=int(tune.get("probe_chains", 4)),
        length=probe_length,
        rng=rng,
        epsilon=float(tune.get("epsilon", config.sampler.epsilon)),
        beta=float(tune.get("beta", config.sampler.beta)),
        r=config.sampler.r,
        burn_in=int(tune.get("probe_burn_in", probe_length // 10)),
    )
    out_dir = Path(config.output_dir if out_dir is None else out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "tuned_config.json", "w") as fh:
        json.dump(
            {
                "kernel": config.kernel,
                "sampler": {
                    "epsilon": chosen.epsilon,
                    "delta": chosen.delta,
                    "phi": chosen.phi,
                    "beta": chosen.beta,
                    "r": chosen.r,
                },
            },
            fh,
            indent=2,
            sort_keys=True,
        )
    with open(out_dir / "tune_trace.json", "w") as fh:
        json.dump(trace.to_dict(), fh, indent=2, sort_keys=True)
    return out_dir


def calibrate_command(config: ExperimentConfig, chains_csv=None, out_dir=None) -> Path:
    """Produce and serialize a preconditioner, either from a fresh burn-in
    run or from a stored chain CSV."""
    target = build_target(config.target)
    if chains_csv is not None:
        draws, _, _ = read_chain_csv(chains_csv)
        sample = CalibrationSample.from_states(target, draws)
        pre = _preconditioner_by_delta(config, target, sample)(config.sampler.delta)
        info = {"method": config.calibration["method"], "source": str(chains_csv)}
    else:
        pre, info = build_preconditioner(config, target)
        if pre is None:
            raise ConfigError("the metropolis kernel uses no preconditioner")
    out_dir = Path(config.output_dir if out_dir is None else out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = pre.to_dict()
    payload["calibration"] = info
    with open(out_dir / "preconditioner.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return out_dir
