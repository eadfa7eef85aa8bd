"""latmc benchmark: lockstep sampler throughput and the desk CLI pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gauss_lockstep --seed 1 --seconds 30 --trace 0

Workloads (the seed replaces the configs' ``base_seed``):

* ``gauss_lockstep``: ``run_chains`` at the ``discrete_gaussian_full`` shape
  (100 chains, d=8, K=21, exact quadratic W) for all five kernels.  Small d and
  many chains, so per-chain generator loops and numpy call overhead dominate.
* ``clock_lockstep``: ``run_chains`` at the ``clock_potts_full`` shape
  (50 chains, d=400, K=7) for metropolis, pavg, vpdhams and opdhams, with
  ``calibration: none`` because the shipped gradient_diff calibration exits 1
  on this config (13 distinct burn-in moves for d=400).  Large d, so the dense
  d x d products, the m x d x K rows and the trig gradients dominate.
* ``desk_pipeline``: ``latmc.cli.main`` in-process: ``run`` on the three
  ``*_desk.yaml`` configs, ``metrics`` on each run directory, ``tune`` on
  ``clock_potts_desk.yaml``, with a tenth of the shipped chain length.
  Covers calibration, chain CSV writes, ESS/TV and CSV read-back.

All load comes from this one process with BLAS pinned to one thread; the
configs' ``workers`` pool is forced to 1.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` untraced and traced
rounds alternate and it carries the per-layer metrics (see README.md).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import ctypes
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

LOCKSTEP = {
    "gauss_lockstep": {
        "config": "discrete_gaussian_full.yaml",
        "kernels": ("metropolis", "git_gibbs", "pavg", "vpdhams", "opdhams"),
        "steps": 50,
        "burn_in": 500,
        "calibration": None,
        "rejection_free": ("git_gibbs", "pavg", "vpdhams", "opdhams"),
    },
    "clock_lockstep": {
        "config": "clock_potts_full.yaml",
        "kernels": ("metropolis", "pavg", "vpdhams", "opdhams"),
        "steps": 5,
        "burn_in": 200,
        "calibration": {"method": "none"},
        "rejection_free": (),
    },
}
DESK_CONFIGS = {
    "gaussian_desk": "discrete_gaussian_desk.yaml",
    "mixture_desk": "quadratic_mixture_desk.yaml",
    "clock_desk": "clock_potts_desk.yaml",
}
TUNE_CONFIG = "clock_desk"
# Desk chains, checkpoints and tune probes are this many times shorter than
# shipped, so that a run holds enough rounds for a steady per-command time.
# Calibration burn-ins keep their shipped length: fits need their moves.
DESK_SHORTEN = 10
WORKLOADS = tuple(LOCKSTEP) + ("desk_pipeline",)
KERNELS = LOCKSTEP["gauss_lockstep"]["kernels"]

# (name, unit) of every printed metric; BENCHMARK.json lists the same names.
END_TO_END = (
    ("chain_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
PER_LAYER = (
    [(f"steps_per_s.{k}", "1/s") for k in KERNELS]
    + [(f"run_s.{name}", "s") for name in DESK_CONFIGS]
    + [
        ("metrics_s", "s"),
        ("tune_s", "s"),
        ("samplers.calls", "count"),
        ("samplers.rng_s", "s"),
        ("samplers.rng_calls", "count"),
        ("samplers.rng_share", "ratio"),
        ("samplers.self_s", "s"),
        ("samplers.accept_ratio", "ratio"),
        ("targets.f_batch_s", "s"),
        ("targets.grad_batch_s", "s"),
        ("targets.calls", "count"),
        ("targets.points", "count"),
        ("targets.share", "ratio"),
        ("targets.enumerate_joint_s", "s"),
        ("proposals.inverse_cdf_s", "s"),
        ("proposals.over_relax_sample_s", "s"),
        ("proposals.over_relax_logprob_s", "s"),
        ("proposals.calls", "count"),
        ("proposals.rows", "count"),
        ("proposals.degenerate_rows", "count"),
        ("precondition.calibrate_s", "s"),
        ("precondition.factorize_s", "s"),
        ("precondition.calls", "count"),
        ("diagnostics.ess_s", "s"),
        ("diagnostics.tv_s", "s"),
        ("diagnostics.moments_s", "s"),
        ("diagnostics.calls", "count"),
        ("harness.read_chain_csv_s", "s"),
        ("harness.self_s", "s"),
        ("harness.bytes_written", "B"),
        ("tuning.probe_runs", "count"),
        ("tuning.self_s", "s"),
        ("cli.self_s", "s"),
        ("trace.overhead_share", "ratio"),
    ]
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for selftest.py")
    parser.add_argument("--setup-only", action="store_true", help="set up, then exit (times setup_s)")
    return parser.parse_args(argv)


def import_latmc():
    """Import latmc from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "latmc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no latmc sources under {src}")
    sys.path.insert(0, str(src))
    import latmc

    if Path(latmc.__file__).resolve().parent != (src / "latmc").resolve():
        sys.exit(f"perfbench: imported latmc from {latmc.__file__}, not from {src}")
    return latmc


class WarningCounter:
    """Counts every RuntimeWarning and shows each distinct one once."""

    def __init__(self):
        self.counts = Counter()
        self._show = warnings.showwarning

    def install(self):
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = self

    def __call__(self, message, category, filename, lineno, file=None, line=None):
        if issubclass(category, RuntimeWarning):
            key = f"{category.__name__}: {message} ({Path(filename).name}:{lineno})"
            self.counts[key] += 1
            if self.counts[key] > 1:
                return
        self._show(message, category, filename, lineno, file, line)


# -- workloads ---------------------------------------------------------------


class Op:
    """One timed operation: a ``run_chains`` call or a CLI command."""

    def __init__(self, kind, run, chain_steps):
        self.kind = kind
        self.run = run  # run(traced, tracer) -> check(); check() -> failure messages
        self.chain_steps = chain_steps


class Lockstep:
    def __init__(self, name, seed, smoke):
        from latmc.harness import ExperimentConfig, build_target, chain_rng
        from latmc.precondition import exact_quadratic_preconditioner, first_order_preconditioner

        spec = LOCKSTEP[name]
        raw = dict(ExperimentConfig.from_yaml(ROOT / "configs" / spec["config"]).raw)
        raw.update(base_seed=seed, workers=1)
        if spec["calibration"] is not None:
            raw["calibration"] = spec["calibration"]
        config = ExperimentConfig.from_dict(raw)
        self.target = build_target(config.target)
        self.sampler = config.sampler
        lattice = self.target.lattice
        method = config.calibration["method"]
        if method == "exact_quadratic":
            self.pre = exact_quadratic_preconditioner(self.target, self.sampler.delta, config.cond_threshold)
        elif method == "none":
            self.pre = first_order_preconditioner(lattice.dim, self.sampler.delta, config.cond_threshold)
        else:
            raise ValueError(f"lockstep workloads use trivial preconditioners, not {method!r}")
        self.kernels = spec["kernels"]
        self.rejection_free = spec["rejection_free"]
        self.steps = 2 if smoke else spec["steps"]
        self.burn_in = 5 if smoke else spec["burn_in"]
        self.chains = m = config.chains
        self.seed = seed
        # uniform starts drawn as latmc's harness draws them
        self.init_rngs = [chain_rng(seed, i) for i in range(m)]
        self.uniform_init = np.stack(
            [g.integers(0, lattice.n_values, size=lattice.dim) for g in self.init_rngs]
        )
        # one chain set per kernel on its own streams, continued from call to call
        self.rngs = {k: [chain_rng(seed, (j + 1) * m + i) for i in range(m)]
                     for j, k in enumerate(self.kernels)}
        self.idx = {}
        self.ops = [Op(k, self._op(k), self.chains * self.steps) for k in self.kernels]

    def traced_targets(self):
        return (self.target,)

    def start_round(self):
        pass

    def finish_round(self):
        return None

    def warm_up(self):
        """Burn the uniform starts in with metropolis (r=2, as latmc's
        calibration burn-in), start every kernel there, and make one untimed
        call per kernel."""
        from latmc.samplers import run_chains

        burn_cfg = dataclasses.replace(self.sampler, r=2)
        burnt = run_chains("metropolis", self.target, None, burn_cfg, self.burn_in,
                           self.init_rngs, self.uniform_init)
        for kernel in self.kernels:
            self.idx[kernel] = burnt.indices[:, -1].astype(np.int64)
        errors = []
        for op in self.ops:
            try:
                errors += op.run(False, None)()
            except Exception:
                errors.append(traceback.format_exc(limit=3))
        return 1 + len(self.ops), errors

    def known_failures(self):
        """opdhams started at the uniform starts themselves can meet a
        non-finite acceptance log-ratio: from a far-off-mode start the
        cumsum-built CDF rows go non-monotone and the log of a negative width
        follows.  Tried untimed for the record, outside the counted
        operations."""
        from latmc.errors import LatmcError
        from latmc.harness import chain_rng
        from latmc.samplers import run_chains

        if "opdhams" not in self.kernels:
            return {}
        lattice = self.target.lattice
        rngs = [chain_rng(self.seed, i) for i in range(self.chains)]
        init = np.stack([g.integers(0, lattice.n_values, size=lattice.dim) for g in rngs])
        try:
            run_chains("opdhams", self.target, self.pre, self.sampler, self.steps, rngs, init)
            outcome = "ok"
        except LatmcError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        return {"opdhams_from_uniform_start": outcome}

    def _op(self, kernel):
        from latmc.samplers import run_chains

        pre = None if kernel == "metropolis" else self.pre

        def run(traced, tracer):
            rngs = self.rngs[kernel]
            call = run_chains
            if traced:
                from spans import GeneratorProxy

                rngs = [GeneratorProxy(g, tracer) for g in rngs]
                call = tracer.traced_run_chains(run_chains)
            result = call(kernel, self.target, pre, self.sampler, self.steps, rngs, self.idx[kernel])
            self.idx[kernel] = result.indices[:, -1].astype(np.int64)
            return lambda: self._check(kernel, result)

        return run

    def _check(self, kernel, result):
        lattice = self.target.lattice
        f_batch = type(self.target).f_batch  # unwrapped, so checks stay out of the trace
        errors = []
        if result.indices.min() < 0 or result.indices.max() >= lattice.n_values:
            errors.append(f"{kernel}: index outside [0, {lattice.n_values})")
        if kernel in self.rejection_free and not result.accepted.all():
            errors.append(f"{kernel}: acceptance {result.accepted.mean()!r} on a rejection-free target")
        for t in sorted({0, self.steps // 2, self.steps - 1}):
            expect = f_batch(self.target, lattice.values[result.indices[:, t]])
            if not np.allclose(result.energies[:, t], expect, rtol=1e-12, atol=1e-9):
                errors.append(f"{kernel}: recorded energies differ from f_batch at step {t}")
        return errors


class DeskPipeline:
    def __init__(self, seed, smoke, scratch):
        import yaml
        from latmc.harness import ExperimentConfig, build_target
        from latmc.precondition import exact_quadratic_preconditioner

        self.scratch = scratch
        self.rounds = 0
        self.round_dir = None
        self.configs = {}
        for name, filename in DESK_CONFIGS.items():
            config = ExperimentConfig.from_yaml(ROOT / "configs" / filename)
            raw = dict(config.raw)
            raw.update(base_seed=seed, workers=1, output_dir=str(scratch / name))  # each command passes -o
            if smoke:
                raw.update(length=60, burn_in=20, checkpoints=[60])
                raw["tune"] = dict(raw["tune"], probe_length=40,
                                   delta_grid=raw["tune"]["delta_grid"][:2],
                                   phi_grid=raw["tune"]["phi_grid"][:2])
            else:
                raw.update(length=raw["length"] // DESK_SHORTEN,
                           burn_in=raw["burn_in"] // DESK_SHORTEN,
                           checkpoints=sorted({c // DESK_SHORTEN for c in raw["checkpoints"]}))
                raw["tune"] = dict(raw["tune"], probe_length=raw["tune"]["probe_length"] // DESK_SHORTEN)
            config = ExperimentConfig.from_dict(raw)
            target = build_target(config.target)
            if config.calibration["method"] == "exact_quadratic":
                exact_quadratic_preconditioner(target, config.sampler.delta, config.cond_threshold)
            path = scratch / f"{name}.yaml"
            with open(path, "w") as fh:
                yaml.safe_dump(raw, fh)
            self.configs[name] = (str(path), config)
        self.ops = [Op(f"run.{name}", self._run(name), _run_chain_steps(self.configs[name][1]))
                    for name in DESK_CONFIGS]
        self.ops += [Op(f"metrics.{name}", self._metrics(name), 0) for name in DESK_CONFIGS]
        self.ops.append(Op("tune", self._tune(), _tune_chain_steps(self.configs[TUNE_CONFIG][1])))

    def traced_targets(self):
        return ()

    def start_round(self):
        """Each round writes into fresh directories, as a first ``latmc run``
        does; rewriting the previous round's files would make ext4 flush them
        on close."""
        self.rounds += 1
        self.round_dir = self.scratch / f"round-{self.rounds}"

    def finish_round(self):
        """Bytes the round wrote; its directories are then removed."""
        written = sum(p.stat().st_size for p in self.round_dir.rglob("*") if p.is_file())
        shutil.rmtree(self.round_dir, ignore_errors=True)
        return written

    def known_failures(self):
        return {}  # see probe_calibrate.py for the shipped full configs

    def warm_up(self):
        """One short untimed ``run_chains`` call per desk target."""
        from latmc.harness import build_target
        from latmc.precondition import first_order_preconditioner
        from latmc.samplers import run_chains

        rng = np.random.default_rng(0)
        errors = []
        for _, config in self.configs.values():
            target = build_target(config.target)
            lattice = target.lattice
            pre = first_order_preconditioner(lattice.dim, config.sampler.delta, config.cond_threshold)
            init = rng.integers(0, lattice.n_values, size=(4, lattice.dim))
            try:
                run_chains(config.kernel, target, pre, config.sampler, 20, rng.spawn(4), init)
            except Exception:
                errors.append(traceback.format_exc(limit=3))
        return len(self.configs), errors

    def _run(self, name):
        path = self.configs[name][0]

        def run(traced, tracer):
            out = str(self.round_dir / name)
            return _cli(["run", "-c", path, "-o", out], out)

        return run

    def _metrics(self, name):
        def run(traced, tracer):
            out = str(self.round_dir / name)
            return _cli(["metrics", out], out)

        return run

    def _tune(self):
        path = self.configs[TUNE_CONFIG][0]

        def run(traced, tracer):
            out = str(self.round_dir / "tune")
            check = _cli(["tune", "-c", path, "-o", out], None)
            return lambda: check() + self._check_tuned(out)

        return run

    @staticmethod
    def _check_tuned(out):
        try:
            with open(Path(out) / "tuned_config.json") as fh:
                chosen = json.load(fh)["sampler"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"tune: no readable tuned_config.json ({exc})"]
        if not all(np.isfinite(float(v)) for v in chosen.values()):
            return [f"tune: non-finite tuned parameters {chosen}"]
        return []


def _run_chain_steps(config):
    """Chain-steps one ``latmc run`` samples: the chains plus the burn-in
    trajectory of a fitted calibration."""
    steps = config.chains * (config.burn_in + config.length)
    if config.calibration["method"] in ("gradient_diff", "energy_diff"):
        steps += int(config.calibration.get("burn_in_steps", 500))
    return steps


def _tune_chain_steps(config):
    """Chain-steps one ``latmc tune`` samples: calibration burn-in plus one
    probe run per stage-2 stepsize and per stage-3 phi."""
    tune = config.tune
    probe_length = int(tune.get("probe_length", 500))
    probe_steps = int(tune.get("probe_burn_in", probe_length // 10)) + probe_length
    probes = len(tune["delta_grid"]) + len(tune.get("phi_grid", [0.0]))
    steps = probes * int(tune.get("probe_chains", 4)) * probe_steps
    if config.calibration["method"] in ("gradient_diff", "energy_diff"):
        steps += int(config.calibration.get("burn_in_steps", 500))
    return steps


def _cli(argv, run_dir):
    from latmc import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)

    def check():
        errors = [] if code == 0 else [f"latmc {argv[0]} exited {code}"]
        if run_dir is not None:
            errors += _check_metrics_csv(Path(run_dir) / "metrics.csv")
        return errors

    return check


def _check_metrics_csv(path):
    import csv

    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"{path.name}: {exc}"]
    if not rows:
        return [f"{path}: no metric rows"]
    bad = []
    for row in rows:
        try:
            ok = np.isfinite(float(row["value"]))
        except ValueError:
            ok = False
        if not ok:
            bad.append(f"{row['metric']}/{row['detail']}={row['value']}")
    return [f"{path.parent.name}/metrics.csv: non-finite {bad}"] if bad else []


# -- measurement -------------------------------------------------------------


def build(workload, seed, smoke, scratch):
    if workload == "desk_pipeline":
        return DeskPipeline(seed, smoke, scratch)
    return Lockstep(workload, seed, smoke)


def time_setup(workload, seed, smoke):
    """Median wall time of fresh processes that import latmc and build the
    workload's configs, targets and trivial preconditioners."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    if smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - started)
    return samples


class Runner:
    def __init__(self, work, tracer):
        self.work = work
        self.tracer = tracer
        self.times = {}  # (kind, traced) -> list of seconds
        self.round_s = {False: [], True: []}
        self.attempted = 0
        self.failed = []
        self.bytes_written = []

    def one_round(self, traced):
        self.work.start_round()
        started = time.perf_counter()
        for op in self.work.ops:
            self.attempted += 1
            if traced:
                self.tracer.op = self.attempted
            t0 = time.perf_counter()
            try:
                check = op.run(traced, self.tracer)
                elapsed = time.perf_counter() - t0
                errors = check()
            except Exception:
                elapsed = time.perf_counter() - t0
                errors = [traceback.format_exc(limit=3)]
            self.times.setdefault((op.kind, traced), []).append(elapsed)
            if errors:
                self.failed.append({"op": self.attempted, "kind": op.kind, "errors": errors})
        self.round_s[traced].append(time.perf_counter() - started)
        written = self.work.finish_round()
        if written is not None:
            self.bytes_written.append(written)

    def op_time(self, kind, traced=False):
        """Typical time of one operation kind: the call at the 80th
        percentile, with a fifth of the calls slower.

        On a shared machine the same call runs at two speeds, uncontended
        and up to 1.8x slower, and the share of slow calls moves from run to
        run.  Mostly the slow calls are the common ones, and the 80th
        percentile reads their speed; the median, the mean and the fastest
        call follow the share of fast calls."""
        return _p80(self.times[(kind, traced)])

    def round_time(self, traced=False):
        """Sum over the round's operations of their kind's ``op_time``."""
        return sum(self.op_time(op.kind, traced) for op in self.work.ops)

    def chain_steps_per_s(self):
        """Chain-steps of one round over its ``round_time``."""
        return sum(op.chain_steps for op in self.work.ops) / self.round_time()


def run_rounds(runner, seconds, trace):
    """Rounds until ``seconds`` have passed; with tracing, untraced and traced
    rounds alternate and at least one of each runs."""
    deadline = time.perf_counter() + seconds
    traced = False
    while True:
        if traced:
            with runner.tracer.installed(runner.work.traced_targets()):
                runner.one_round(True)
        else:
            runner.one_round(False)
        if time.perf_counter() >= deadline and (not trace or runner.round_s[True]):
            return
        traced = trace and not traced


def layer_metrics(runner, tracer, work):
    totals = tracer.totals()
    rounds = len(runner.round_s[True])

    def busy(*names):
        return sum(totals[n][1] for n in names if n in totals) / rounds

    def self_time(*names):
        return sum(totals[n][2] for n in names if n in totals) / rounds

    def calls(*names):
        return sum(totals[n][0] for n in names if n in totals) / rounds

    run_chains_s = sum(totals[n][1] for n in ("samplers.run_chains",) if n in totals)
    rng_calls, rng_s = tracer.draw_totals()
    _, rng_in_chains = tracer.draw_totals("samplers.run_chains")
    in_chains = [
        end - start
        for (name, start, end, parent, _) in tracer.spans
        if name in ("targets.f_batch", "targets.grad_batch")
        and parent >= 0 and tracer.spans[parent][0] == "samplers.run_chains"
    ]
    probe_runs = sum(
        1 for (name, _, _, parent, _) in tracer.spans
        if name == "samplers.run_chains" and parent >= 0
        and tracer.spans[parent][0] == "tuning.staged_grid_search"
    )
    attempted = tracer.counts["samplers.attempted"]
    untraced = runner.round_time()
    values = {
        "samplers.calls": calls("samplers.run_chains"),
        "samplers.rng_s": rng_s / rounds,
        "samplers.rng_calls": rng_calls / rounds,
        "samplers.rng_share": rng_in_chains / run_chains_s if run_chains_s else 0.0,
        "samplers.self_s": self_time("samplers.run_chains"),
        "samplers.accept_ratio": tracer.counts["samplers.accepted"] / attempted if attempted else 0.0,
        "targets.f_batch_s": busy("targets.f_batch"),
        "targets.grad_batch_s": busy("targets.grad_batch"),
        "targets.calls": calls("targets.f_batch", "targets.grad_batch"),
        "targets.points": tracer.counts["targets.points"] / rounds,
        "targets.share": sum(in_chains) / run_chains_s if run_chains_s else 0.0,
        "targets.enumerate_joint_s": busy("targets.enumerate_joint"),
        "proposals.inverse_cdf_s": busy("proposals.inverse_cdf"),
        "proposals.over_relax_sample_s": busy("proposals.over_relax_sample"),
        "proposals.over_relax_logprob_s": busy("proposals.over_relax_logprob"),
        "proposals.calls": calls("proposals.inverse_cdf", "proposals.over_relax_sample",
                                 "proposals.over_relax_logprob"),
        "proposals.rows": tracer.counts["proposals.rows"] / rounds,
        "proposals.degenerate_rows": tracer.counts["proposals.degenerate_rows"] / rounds,
        "precondition.calibrate_s": busy("precondition.calibrate_w"),
        "precondition.factorize_s": busy("precondition.factorize"),
        "precondition.calls": calls("precondition.calibrate_w", "precondition.factorize"),
        "diagnostics.ess_s": busy("diagnostics.ess"),
        "diagnostics.tv_s": busy("diagnostics.tv"),
        "diagnostics.moments_s": busy("diagnostics.moments"),
        "diagnostics.calls": calls("diagnostics.ess", "diagnostics.tv", "diagnostics.moments"),
        "harness.read_chain_csv_s": busy("harness.read_chain_csv"),
        "harness.self_s": self_time("harness.run_experiment", "harness.recompute_metrics",
                                    "harness.tune_command", "harness.build_preconditioner"),
        "harness.bytes_written": statistics.median(runner.bytes_written) if runner.bytes_written else 0,
        "tuning.probe_runs": probe_runs / rounds,
        "tuning.self_s": self_time("tuning.staged_grid_search"),
        "cli.self_s": self_time("cli.main"),
        "trace.overhead_share": (runner.round_time(traced=True) - untraced) / untraced,
    }
    for op in work.ops:
        if op.kind in KERNELS:
            values[f"steps_per_s.{op.kind}"] = op.chain_steps / runner.op_time(op.kind)
        else:
            command, _, config = op.kind.partition(".")
            name = f"run_s.{config}" if command == "run" else f"{command}_s"
            values[name] = values.get(name, 0.0) + runner.op_time(op.kind)
    return values


def _p80(times):
    """The call time at the 80th percentile: a fifth of the calls are slower."""
    ordered = sorted(times)
    return ordered[int(0.8 * len(ordered))]


def _summary(times):
    """Call count, fastest, median, mean and 80th-percentile call time."""
    return {"calls": len(times), "fastest": min(times), "median": statistics.median(times),
            "mean": statistics.fmean(times), "p80": _p80(times)}


def blas_info():
    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        info["name"] = "unknown"
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return info
    libs = dict.fromkeys(line.split()[-1] for line in maps if "openblas" in line and ".so" in line)
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def git_sha():
    """HEAD of the git repository rooted at this checkout, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_record(args, warning_counts, extra):
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "runtime_warnings": {"total": sum(warning_counts.values()), **warning_counts},
        **extra,
    }


def main(argv=None):
    args = parse_args(argv)
    import_latmc()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}-{'setup' if args.setup_only else 'bench'}"
    scratch.mkdir()
    try:
        if args.setup_only:
            build(args.workload, args.seed, args.smoke, scratch)
            return 0
        counter = WarningCounter()
        counter.install()
        setup_samples = time_setup(args.workload, args.seed, args.smoke)
        work = build(args.workload, args.seed, args.smoke, scratch)
        warmup_ops, warmup_errors = work.warm_up()
        tracer = Tracer()
        runner = Runner(work, tracer)
        run_rounds(runner, args.seconds, args.trace == 1)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        warning_counts = dict(counter.counts)  # before the known-failure attempt
        known_failures = work.known_failures()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = runner.failed
    if warmup_errors:
        failed = [{"op": "warm-up", "errors": warmup_errors}] + failed
    trace_file, nesting = None, []
    if args.trace:
        metrics = layer_metrics(runner, tracer, work)
        names = PER_LAYER
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        trace_file = str(trace_path.relative_to(ROOT))
        nesting = tracer.check_nesting()
    else:
        metrics = {
            "chain_steps_per_s": runner.chain_steps_per_s(),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_samples),
        }
        names = END_TO_END
    record = run_record(args, warning_counts, {
        "setup_samples_s": setup_samples,
        "warmup_before_timing": {"run_chains_calls": warmup_ops, "done": warmup_ops > 0},
        "rounds": {"untraced": len(runner.round_s[False]), "traced": len(runner.round_s[True])},
        "round_s": runner.round_s,
        "op_summary_s": {f"{kind}{' traced' if traced else ''}": _summary(v) for (kind, traced), v in runner.times.items()},
        "op_s": {f"{kind}{' traced' if traced else ''}": v for (kind, traced), v in runner.times.items()},
        "failures": failed,
        "known_failures": known_failures,
        "trace_file": trace_file,
        "nesting_violations": nesting[:20],
    })
    with open(OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("run_record " + json.dumps(record))
    result = {
        "correct": not failed and not nesting,
        "attempted": warmup_ops + runner.attempted,
        "failed": len(failed),
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
