import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from latmc import harness
from latmc.cli import main as cli_main
from latmc.errors import ConfigError, NumericGuardError
from latmc.harness import (
    ExperimentConfig,
    build_preconditioner,
    build_target,
    calibrate_command,
    chain_rng,
    read_chain_csv,
    recompute_metrics,
    run_experiment,
    tune_command,
)
from latmc.samplers import run_chains

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def pin_cpu_count(monkeypatch, n):
    # _run_all_chains starts at most one worker per CPU in the process's affinity set
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def base_config(tmp_path, **overrides):
    payload = {
        "target": {"name": "discrete_gaussian", "d": 2, "k": 2, "sigma": 2.0, "rho": 0.5},
        "kernel": "vpdhams",
        "sampler": {"epsilon": 0.9, "delta": 0.25, "phi": 0.0},
        "calibration": {"method": "exact_quadratic"},
        "chains": 4,
        "length": 400,
        "burn_in": 100,
        "base_seed": 91,
        "output_dir": str(tmp_path / "run"),
        "checkpoints": [200, 400],
        "tv_coords": [[0, 1]],
    }
    payload.update(overrides)
    return ExperimentConfig.from_dict(payload)


class TestConfig:
    def test_round_trip_via_yaml(self, tmp_path):
        cfg = base_config(tmp_path)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg.raw))
        again = ExperimentConfig.from_yaml(path)
        assert again.kernel == cfg.kernel
        assert again.sampler == cfg.sampler

    def test_validation_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            base_config(tmp_path, kernel="nonsense")
        with pytest.raises(ConfigError):
            base_config(tmp_path, chains=0)
        with pytest.raises(ConfigError):
            base_config(tmp_path, checkpoints=[10_000])
        with pytest.raises(ConfigError):
            base_config(tmp_path, calibration={"method": "bogus"})
        with pytest.raises(ConfigError):
            base_config(tmp_path, sampler={"delta": -1.0})

    def test_unknown_keys_are_named(self, tmp_path):
        with pytest.raises(ConfigError, match="lenght"):
            base_config(tmp_path, lenght=10)
        with pytest.raises(ConfigError, match="burnin_steps"):
            base_config(tmp_path, calibration={"method": "energy_diff", "burnin_steps": 10})

    @pytest.mark.parametrize("coords", [[[0, 0]], [[-1, 1]], [[]]])
    def test_malformed_tv_coords_rejected_at_load(self, tmp_path, coords):
        with pytest.raises(ConfigError, match="tv_coords"):
            base_config(tmp_path, tv_coords=coords)

    def test_out_of_range_tv_coords_rejected_before_calibration(self, tmp_path):
        # the axes are checked against the target's d at load, before any command starts
        with pytest.raises(ConfigError, match=r"tv_coords entry \[0, 2\] needs distinct axes inside \[0, 2\)"):
            base_config(tmp_path, tv_coords=[[0, 2]])

    @pytest.mark.parametrize("command", ["run", "tune", "calibrate"])
    @pytest.mark.parametrize("override, named", [
        ({"tv_coords": [[0, 9]]}, "tv_coords entry [0, 9] needs distinct axes inside [0, 2)"),
        # rejection-free only with the target's own W, whichever kernel runs
        ({"target": {"name": "quadratic_mixture", "d": 2, "k": 3, "M": 2}, "kernel": "metropolis"},
         "calibration.method exact_quadratic needs a target with an exact quadratic W"),
        ({"target": {"name": "discrete_gaussian", "d": 2, "k": 2, "sigma": -1.0, "rho": 0.5}},
         "sigma must be positive"),
    ], ids=["tv_coords_out_of_range", "metropolis_exact_quadratic_without_w", "target_value"])
    def test_every_command_rejects_at_load(self, tmp_path, capsys, command, override, named):
        tune = {"delta_grid": [0.25], "probe_chains": 2, "probe_length": 50}
        payload = dict(base_config(tmp_path, tune=tune).raw, **override)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(payload))
        assert cli_main([command, "-c", str(path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_solver_typo_rejected_before_burn_in(self, tmp_path, monkeypatch):
        # W is fitted by one solver, so ``solver`` is an unknown calibration key
        def must_not_run(*args, **kwargs):
            raise AssertionError("burn-in started")

        monkeypatch.setattr(harness, "run_chains", must_not_run)
        with pytest.raises(ConfigError, match="unknown calibration key.*: solver"):
            run_experiment(base_config(tmp_path, calibration={"method": "gradient_diff", "solver": "foo"}))
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override, named", [
        ({"checkpoints": ["abc"]}, "abc"),
        ({"workers": "two"}, "two"),
        ({"cond_threshold": "x"}, "x"),
        ({"tv_coords": [["a", 1]]}, "a"),
        ({"tune": 5}, "config value"),
        ({"tune": {"delta_grid": [0.1], "probe_lenght": 50}}, "probe_lenght"),
        ({"target": {"name": "clock_potts", "side": 3, "q": 4, "couplng": 0.5}}, "couplng"),
        ({"target": {"name": "discrete_gaussian", "d": 2, "k": 2, "sigma": 2.0, "rho": 0.5,
                     "sigmma": 1.0}}, "sigmma"),
        ({"sampler": {"delta": float("nan")}}, "delta must be finite, got nan"),
        ({"sampler": {"delta": float("inf")}}, "delta must be finite, got inf"),
        ({"sampler": {"delta": 0.25, "beta": float("nan")}}, "beta must be finite, got nan"),
        ({"sampler": {"delta": 0.25, "beta": float("inf")}}, "beta must be finite, got inf"),
        ({"sampler": {"delta": 0.25, "phi": float("nan")}}, "phi must be finite, got nan"),
        ({"sampler": {"delta": 0.25, "phi": float("inf")}}, "phi must be finite, got inf"),
        ({"sampler": {"delta": 0.25, "epsilon": float("nan")}}, "epsilon must be finite, got nan"),
        ({"sampler": {"delta": 0.25, "epsilon": 1.5}}, "epsilon must lie in [0, 1]"),
        ({"sampler": {"delta": 0.25, "phi": -0.5}}, "phi must be nonnegative"),
        ({"target": {"d": 2, "k": 2}}, "target config needs a 'name'"),
        ({"target": {"name": "ising", "d": 2}}, "unknown target 'ising'"),
        ({"calibration": {"method": "gradient_diff", "burn_in_kernel": "bogus"}},
         "calibration.burn_in_kernel"),
        ({"calibration": {"method": "gradient_diff", "burn_in_kernel": "git_gibbs"}},
         "calibration.burn_in_kernel"),
        # the burn-in runs at sampler.delta, so burn_in_delta is an unknown key
        ({"calibration": {"method": "energy_diff", "burn_in_delta": "x"}},
         "unknown calibration key(s): burn_in_delta"),
        ({"calibration": {"method": "energy_diff", "burn_in_delta": float("nan")}},
         "unknown calibration key(s): burn_in_delta"),
        ({"calibration": {"method": "energy_diff", "burn_in_delta": -1.0}},
         "unknown calibration key(s): burn_in_delta"),
        ({"calibration": {"method": "gradient_diff", "solver": "lyapunov"}}, "unknown calibration key(s): solver"),
        ({"kernel": "git_gibbs", "calibration": {"method": "none"}}, "calibration.method exact_quadratic"),
        ({"cond_threshold": float("nan")}, "cond_threshold must be a number, got nan"),
        ({"target": {"name": "quadratic_mixture", "d": 2, "k": 3, "M": 2}}, "calibration.method"),
        ({"target": {"name": "clock_potts", "side": 1, "q": 4}}, "side must be >= 2"),
        ({"target": {"name": "clock_potts", "side": 3, "q": 1}}, "q must be >= 2"),
        ({"target": {"name": "discrete_gaussian", "d": 2, "k": 0, "sigma": 2.0, "rho": 0.5}}, "k must be >= 1"),
        ({"target": {"name": "quadratic_mixture", "d": 2, "k": 3, "M": 0}}, "need at least one mixture component"),
        ({"target": {"name": "quadratic_mixture", "d": 2, "k": 3, "M": 2,
                     "means": [[0.0, 0.0], [1.0, 1.0]], "variances": [1.0, 0.0]}},
         "component variances must be positive"),
        ({"target": {"name": "quadratic_mixture", "d": 2, "k": 3, "M": 2,
                     "means": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], "variances": [1.0, 2.0]}},
         "means must be (n_components, dim)"),
        ({"target": {"name": "quadratic_mixture", "d": 2, "k": 3, "M": 2,
                     "means": [[0.0, 0.0], [1.0, 1.0]], "variances": [1.0, 2.0, 3.0]}},
         "variances must have one entry per component"),
        ({"target": {"name": "quadratic", "k": 2, "w_true": [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]}},
         "W_true must be dim x dim"),
        ({"target": {"name": "quadratic", "k": 2, "w_true": [[-1.0, 0.5], [0.0, -1.0]]}}, "W_true must be symmetric"),
        ({"target": {"name": "quadratic", "k": 2, "w_true": [[-1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0, 0.0]}},
         "b must have length dim"),
    ], ids=["checkpoints", "workers", "cond_threshold", "tv_coords", "tune", "tune_key",
            "clock_key", "gaussian_key", "delta_nan", "delta_inf", "beta_nan", "beta_inf",
            "phi_nan", "phi_inf", "epsilon_nan", "epsilon_range", "phi_negative", "target_name_missing",
            "target_name_unknown", "burn_in_kernel", "burn_in_kernel_git_gibbs",
            "burn_in_delta", "burn_in_delta_nan", "burn_in_delta_negative", "solver",
            "git_gibbs_without_exact_w", "cond_threshold_nan", "exact_quadratic_without_w",
            "clock_side", "clock_q", "gaussian_k", "mixture_no_component", "mixture_zero_variance",
            "mixture_means_width", "mixture_variances_length", "quadratic_w_not_square", "quadratic_w_asymmetric",
            "quadratic_b_length"])
    def test_bad_values_exit_2_naming_them(self, tmp_path, capsys, override, named):
        payload = dict(base_config(tmp_path).raw, **override)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(payload))
        assert cli_main(["run", "-c", str(path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override, named", [
        ({"target": {"name": "clock_potts", "side": 3, "q": 4, "coupling": float("nan")}},
         "target.coupling must be finite"),
        ({"target": {"name": "clock_potts", "side": 3, "q": 4, "coupling": float("inf")}},
         "target.coupling must be finite"),
        ({"target": {"name": "discrete_gaussian", "d": 2, "k": 2, "sigma": float("inf"), "rho": 0.5}},
         "target.sigma must be finite"),
        ({"target": {"name": "discrete_gaussian", "d": 2, "k": 2, "sigma": float("nan"), "rho": 0.5}},
         "target.sigma must be finite"),
        ({"target": {"name": "quadratic_mixture", "d": 2, "k": 3, "M": 2,
                     "means": [[0.0, float("nan")], [1.0, 1.0]], "variances": [1.0, 2.0]}},
         "target.means must be finite"),
        ({"target": {"name": "quadratic_mixture", "d": 2, "k": 3, "M": 2,
                     "means": [[0.0, 0.0], [1.0, 1.0]], "variances": [1.0, float("inf")]}},
         "target.variances must be finite"),
        ({"target": {"name": "quadratic", "k": 2, "w_true": [[-1.0, 0.0], [0.0, -1.0]], "b": [float("nan"), 0.0]}},
         "target.b must be finite"),
        # no checkpoint would leave a tv.csv holding only its header
        ({"checkpoints": []}, "checkpoints must list at least one step in [1, length]"),
    ], ids=["clock_coupling_nan", "clock_coupling_inf", "gaussian_sigma_inf", "gaussian_sigma_nan",
            "mixture_means_nan", "mixture_variances_inf", "quadratic_b_nan", "checkpoints_empty"])
    def test_non_finite_target_values_and_empty_checkpoints_exit_2(self, tmp_path, capsys, override, named):
        payload = dict(base_config(tmp_path).raw, calibration={"method": "none"}, **override)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(payload))
        assert cli_main(["run", "-c", str(path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override, named", [
        ({"checkpoints": [200.7, 400]}, "checkpoints must be an integer, got 200.7"),
        ({"chains": 2.5}, "chains must be an integer, got 2.5"),
        ({"length": "400"}, "length must be an integer, got '400'"),
        ({"burn_in": 1.5}, "burn_in must be an integer"),
        ({"workers": True}, "workers must be an integer, got True"),
        ({"base_seed": 91.5}, "base_seed must be an integer"),
        ({"tv_coords": [[0, 1.5]]}, "tv_coords must be an integer, got 1.5"),
        ({"sampler": {"delta": 0.25, "r": 1.5}}, "sampler.r must be an integer"),
        ({"calibration": {"method": "gradient_diff", "burn_in_steps": 300.5}},
         "calibration.burn_in_steps must be an integer"),
        ({"target": {"name": "discrete_gaussian", "d": 2.5, "k": 2, "sigma": 2.0, "rho": 0.5}},
         "d must be an integer, got 2.5"),
        ({"chains": 0}, "chains must be >= 2, got 0"),
        ({"chains": 1}, "chains must be >= 2, got 1"),
        ({"length": 1}, "length must be >= 2, got 1"),
    ], ids=["checkpoints", "chains", "length", "burn_in", "workers", "base_seed", "tv_coords",
            "sampler_r", "burn_in_steps", "target_d", "chains_range", "one_chain", "one_draw"])
    def test_integer_fields_do_not_truncate(self, tmp_path, capsys, override, named):
        payload = dict(base_config(tmp_path).raw, **override)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(payload))
        assert cli_main(["run", "-c", str(path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_integral_floats_are_integers(self, tmp_path):
        cfg = base_config(tmp_path, chains=4.0, checkpoints=[200.0, 400.0], tv_coords=[[0.0, 1]])
        assert cfg.chains == 4 and type(cfg.chains) is int
        assert cfg.checkpoints == [200, 400] and all(type(c) is int for c in cfg.checkpoints)
        assert cfg.tv_coords == [(0, 1)] and type(cfg.tv_coords[0][0]) is int

    @pytest.mark.parametrize("override, named", [
        ({"probe_chains": "x"}, "tune.probe_chains must be an integer, got 'x'"),
        ({"probe_length": 2.5}, "tune.probe_length must be an integer, got 2.5"),
        # probes burn in for probe_length // 10 steps at sampler.epsilon and sampler.beta
        ({"probe_burn_in": -1}, "unknown tune key(s): probe_burn_in"),
        ({"epsilon": "x"}, "unknown tune key(s): epsilon"),
        ({"beta": [1.0]}, "unknown tune key(s): beta"),
        ({"delta_grid": ["a"]}, "bad tune value"),
        ({"epsilon": float("nan")}, "unknown tune key(s): epsilon"),
        ({"beta": float("inf")}, "unknown tune key(s): beta"),
        ({"delta_grid": [0.25, float("nan")]}, "delta must be finite, got nan"),
        ({"delta_grid": [0.25, -1.0]}, "delta must be positive"),
        ({"phi_grid": [0.0, float("inf")]}, "phi must be finite, got inf"),
        ({"phi_grid": []}, "tune.phi_grid must list at least one phi"),
        ({"delta_grid": []}, "tune.delta_grid must list candidate stepsizes"),
        # a bad delta is found under an empty phi grid too
        ({"delta_grid": [-1.0], "phi_grid": []}, "delta must be positive"),
        # the energy ESS that ranks the probes needs two chains of two draws
        ({"probe_chains": 1}, "tune.probe_chains must be >= 2, got 1"),
        ({"probe_length": 1}, "tune.probe_length must be >= 2, got 1"),
    ], ids=["probe_chains", "probe_length", "probe_burn_in", "epsilon", "beta", "delta_grid",
            "epsilon_nan", "beta_inf", "delta_grid_nan", "delta_grid_negative", "phi_grid_inf",
            "phi_grid_empty", "delta_grid_empty", "delta_grid_negative_phi_grid_empty", "probe_chains_range",
            "probe_length_range"])
    def test_bad_tune_values_exit_2_naming_them(self, tmp_path, capsys, override, named):
        tune = dict({"delta_grid": [0.25], "probe_chains": 2, "probe_length": 50}, **override)
        payload = dict(base_config(tmp_path).raw, tune=tune)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(payload))
        assert cli_main(["tune", "-c", str(path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_malformed_tune_block_fails_run_at_load(self, tmp_path, capsys):
        payload = dict(base_config(tmp_path).raw, tune={"delta_grid": [0.25], "probe_chains": "x"})
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(payload))
        assert cli_main(["run", "-c", str(path)]) == 2
        assert "tune.probe_chains must be an integer, got 'x'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_blocks_hold_every_default(self, tmp_path):
        cfg = base_config(tmp_path, sampler={"delta": 0.25, "r": 3}, calibration={"burn_in_steps": 300.0},
                          tune={"delta_grid": [1]})
        assert cfg.calibration == {
            "method": "none", "burn_in_kernel": "metropolis", "burn_in_steps": 300, "burn_in_r": 3,
        }
        assert cfg.tune == {"delta_grid": [1.0], "phi_grid": [0.0], "probe_chains": 4, "probe_length": 500}
        assert type(cfg.calibration["burn_in_steps"]) is int and type(cfg.tune["delta_grid"][0]) is float
        assert cfg.raw["calibration"] == {"method": "none", "burn_in_steps": 300}
        assert cfg.raw["tune"] == {"delta_grid": [1]}
        assert base_config(tmp_path).calibration["burn_in_r"] == 2

    def test_target_keys_left_out_take_factory_defaults(self):
        mixture = build_target({"name": "quadratic_mixture"})
        assert (mixture.lattice.dim, mixture.lattice.n_values, len(mixture.means)) == (10, 21, 9)
        assert build_target({"name": "clock_potts", "side": 2, "q": 3}).coupling == 1.0
        quadratic = build_target({"name": "quadratic", "k": 1, "w_true": [[-1.0, 0.0], [0.0, -1.0]]})
        assert np.array_equal(quadratic.b, [0.0, 0.0])

    def test_example_configs_parse(self):
        paths = sorted(CONFIGS.glob("*.yaml"))
        for path in paths:
            cfg = ExperimentConfig.from_yaml(path)
            build_target(cfg.target)
        assert len(paths) == 6  # every shipped config was parsed


class TestPreconditionerResolution:
    def test_exact_quadratic(self, tmp_path):
        cfg = base_config(tmp_path)
        target = build_target(cfg.target)
        pre, info = build_preconditioner(cfg)
        assert info["method"] == "exact_quadratic"
        assert np.array_equal(pre.W, target.W_true)

    def test_none_is_first_order(self, tmp_path):
        cfg = base_config(tmp_path, calibration={"method": "none"})
        target = build_target(cfg.target)
        pre, info = build_preconditioner(cfg)
        assert np.all(pre.W == 0)
        assert pre.lam == pytest.approx(cfg.sampler.delta)

    @pytest.mark.parametrize("method", ["gradient_diff", "energy_diff"])
    def test_burn_in_calibration_recovers_quadratic(self, tmp_path, method):
        cfg = base_config(
            tmp_path,
            calibration={"method": method, "burn_in_steps": 400, "burn_in_r": 2},
        )
        target = build_target(cfg.target)
        pre, info = build_preconditioner(cfg)
        assert np.abs(pre.W - target.W_true).max() < 1e-8
        assert info["burn_in_kernel"] == "metropolis"

    def test_metropolis_needs_no_preconditioner(self, tmp_path):
        cfg = base_config(tmp_path, kernel="metropolis")
        pre, _ = build_preconditioner(cfg)
        assert pre is None


class TestRunExperiment:
    def test_artifacts_and_determinism(self, tmp_path):
        cfg = base_config(tmp_path)
        out = run_experiment(cfg)
        metrics = (out / "metrics.csv").read_bytes()
        tv = (out / "tv.csv").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["base_seed"] == 91
        assert manifest["preconditioner"]["kind"] in ("cholesky", "eigen")

        cfg2 = base_config(tmp_path, output_dir=str(tmp_path / "run2"))
        out2 = run_experiment(cfg2)
        assert (out2 / "metrics.csv").read_bytes() == metrics
        assert (out2 / "tv.csv").read_bytes() == tv

    def test_chain_csv_schema(self, tmp_path):
        cfg = base_config(tmp_path)
        out = run_experiment(cfg)
        target = build_target(cfg.target)
        path = out / "chains" / "chain_0000.csv"
        header = path.read_text().splitlines()[0]
        assert header == "chain,t,s_1,s_2,energy,accepted"
        indices, energies, accepted = read_chain_csv(path, target.lattice)
        draws = target.lattice.values[indices]
        assert draws.shape == (cfg.burn_in + cfg.length, 2)
        for i in (0, 57, 499):
            assert abs(target.f(draws[i]) - energies[i]) < 1e-10

    @pytest.mark.parametrize("block", [None, 7])
    def test_chain_csv_bytes_are_the_csv_writer_rendering(self, tmp_path, monkeypatch, block):
        # the reference rendering: the row-by-row csv.writer loop that wrote
        # chain CSVs before they were written in blocks of rows
        def csv_writer_rendering(c, values, indices, energies, accepted):
            buf = io.StringIO(newline="")
            writer = csv.writer(buf)
            d = indices.shape[2]
            writer.writerow(["chain", "t"] + [f"s_{i + 1}" for i in range(d)] + ["energy", "accepted"])
            pts = values[indices[c]]
            for t in range(indices.shape[1]):
                row = [c, t]
                row += [repr(float(x)) for x in pts[t]]
                row += [repr(float(energies[c, t])), int(accepted[c, t])]
                writer.writerow(row)
            return buf.getvalue().encode()

        if block is not None:
            monkeypatch.setattr(harness, "CSV_BLOCK_ROWS", block)
        written = {}
        write = harness._write_chain_csvs

        def capture(out_dir, values, indices, energies, accepted):
            written.update(values=values, indices=indices, energies=energies, accepted=accepted)
            return write(out_dir, values, indices, energies, accepted)

        monkeypatch.setattr(harness, "_write_chain_csvs", capture)
        cfg = base_config(tmp_path, target={"name": "discrete_gaussian", "d": 3, "k": 2, "sigma": 2.0, "rho": 0.5})
        out = run_experiment(cfg)
        values, indices = written["values"], written["indices"]
        assert values.min() < 0.0 and indices.shape[2] >= 2
        assert indices.shape[1] > harness.CSV_BLOCK_ROWS and indices.shape[1] % harness.CSV_BLOCK_ROWS
        lattice = build_target(cfg.target).lattice
        for c in range(cfg.chains):
            path = out / "chains" / f"chain_{c:04d}.csv"
            assert path.read_bytes() == csv_writer_rendering(c, **written)
            read, energies, accepted = read_chain_csv(path, lattice, cfg.burn_in + cfg.length)
            assert np.array_equal(read, indices[c])
            assert np.array_equal(energies, written["energies"][c])
            assert np.array_equal(accepted, written["accepted"][c])

    def test_quadratic_run_reports_unit_acceptance(self, tmp_path):
        cfg = base_config(tmp_path)
        out = run_experiment(cfg)
        rows = (out / "metrics.csv").read_text().splitlines()
        table = {tuple(r.split(",")[:2]): r.split(",")[3] for r in rows[1:]}
        assert float(table[("acceptance_rate", "mean")]) == 1.0
        for detail in ("min", "median", "max", "energy"):
            assert ("ess", detail) in table

    def test_infeasible_enumeration_downgraded(self, tmp_path):
        cfg = base_config(
            tmp_path,
            target={"name": "clock_potts", "side": 4, "q": 5, "coupling": 1.0},
            kernel="metropolis",
            sampler={"r": 1},
            calibration={"method": "none"},
            chains=2,
            length=50,
            burn_in=10,
            checkpoints=[50],
            tv_coords=[[0, 1]],
        )
        with pytest.warns(UserWarning, match="TV metrics omitted"):
            out = run_experiment(cfg)
        assert not (out / "tv.csv").exists()
        assert (out / "metrics.csv").exists()

    def test_workers_do_not_change_results(self, tmp_path, monkeypatch):
        # three workers split five chains 1 + 2 + 2
        pin_cpu_count(monkeypatch, 3)
        out1 = run_experiment(base_config(tmp_path, output_dir=str(tmp_path / "w1"), chains=5))
        out3 = run_experiment(base_config(tmp_path, output_dir=str(tmp_path / "w3"), chains=5, workers=3))
        names = [f"chains/chain_{c:04d}.csv" for c in range(5)] + ["metrics.csv", "tv.csv"]
        assert sorted(str(p.relative_to(out3)) for p in out3.glob("chains/*")) == names[:5]
        for name in names:
            assert (out1 / name).read_bytes() == (out3 / name).read_bytes(), name

    def test_worker_blocks_gather_into_the_compact_store(self, tmp_path, monkeypatch):
        pin_cpu_count(monkeypatch, 3)
        cfg = base_config(tmp_path, chains=5, length=30, burn_in=5, checkpoints=[30])
        pre = build_preconditioner(cfg)[0]
        one = harness._run_all_chains(cfg, pre)
        three = harness._run_all_chains(base_config(tmp_path, chains=5, length=30, burn_in=5, checkpoints=[30], workers=3), pre)
        assert one[0].dtype == three[0].dtype == np.uint8
        for a, b in zip(one, three):
            assert a.shape[:2] == (5, 35) and a.dtype == b.dtype and np.array_equal(a, b)

    def test_one_cpu_runs_every_worker_in_process(self, tmp_path, monkeypatch):
        # workers: 4 on one CPU samples every chain in this process and writes what workers: 1 writes
        out1 = run_experiment(base_config(tmp_path, output_dir=str(tmp_path / "w1"), chains=5))
        pin_cpu_count(monkeypatch, 1)
        sampled = []  # a worker process appends to its own copy, which this process never sees

        def counted(*args):
            sampled.append(len(args[5]))  # the generators, one per chain
            return run_chains(*args)

        monkeypatch.setattr(harness, "run_chains", counted)
        out4 = run_experiment(base_config(tmp_path, output_dir=str(tmp_path / "w4"), chains=5, workers=4))
        assert sampled == [5]
        for name in [f"chains/chain_{c:04d}.csv" for c in range(5)] + ["metrics.csv", "tv.csv"]:
            assert (out1 / name).read_bytes() == (out4 / name).read_bytes(), name
        assert json.loads((out4 / "manifest.json").read_text())["config"]["workers"] == 4

    def test_metrics_read_back_into_the_compact_store(self, tmp_path, monkeypatch):
        out = run_experiment(base_config(tmp_path))
        seen = []
        monkeypatch.setattr(harness, "_write_metrics", lambda *args, **kwargs: seen.append(args[2:5]))
        recompute_metrics(out, tmp_path / "redo")
        ((indices, energies, accepted),) = seen
        assert (indices.dtype, energies.dtype, accepted.dtype) == (np.uint8, np.float64, np.bool_)
        assert indices.shape == (4, 500, 2)

    def test_metrics_recompute_matches(self, tmp_path):
        cfg = base_config(tmp_path)
        out = run_experiment(cfg)
        metrics = (out / "metrics.csv").read_bytes()
        tv = (out / "tv.csv").read_bytes()
        redo = tmp_path / "redo"
        recompute_metrics(out, redo)
        assert (redo / "metrics.csv").read_bytes() == metrics
        assert (redo / "tv.csv").read_bytes() == tv
        moments = (redo / "moments.csv").read_text().splitlines()
        assert any(row.startswith("moment_bias2,mean") for row in moments)

    def test_rerun_with_fewer_chains_replaces_the_earlier_run(self, tmp_path):
        out = run_experiment(base_config(tmp_path))
        recompute_metrics(out)  # moments.csv next to the run's own tables
        (out / "notes.txt").write_text("kept")
        run_experiment(base_config(tmp_path, chains=2, tv_coords=[]))
        assert sorted(p.name for p in (out / "chains").iterdir()) == ["chain_0000.csv", "chain_0001.csv"]
        assert not (out / "tv.csv").exists() and not (out / "moments.csv").exists()
        assert (out / "notes.txt").read_text() == "kept"
        metrics = (out / "metrics.csv").read_bytes()
        recompute_metrics(out, tmp_path / "redo")
        assert (tmp_path / "redo" / "metrics.csv").read_bytes() == metrics
        assert not (tmp_path / "redo" / "tv.csv").exists()

    def test_metrics_enumerate_the_joint_once(self, tmp_path, monkeypatch):
        out = run_experiment(base_config(tmp_path))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_joint(*args, **kwargs)

        enumerate_joint = harness.enumerate_joint
        monkeypatch.setattr(harness, "enumerate_joint", counted)
        recompute_metrics(out, tmp_path / "redo")
        assert len(calls) == 1
        assert (tmp_path / "redo" / "tv.csv").exists()
        assert (tmp_path / "redo" / "moments.csv").read_text().count("moment_bias2") == 3


def _set_energy_cell(text, cell):
    """Chain CSV text with the energy of its fifth data row replaced by ``cell``."""
    lines = text.splitlines()
    fields = lines[5].split(",")
    fields[-2] = cell
    lines[5] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _reverse_rows(text):
    """The chain CSV with its header kept and its data rows in reverse order."""
    header, *rows = text.splitlines()
    return "\n".join([header, *reversed(rows)]) + "\n"


STEP_ORDER = r"rows are not one chain's steps t = 0, 1, \.\.\., 499 in order"


def _set_chain_cell(text, row, chain):
    lines = text.splitlines()
    lines[row] = ",".join([str(chain), *lines[row].split(",")[1:]])
    return "\n".join(lines) + "\n"


class TestMalformedRunDirectory:
    @pytest.mark.parametrize("keep", [
        lambda text: "\n".join(text.splitlines()[:100]) + "\n",
        lambda text: text[: len(text) - 7],
        lambda text: text.splitlines()[0] + "\n",
        lambda text: text[: len(text) - 2] + "2\n",
        lambda text: text.replace("\n", "\nx", 1),
        lambda text: text.replace("\n", ",0\n").replace(",0\n", "\n", 1),
        lambda text: _set_energy_cell(text, "nan"),
        lambda text: _set_energy_cell(text, "-inf"),
        lambda text: text.split("\n", 1)[1],
    ], ids=["rows_missing", "cut_inside_row", "header_only", "accept_flag", "text_cell",
            "extra_field", "nan_energy", "inf_energy", "header_missing"])
    def test_truncated_chain_csv(self, tmp_path, capsys, keep):
        out = run_experiment(base_config(tmp_path))
        path = out / "chains" / "chain_0001.csv"
        path.write_text(keep(path.read_text()))
        with pytest.raises(ConfigError, match="chain_0001.csv"):
            recompute_metrics(out, tmp_path / "redo")
        assert cli_main(["metrics", str(out), "-o", str(tmp_path / "redo")]) == 2

    def test_missing_chain_csv(self, tmp_path, capsys):
        out = run_experiment(base_config(tmp_path))
        (out / "chains" / "chain_0002.csv").unlink()
        assert cli_main(["metrics", str(out), "-o", str(tmp_path / "redo")]) == 2
        assert "chain_0002.csv" in capsys.readouterr().err
        assert not (tmp_path / "redo").exists()

    @pytest.mark.parametrize("damage", [
        lambda text: text[: len(text) // 2],
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "config"}),
        lambda text: json.dumps([json.loads(text)]),
        None,
    ], ids=["truncated", "no_config", "not_a_mapping", "missing"])
    def test_broken_manifest(self, tmp_path, capsys, damage):
        out = run_experiment(base_config(tmp_path))
        path = out / "manifest.json"
        if damage is None:
            path.unlink()
        else:
            path.write_text(damage(path.read_text()))
        assert cli_main(["metrics", str(out), "-o", str(tmp_path / "redo")]) == 2
        assert "manifest.json" in capsys.readouterr().err
        assert not (tmp_path / "redo").exists()

    def test_state_value_off_the_lattice(self, tmp_path):
        out = run_experiment(base_config(tmp_path))
        path = out / "chains" / "chain_0002.csv"
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[2] = "0.5"
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=r"chain_0002.csv.*off the lattice"):
            recompute_metrics(out, tmp_path / "redo")

    @pytest.mark.parametrize("dim, rows, cell, match", [
        (3, None, None, r"states have width 2, the target has d = 3"),
        (2, 499, None, r"500 rows, the config's burn_in \+ length is 499"),
        (2, 500, "0.5", r"a state value is off the lattice"),
    ], ids=["width", "row_count", "off_lattice"])
    def test_read_chain_csv_checks_the_lattice_and_rows(self, tmp_path, dim, rows, cell, match):
        out = run_experiment(base_config(tmp_path))
        path = out / "chains" / "chain_0003.csv"
        if cell is not None:
            lines = path.read_text().splitlines()
            fields = lines[9].split(",")
            fields[3] = cell
            lines[9] = ",".join(fields)
            path.write_text("\n".join(lines) + "\n")
        target = build_target({"name": "discrete_gaussian", "d": dim, "k": 2, "sigma": 2.0, "rho": 0.5})
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: {match}"):
            read_chain_csv(path, target.lattice, rows)

    @pytest.mark.parametrize("damage, chain, match", [
        (_reverse_rows, None, STEP_ORDER),
        (lambda text: _set_chain_cell(text, 40, 2), None, STEP_ORDER),
        (lambda text: text, 2, r"rows are chain 3's, the file name says chain 2"),
    ], ids=["rows_shuffled", "two_chains", "another_chain"])
    def test_read_chain_csv_needs_one_chain_in_step_order(self, tmp_path, damage, chain, match):
        out = run_experiment(base_config(tmp_path))
        path = out / "chains" / "chain_0003.csv"
        path.write_text(damage(path.read_text()))
        target = build_target({"name": "discrete_gaussian", "d": 2, "k": 2, "sigma": 2.0, "rho": 0.5})
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: {match}"):
            read_chain_csv(path, target.lattice, 500, chain=chain)

    def test_metrics_over_a_shuffled_chain_csv_exits_2(self, tmp_path, capsys):
        out = run_experiment(base_config(tmp_path))
        path = out / "chains" / "chain_0002.csv"
        path.write_text(_reverse_rows(path.read_text()))
        assert cli_main(["metrics", str(out), "-o", str(tmp_path / "redo")]) == 2
        assert "chain_0002.csv: rows are not one chain's steps" in capsys.readouterr().err
        assert not (tmp_path / "redo").exists()

    def test_metrics_over_another_chains_csv_exits_2(self, tmp_path, capsys):
        out = run_experiment(base_config(tmp_path))
        chains = out / "chains"
        (chains / "chain_0001.csv").write_bytes((chains / "chain_0000.csv").read_bytes())
        assert cli_main(["metrics", str(out), "-o", str(tmp_path / "redo")]) == 2
        assert "chain_0001.csv: rows are chain 0's, the file name says chain 1" in capsys.readouterr().err
        assert not (tmp_path / "redo").exists()

    def test_calibrate_from_chain_csv_of_another_dimension(self, tmp_path):
        out = run_experiment(base_config(tmp_path))
        cfg = base_config(
            tmp_path,
            target={"name": "discrete_gaussian", "d": 3, "k": 2, "sigma": 2.0, "rho": 0.5},
            calibration={"method": "gradient_diff"},
            output_dir=str(tmp_path / "cal"),
        )
        with pytest.raises(ConfigError, match=r"chain_0000.csv: states have width 2.*d = 3"):
            calibrate_command(cfg, chains_csv=out / "chains" / "chain_0000.csv")


class TestCommands:
    def test_tune_writes_choice_and_trace(self, tmp_path):
        cfg = base_config(
            tmp_path,
            tune={"delta_grid": [0.25], "phi_grid": [0.0], "probe_chains": 2, "probe_length": 60},
        )
        out = tune_command(cfg)
        chosen = json.loads((out / "tuned_config.json").read_text())
        assert chosen["sampler"]["delta"] == 0.25
        trace = json.loads((out / "tune_trace.json").read_text())
        assert trace["deltas"] == [0.25]
        # rejection-free target: the probe observes rate one
        assert trace["rates"] == [1.0]

    def test_tune_five_candidate_grid_all_rejection_free(self, tmp_path):
        cfg = base_config(
            tmp_path,
            tune={
                "delta_grid": [0.05, 0.1, 0.25, 0.5, 1.0],
                "phi_grid": [0.0],
                "probe_chains": 2,
                "probe_length": 60,
            },
        )
        out = tune_command(cfg)
        trace = json.loads((out / "tune_trace.json").read_text())
        assert len(trace["deltas"]) == 5
        # exact-W quadratic target: every probe observes acceptance one
        assert trace["rates"] == [1.0] * 5

    def test_tune_deterministic(self, tmp_path):
        tune = {"delta_grid": [0.1, 0.25], "phi_grid": [0.0, 0.3], "probe_chains": 2, "probe_length": 60}
        out1 = tune_command(base_config(tmp_path, tune=tune, output_dir=str(tmp_path / "t1")))
        out2 = tune_command(base_config(tmp_path, tune=tune, output_dir=str(tmp_path / "t2")))
        assert (out1 / "tuned_config.json").read_bytes() == (out2 / "tuned_config.json").read_bytes()

    def test_calibrate_from_chain_csv(self, tmp_path):
        cfg = base_config(tmp_path)
        out = run_experiment(cfg)
        cal_cfg = base_config(
            tmp_path,
            calibration={"method": "gradient_diff"},
            output_dir=str(tmp_path / "cal"),
        )
        cal_out = calibrate_command(cal_cfg, chains_csv=out / "chains" / "chain_0000.csv")
        payload = json.loads((cal_out / "preconditioner.json").read_text())
        target = build_target(cfg.target)
        assert np.abs(np.asarray(payload["W"]) - target.W_true).max() < 1e-8

    @pytest.mark.parametrize("method", ["none", "exact_quadratic"])
    def test_calibrate_from_chain_csv_needs_a_fitting_method(self, tmp_path, method):
        out = run_experiment(base_config(tmp_path))
        cfg = base_config(tmp_path, calibration={"method": method}, output_dir=str(tmp_path / "cal"))
        with pytest.raises(ConfigError, match="needs gradient_diff or energy_diff"):
            calibrate_command(cfg, chains_csv=out / "chains" / "chain_0000.csv")
        assert not (tmp_path / "cal").exists()

    def test_calibrate_metropolis_without_chain_csv(self, tmp_path):
        cfg = base_config(tmp_path, kernel="metropolis", output_dir=str(tmp_path / "cal"))
        with pytest.raises(ConfigError, match="uses no preconditioner"):
            calibrate_command(cfg)
        assert not (tmp_path / "cal").exists()

    def test_calibrate_fresh_burn_in(self, tmp_path):
        cfg = base_config(
            tmp_path,
            calibration={"method": "energy_diff", "burn_in_steps": 300, "burn_in_r": 2},
            output_dir=str(tmp_path / "cal2"),
        )
        out = calibrate_command(cfg)
        payload = json.loads((out / "preconditioner.json").read_text())
        assert payload["calibration"]["method"] == "energy_diff"


class TestCli:
    def _write_cfg(self, tmp_path, **overrides):
        cfg = base_config(tmp_path, **overrides)
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg.raw))
        return path, cfg

    def test_run_and_metrics_subcommands(self, tmp_path, capsys):
        path, cfg = self._write_cfg(tmp_path)
        assert cli_main(["run", "-c", str(path)]) == 0
        assert cli_main(["metrics", cfg.output_dir]) == 0
        assert (Path(cfg.output_dir) / "moments.csv").exists()

    def test_tune_subcommand(self, tmp_path, capsys):
        path, cfg = self._write_cfg(
            tmp_path,
            tune={"delta_grid": [0.25], "phi_grid": [0.0], "probe_chains": 2, "probe_length": 50},
        )
        assert cli_main(["tune", "-c", str(path)]) == 0
        assert (Path(cfg.output_dir) / "tune_trace.json").exists()

    def test_calibrate_subcommand(self, tmp_path, capsys):
        path, cfg = self._write_cfg(
            tmp_path, calibration={"method": "gradient_diff", "burn_in_steps": 300, "burn_in_r": 2}
        )
        assert cli_main(["calibrate", "-c", str(path)]) == 0
        assert (Path(cfg.output_dir) / "preconditioner.json").exists()

    @pytest.mark.parametrize("kernel", ["metropolis", "git_gibbs"])
    def test_tune_rejects_a_kernel_without_gradients(self, tmp_path, capsys, kernel):
        tune = {"delta_grid": [0.25], "probe_chains": 2, "probe_length": 50}
        path, cfg = self._write_cfg(tmp_path, kernel=kernel, tune=tune)
        assert cli_main(["tune", "-c", str(path)]) == 2
        assert "tuning applies to the pavg/vpdhams/opdhams kernels" in capsys.readouterr().err
        assert not Path(cfg.output_dir).exists()

    def test_calibrate_from_a_headerless_chain_csv_exits_2(self, tmp_path, capsys):
        path, cfg = self._write_cfg(tmp_path)
        assert cli_main(["run", "-c", str(path)]) == 0
        headerless = tmp_path / "headerless.csv"
        text = (Path(cfg.output_dir) / "chains" / "chain_0000.csv").read_text()
        headerless.write_text(text.split("\n", 1)[1])
        path, _ = self._write_cfg(tmp_path, calibration={"method": "gradient_diff"})
        cal = tmp_path / "cal"
        assert cli_main(["calibrate", "-c", str(path), "-o", str(cal), "--chains-csv", str(headerless)]) == 2
        assert "headerless.csv: first line is not the header chain,t,s_1..s_2,energy,accepted" in (
            capsys.readouterr().err)
        assert not cal.exists()

    def test_calibrate_from_a_shuffled_chain_csv_exits_2(self, tmp_path, capsys):
        path, cfg = self._write_cfg(tmp_path)
        assert cli_main(["run", "-c", str(path)]) == 0
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(_reverse_rows((Path(cfg.output_dir) / "chains" / "chain_0000.csv").read_text()))
        path, _ = self._write_cfg(tmp_path, calibration={"method": "gradient_diff"})
        cal = tmp_path / "cal"
        assert cli_main(["calibrate", "-c", str(path), "-o", str(cal), "--chains-csv", str(shuffled)]) == 2
        assert "shuffled.csv: rows are not one chain's steps t = 0, 1, ..., 499 in order" in capsys.readouterr().err
        assert not cal.exists()

    def test_calibrate_from_a_three_step_burn_in_exits_1(self, tmp_path, capsys):
        payload = yaml.safe_load((CONFIGS / "quadratic_mixture_desk.yaml").read_text())
        payload["calibration"]["burn_in_steps"] = 3
        payload["output_dir"] = str(tmp_path / "cal")
        path = tmp_path / "short_burn_in.yaml"
        path.write_text(yaml.safe_dump(payload))
        assert cli_main(["calibrate", "-c", str(path)]) == 1
        assert "2 distinct moves cannot identify 6 matrix entries" in capsys.readouterr().err
        assert not (tmp_path / "cal").exists()

    def test_output_onto_an_existing_file_exits_1(self, tmp_path, capsys):
        path, _ = self._write_cfg(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli_main(["run", "-c", str(path), "-o", str(taken)]) == 1
        assert str(taken) in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        ("kernel: nonsense\n", "missing config key: 'target'"),
        ("kernel: [vpdhams\n", "cannot parse config file"),
        ("- vpdhams\n", "must hold a mapping"),
    ], ids=["missing_key", "unparsable", "not_a_mapping"])
    def test_config_error_exit_code(self, tmp_path, capsys, text, named):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        assert cli_main(["run", "-c", str(bad)]) == 2
        assert named in capsys.readouterr().err

    def test_each_command_builds_its_target_once(self, tmp_path, monkeypatch, capsys):
        path, cfg = self._write_cfg(
            tmp_path, calibration={"method": "gradient_diff", "burn_in_steps": 300, "burn_in_r": 2},
            tune={"delta_grid": [0.25], "phi_grid": [0.0], "probe_chains": 2, "probe_length": 50},
        )
        calls = []
        build = harness.build_target
        monkeypatch.setattr(harness, "build_target", lambda params: calls.append(params) or build(params))
        for argv in (["run", "-c", str(path)], ["metrics", cfg.output_dir],
                     ["tune", "-c", str(path), "-o", str(tmp_path / "tune")],
                     ["calibrate", "-c", str(path), "-o", str(tmp_path / "cal")]):
            calls.clear()
            assert cli_main(argv) == 0
            assert calls == [cfg.target], argv[0]

    def test_output_override(self, tmp_path, capsys):
        path, cfg = self._write_cfg(tmp_path)
        other = tmp_path / "elsewhere"
        assert cli_main(["run", "-c", str(path), "-o", str(other)]) == 0
        assert (other / "metrics.csv").exists()
        assert json.loads((other / "manifest.json").read_text())["config"]["output_dir"] == str(other)
        assert not Path(cfg.output_dir).exists()


def test_chain_rng_streams_are_distinct():
    a = chain_rng(7, 0).random(8)
    b = chain_rng(7, 1).random(8)
    c = chain_rng(8, 0).random(8)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)
    assert np.array_equal(a, chain_rng(7, 0).random(8))


class TestNumericGuardExit:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_target_exits_3(self, tmp_path, capsys):
        payload = {
            "target": {
                "name": "quadratic",
                "k": 2,
                "w_true": [[1e308, 0.0], [0.0, 1e308]],
                "b": [0.0, 0.0],
            },
            "kernel": "pavg",
            "sampler": {"delta": 0.5},
            "calibration": {"method": "exact_quadratic"},
            "chains": 2,
            "length": 20,
            "burn_in": 0,
            "base_seed": 1,
            "output_dir": str(tmp_path / "guard"),
            "checkpoints": [20],
            "tv_coords": [],
        }
        path = tmp_path / "guard.yaml"
        path.write_text(yaml.safe_dump(payload))
        assert cli_main(["run", "-c", str(path)]) == 3
        assert "step 0: non-finite proposal logits in chain 1" in capsys.readouterr().err


def test_worker_guard_error_names_the_run_chain(tmp_path, monkeypatch):
    # a worker runs chains chain_lo.. as its own chains 0..; the error names the run's chain
    def guard(*args):
        raise NumericGuardError("acceptance log-ratio", 1, 7)

    monkeypatch.setattr(harness, "run_chains", guard)
    cfg = base_config(tmp_path, chains=6, workers=2)
    pre = build_preconditioner(cfg)[0]
    with pytest.raises(NumericGuardError) as info:
        harness._run_chain_block(cfg, pre, 3, 6)
    err = info.value
    assert (err.quantity, err.chain, err.step) == ("acceptance log-ratio", 4, 7)
    assert str(err) == "step 7: non-finite acceptance log-ratio in chain 4"


class TestDeskConfigEndToEnd:
    def test_discrete_gaussian_desk_config(self, tmp_path):
        cfg = ExperimentConfig.from_yaml(CONFIGS / "discrete_gaussian_desk.yaml")
        raw = dict(cfg.raw)
        raw["output_dir"] = str(tmp_path / "desk")
        raw["chains"] = 6
        raw["length"] = 1200
        raw["checkpoints"] = [600, 1200]
        out = run_experiment(ExperimentConfig.from_dict(raw))
        rows = (out / "metrics.csv").read_text().splitlines()
        table = {tuple(r.split(",")[:2]): r.split(",")[3] for r in rows[1:]}
        for detail in ("min", "median", "max", "energy"):
            assert float(table[("ess", detail)]) > 0
        assert float(table[("acceptance_rate", "mean")]) == 1.0
        tv_rows = (out / "tv.csv").read_text().splitlines()
        assert any(r.startswith("tv,avg2d,") for r in tv_rows)


SCIPY_LINALG_SCRIPT = """
import sys
from pathlib import Path

import numpy as np
import yaml

import latmc, latmc.cli
from latmc.harness import ExperimentConfig, build_preconditioner, build_target, chain_rng
from latmc.samplers import run_chains

configs, out = Path(sys.argv[1]), Path(sys.argv[2])
payload = yaml.safe_load((configs / "clock_potts_full.yaml").read_text())
config = ExperimentConfig.from_dict({**payload, "calibration": {"method": "none"}})
target = build_target(config.target)
pre = build_preconditioner(config)[0]
rngs = [chain_rng(config.base_seed, i) for i in range(config.chains)]
init = np.stack([g.integers(0, target.lattice.n_values, size=target.lattice.dim) for g in rngs])
run_chains("pavg", target, pre, config.sampler, 3, rngs, init)
assert "scipy.linalg" not in sys.modules, "first-order run_chains"

payload = yaml.safe_load((configs / "discrete_gaussian_desk.yaml").read_text())
payload.update(length=300, burn_in=50, checkpoints=[300], output_dir=str(out))
(out.parent / "gauss.yaml").write_text(yaml.safe_dump(payload))
assert latmc.cli.main(["run", "-c", str(out.parent / "gauss.yaml")]) == 0
assert latmc.cli.main(["metrics", str(out)]) == 0
assert "scipy.linalg" not in sys.modules, "latmc run and metrics"

from latmc.precondition import CalibrationSample, calibrate_w_gradient_diff
from latmc.targets import QuadraticTarget, integer_lattice

w_true = np.array([[-1.0, 0.3], [0.3, -0.5]])
quad = QuadraticTarget(integer_lattice(2, 3), w_true, np.zeros(2))
states = np.array([[0, 0], [1, 0], [1, 1], [0, 2], [-1, 1], [2, -1]], dtype=float)
w = calibrate_w_gradient_diff(CalibrationSample.from_states(quad, states))
assert np.abs(w - w_true).max() < 1e-10
assert "scipy.linalg" not in sys.modules, "calibrate_w_gradient_diff"

for name in ("quadratic_mixture_desk", "clock_potts_desk"):
    payload = yaml.safe_load((configs / f"{name}.yaml").read_text())
    payload.update(chains=2, length=300, burn_in=50, checkpoints=[300], output_dir=str(out.parent / name))
    (out.parent / f"{name}.yaml").write_text(yaml.safe_dump(payload))
    config = str(out.parent / f"{name}.yaml")
    assert latmc.cli.main(["run", "-c", config]) == 0
    assert latmc.cli.main(["calibrate", "-c", config, "-o", str(out.parent / f"cal_{name}")]) == 0
    chains_csv = str(out.parent / name / "chains" / "chain_0000.csv")
    assert latmc.cli.main(["calibrate", "-c", config, "-o", str(out.parent / f"csv_{name}"), "--chains-csv", chains_csv]) == 0
    assert latmc.cli.main(["tune", "-c", str(configs / f"{name}.yaml"), "-o", str(out.parent / f"tune_{name}")]) == 0
    assert "scipy.linalg" not in sys.modules, f"latmc run, calibrate and tune on {name}"
"""


def test_no_command_loads_scipy_linalg(tmp_path):
    # both fits solve with numpy.linalg; no run, metrics, calibrate or tune imports scipy.linalg
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_LINALG_SCRIPT, str(CONFIGS), str(tmp_path / "gauss")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


CALIBRATE_IMPORTS_SCRIPT = """
import sys

import latmc.cli

for name in ("quadratic_mixture_desk", "clock_potts_desk"):
    assert latmc.cli.main(["calibrate", "-c", f"{sys.argv[1]}/{name}.yaml", "-o", f"{sys.argv[2]}/{name}"]) == 0
    for module in ("scipy.special", "scipy.linalg"):
        assert module not in sys.modules, f"latmc calibrate on {name} loaded {module}"
"""


def test_calibrate_loads_neither_scipy_special_nor_linalg(tmp_path):
    # the fitted desk configs burn in with metropolis, which draws no normals, and fit with numpy.linalg
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", CALIBRATE_IMPORTS_SCRIPT, str(CONFIGS), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clock_potts_desk", "quadratic_mixture_desk"]


ONE_WORKER_SCRIPT = """
import sys

import latmc.cli

assert latmc.cli.main(["run", "-c", sys.argv[1]]) == 0
for module in ("concurrent.futures.process", "multiprocessing"):
    assert module not in sys.modules, f"a workers: 1 run loaded {module}"
"""


def test_one_worker_run_loads_no_process_pool(tmp_path):
    payload = yaml.safe_load((CONFIGS / "discrete_gaussian_desk.yaml").read_text())
    payload.update(length=300, burn_in=50, checkpoints=[300], output_dir=str(tmp_path / "gauss"))
    assert payload["workers"] == 1
    (tmp_path / "gauss.yaml").write_text(yaml.safe_dump(payload))
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", ONE_WORKER_SCRIPT, str(tmp_path / "gauss.yaml")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "gauss" / "metrics.csv").exists()


SCIPY_SPECIAL_SCRIPT = """
import sys

import numpy as np

import latmc.cli
assert "scipy.special" not in sys.modules, "import latmc.cli"
assert latmc.cli.main(["metrics", sys.argv[1], "-o", sys.argv[2]]) == 0
assert "scipy.special" not in sys.modules, "latmc metrics"

from latmc.samplers import standard_normals

standard_normals(np.array([0.25]))
assert "scipy.special" in sys.modules
"""


def test_scipy_special_loads_at_the_first_draw(tmp_path):
    # only a draw of normals calls ndtri; importing the CLI and recomputing metrics do not load it
    payload = yaml.safe_load((CONFIGS / "discrete_gaussian_desk.yaml").read_text())
    payload.update(length=300, burn_in=50, checkpoints=[300], output_dir=str(tmp_path / "gauss"))
    out = run_experiment(ExperimentConfig.from_dict(payload))
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_SPECIAL_SCRIPT, str(out), str(tmp_path / "redo")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "redo" / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()


@pytest.mark.parametrize("module", sorted(
    "latmc" if p.stem == "__init__" else f"latmc.{p.stem}" for p in Path(harness.__file__).parent.glob("*.py")
))
def test_each_module_imports_alone(module):
    # a fresh interpreter per module, so no earlier import hides an import-order fault
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", f"import {module}"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
