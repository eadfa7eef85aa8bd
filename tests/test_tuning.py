import numpy as np
import pytest

import latmc.tuning as tuning
from latmc.errors import ConfigError
from latmc.diagnostics import ess_multichain
from latmc.precondition import exact_quadratic_preconditioner, factorize, lambda_shift
from latmc.samplers import SamplerConfig
from latmc.targets import QuadraticTarget, discrete_gaussian, integer_lattice
from latmc.tuning import staged_grid_search


class TestStagedGridSearch:
    def _builder(self, target):
        def build(delta):
            return factorize(target.W_true, lambda_shift(target.W_true, delta))

        return build

    def test_single_candidate(self):
        t = discrete_gaussian(2, 3, 2.0, 0.5)
        rng = np.random.default_rng(11)
        cfg, trace = staged_grid_search(
            "vpdhams", t, self._builder(t), {"delta": [0.25], "phi": [0.3]},
            chains=3, length=80, rng=rng,
        )
        assert cfg.delta == 0.25
        assert cfg.phi == 0.3
        assert cfg.epsilon == 0.9

    @pytest.mark.parametrize("grids, named", [
        ({"delta": []}, "empty stepsize grid"),
        ({"delta": [0.25], "phi": []}, "empty phi grid"),
    ], ids=["delta", "phi"])
    def test_empty_grid_rejected(self, grids, named):
        t = discrete_gaussian(2, 3, 2.0, 0.5)
        with pytest.raises(ConfigError, match=named):
            staged_grid_search("vpdhams", t, self._builder(t), grids, 2, 50, np.random.default_rng(0))

    @pytest.mark.parametrize("chains, length", [(1, 50), (2, 1)])
    def test_single_chain_or_step_probes_rejected(self, chains, length):
        # the energy ESS needs two chains of two draws; no probe runs
        t = discrete_gaussian(2, 3, 2.0, 0.5)
        with pytest.raises(ConfigError, match="at least 2 chains of 2 steps"):
            staged_grid_search("vpdhams", t, self._builder(t), {"delta": [0.25]}, chains, length,
                               np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        t = discrete_gaussian(2, 3, 2.0, 0.5)
        grids = {"delta": [0.1, 0.25, 0.6], "phi": [0.0, 0.4]}
        picks = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            cfg, trace = staged_grid_search("vpdhams", t, self._builder(t), grids, 3, 120, rng)
            picks.append((cfg.delta, cfg.phi, tuple(trace["rates"])))
        assert picks[0] == picks[1]

    def test_matches_exhaustive_probe_oracle(self):
        # replay the identical probe runs and verify the chosen stepsize is
        # the energy-ESS argmax (rejection-free target: no rate gating)
        t = discrete_gaussian(2, 3, 2.0, 0.5)
        grids = {"delta": [0.1, 0.25, 0.6], "phi": [0.0]}
        rng = np.random.default_rng(321)
        cfg, trace = staged_grid_search("pavg", t, self._builder(t), grids, 4, 150, rng)

        oracle_rng = np.random.default_rng(321)
        scores = {}
        for delta in sorted(grids["delta"]):
            pre = self._builder(t)(delta)
            probe_cfg = SamplerConfig(epsilon=0.9, delta=delta, phi=0.0, beta=1.0, r=1)
            _, ess = tuning._probe_run("pavg", t, pre, probe_cfg, 4, 150, oracle_rng)
            scores[delta] = ess
        best = max(sorted(scores), key=lambda d: scores[d])
        assert cfg.delta == best

    def test_momentum_free_kernel_skips_phi_stage(self):
        t = discrete_gaussian(2, 3, 2.0, 0.5)
        rng = np.random.default_rng(5)
        cfg, _ = staged_grid_search(
            "pavg", t, self._builder(t), {"delta": [0.2, 0.4], "phi": [0.0, 0.9]},
            chains=3, length=60, rng=rng,
        )
        assert cfg.phi == 0.0

    def test_undefined_ess_ranks_last(self, monkeypatch):
        t = discrete_gaussian(2, 3, 2.0, 0.5)
        seen = []

        def fake_probe(kernel, target, pre, config, chains, length, rng, burn_in=0):
            seen.append(config.delta)
            return 0.7, (None if config.delta == 0.1 else 10.0 / config.delta)

        monkeypatch.setattr(tuning, "_probe_run", fake_probe)
        cfg, _ = staged_grid_search(
            "pavg", t, self._builder(t), {"delta": [0.1, 0.2, 0.4], "phi": [0.0]},
            chains=2, length=50, rng=np.random.default_rng(0),
        )
        assert cfg.delta == 0.2

    def test_flat_target_probes_have_undefined_ess(self):
        # f = 0 gives every chain the energy series 0, so all chain means are
        # equal: every probe's ESS is None and the first stepsize is kept
        t = QuadraticTarget(integer_lattice(2, 2), np.zeros((2, 2)), np.zeros(2))
        cfg, trace = staged_grid_search(
            "vpdhams", t, self._builder(t), {"delta": [0.4, 0.2], "phi": [0.0, 0.3]},
            chains=2, length=30, rng=np.random.default_rng(0),
        )
        assert (cfg.delta, cfg.phi) == (0.2, 0.0)
        assert len(trace["ess_table"]) == 4
        assert all(ess is None for ess in trace["ess_table"].values())

    def test_acceptance_window_gates_candidates(self, monkeypatch):
        # the 0.5-0.9 rate window filters stepsizes before ESS ranking; the
        # out-of-window candidate with the best ESS must lose
        t = discrete_gaussian(2, 3, 2.0, 0.5)

        def fake_probe(kernel, target, pre, config, chains, length, rng, burn_in=0):
            if config.delta == 0.1:
                return 0.95, 99999.0
            return 0.7, 100.0 / config.delta

        monkeypatch.setattr(tuning, "_probe_run", fake_probe)
        cfg, _ = staged_grid_search(
            "pavg", t, self._builder(t), {"delta": [0.1, 0.2, 0.4], "phi": [0.0]},
            chains=2, length=50, rng=np.random.default_rng(0),
        )
        assert cfg.delta == 0.2

    def test_base_config_carries_the_fixed_parameters(self, monkeypatch):
        # epsilon, beta and r come from the base config into every probe,
        # the trace keys and the choice; delta and phi come from the grids
        t = discrete_gaussian(2, 3, 2.0, 0.5)
        probed = []

        def fake_probe(kernel, target, pre, config, chains, length, rng, burn_in=0):
            probed.append(config)
            return 0.7, 10.0 + config.phi

        monkeypatch.setattr(tuning, "_probe_run", fake_probe)
        base = SamplerConfig(epsilon=0.7, delta=3.0, phi=0.5, beta=0.25, r=2)
        cfg, trace = staged_grid_search(
            "vpdhams", t, self._builder(t), {"delta": [0.2, 0.1], "phi": [0.0, 0.3]},
            chains=2, length=50, rng=np.random.default_rng(0), base=base,
        )
        assert cfg == SamplerConfig(epsilon=0.7, delta=0.1, phi=0.3, beta=0.25, r=2)
        assert [(c.delta, c.phi) for c in probed] == [(0.1, 0.0), (0.2, 0.0), (0.1, 0.0), (0.1, 0.3)]
        assert all((c.epsilon, c.beta, c.r) == (0.7, 0.25, 2) for c in probed)
        assert list(trace["ess_table"]) == [
            "stage2:epsilon=0.7,delta=0.1,phi=0.0,beta=0.25,r=2",
            "stage2:epsilon=0.7,delta=0.2,phi=0.0,beta=0.25,r=2",
            "stage3:epsilon=0.7,delta=0.1,phi=0.0,beta=0.25,r=2",
            "stage3:epsilon=0.7,delta=0.1,phi=0.3,beta=0.25,r=2",
        ]
        assert trace["deltas"] == [0.1, 0.2] and trace["rates"] == [0.7, 0.7] and trace["chosen"] == 0.1
