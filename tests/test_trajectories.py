"""Trajectory fingerprints: sha256 digests of ``run_chains`` lattice indices
and accept flags, pinned so that a change meant to keep every trajectory (a
new row layout, a faster reduction) fails here when it does not.

Each shape runs every kernel that applies to it, and opdhams at four betas
(the whole-period, reflection and two fractional laws), with the config's
own sampler block, calibration (overridden where SHAPES says), seed and
chain streams, for a few steps.  Every chain starts from
``LatticeSpec.random_indices``, as the commands' chains do, so the digests pin
that start rule too.  Two streams that no trajectory digest covers are pinned
as well: the calibration burn-in sample (its states, as the fit receives them)
and the tune probe runs (indices and accept flags of every probe).
Energies are left out: their last bits may follow the platform's vectorised
``exp``/``cos``, while indices and flags do not in practice.
"""

import hashlib
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import yaml

import latmc.harness as harness
import latmc.tuning as tuning
from latmc.harness import ExperimentConfig, build_preconditioner, build_target, chain_rng
from latmc.samplers import run_chains

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# shape -> (config, steps, config overrides).  Proposal rows have K values over
# chains x d rows: gauss full 21 over 100 x 8, gauss desk 11 over 20 x 4, clock
# desk 4 over 10 x 9, clock full 7 over 50 x 400.  Clock full runs first-order
# (calibration none), because its shipped gradient_diff fit needs more distinct
# moves than its burn-in makes.
SHAPES = {
    "gauss_full": ("discrete_gaussian_full", 40, {}),
    "gauss_desk": ("discrete_gaussian_desk", 150, {}),
    "clock_desk": ("clock_potts_desk", 150, {}),
    "clock_full": ("clock_potts_full", 4, {"calibration": {"method": "none"}}),
}
RUNS = [("metropolis", None), ("git_gibbs", None), ("pavg", None), ("vpdhams", None),
        ("opdhams", 1.0), ("opdhams", 0.0), ("opdhams", 0.3), ("opdhams", -0.9)]

DIGESTS = {
    "gauss_full-metropolis": "de049f7bef4020b7d8cd8d42c2be31462fff507d768e3b81f9129c2cdaa8a034",
    "gauss_full-git_gibbs": "3f2b7f53853514dba73941b1d79b408b59a282649eddbce1754d65e0c1da9c58",
    "gauss_full-pavg": "3f2b7f53853514dba73941b1d79b408b59a282649eddbce1754d65e0c1da9c58",
    "gauss_full-vpdhams": "d8cebe6c4ab2a368763a7186a033a8b0b1a4e12d5c1032a24b18e3fdca877e0a",
    "gauss_full-opdhams-beta1": "2c4bda6bf83cb3c383ae4425c2b730cdd0b57f3cc6dcf3ee0f7d0ae75689c8f8",
    "gauss_full-opdhams-beta0": "c3bea52cf33b991cf7585e492a730dc5c7bfdda64709ea52115d4ec588525e9c",
    "gauss_full-opdhams-beta0.3": "796f26b86015faf96f410c40179e8216e467c9ab58e14ee94693cc914606cc24",
    "gauss_full-opdhams-beta-0.9": "ebe01c75e64b5eb373104bd6c38ff99b5b929414d52c651d2f88f017a029dee2",
    "gauss_desk-metropolis": "dfb193b3134c7675e4077d63de34d2e8d2631ecee9d4ccf969f1c0022f127e39",
    "gauss_desk-git_gibbs": "79f83953105df6361af3bcb671a3ffd31f1af2655d5f77a1aee0f46f36b1059e",
    "gauss_desk-pavg": "79f83953105df6361af3bcb671a3ffd31f1af2655d5f77a1aee0f46f36b1059e",
    "gauss_desk-vpdhams": "8fed3510de37f7670a29fb5903b0bb97c4ba06e1448b48d13545670e474d4395",
    "gauss_desk-opdhams-beta1": "9c38dccf6557f433fc111b1aaa71b4dceb26e4d34d39bf4d352689e5b1ee81c9",
    "gauss_desk-opdhams-beta0": "20f04d644c24b4f4b413d3a3e381b5b15f836edb676e96e45edfc74f6921b993",
    "gauss_desk-opdhams-beta0.3": "541ea52123216c8789fbfcaa4452a12c18ea540fb2ff969b5dd614a95acc4e46",
    "gauss_desk-opdhams-beta-0.9": "7bf0031f464cbaa1967cdbe5578176112e232fd018a6a02f151c068c74e2fda5",
    "clock_desk-metropolis": "4f2edab9870518b93b2c242e8798d1677dd71eb7a663ac9af914ba6d73d649e9",
    "clock_desk-pavg": "15897494b175a5ade0997997b4af19e7a4153b3b03f1372eedc875d7e5901eca",
    "clock_desk-vpdhams": "2130b8978726bb8c62e1332c807a3e1ce30734c0992d439305c0ec153166f3c6",
    "clock_desk-opdhams-beta1": "d336ef08e4382b348d5c6dd196beadf0426790f0449df70f4bdc9ff0406dac47",
    "clock_desk-opdhams-beta0": "70c2653b42e17ef515cb93bafacdcf1b941202ef65e91f69acf53c9499c15bb8",
    "clock_desk-opdhams-beta0.3": "64ecb68850161f8081a6126cc8281696b5e912cc0f8a6347b2a5eaed6f84de6b",
    "clock_desk-opdhams-beta-0.9": "2a8d33fcda39978a95b905d5863223fe0aee859906f9070820c8bfc7dd968d4a",
    "clock_full-metropolis": "0eb1022f236fedb20c44860575efc7b404968a8affba28bf4d18dcc1430c0b0b",
    "clock_full-pavg": "06303f58846e76173ba0073f3c19777353bb92969704174a1a50b729dea73519",
    "clock_full-vpdhams": "589a3291bda9a7ae36d2037a3ba4f184d97e503dc9394ed9241212c2c2c4ac79",
    "clock_full-opdhams-beta1": "20779efebbac48bdaaeaacd1998da868f229051f75b92e39bfe5bab85a06e351",
    "clock_full-opdhams-beta0": "d6bdefff5a07c23a48174b857449648cb714ed414d706a7022340862acc65ea9",
    "clock_full-opdhams-beta0.3": "4e3c6053841d2e55e59c605858c780710e68d9ae5cbdeb541303f6f1ec54be94",
    "clock_full-opdhams-beta-0.9": "4c77174440081d61a6e6d39625c1afdcc790e8a2bfc7832583270d2d34098217",
}


def _config(name, **overrides):
    payload = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
    return ExperimentConfig.from_dict({**payload, **overrides})


@lru_cache(maxsize=None)
def _setup(shape):
    """Config, target and configured-stepsize preconditioner of a shape."""
    name, _, overrides = SHAPES[shape]
    config = _config(name, **overrides)
    target = build_target(config.target)
    return config, target, build_preconditioner(config)[0]


def _fingerprint(shape, kernel, beta):
    config, target, pre = _setup(shape)
    sampler = config.sampler if beta is None else replace(config.sampler, beta=beta)
    rngs = [chain_rng(config.base_seed, i) for i in range(config.chains)]
    pre = None if kernel == "metropolis" else pre
    init = target.lattice.random_indices(rngs)
    result = run_chains(kernel, target, pre, sampler, SHAPES[shape][1], rngs, init)
    digest = hashlib.sha256()
    _update(digest, result)
    return digest.hexdigest()


def _update(digest, result):
    digest.update(result.indices.astype("<i4").tobytes())
    digest.update(result.accepted.astype(np.uint8).tobytes())


def _case_id(shape, kernel, beta):
    return f"{shape}-{kernel}" + ("" if beta is None else f"-beta{beta:g}")


CASES = [
    pytest.param(shape, kernel, beta, id=_case_id(shape, kernel, beta))
    for shape in SHAPES for kernel, beta in RUNS
    if not (kernel == "git_gibbs" and shape.startswith("clock"))  # git_gibbs needs a quadratic target
]


@pytest.mark.parametrize("shape, kernel, beta", CASES)
def test_trajectory_fingerprint(shape, kernel, beta):
    assert _fingerprint(shape, kernel, beta) == DIGESTS[_case_id(shape, kernel, beta)]


# config -> (fit the burn-in sample feeds, sha256 of its states)
CALIBRATION_DIGESTS = {
    "clock_potts_desk": ("calibrate_w_gradient_diff", "ccdf70ecba8d6f402709caa5284c05caad8068272c72f7d55da4e7924ee23d47"),
    "quadratic_mixture_desk": ("calibrate_w_energy_diff", "cbc80fe81984ec8de134234a3a126ec61e1fdecabee1a9de51624784a5cf0ffa"),
}
# every clock desk tune probe at probe_length 40 (burn-in 4), in probe order
TUNE_PROBE_DIGEST = "8de8d21e3f15c69750ca3416765ca011faba46418a00b669ca9d0bc2dded89ad"


@pytest.mark.parametrize("name", sorted(CALIBRATION_DIGESTS))
def test_calibration_sample_fingerprint(name, monkeypatch):
    fit, expected = CALIBRATION_DIGESTS[name]
    seen = []
    real = getattr(harness, fit)

    def record(sample):
        seen.append(hashlib.sha256(sample.states.astype("<f8").tobytes()).hexdigest())
        return real(sample)

    monkeypatch.setattr(harness, fit, record)
    config = _config(name)
    harness._resolve_calibration(config)
    assert seen == [expected]


def test_tune_probe_fingerprint(monkeypatch, tmp_path):
    digest = hashlib.sha256()
    probes = []
    real = tuning.run_chains

    def record(*args):
        result = real(*args)
        _update(digest, result)
        probes.append(result.indices.shape)
        return result

    monkeypatch.setattr(tuning, "run_chains", record)
    config = _config("clock_potts_desk")
    harness.tune_command(replace(config, output_dir=str(tmp_path), tune={**config.tune, "probe_length": 40}))
    assert probes == [(4, 44, 9)] * 7
    assert digest.hexdigest() == TUNE_PROBE_DIGEST
