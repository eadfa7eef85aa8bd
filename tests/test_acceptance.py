"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figures once its assertions hold."""

import time
from functools import partial

import numpy as np
import pytest
from scipy import stats

from latmc.diagnostics import empirical_pmf, ess_multichain, tv_distance
from latmc.harness import chain_rng
from latmc.precondition import (
    CalibrationSample,
    calibrate_w_energy_diff,
    calibrate_w_gradient_diff,
    exact_quadratic_preconditioner,
    factorize,
    first_order_preconditioner,
    lambda_shift,
    scaling_check,
)
from latmc.proposals import (
    cdf_rows,
    over_relax_conditional,
    over_relax_rows_from_cdf,
    sample_rows_inverse_cdf,
)
from latmc.samplers import (
    ChainState,
    SamplerConfig,
    momentum_init,
    run_chains,
    step_kernel,
    transition_terms,
)
from latmc.targets import (
    QuadraticTarget,
    discrete_gaussian,
    enumerate_joint,
    integer_lattice,
    quadratic_mixture,
)

from conftest import random_walk_states
from scheme_constructions import (
    momentum_step_mean,
    momentum_step_transformed,
    momentum_step_variance,
    pavg_step_mean,
)


def report(number, name, detail):
    print(f"ACCEPTANCE {number} ({name}): PASS [{detail}]")


def nonquadratic_k3_target(d=2):
    # K = 3 lattice with an asymmetric two-component mixture potential
    return quadratic_mixture(
        d=d, k=1, M=2, means=[[-0.6] * d, [0.8] * d], variances=[0.7, 1.2]
    )


def all_points(lattice):
    grids = np.meshgrid(*([lattice.values] * lattice.dim), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def test_criterion_1_rejection_freeness():
    start = time.perf_counter()
    target = discrete_gaussian(8, 10, 5.0, 0.9)
    worst = {}
    for kernel, cfg in (
        ("pavg", SamplerConfig(delta=0.058)),
        ("vpdhams", SamplerConfig(epsilon=0.9, delta=0.058, phi=0.0)),
        ("opdhams", SamplerConfig(epsilon=0.9, delta=0.138, phi=0.0, beta=0.1)),
    ):
        pre = exact_quadratic_preconditioner(target, cfg.delta)
        rng = chain_rng(101, 0)
        state = ChainState(
            target.lattice.random_point(rng), momentum_init(pre, rng)
        )
        peak = 0.0
        for _ in range(1000):
            out = step_kernel(kernel, state, target, pre, cfg, rng)
            peak = max(peak, abs(out.log_accept_ratio))
            assert out.accepted
            state = out.next
        assert peak <= 1e-8, f"{kernel}: |log accept ratio| reached {peak}"
        worst[kernel] = peak
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, "rejection-freeness", f"max |log ratio| {max(worst.values()):.2e}, {elapsed:.1f}s")


def test_criterion_2_generalized_detailed_balance():
    start = time.perf_counter()
    target = nonquadratic_k3_target()
    rng = np.random.default_rng(2024)
    w = np.array([[-0.45, 0.15], [0.15, -0.3]])
    pre = factorize(w, lambda_shift(w, 0.35))
    cfg = SamplerConfig(epsilon=0.8, delta=0.35, phi=0.45, beta=0.3)
    points = all_points(target.lattice)

    def residual(terms_fn, s, v_half, s_star):
        fwd = terms_fn(s, v_half, s_star, target, pre, cfg)
        lhs = fwd["log_joint_fwd"] + fwd["log_q_fwd"] + min(0.0, fwd["delta"])
        bwd = terms_fn(s_star, -fwd["v_star"], s, target, pre, cfg)
        rhs = bwd["log_joint_fwd"] + bwd["log_q_fwd"] + min(0.0, bwd["delta"])
        return abs(lhs - rhs)

    worst_vanilla = 0.0
    worst_relaxed = 0.0
    for _ in range(100):
        s = target.lattice.random_point(rng)
        v_half = momentum_init(pre, rng)
        for s_star in points:
            worst_vanilla = max(worst_vanilla, residual(partial(transition_terms, "vpdhams"), s, v_half, s_star))
            worst_relaxed = max(worst_relaxed, residual(partial(transition_terms, "opdhams"), s, v_half, s_star))
    assert worst_vanilla <= 1e-10
    assert worst_relaxed <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(
        2,
        "generalized detailed balance",
        f"vanilla {worst_vanilla:.2e}, over-relaxed {worst_relaxed:.2e}, {elapsed:.1f}s",
    )


@pytest.mark.parametrize(
    "kernel,cfg",
    [
        ("metropolis", SamplerConfig(r=2)),
        ("git_gibbs", SamplerConfig(delta=0.058)),
        ("pavg", SamplerConfig(delta=0.058)),
        ("vpdhams", SamplerConfig(epsilon=0.9, delta=0.058, phi=0.0)),
        ("opdhams", SamplerConfig(epsilon=0.9, delta=0.138, phi=0.0, beta=0.1)),
    ],
)
def test_criterion_3_stationarity(kernel, cfg):
    start = time.perf_counter()
    target = discrete_gaussian(2, 3, 5.0, 0.9)
    exact = enumerate_joint(target)
    pre = None
    if kernel != "metropolis":
        pre = exact_quadratic_preconditioner(target, cfg.delta)
    chains, length, burn = 20, 50_000, 500
    rngs = [chain_rng(303, i) for i in range(chains)]
    init = np.stack([g.integers(0, target.lattice.n_values, size=2) for g in rngs])
    result = run_chains(kernel, target, pre, cfg, burn + length, rngs, init)
    draws = target.lattice.values[result.indices[:, burn:].reshape(-1, 2)]
    emp = empirical_pmf(draws, target.lattice, (0, 1))
    tv = tv_distance(emp, exact)
    elapsed = time.perf_counter() - start
    assert tv <= 0.02, f"{kernel}: TV {tv}"
    assert elapsed < 60.0
    report(3, f"stationarity [{kernel}]", f"TV {tv:.4f} over {chains * length} draws, {elapsed:.0f}s")


def test_criterion_4_scheme_equivalences():
    target = nonquadratic_k3_target()
    rng = np.random.default_rng(44)
    w = np.array([[-0.3, 0.1], [0.1, -0.5]])
    pre = factorize(w, lambda_shift(w, 0.4))
    cfg = SamplerConfig(epsilon=0.85, delta=0.4, phi=0.6)
    s0 = target.lattice.random_point(rng)
    v0 = momentum_init(pre, rng)
    states = [ChainState(s0.copy(), v0.copy()) for _ in range(4)]
    worst = 0.0
    for _ in range(1000):
        z, u, a = rng.standard_normal(2), rng.random(2), rng.random()
        out = step_kernel("vpdhams", states[0], target, pre, cfg, None, noise=(z, u, a))
        alternates = [
            momentum_step_mean(states[1], target, pre, cfg, z, u, a),
            momentum_step_variance(states[2], target, pre, cfg, z, u, a),
            momentum_step_transformed(states[3], target, pre, cfg, z, u, a),
        ]
        for nxt, delta, accepted in alternates:
            assert np.array_equal(out.next.s, nxt.s)
            assert out.accepted == accepted
            worst = max(worst, np.abs(out.next.v - nxt.v).max(), abs(out.log_accept_ratio - delta))
        states = [out.next] + [nxt for nxt, _, _ in alternates]
    assert worst <= 1e-12

    sp = [ChainState(s0.copy()), ChainState(s0.copy())]
    worst_pavg = 0.0
    for _ in range(1000):
        z, u, a = rng.standard_normal(2), rng.random(2), rng.random()
        out = step_kernel("pavg", sp[0], target, pre, SamplerConfig(), None, noise=(z, u, a))
        nxt, delta, accepted = pavg_step_mean(sp[1], target, pre, z, u, a)
        assert np.array_equal(out.next.s, nxt.s)
        assert out.accepted == accepted
        worst_pavg = max(worst_pavg, abs(out.log_accept_ratio - delta))
        sp = [out.next, nxt]
    assert worst_pavg <= 1e-12
    report(4, "scheme equivalences", f"momentum {worst:.1e}, momentum-free {worst_pavg:.1e}")


def test_criterion_5_reductions():
    # (a) momentum kernel at epsilon = phi = 0 equals the momentum-free
    # kernel under shared variates (refresh noise negated: both use the same
    # auxiliary point)
    target = nonquadratic_k3_target()
    rng = np.random.default_rng(55)
    w = np.array([[-0.35, 0.05], [0.05, -0.25]])
    pre = factorize(w, lambda_shift(w, 0.45))
    cfg0 = SamplerConfig(epsilon=0.0, delta=0.45, phi=0.0)
    sp, sv = ChainState(target.lattice.random_point(rng)), None
    sv = ChainState(sp.s.copy(), np.zeros(2))
    worst_a = 0.0
    for _ in range(1000):
        z, u, a = rng.standard_normal(2), rng.random(2), rng.random()
        op = step_kernel("pavg", sp, target, pre, SamplerConfig(), None, noise=(z, u, a))
        ov = step_kernel("vpdhams", sv, target, pre, cfg0, None, noise=(-z, u, a))
        assert np.array_equal(op.next.s, ov.next.s)
        worst_a = max(worst_a, abs(op.log_accept_ratio - ov.log_accept_ratio))
        sp, sv = op.next, ov.next
    assert worst_a <= 1e-10

    # (b) beta = 1 over-relaxation equals the vanilla one-step conditional law
    pre_b = factorize(w, lambda_shift(w, 0.35))
    cfg_b = SamplerConfig(epsilon=0.8, delta=0.35, phi=0.25, beta=1.0)
    points = all_points(target.lattice)
    worst_b = 0.0
    checks = 0
    while checks < 1000:
        s = target.lattice.random_point(rng)
        v_half = momentum_init(pre_b, rng)
        for s_star in points:
            vanilla = transition_terms("vpdhams", s, v_half, s_star, target, pre_b, cfg_b)
            relaxed = transition_terms("opdhams", s, v_half, s_star, target, pre_b, cfg_b)
            worst_b = max(
                worst_b,
                abs(vanilla["log_q_fwd"] - relaxed["log_q_fwd"]),
                abs(vanilla["delta"] - relaxed["delta"]),
            )
            checks += 1
    assert worst_b <= 1e-10

    # (c) momentum-free kernel equals the auxiliary Gibbs sweep on a
    # quadratic target under shared variates
    quad = discrete_gaussian(3, 3, 2.0, 0.4)
    pre_c = exact_quadratic_preconditioner(quad, 0.3)
    sp = ChainState(quad.lattice.random_point(rng))
    sg = ChainState(sp.s.copy())
    for _ in range(1000):
        z, u, a = rng.standard_normal(3), rng.random(3), rng.random()
        op = step_kernel("pavg", sp, quad, pre_c, SamplerConfig(), None, noise=(z, u, a))
        og = step_kernel("git_gibbs", sg, quad, pre_c, SamplerConfig(), None, noise=(z, u, a))
        assert np.array_equal(op.next.s, og.next.s)
        assert abs(op.log_accept_ratio) <= 1e-10
        sp, sg = op.next, og.next
    report(5, "reductions", f"eps=phi=0 {worst_a:.1e}, beta=1 law {worst_b:.1e}, gibbs exact")


def test_criterion_6_calibration_recovery():
    rng = np.random.default_rng(66)
    worst = 0.0
    for d in (2, 4, 7, 10):
        w_true = rng.normal(size=(d, d))
        w_true = 0.5 * (w_true + w_true.T)
        target = QuadraticTarget(integer_lattice(d, 3), w_true, rng.normal(size=d))
        states = random_walk_states(target.lattice, 20 * d * d, rng)
        sample = CalibrationSample.from_states(target, states)
        for estimate in (calibrate_w_gradient_diff(sample), calibrate_w_energy_diff(sample)):
            worst = max(worst, np.abs(estimate - w_true).max())
    assert worst <= 1e-8

    target = QuadraticTarget(integer_lattice(3, 3), -np.eye(3) * 0.8, np.zeros(3))
    sample = CalibrationSample.from_states(target, random_walk_states(target.lattice, 150, rng))
    worst_scale = 0.0
    for method in ("gradient_diff", "energy_diff"):
        w_s, w_y = scaling_check(target, 2.0, sample, method=method)
        worst_scale = max(worst_scale, np.abs(w_y - w_s / 4.0).max() / np.abs(w_s).max())
    assert worst_scale <= 1e-8
    report(6, "calibration recovery", f"recovery {worst:.1e}, scaling {worst_scale:.1e}")


def test_criterion_7_shift_and_factorization():
    rng = np.random.default_rng(77)
    worst_floor = 0.0
    worst_resid = 0.0
    checked = 0
    while checked < 40:
        d = int(rng.integers(2, 9))
        w = rng.normal(size=(d, d))
        w = 0.5 * (w + w.T)
        delta = float(rng.uniform(0.01, 1.0))
        lam = lambda_shift(w, delta)
        shifted = w + lam * np.eye(d)
        smallest = np.linalg.eigvalsh(shifted)[0]
        if np.linalg.eigvalsh(w)[0] <= 0:
            worst_floor = max(worst_floor, abs(smallest - delta))
            checked += 1
        for threshold in (np.inf, 0.0):
            pre = factorize(w, lam, cond_threshold=threshold)
            worst_resid = max(
                worst_resid,
                np.linalg.norm(pre.L @ pre.L.T - shifted) / np.linalg.norm(shifted),
            )
    assert worst_floor <= 1e-8
    assert worst_resid <= 1e-8

    # factorization path invariance: the eigen-path chain driven by the
    # orthogonally-rotated noise stream retraces the cholesky-path chain
    target = discrete_gaussian(8, 10, 5.0, 0.9)
    delta = 0.058
    w_true = target.W_true
    lam = lambda_shift(w_true, delta)
    pre_chol = factorize(w_true, lam, cond_threshold=np.inf)
    pre_eig = factorize(w_true, lam, cond_threshold=0.0)
    assert pre_chol.factorization_kind == "cholesky"
    assert pre_eig.factorization_kind == "eigen"
    rotation = np.linalg.solve(pre_chol.L, pre_eig.L)
    assert np.abs(rotation @ rotation.T - np.eye(8)).max() < 1e-10

    rng = np.random.default_rng(778)
    cfg = SamplerConfig(epsilon=0.9, delta=delta, phi=0.0)
    s0 = target.lattice.random_point(rng)
    z0 = rng.standard_normal(8)
    state_c = ChainState(s0.copy(), z0 @ pre_chol.L_inv_T.T)
    state_e = ChainState(s0.copy(), (rotation.T @ z0) @ pre_eig.L_inv_T.T)
    worst_div = 0.0
    for _ in range(1000):
        z, u, a = rng.standard_normal(8), rng.random(8), rng.random()
        out_c = step_kernel("vpdhams", state_c, target, pre_chol, cfg, None, noise=(z, u, a))
        out_e = step_kernel("vpdhams", state_e, target, pre_eig, cfg, None, noise=(rotation.T @ z, u, a))
        assert np.array_equal(out_c.next.s, out_e.next.s)
        worst_div = max(worst_div, abs(out_c.log_accept_ratio - out_e.log_accept_ratio))
        state_c, state_e = out_c.next, out_e.next
    assert worst_div <= 1e-8
    report(
        7,
        "shift and factorization",
        f"floor {worst_floor:.1e}, residual {worst_resid:.1e}, path divergence {worst_div:.1e}",
    )


def test_criterion_8_over_relaxation_laws():
    rng = np.random.default_rng(88)
    worst_marginal = 0.0
    worst_symmetry = 0.0
    for _ in range(40):
        K = int(rng.integers(2, 6))
        pmf = rng.dirichlet(np.ones(K))
        beta = float(rng.uniform(-1, 1))
        P = np.array(
            [[over_relax_conditional(pmf, i, j, beta) for j in range(K)] for i in range(K)]
        )
        worst_marginal = max(worst_marginal, np.abs(pmf @ P - pmf).max())
        joint = pmf[:, None] * P
        worst_symmetry = max(worst_symmetry, np.abs(joint - joint.T).max())
    assert worst_marginal <= 1e-6
    assert worst_symmetry <= 1e-6

    pmf = np.array([0.15, 0.35, 0.1, 0.25, 0.15])
    n = 10**6
    beta = 0.3
    x0 = sample_rows_inverse_cdf(np.tile(pmf, (n, 1)), rng.random(n))
    x1 = over_relax_rows_from_cdf(cdf_rows(np.tile(pmf, (n, 1))), x0, beta, rng.random(n), rng.random(n))
    pvalue = stats.chisquare(np.bincount(x1, minlength=5), n * pmf).pvalue
    assert pvalue > 1e-4
    report(
        8,
        "over-relaxation laws",
        f"marginal {worst_marginal:.1e}, symmetry {worst_symmetry:.1e}, chi2 p {pvalue:.3f}",
    )


def test_criterion_9_ess_estimator():
    assert ess_multichain(np.array([[0.0, 1.0], [1.0, 2.0]])) == 1.0
    rng = np.random.default_rng(3)
    T = 10**4
    ratios = np.array([ess_multichain(rng.standard_normal((10, T))) / T for _ in range(100)])
    assert ratios.min() >= 0.2 and ratios.max() <= 5.0
    report(9, "ess estimator", f"hand case exact, iid band [{ratios.min():.2f}, {ratios.max():.2f}]")


def test_criterion_10_desk_scale_ordering():
    start = time.perf_counter()
    target = discrete_gaussian(4, 5, 5.0, 0.9)
    chains, length, burn = 20, 5000, 500
    pre_058 = exact_quadratic_preconditioner(target, 0.058)
    pre_138 = exact_quadratic_preconditioner(target, 0.138)
    samplers = {
        "pavg": ("pavg", pre_058, SamplerConfig(delta=0.058)),
        "vpdhams": ("vpdhams", pre_058, SamplerConfig(epsilon=0.9, delta=0.058, phi=0.0)),
        "opdhams": ("opdhams", pre_138, SamplerConfig(epsilon=0.9, delta=0.138, phi=0.0, beta=0.1)),
        "pavg_w0": ("pavg", first_order_preconditioner(4, 0.75), SamplerConfig(delta=0.75)),
        "vpdhams_w0": (
            "vpdhams",
            first_order_preconditioner(4, 2.0),
            SamplerConfig(epsilon=0.9, delta=2.0, phi=0.0),
        ),
        "opdhams_w0": (
            "opdhams",
            first_order_preconditioner(4, 2.0),
            SamplerConfig(epsilon=0.9, delta=2.0, phi=0.3, beta=-0.9),
        ),
        "metropolis": ("metropolis", None, SamplerConfig(r=2)),
    }
    hits = 0
    results = []
    for rep in range(10):
        ess = {}
        for label, (kernel, pre, cfg) in samplers.items():
            rngs = [chain_rng(9000 + 101 * rep, 10_000 + i) for i in range(chains)]
            init = np.stack(
                [g.integers(0, target.lattice.n_values, size=4) for g in rngs]
            )
            res = run_chains(kernel, target, pre, cfg, burn + length, rngs, init)
            ess[label] = ess_multichain(res.energies[:, burn:])
        preconditioned = np.median([ess["pavg"], ess["vpdhams"], ess["opdhams"]])
        first_order = np.median([ess["pavg_w0"], ess["vpdhams_w0"], ess["opdhams_w0"]])
        ok = preconditioned > first_order > ess["metropolis"]
        hits += ok
        results.append((round(preconditioned), round(first_order), round(ess["metropolis"]), ok))
    elapsed = time.perf_counter() - start
    assert hits >= 8, f"ordering held in only {hits}/10 replications: {results}"
    assert elapsed < 300.0
    report(
        10,
        "desk-scale ESS ordering",
        f"{hits}/10 replications, medians (pre, first-order, metropolis) e.g. {results[0][:3]}, {elapsed:.0f}s",
    )
