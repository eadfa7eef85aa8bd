import math
import warnings

import numpy as np
import pytest

from latmc.errors import ContractError, InvalidStateError, NumericGuardError
from latmc.precondition import (
    exact_quadratic_preconditioner,
    factorize,
    first_order_preconditioner,
    lambda_shift,
)
from latmc.proposals import proposal_log_rows
from latmc.samplers import (
    ChainState,
    SamplerConfig,
    git_gibbs_step,
    metropolis_step,
    momentum_init,
    opdhams_step,
    opdhams_transition_terms,
    pavg_step,
    run_chains,
    step_kernel,
    vpdhams_step,
    vpdhams_transition_terms,
)
from latmc.targets import (
    QuadraticTarget,
    discrete_gaussian,
    enumerate_joint,
    integer_lattice,
    quadratic_mixture,
)
from latmc.diagnostics import empirical_pmf, tv_distance
from latmc.harness import chain_rng

from scheme_constructions import (
    momentum_step_mean,
    momentum_step_transformed,
    momentum_step_variance,
    pavg_step_mean,
)


def small_mixture(d=2, k=1):
    return quadratic_mixture(
        d=d, k=k, M=2, means=[[-0.6] * d, [0.8] * d], variances=[0.7, 1.2]
    )


def tilted_preconditioner(d, delta=0.35, seed=3):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(d, d)) * 0.3
    w = 0.5 * (w + w.T)
    return factorize(w, lambda_shift(w, delta))


def all_lattice_points(lattice):
    grids = np.meshgrid(*([lattice.values] * lattice.dim), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


class TestMomentumInit:
    def test_identity_shift_is_standard_normal(self):
        pre = factorize(np.zeros((3, 3)), 1.0)
        rng = np.random.default_rng(0)
        draws = rng.standard_normal((200000, 3)) @ pre.L_inv_T.T
        cov = np.cov(draws.T)
        assert np.abs(cov - np.eye(3)).max() < 0.02

    def test_covariance_matches_inverse(self):
        pre = tilted_preconditioner(3)
        rng = np.random.default_rng(1)
        n = 10**6
        draws = rng.standard_normal((n, 3)) @ pre.L_inv_T.T
        cov = np.cov(draws.T)
        want = np.linalg.inv(pre.W_shifted)
        se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / n)
        assert np.all(np.abs(cov - want) < 3 * se + 1e-4)

    def test_transform_roundtrip(self):
        pre = tilted_preconditioner(4)
        rng = np.random.default_rng(2)
        v = momentum_init(pre, rng)
        rng2 = np.random.default_rng(2)
        z = rng2.standard_normal(4)
        assert np.abs(pre.L.T @ v - z).max() < 1e-10


class TestRejectionFree:
    @pytest.mark.parametrize("kernel", ["git_gibbs", "pavg", "vpdhams", "opdhams"])
    def test_quadratic_target_always_accepts(self, kernel, rng):
        t = discrete_gaussian(3, 4, 2.0, 0.5)
        pre = exact_quadratic_preconditioner(t, 0.2)
        cfg = SamplerConfig(epsilon=0.75, delta=0.2, phi=0.3, beta=0.2)
        state = ChainState(t.lattice.random_point(rng), momentum_init(pre, rng))
        for _ in range(200):
            out = step_kernel(kernel, state, t, pre, cfg, rng)
            assert abs(out.log_accept_ratio) <= 1e-8
            assert out.accepted
            state = out.next

    def test_w_zero_pavg_is_not_rejection_free(self, rng):
        t = discrete_gaussian(2, 3, 2.0, 0.5)
        pre = first_order_preconditioner(2, 0.5)
        state = ChainState(t.lattice.random_point(rng))
        ratios = []
        for _ in range(100):
            out = step_kernel("pavg", state, t, pre, SamplerConfig(delta=0.5), rng)
            ratios.append(out.log_accept_ratio)
            state = out.next
        assert max(abs(r) for r in ratios) > 1e-6


def gdb_residual(terms_fn, target, pre, cfg, s, v_half, s_star):
    fwd = terms_fn(s, v_half, s_star, target, pre, cfg)
    lhs = fwd["log_joint_fwd"] + fwd["log_q_fwd"] + min(0.0, fwd["delta"])
    bwd = terms_fn(s_star, -fwd["v_star"], s, target, pre, cfg)
    assert np.abs(bwd["v_star"] + v_half).max() < 1e-12
    rhs = bwd["log_joint_fwd"] + bwd["log_q_fwd"] + min(0.0, bwd["delta"])
    return abs(lhs - rhs)


class TestGeneralizedDetailedBalance:
    def test_vanilla_pointwise(self, rng):
        t = small_mixture()
        pre = tilted_preconditioner(2)
        cfg = SamplerConfig(epsilon=0.8, delta=0.35, phi=0.45)
        points = all_lattice_points(t.lattice)
        for _ in range(25):
            s = t.lattice.random_point(rng)
            v_half = momentum_init(pre, rng)
            for s_star in points:
                assert gdb_residual(vpdhams_transition_terms, t, pre, cfg, s, v_half, s_star) <= 1e-10

    def test_vanilla_pointwise_w_zero(self, rng):
        t = small_mixture()
        pre = first_order_preconditioner(2, 0.4)
        cfg = SamplerConfig(epsilon=0.9, delta=0.4, phi=0.2)
        points = all_lattice_points(t.lattice)
        for _ in range(10):
            s = t.lattice.random_point(rng)
            v_half = momentum_init(pre, rng)
            for s_star in points:
                assert gdb_residual(vpdhams_transition_terms, t, pre, cfg, s, v_half, s_star) <= 1e-10

    def test_over_relaxed_pointwise(self, rng):
        t = small_mixture()
        pre = tilted_preconditioner(2)
        cfg = SamplerConfig(epsilon=0.8, delta=0.35, phi=0.45, beta=0.3)
        points = all_lattice_points(t.lattice)
        for _ in range(10):
            s = t.lattice.random_point(rng)
            v_half = momentum_init(pre, rng)
            for s_star in points:
                assert gdb_residual(opdhams_transition_terms, t, pre, cfg, s, v_half, s_star) <= 1e-8


class TestSchemeEquivalence:
    def test_momentum_kernel_three_constructions(self, rng):
        t = small_mixture(d=2, k=3)
        pre = tilted_preconditioner(2, delta=0.4, seed=9)
        cfg = SamplerConfig(epsilon=0.85, delta=0.4, phi=0.6)
        s0 = t.lattice.random_point(rng)
        v0 = momentum_init(pre, rng)
        states = [ChainState(s0.copy(), v0.copy()) for _ in range(4)]
        for _ in range(1000):
            z = rng.standard_normal(2)
            u = rng.random(2)
            a = rng.random()
            out = vpdhams_step(states[0], t, pre, cfg, None, noise=(z, u, a))
            alt = [
                momentum_step_mean(states[1], t, pre, cfg, z, u, a),
                momentum_step_variance(states[2], t, pre, cfg, z, u, a),
                momentum_step_transformed(states[3], t, pre, cfg, z, u, a),
            ]
            for nxt, delta, accepted in alt:
                assert np.array_equal(out.next.s, nxt.s)
                assert np.abs(out.next.v - nxt.v).max() <= 1e-12
                assert abs(out.log_accept_ratio - delta) <= 1e-12
                assert out.accepted == accepted
            states = [out.next] + [nxt for nxt, _, _ in alt]

    def test_momentum_free_two_constructions(self, rng):
        t = small_mixture(d=2, k=3)
        pre = tilted_preconditioner(2, delta=0.4, seed=9)
        s0 = t.lattice.random_point(rng)
        states = [ChainState(s0.copy()), ChainState(s0.copy())]
        for _ in range(1000):
            z = rng.standard_normal(2)
            u = rng.random(2)
            a = rng.random()
            out = pavg_step(states[0], t, pre, None, noise=(z, u, a))
            nxt, delta, accepted = pavg_step_mean(states[1], t, pre, z, u, a)
            assert np.array_equal(out.next.s, nxt.s)
            assert abs(out.log_accept_ratio - delta) <= 1e-12
            assert out.accepted == accepted
            states = [out.next, nxt]


class TestReductions:
    def test_vanilla_momentum_reduces_to_momentum_free(self, rng):
        # epsilon = phi = 0 with the refresh noise negated: z matches the
        # momentum-free auxiliary draw exactly
        t = small_mixture(d=2, k=3)
        pre = tilted_preconditioner(2, delta=0.45, seed=5)
        cfg = SamplerConfig(epsilon=0.0, delta=0.45, phi=0.0)
        sp = ChainState(t.lattice.random_point(rng))
        sv = ChainState(sp.s.copy(), np.zeros(2))
        for _ in range(1000):
            z = rng.standard_normal(2)
            u = rng.random(2)
            a = rng.random()
            op = pavg_step(sp, t, pre, None, noise=(z, u, a))
            ov = vpdhams_step(sv, t, pre, cfg, None, noise=(-z, u, a))
            assert np.array_equal(op.next.s, ov.next.s)
            assert abs(op.log_accept_ratio - ov.log_accept_ratio) <= 1e-10
            sp, sv = op.next, ov.next

    def test_momentum_free_reduces_to_gibbs_on_quadratic(self, rng):
        t = discrete_gaussian(3, 3, 2.0, 0.4)
        pre = exact_quadratic_preconditioner(t, 0.3)
        sp = ChainState(t.lattice.random_point(rng))
        sg = ChainState(sp.s.copy())
        for _ in range(1000):
            z = rng.standard_normal(3)
            u = rng.random(3)
            a = rng.random()
            op = pavg_step(sp, t, pre, None, noise=(z, u, a))
            og = git_gibbs_step(sg, t, pre, None, noise=(z, u, a))
            assert np.array_equal(op.next.s, og.next.s)
            assert op.accepted and og.accepted
            sp, sg = op.next, og.next

    def test_unit_beta_over_relaxation_matches_vanilla_law(self, rng):
        # at beta = 1 the over-relaxed proposal equals the reference row and
        # the acceptance ratios coincide, so the one-step laws are identical
        t = small_mixture()
        pre = tilted_preconditioner(2)
        cfg = SamplerConfig(epsilon=0.8, delta=0.35, phi=0.25, beta=1.0)
        points = all_lattice_points(t.lattice)
        checks = 0
        while checks < 1000:
            s = t.lattice.random_point(rng)
            v_half = momentum_init(pre, rng)
            for s_star in points:
                vanilla = vpdhams_transition_terms(s, v_half, s_star, t, pre, cfg)
                relaxed = opdhams_transition_terms(s, v_half, s_star, t, pre, cfg)
                assert abs(vanilla["log_q_fwd"] - relaxed["log_q_fwd"]) <= 1e-10
                assert abs(vanilla["delta"] - relaxed["delta"]) <= 1e-10
                checks += 1


class TestMetropolis:
    def test_flat_target_interior_always_accepts(self, rng):
        t = QuadraticTarget(integer_lattice(2, 5), np.zeros((2, 2)), np.zeros(2))
        state = ChainState(np.zeros(2))
        for _ in range(50):
            out = metropolis_step(state, t, 2, rng)
            # interior proposals have symmetric windows
            if np.all(np.abs(t.lattice.index_of(out.proposal) - 5) <= 3):
                assert out.accepted
            state = ChainState(np.zeros(2))

    def test_full_width_window_is_symmetric(self, rng):
        t = discrete_gaussian(1, 3, 3.0, 0.0)
        state = ChainState(np.array([-3.0]))
        out = metropolis_step(state, t, t.lattice.n_values, rng)
        # q is lattice-wide uniform in both directions: ratio reduces to the
        # energy difference alone
        expected = t.f(out.proposal) - t.f(state.s)
        assert out.log_accept_ratio == pytest.approx(expected, abs=1e-12)

    def test_univariate_stationarity(self):
        t = discrete_gaussian(1, 10, 5.0, 0.0)
        exact = enumerate_joint(t)
        cfg = SamplerConfig(r=2)
        rngs = [chain_rng(77, i) for i in range(10)]
        init = np.stack([g.integers(0, 21, size=1) for g in rngs])
        res = run_chains("metropolis", t, None, cfg, 100_500, rngs, init)
        draws = t.lattice.values[res.indices[:, 500:].reshape(-1, 1)]
        emp = empirical_pmf(draws, t.lattice, (0,))
        assert tv_distance(emp, exact) < 0.01


class TestMomentumConvention:
    def test_rejection_stores_negated_intermediate(self, rng):
        t = discrete_gaussian(2, 3, 2.0, 0.5)
        pre = first_order_preconditioner(2, 0.8)  # mismatched W: rejections occur
        cfg = SamplerConfig(epsilon=0.7, delta=0.8, phi=0.0)
        state = ChainState(t.lattice.random_point(rng), momentum_init(pre, rng))
        saw_rejection = False
        for _ in range(300):
            z = rng.standard_normal(2)
            u = rng.random(2)
            a = rng.random()
            v_half = cfg.epsilon * state.v + math.sqrt(1 - cfg.epsilon**2) * (z @ pre.L_inv_T.T)
            out = vpdhams_step(state, t, pre, cfg, None, noise=(z, u, a))
            if not out.accepted:
                assert np.array_equal(out.next.v, -v_half)
                assert np.array_equal(out.next.s, state.s)
                saw_rejection = True
            state = out.next
        assert saw_rejection


class TestKernelLawConsistency:
    def test_momentum_free_detailed_balance_monte_carlo(self, rng):
        # the momentum-free kernel is reversible: check pi(s) P(s'|s)
        # against pi(s') P(s|s') with the auxiliary variable integrated out
        # by Monte Carlo
        t = small_mixture()
        pre = tilted_preconditioner(2, delta=0.5, seed=13)
        pi = enumerate_joint(t)
        lattice = t.lattice
        points = all_lattice_points(lattice)
        n = 20000

        def flux_samples(s_from, s_to):
            z = s_from + rng.standard_normal((n, 2)) @ pre.L_inv_T.T
            grad_f_ = t.grad_f(s_from)
            grad_b_ = t.grad_f(s_to)
            coeff_f = grad_f_ - s_from @ pre.W + z @ pre.W_shifted
            coeff_b = grad_b_ - s_to @ pre.W + z @ pre.W_shifted
            vals = lattice.values
            quad = -0.5 * pre.lam * vals**2

            def point_logprob(coeff, point):
                logits = quad[None, None, :] + coeff[:, :, None] * vals[None, None, :]
                peak = logits.max(axis=2)
                log_norm = np.log(np.exp(logits - peak[..., None]).sum(axis=2)) + peak
                idx = lattice.index_of(point)
                chosen = logits[:, np.arange(2), idx] - log_norm
                return chosen.sum(axis=1)

            lq_fwd = point_logprob(coeff_f, s_to)
            lq_bwd = point_logprob(coeff_b, s_from)
            delta = (
                t.f(s_to)
                - t.f(s_from)
                - 0.5 * (((z - s_to) @ pre.L) ** 2).sum(axis=1)
                + 0.5 * (((z - s_from) @ pre.L) ** 2).sum(axis=1)
                + lq_bwd
                - lq_fwd
            )
            return np.exp(lq_fwd) * np.minimum(1.0, np.exp(delta))

        for a_idx, b_idx in [(0, 4), (1, 7), (2, 6), (3, 5)]:
            s_a, s_b = points[a_idx], points[b_idx]
            pa = pi[tuple(lattice.index_of(s_a))]
            pb = pi[tuple(lattice.index_of(s_b))]
            fa = flux_samples(s_a, s_b)
            fb = flux_samples(s_b, s_a)
            m1, m2 = pa * fa.mean(), pb * fb.mean()
            se = np.sqrt(pa**2 * fa.var() / n + pb**2 * fb.var() / n)
            assert abs(m1 - m2) <= 3 * se + 1e-12


class TestFirstOrderSpecialization:
    def test_proposal_reduces_to_gradient_form(self, rng):
        pre = first_order_preconditioner(3, 0.7)
        grad = rng.normal(size=3)
        z = rng.normal(size=3)
        values = np.linspace(-2, 2, 5)
        rows = proposal_log_rows(grad, rng.normal(size=3), z, pre, values)
        manual = -0.5 * 0.7 * values[None, :] ** 2 + (grad + 0.7 * z)[:, None] * values[None, :]
        manual = manual - np.log(np.exp(manual).sum(axis=1, keepdims=True))
        assert np.abs(rows - manual).max() < 1e-12


class TestGuards:
    def test_gibbs_contract_error(self, rng):
        t = discrete_gaussian(2, 3, 2.0, 0.5)
        pre = first_order_preconditioner(2, 0.3)
        with pytest.raises(ContractError):
            git_gibbs_step(ChainState(t.lattice.random_point(rng)), t, pre, rng)
        mix = small_mixture()
        with pytest.raises(ContractError):
            git_gibbs_step(ChainState(mix.lattice.random_point(rng)), mix, pre, rng)

    def test_momentum_kernels_require_momentum(self, rng):
        t = small_mixture()
        pre = first_order_preconditioner(2, 0.3)
        cfg = SamplerConfig(delta=0.3)
        with pytest.raises(InvalidStateError):
            vpdhams_step(ChainState(t.lattice.random_point(rng)), t, pre, cfg, rng)

    def test_non_finite_energy_trips_guard(self, rng):
        class Broken(QuadraticTarget):
            def f(self, s):
                return float("nan")

            def f_batch(self, points):
                return np.full(len(points), np.nan)

        t = Broken(integer_lattice(2, 1), -np.eye(2), np.zeros(2))
        pre = first_order_preconditioner(2, 0.5)
        with pytest.raises(NumericGuardError):
            pavg_step(ChainState(np.zeros(2)), t, pre, rng)


class NaNAfter(QuadraticTarget):
    """Quadratic target whose batched energy (or gradient) turns NaN for one
    chain from its ``calls``-th evaluation on."""

    def __init__(self, chain, calls, where="f"):
        super().__init__(integer_lattice(2, 3), -0.2 * np.eye(2), np.zeros(2))
        self.chain, self.calls, self.where, self.seen = chain, calls, where, 0

    def _spoil(self, out, where):
        if where == self.where:
            self.seen += 1
            if self.seen >= self.calls:
                out[self.chain] = np.nan
        return out

    def f_batch(self, points):
        return self._spoil(super().f_batch(points), "f")

    def grad_batch(self, points):
        return self._spoil(super().grad_batch(points), "grad")


class TestGuardMessages:
    @pytest.mark.parametrize("kernel", ["metropolis", "pavg", "opdhams"])
    def test_nan_energy_names_step_and_chain(self, kernel):
        t = NaNAfter(chain=2, calls=5)
        pre = None if kernel == "metropolis" else first_order_preconditioner(2, 0.3)
        rngs = [chain_rng(4, i) for i in range(4)]
        init = np.zeros((4, 2), dtype=np.int64)
        with pytest.raises(NumericGuardError, match="acceptance log-ratio") as err:
            run_chains(kernel, t, pre, SamplerConfig(delta=0.3, beta=0.3), 10, rngs, init)
        # f_batch runs once at the start and once per step
        assert "step 3" in str(err.value)
        assert "chain 2" in str(err.value)

    def test_nan_gradient_names_step_and_chain(self):
        t = NaNAfter(chain=1, calls=3, where="grad")
        pre = first_order_preconditioner(2, 0.3)
        rngs = [chain_rng(4, i) for i in range(3)]
        init = np.zeros((3, 2), dtype=np.int64)
        with pytest.raises(NumericGuardError, match="proposal logits") as err:
            run_chains("vpdhams", t, pre, SamplerConfig(delta=0.3), 10, rngs, init)
        assert "step 1" in str(err.value)
        assert "chain 1" in str(err.value)


def test_opdhams_far_off_mode_starts_stay_finite():
    # opdhams on the full discrete Gaussian from the harness's uniform starts
    # with seed 2: cumsum-built CDF rows used to overshoot 1 here, giving the
    # log of a negative interval width at the first step
    t = discrete_gaussian(8, 10, 5.0, 0.9)
    pre = exact_quadratic_preconditioner(t, 0.058)
    rngs = [chain_rng(2, i) for i in range(100)]
    init = np.stack([g.integers(0, t.lattice.n_values, size=8) for g in rngs])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = run_chains("opdhams", t, pre, SamplerConfig(epsilon=0.9, delta=0.058), 3, rngs, init)
    assert np.all(np.isfinite(res.energies))


class TestLockstepDriver:
    @pytest.mark.parametrize("kernel", ["metropolis", "git_gibbs", "pavg", "vpdhams", "opdhams"])
    def test_batch_matches_solo(self, kernel):
        if kernel == "git_gibbs":
            t = discrete_gaussian(2, 3, 2.0, 0.5)
            pre = exact_quadratic_preconditioner(t, 0.3)
        else:
            t = small_mixture(d=2, k=3)
            pre = tilted_preconditioner(2, delta=0.3, seed=21)
        cfg = SamplerConfig(epsilon=0.8, delta=0.3, phi=0.4, beta=0.2, r=2)
        n_steps = 150
        rngs = [chain_rng(99, i) for i in range(2)]
        init = np.stack([g.integers(0, t.lattice.n_values, size=2) for g in rngs])
        res = run_chains(kernel, t, pre, cfg, n_steps, rngs, init)
        for c in range(2):
            g = chain_rng(99, c)
            idx0 = g.integers(0, t.lattice.n_values, size=2)
            v = momentum_init(pre, g) if kernel in ("vpdhams", "opdhams") else None
            state = ChainState(t.lattice.values[idx0], v)
            for i in range(n_steps):
                out = step_kernel(kernel, state, t, pre, cfg, g)
                state = out.next
                assert np.array_equal(
                    t.lattice.index_of(state.s), res.indices[c, i].astype(int)
                ), f"{kernel} chain {c} step {i}"
                assert abs(t.f(state.s) - res.energies[c, i]) < 1e-12
                assert bool(out.accepted) == bool(res.accepted[c, i])

    def test_energy_trace_matches_states(self, rng):
        t = small_mixture(d=2, k=2)
        pre = tilted_preconditioner(2)
        cfg = SamplerConfig(epsilon=0.8, delta=0.35, phi=0.0)
        rngs = [chain_rng(5, i) for i in range(3)]
        init = np.stack([g.integers(0, 5, size=2) for g in rngs])
        res = run_chains("vpdhams", t, pre, cfg, 50, rngs, init)
        for c in range(3):
            for i in (0, 10, 49):
                s = t.lattice.values[res.indices[c, i].astype(int)]
                assert abs(t.f(s) - res.energies[c, i]) < 1e-10


class TestStationarityQuick:
    @pytest.mark.parametrize("kernel", ["pavg", "vpdhams", "opdhams"])
    def test_small_joint_tv(self, kernel):
        t = discrete_gaussian(2, 2, 2.0, 0.6)
        pre = exact_quadratic_preconditioner(t, 0.25)
        cfg = SamplerConfig(epsilon=0.85, delta=0.25, phi=0.2, beta=0.15)
        exact = enumerate_joint(t)
        rngs = [chain_rng(31, i) for i in range(10)]
        init = np.stack([g.integers(0, 5, size=2) for g in rngs])
        res = run_chains(kernel, t, pre, cfg, 20_300, rngs, init)
        draws = t.lattice.values[res.indices[:, 300:].reshape(-1, 2)]
        emp = empirical_pmf(draws, t.lattice, (0, 1))
        assert tv_distance(emp, exact) < 0.05


def test_univariate_gibbs_stationarity():
    # scalar quadratic target: the auxiliary Gibbs sweep reproduces the
    # enumerated pmf over {-1, 0, 1}
    t = QuadraticTarget(integer_lattice(1, 1), np.array([[-1.0]]), np.zeros(1))
    pre = exact_quadratic_preconditioner(t, 1.0)
    exact = enumerate_joint(t)
    rngs = [chain_rng(13, i) for i in range(4)]
    init = np.stack([g.integers(0, 3, size=1) for g in rngs])
    res = run_chains("git_gibbs", t, pre, SamplerConfig(delta=1.0), 50_100, rngs, init)
    assert res.accepted.all()
    draws = t.lattice.values[res.indices[:, 100:].reshape(-1, 1)]
    emp = empirical_pmf(draws, t.lattice, (0,))
    assert tv_distance(emp, exact) < 0.01


def test_unit_epsilon_keeps_momentum_and_skips_refresh_draw(rng):
    # epsilon = 1: the intermediate momentum equals the current momentum
    # exactly and no refresh normals are consumed from the stream
    t = small_mixture()
    pre = tilted_preconditioner(2)
    cfg = SamplerConfig(epsilon=1.0, delta=0.35, phi=0.0)
    v0 = momentum_init(pre, rng)
    state = ChainState(t.lattice.random_point(rng), v0.copy())
    g_used = chain_rng(123, 0)
    out = vpdhams_step(state, t, pre, cfg, g_used)
    if not out.accepted:
        assert np.array_equal(out.next.v, -v0)
    g_ref = chain_rng(123, 0)
    g_ref.random(2)   # coordinate uniforms
    g_ref.random()    # acceptance uniform
    assert g_used.random() == g_ref.random()
