import numpy as np
import pytest
from scipy import stats

from latmc.errors import InvalidStateError, NumericGuardError
from latmc.precondition import factorize, first_order_preconditioner, lambda_shift
from latmc.proposals import (
    LOG_FLOOR,
    _conditional_from_cdf,
    cdf_rows,
    over_relax_conditional,
    over_relax_log_prob_rows,
    over_relax_sample_rows,
    proposal_log_rows,
    sample_rows_inverse_cdf,
)
from latmc.samplers import ChainState, SamplerConfig, pavg_step, vpdhams_transition_terms
from latmc.targets import QuadraticTarget, integer_lattice


def conditional_matrix(pmf, beta):
    K = len(pmf)
    return np.array(
        [[over_relax_conditional(pmf, i, j, beta) for j in range(K)] for i in range(K)]
    )


def grid_oracle_conditional(pmf, x0, x1, beta, n=10**4):
    """Average over a w~ grid of the exactly-measured landing overlap."""
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    a = cdf[x0 - 1] if x0 else 0.0
    b = cdf[x0]
    lo = cdf[x1 - 1] if x1 else 0.0
    hi = cdf[x1]
    p0 = b - a
    total = 0.0
    for w in (np.arange(n) + 0.5) / n:
        u = (beta * w - b) % 1.0
        end = u + p0
        if end <= 1.0:
            total += max(0.0, min(end, hi) - max(u, lo))
        else:
            total += max(0.0, hi - max(u, lo)) + max(0.0, min(end - 1.0, hi) - lo)
    return total / n / p0


class TestBuildProposal:
    def test_near_uniform_limit(self):
        pre = factorize(np.zeros((3, 3)), 1e-12)
        values = np.linspace(-2, 2, 5)
        rows = proposal_log_rows(np.zeros(3), np.zeros(3), np.zeros(3), pre, values)
        assert np.abs(np.exp(rows) - 0.2).max() < 1e-6

    def test_two_point_hand_case(self):
        # lam = 2, coefficient 1 on values {0, 1}: logits (0, 0) -> (1/2, 1/2)
        pre = factorize(np.zeros((1, 1)), 2.0)
        rows = proposal_log_rows(np.array([1.0]), np.zeros(1), np.zeros(1), pre, np.array([0.0, 1.0]))
        assert np.array_equal(rows, np.full((1, 2), -np.log(2.0)))
        assert np.allclose(np.exp(rows), 0.5, atol=1e-15)

    def test_reference_point_cancels_on_quadratic(self, rng):
        # with W matching the quadratic coefficient, the proposal does not
        # depend on where it was expanded
        t = QuadraticTarget(integer_lattice(2, 3), np.array([[-0.8, 0.2], [0.2, -0.5]]), np.array([0.4, -0.1]))
        pre = factorize(t.W_true, lambda_shift(t.W_true, 0.2))
        z = rng.normal(size=2)
        rows = None
        for _ in range(5):
            s_ref = t.lattice.random_point(rng)
            log_rows = proposal_log_rows(t.grad_f(s_ref), s_ref, z, pre, t.lattice.values)
            if rows is None:
                rows = log_rows
            assert np.abs(log_rows - rows).max() < 1e-10

    def test_rows_normalized(self, rng):
        pre = factorize(rng.normal(size=(3, 3)) * 0.0, 0.7)
        rows = proposal_log_rows(rng.normal(size=3), np.zeros(3), rng.normal(size=3), pre, np.linspace(-3, 3, 7))
        assert np.abs(np.exp(rows).sum(axis=1) - 1.0).max() < 1e-12

    def test_point_log_prob_factorizes(self, rng):
        # the kernels' forward proposal log-probability of a point is the sum
        # of its per-coordinate row entries
        pre = first_order_preconditioner(3, 0.5)
        t = QuadraticTarget(integer_lattice(3, 2), -0.3 * np.eye(3), rng.normal(size=3))
        s = np.array([1.0, -2.0, 0.0])
        v_half = rng.normal(size=3)
        rows = proposal_log_rows(t.grad_f(s), s, s - v_half, pre, t.lattice.values)
        idx = np.array([0, 3, 4])
        manual = sum(rows[i, idx[i]] for i in range(3))
        terms = vpdhams_transition_terms(s, v_half, t.lattice.values[idx], t, pre, SamplerConfig(delta=0.5))
        assert terms["log_q_fwd"] == pytest.approx(manual, abs=1e-12)

    def test_numeric_guard(self):
        pre = first_order_preconditioner(1, 0.5)
        with pytest.raises(NumericGuardError):
            proposal_log_rows(np.array([np.inf]), np.zeros(1), np.zeros(1), pre, np.array([0.0, 1.0]))


class TestSampleProduct:
    def test_degenerate_row(self, rng):
        pre = first_order_preconditioner(1, 1.0)
        values = np.array([0.0, 1.0])
        rows = proposal_log_rows(np.array([500.0]), np.zeros(1), np.zeros(1), pre, values)
        draws = {float(values[sample_rows_inverse_cdf(np.exp(rows), rng.random(1))[0]]) for _ in range(50)}
        assert draws == {1.0}

    def test_binomial_confidence(self, rng):
        p = 0.3
        pmf = np.array([[p, 1 - p]])
        n = 10**5
        idx = sample_rows_inverse_cdf(np.tile(pmf, (n, 1)), rng.random(n))
        freq = (idx == 0).mean()
        assert abs(freq - p) < 4 * np.sqrt(p * (1 - p) / n)

    def test_consumes_one_uniform_per_coordinate(self):
        # a momentum-free step draws d normals, one proposal uniform per
        # coordinate and one acceptance uniform
        pre = first_order_preconditioner(2, 1.0)
        t = QuadraticTarget(integer_lattice(2, 1), -np.eye(2), np.zeros(2))
        g_used = np.random.default_rng(5)
        out = pavg_step(ChainState(np.zeros(2)), t, pre, g_used)
        assert out.proposal.shape == (2,)
        g_ref = np.random.default_rng(5)
        g_ref.standard_normal(2)
        g_ref.random(2)
        g_ref.random()
        assert g_used.random() == g_ref.random()


class TestOverRelax:
    def test_beta_zero_reflection(self):
        pmf = np.array([[0.5, 0.5]])
        x0 = np.array([0])
        # w0 = 0.25, w~ = 0.77 unused by the map
        x1 = over_relax_sample_rows(pmf, x0, 0.0, np.array([0.5]), np.array([0.77]))
        logp = over_relax_log_prob_rows(cdf_rows(pmf), x0, x1, 0.0)[0]
        assert x1[0] == 1
        assert logp == pytest.approx(0.0, abs=1e-12)  # deterministic landing

    def test_exact_marginal_preservation(self, rng):
        for _ in range(25):
            K = int(rng.integers(2, 6))
            pmf = rng.dirichlet(np.ones(K))
            beta = float(rng.uniform(-1, 1))
            P = conditional_matrix(pmf, beta)
            assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
            assert np.abs(pmf @ P - pmf).max() < 1e-12

    def test_exact_joint_symmetry(self, rng):
        for _ in range(25):
            K = int(rng.integers(2, 6))
            pmf = rng.dirichlet(np.ones(K))
            beta = float(rng.uniform(-1, 1))
            joint = pmf[:, None] * conditional_matrix(pmf, beta)
            assert np.abs(joint - joint.T).max() < 1e-13

    def test_matches_grid_oracle(self, rng):
        for _ in range(20):
            K = int(rng.integers(2, 6))
            pmf = rng.dirichlet(np.ones(K))
            beta = float(rng.uniform(-1, 1))
            x0 = int(rng.integers(0, K))
            x1 = int(rng.integers(0, K))
            got = over_relax_conditional(pmf, x0, x1, beta)
            want = grid_oracle_conditional(pmf, x0, x1, beta)
            assert abs(got - want) < 1e-6

    @pytest.mark.parametrize("beta", [1.0, -1.0])
    def test_unit_beta_is_independent_redraw(self, beta):
        pmf = np.array([0.3, 0.15, 0.55])
        P = conditional_matrix(pmf, beta)
        assert np.abs(P - pmf[None, :]).max() < 1e-14

    def test_chi_square_marginal(self, rng):
        pmf = np.array([0.2, 0.5, 0.3])
        n = 10**5
        x0 = sample_rows_inverse_cdf(np.tile(pmf, (n, 1)), rng.random(n))
        x1 = over_relax_sample_rows(np.tile(pmf, (n, 1)), x0, 0.25, rng.random(n), rng.random(n))
        counts = np.bincount(x1, minlength=3)
        assert stats.chisquare(counts, n * pmf).pvalue > 1e-4

    def test_single_value_row(self):
        pmf = np.array([[1.0]])
        x0 = np.array([0])
        x1 = over_relax_sample_rows(pmf, x0, 0.3, np.array([0.4]), np.array([0.6]))
        logp = over_relax_log_prob_rows(cdf_rows(pmf), x0, x1, 0.3)[0]
        assert x1[0] == 0
        assert logp == pytest.approx(0.0, abs=1e-12)

    def test_zero_probability_state_rejected(self):
        with pytest.raises(InvalidStateError):
            over_relax_conditional(np.array([1.0, 0.0]), 1, 1, 0.3)
        with pytest.raises(InvalidStateError):
            over_relax_conditional(np.array([1.0, 0.0]), 1, 0, 0.3)

    def test_sampling_matches_conditional_law(self, rng):
        # production sampler frequencies against the closed-form law
        pmf = np.array([0.25, 0.4, 0.35])
        beta = -0.6
        n = 4 * 10**4
        for x0 in range(3):
            x1 = over_relax_sample_rows(
                np.tile(pmf, (n, 1)), np.full(n, x0), beta, rng.random(n), rng.random(n)
            )
            freq = np.bincount(x1, minlength=3) / n
            law = conditional_matrix(pmf, beta)[x0]
            assert np.abs(freq - law).max() < 4 * np.sqrt(0.25 / n) + 1e-3


class TestZeroWidthLimit:
    # CDF rows in which the current value x0 = 2 (or 0, or the last value)
    # has a zero-width interval, as underflowed tails give
    ROWS = [
        (np.array([0.2, 0.5, 0.5, 0.8, 1.0]), 2),
        (np.array([0.0, 0.3, 0.6, 0.9, 1.0]), 0),
        (np.array([0.1, 0.4, 1.0, 1.0, 1.0]), 4),
        (np.array([0.25, 0.25, 0.25, 0.7, 1.0]), 1),
    ]

    @pytest.mark.parametrize("beta", [0.0, 0.3, -0.7, 1.4])
    def test_matches_scalar_law(self, beta):
        cdf = np.stack([row for row, _ in self.ROWS])
        for step in (-1, 0, 1):  # x1 below, at and above x0
            x0 = np.array([x for _, x in self.ROWS])
            x1 = np.clip(x0 + step, 0, 4)
            got = over_relax_log_prob_rows(cdf, x0, x1, beta)
            for row in range(len(self.ROWS)):
                prob = _conditional_from_cdf(cdf[row], int(x0[row]), int(x1[row]), beta)
                want = max(np.log(prob), LOG_FLOOR) if prob > 0.0 else LOG_FLOOR
                assert got[row] == pytest.approx(want, abs=1e-12), (row, step)


class TestCdfRows:
    def test_monotone_when_running_sum_overshoots(self):
        # the running sum passes 1 before the last entry
        pmf = np.array([[0.5, 0.5000000000000002, 0.0]])
        assert np.cumsum(pmf)[1] > 1.0
        cdf = cdf_rows(pmf)
        assert np.all(np.diff(cdf, axis=-1) >= 0.0)
        assert cdf[0, -1] == 1.0 and cdf.max() == 1.0
