import numpy as np
import pytest
from scipy import stats

from latmc import proposals
from latmc.errors import InvalidStateError, NumericGuardError
from latmc.precondition import factorize, first_order_preconditioner, lambda_shift
from latmc.proposals import (
    LAW_BLOCK_ROWS,
    LOG_FLOOR,
    cdf_interval_rows,
    cdf_rows,
    over_relax_conditional,
    over_relax_log_prob_rows,
    over_relax_rows_from_cdf,
    proposal_log_entries,
    proposal_log_rows,
    row_entries,
    sample_rows_inverse_cdf,
)
from latmc.samplers import ChainState, SamplerConfig, step_kernel, transition_terms
from latmc.targets import QuadraticTarget, integer_lattice
from over_relax_oracle import _conditional_from_cdf


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
        terms = transition_terms("vpdhams", s, v_half, t.lattice.values[idx], t, pre, SamplerConfig(delta=0.5))
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
        # a momentum-free step takes exactly 2d + 1 doubles: one per refresh
        # normal, one proposal uniform per coordinate and one acceptance uniform
        pre = first_order_preconditioner(2, 1.0)
        t = QuadraticTarget(integer_lattice(2, 1), -np.eye(2), np.zeros(2))
        g_used = np.random.default_rng(5)
        out = step_kernel("pavg", ChainState(np.zeros(2)), t, pre, SamplerConfig(), g_used)
        assert out.proposal.shape == (2,)
        g_ref = np.random.default_rng(5)
        g_ref.random(2 * 2 + 1)
        assert g_used.random() == g_ref.random()


class TestOverRelax:
    def test_beta_zero_reflection(self):
        pmf = np.array([[0.5, 0.5]])
        x0 = np.array([0])
        # w0 = 0.25, w~ = 0.77 unused by the map
        x1 = over_relax_rows_from_cdf(cdf_rows(pmf), x0, 0.0, np.array([0.5]), np.array([0.77]))
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
        x1 = over_relax_rows_from_cdf(cdf_rows(np.tile(pmf, (n, 1))), x0, 0.25, rng.random(n), rng.random(n))
        counts = np.bincount(x1, minlength=3)
        assert stats.chisquare(counts, n * pmf).pvalue > 1e-4

    def test_single_value_row(self):
        pmf = np.array([[1.0]])
        x0 = np.array([0])
        x1 = over_relax_rows_from_cdf(cdf_rows(pmf), x0, 0.3, np.array([0.4]), np.array([0.6]))
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
            x1 = over_relax_rows_from_cdf(
                cdf_rows(np.tile(pmf, (n, 1))), np.full(n, x0), beta, rng.random(n), rng.random(n)
            )
            freq = np.bincount(x1, minlength=3) / n
            law = conditional_matrix(pmf, beta)[x0]
            assert np.abs(freq - law).max() < 4 * np.sqrt(0.25 / n) + 1e-3


ZERO_WIDTH_CASES = [
    (width, beta) for width in ("0", "3e-17", "1.7e-16", "1e-15") for beta in (0.0, 0.1, 0.3, -0.7, 1.4, 2.5)
]


class TestZeroWidthLimit:
    # CDF rows keyed by the width of the current value's interval: zero, as
    # underflowed tails give (x0 = 2, or 0, or the last value), and so narrow
    # that rounding divided by the width would be of order one; the 1.7e-16 rows
    # straddle 1/2, so reflecting either whole interval, x0's or x1's, rounds
    ROWS = {
        "0": [
            (np.array([0.2, 0.5, 0.5, 0.8, 1.0]), 2),
            (np.array([0.0, 0.3, 0.6, 0.9, 1.0]), 0),
            (np.array([0.1, 0.4, 1.0, 1.0, 1.0]), 4),
            (np.array([0.25, 0.25, 0.25, 0.7, 1.0]), 1),
        ],
        "3e-17": [
            (np.array([1e-18, 3e-17, 0.3, 0.7, 1.0]), 1),
            (np.array([3e-17, 0.3, 0.6, 0.9, 1.0]), 0),
            (np.array([1e-17, 2e-17, 5e-17, 0.5, 1.0]), 2),
        ],
        "1.7e-16": [
            (np.array([0.2, 0.5 - 2.0**-54, 0.5 + 2.0**-53, 0.8, 1.0]), 2),
            (np.array([0.5 - 2.0**-54, 0.5 + 2.0**-53, 0.6, 0.9, 1.0]), 1),
        ],
        "1e-15": [
            (np.array([0.2, 0.5, 0.5 + 1e-15, 0.8, 1.0]), 2),
            (np.array([0.1, 0.4, 1.0 - 1e-15, 1.0, 1.0]), 3),
            (np.array([1e-15, 0.3, 0.6, 0.9, 1.0]), 0),
            (np.array([0.25, 0.25, 0.25 + 1e-15, 0.7, 1.0]), 2),
        ],
    }

    @pytest.mark.parametrize("width, beta", ZERO_WIDTH_CASES)
    def test_matches_scalar_law(self, width, beta):
        rows = self.ROWS[width]
        cdf = np.stack([row for row, _ in rows])
        x0 = np.array([x for _, x in rows])
        for value in range(5):
            x1 = np.full_like(x0, value)
            got = over_relax_log_prob_rows(cdf, x0, x1, beta)
            for row in range(len(rows)):
                prob = _conditional_from_cdf(cdf[row], int(x0[row]), int(x1[row]), beta)
                assert np.exp(got[row]) == pytest.approx(prob, abs=1e-12), (row, value)
                if width == "0":
                    want = max(np.log(prob), LOG_FLOOR) if prob > 0.0 else LOG_FLOOR
                    assert got[row] == pytest.approx(want, abs=1e-12), (row, value)


class TestLawInRowBlocks:
    # the desk row shape, and more rows than two law blocks with a ragged third
    SHAPES = [((10, 9), 4), ((2 * LAW_BLOCK_ROWS + 17,), 7)]
    BETAS = [0.0, 1.0, 2.0, -1.0, 0.1, 0.3, 0.7, -0.9, 2.5]

    @staticmethod
    def value_major_cdf(rng, shape, K):
        """CDF rows over C-contiguous value planes, with zero-width intervals
        (zero masses) and intervals too narrow to survive near 1 (1e-17 masses
        placed after the rest of the row)."""
        pmf = rng.dirichlet(np.full(K, 0.5), size=shape)
        pmf[rng.random(pmf.shape) < 0.15] = 0.0
        top = rng.random(shape) < 0.3
        pmf[top, -2:] = 1e-17
        cdf = cdf_rows(np.moveaxis(np.ascontiguousarray(np.moveaxis(pmf, -1, 0)), 0, -1))
        assert np.moveaxis(cdf, -1, 0).flags["C_CONTIGUOUS"]
        return cdf

    @pytest.mark.parametrize("shape, K", SHAPES)
    @pytest.mark.parametrize("beta", BETAS)
    def test_matches_oracle_and_takes_a_gathered_interval(self, rng, monkeypatch, shape, K, beta):
        cdf = self.value_major_cdf(rng, shape, K)
        x0 = rng.integers(0, K, size=shape)
        lower, upper = interval = cdf_interval_rows(cdf, x0)
        assert ((upper == lower) & (lower < 0.5)).any() and ((upper == lower) & (lower > 0.5)).any()
        u0, u_tilde = rng.random(shape), rng.random(shape)
        x1 = over_relax_rows_from_cdf(cdf, x0, beta, u0, u_tilde)
        assert np.array_equal(over_relax_rows_from_cdf(cdf, x0, beta, u0, u_tilde, x0_interval=interval), x1)
        for to in (x1, rng.integers(0, K, size=shape)):
            got = over_relax_log_prob_rows(cdf, x0, to, beta)
            assert np.array_equal(over_relax_log_prob_rows(cdf, x0, to, beta, x0_interval=interval), got)
            with monkeypatch.context() as m:
                m.setattr(proposals, "LAW_BLOCK_ROWS", x0.size)  # all rows in one block
                assert np.array_equal(over_relax_log_prob_rows(cdf, x0, to, beta), got)
            flat = [a.reshape(-1, *a.shape[x0.ndim:]) for a in (cdf, x0, to, np.exp(got))]
            # about 200 rows spread over every block, the last row, and rows whose x0 interval is empty
            empty = np.flatnonzero(upper == lower)
            picks = [*range(0, x0.size, max(1, x0.size // 200)), x0.size - 1, *empty[:10]]
            for row in picks:
                want = _conditional_from_cdf(flat[0][row], int(flat[1][row]), int(flat[2][row]), beta)
                assert flat[3][row] == pytest.approx(want, abs=1e-12), row


class TestCdfRows:
    def test_monotone_when_running_sum_overshoots(self):
        # the running sum passes 1 before the last entry
        pmf = np.array([[0.5, 0.5000000000000002, 0.0]])
        assert np.cumsum(pmf)[1] > 1.0
        cdf = cdf_rows(pmf)
        assert np.all(np.diff(cdf, axis=-1) >= 0.0)
        assert cdf[0, -1] == 1.0 and cdf.max() == 1.0


# Trailing-value-axis forms of the row functions, as they were written before
# rows were stored value-major: the oracle the value-major code must match
# bit for bit.
def trailing_log_rows(grad, s_ref, z, pre, values):
    coeff = grad - s_ref @ pre.W
    coeff = coeff + z @ pre.W_shifted
    logits = -0.5 * pre.lam * values**2 + coeff[..., None] * values
    peak = logits.max(axis=-1)
    weights = np.exp(logits - peak[..., None])
    total = weights[..., 0]
    for k in range(1, weights.shape[-1]):  # values summed in index order
        total = total + weights[..., k]
    log_norms = np.log(total) + peak
    return np.maximum(logits - log_norms[..., None], LOG_FLOOR)


def trailing_cdf(pmf_rows):
    cdf = np.minimum(np.cumsum(pmf_rows, axis=-1), 1.0)
    cdf[..., -1] = 1.0
    return cdf


def trailing_inverse_cdf(pmf_rows, uniforms):
    return (trailing_cdf(pmf_rows) > uniforms[..., None]).argmax(axis=-1)


def trailing_entries(rows, idx):
    return np.take_along_axis(rows, idx[..., None], axis=-1)[..., 0]


def trailing_over_relax(cdf, x0, beta, u0, u_tilde):
    lower = np.where(x0 > 0, trailing_entries(cdf, np.maximum(x0 - 1, 0)), 0.0)
    w0 = lower + (trailing_entries(cdf, x0) - lower) * u0
    w1 = (-w0 + beta * u_tilde) % 1.0
    return (cdf > w1[..., None]).argmax(axis=-1)


class TestValueMajorRows:
    # (leading shape, K): the clock, gauss, desk and one-chain shapes, stacked
    # forward/backward rows, and value counts around numpy's pairwise-sum
    # blocks (8 values, 128 elements), which the index-order row sum must not
    # follow, each with up to 128 rows and with more
    SHAPES = [
        ((50, 400), 7), ((100, 8), 21), ((2, 100, 8), 21), ((20, 4), 11), ((10, 9), 4),
        ((8,), 21), ((1, 8), 21), ((3,), 1), ((5, 3), 8), ((5, 3), 9), ((4, 2), 17),
        ((3, 2), 300), ((30, 5), 8), ((30, 5), 9), ((200,), 16), ((40, 5), 300),
    ]

    @staticmethod
    def rows_case(rng, shape, K, lam, dense):
        d = shape[-1]
        if dense:
            a = rng.normal(size=(d, d))
            w = -0.1 * (a @ a.T)
            pre = factorize(w, lambda_shift(w, lam))
        else:
            pre = first_order_preconditioner(d, lam)
        values = np.arange(K, dtype=float) - K // 2
        grad = rng.normal(size=shape) * 3.0
        s_ref = rng.choice(values, size=shape)
        z = s_ref + rng.normal(size=shape)
        return (grad, s_ref, z, pre, values)

    @pytest.mark.parametrize("shape, K", SHAPES)
    @pytest.mark.parametrize("lam, dense", [(0.7, False), (0.7, True), (1e4, False)])
    def test_row_functions_match_trailing_oracle(self, rng, shape, K, lam, dense):
        args = self.rows_case(rng, shape, K, lam, dense)
        rows = proposal_log_rows(*args)
        assert np.array_equal(rows, trailing_log_rows(*args))
        assert np.moveaxis(rows, -1, 0).flags["C_CONTIGUOUS"]
        if lam > 1.0 and K > 1:
            assert (rows == LOG_FLOOR).any()  # tails underflow to the floor
        pmf = np.exp(rows)
        cdf = cdf_rows(pmf)
        assert np.array_equal(cdf, trailing_cdf(pmf))
        assert np.moveaxis(cdf, -1, 0).flags["C_CONTIGUOUS"]
        overwritten = np.exp(rows)
        assert np.array_equal(cdf_rows(overwritten, in_place=True), cdf)
        assert np.array_equal(overwritten, cdf)
        u = rng.random(shape)
        assert np.array_equal(sample_rows_inverse_cdf(pmf, u), trailing_inverse_cdf(pmf, u))
        assert np.array_equal(pmf, np.exp(rows))  # the default leaves its input as it was
        owned = np.exp(rows)
        assert np.array_equal(sample_rows_inverse_cdf(owned, u, in_place=True), trailing_inverse_cdf(pmf, u))
        assert np.array_equal(owned, cdf)
        idx = rng.integers(0, K, size=shape)
        assert np.array_equal(row_entries(rows, idx), trailing_entries(rows, idx))
        entries = proposal_log_entries(*args, idx)
        assert np.array_equal(entries, trailing_entries(trailing_log_rows(*args), idx))
        if lam > 1.0 and K > 1:
            assert (entries == LOG_FLOOR).any()
        u0, u_tilde = rng.random(shape), rng.random(shape)
        for beta in (1.0, 0.3, -0.8):
            assert np.array_equal(
                over_relax_rows_from_cdf(cdf, idx, beta, u0, u_tilde),
                trailing_over_relax(cdf, idx, beta, u0, u_tilde),
            )

    @pytest.mark.parametrize("shape, K", SHAPES)
    @pytest.mark.parametrize("lam, beta", [
        (0.7, 0.1), (0.7, -0.9), (1e4, 0.3), (1e4, 2.7), (0.7, 0.0), (1e4, 0.0), (0.7, 1.0), (1e4, -2.0),
    ])
    def test_over_relax_law_matches_oracle(self, rng, shape, K, lam, beta):
        # lam = 1e4 rows floor their tails, so most x0 intervals are zero or
        # subnormal wide
        cdf = cdf_rows(np.exp(proposal_log_rows(*self.rows_case(rng, shape, K, lam, False))))
        x0 = rng.integers(0, K, size=shape)
        x1 = over_relax_rows_from_cdf(cdf, x0, beta, rng.random(shape), rng.random(shape))
        x1_any = rng.integers(0, K, size=shape)
        for to in (x1, x1_any):
            prob = np.exp(over_relax_log_prob_rows(cdf, x0, to, beta))
            assert prob.max() <= 1.0 + 1e-12
            flat = [a.reshape(-1, *a.shape[x0.ndim:]) for a in (cdf, x0, to, prob)]
            for row in rng.choice(x0.size, size=min(x0.size, 12), replace=False):
                want = _conditional_from_cdf(flat[0][row], int(flat[1][row]), int(flat[2][row]), beta)
                assert flat[3][row] == pytest.approx(want, abs=1e-12), row

    def test_fractional_part_by_floor_is_remainder_to_the_bit(self, rng):
        # the over-relaxation law takes x mod 1 as x - floor(x)
        tiny = np.finfo(float).smallest_subnormal
        edges = np.array([0.0, 1.0, 2.0, 0.5, 1e-300, tiny, 2.0**-1022, 2.0**-53, 2.0**-54, 1e-17])
        edges = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
        x = np.concatenate([edges, -edges, rng.uniform(-2.0, 2.0, 10**5)])
        assert np.array_equal((x - np.floor(x)).view(np.int64), (x % 1.0).view(np.int64))

    def test_trailing_layout_inputs_give_the_same_values(self, rng):
        pmf = rng.dirichlet(np.ones(9), size=(6, 5))  # C-contiguous, value axis last
        u = rng.random((6, 5))
        assert np.array_equal(cdf_rows(pmf), trailing_cdf(pmf))
        assert np.array_equal(sample_rows_inverse_cdf(pmf, u), trailing_inverse_cdf(pmf, u))

    def test_landing_point_that_rounds_to_one_lands_on_zero(self):
        # w0 = 0 and beta * w~ a tiny negative number: (-w0 + beta w~) mod 1 == 1.0
        cdf = cdf_rows(np.array([[0.0, 0.25, 0.75], [0.5, 0.5, 0.0]]))
        x0, u0, u_tilde = np.array([0, 0]), np.zeros(2), np.full(2, 1e-300)
        assert np.all((-0.0 + -1.0 * u_tilde) % 1.0 == 1.0)
        got = over_relax_rows_from_cdf(cdf, x0, -1.0, u0, u_tilde)
        assert np.array_equal(got, trailing_over_relax(cdf, x0, -1.0, u0, u_tilde))
        assert np.array_equal(got, [0, 0])
