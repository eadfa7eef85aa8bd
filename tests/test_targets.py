import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from latmc import targets
from latmc.errors import EnumerationBudgetError
from latmc.harness import ExperimentConfig, build_target
from latmc.targets import (
    ClockPottsTarget,
    LatticeSpec,
    QuadraticTarget,
    clock_potts,
    discrete_gaussian,
    enumerate_joint,
    integer_lattice,
    marginal,
    quadratic_mixture,
)

from conftest import finite_diff_grad

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DESK_CONFIGS = ("discrete_gaussian_desk", "quadratic_mixture_desk", "clock_potts_desk")


class TestLatticeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeSpec(0, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            LatticeSpec(2, np.array([1.0]))
        with pytest.raises(ValueError):
            LatticeSpec(2, np.array([1.0, 1.0, 2.0]))

    def test_index_roundtrip(self, rng):
        lat = integer_lattice(3, 4)
        for _ in range(20):
            p = lat.random_point(rng)
            assert np.array_equal(lat.values[lat.index_of(p)], p)
        with pytest.raises(ValueError):
            lat.index_of(np.array([0.5, 0.0, 0.0]))

    @pytest.mark.parametrize("n_values, dtype", [
        (2, np.uint8), (256, np.uint8), (257, np.uint16), (1 << 16, np.uint16), ((1 << 16) + 1, np.uint32),
    ])
    def test_index_dtype_is_the_smallest_that_holds_every_index(self, n_values, dtype):
        assert LatticeSpec(1, np.arange(n_values, dtype=float)).index_dtype == dtype


class TestDiscreteGaussian:
    def test_zero_at_origin(self):
        for d in (1, 3, 8):
            t = discrete_gaussian(d, 5, 2.0, 0.3)
            assert t.f(np.zeros(d)) == 0.0
            assert np.all(t.grad_f(np.zeros(d)) == 0.0)

    def test_scalar_formula(self):
        # univariate case reduces to -s^2 / (2 sigma^2)
        t = discrete_gaussian(1, 10, 5.0, 0.0)
        assert t.f(np.array([5.0])) == pytest.approx(-0.5, abs=1e-14)

    def test_closed_form_inverse_matches_dense(self):
        d, k, sigma, rho = 8, 10, 5.0, 0.9
        t = discrete_gaussian(d, k, sigma, rho)
        cov = sigma**2 * (rho * np.ones((d, d)) + (1 - rho) * np.eye(d))
        dense = np.linalg.inv(cov)
        assert np.abs(-t.W_true - dense).max() < 1e-10

    def test_permutation_invariance(self, rng):
        t = discrete_gaussian(5, 3, 2.0, 0.7)
        for _ in range(20):
            s = t.lattice.random_point(rng)
            perm = rng.permutation(5)
            assert t.f(s[perm]) == pytest.approx(t.f(s), rel=1e-12)

    def test_rejects_indefinite_rho(self):
        with pytest.raises(ValueError):
            discrete_gaussian(4, 3, 1.0, -0.5)
        with pytest.raises(ValueError):
            discrete_gaussian(4, 3, 1.0, 1.0)
        with pytest.raises(ValueError):
            discrete_gaussian(4, 3, 0.0, 0.5)


class TestQuadraticMixture:
    def test_single_centered_component(self):
        t = quadratic_mixture(d=3, k=2, M=1, means=np.zeros((1, 3)), variances=np.array([1.0]))
        assert t.f(np.zeros(3)) == 0.0
        assert np.all(t.grad_f(np.zeros(3)) == 0.0)

    def test_default_config_symmetric_center(self):
        # default component layout is symmetric under s -> -s, so the
        # gradient vanishes at the center
        t = quadratic_mixture()
        grad = t.grad_f(np.zeros(10))
        assert np.abs(grad).max() < 1e-12

    def test_gradient_matches_finite_differences(self):
        t = quadratic_mixture()
        s = np.ones(10)
        grad = t.grad_f(s)
        fd = finite_diff_grad(t, s)
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-8)

    def test_log_sum_exp_matches_scipy(self, rng):
        t = quadratic_mixture()
        pts = rng.integers(-10, 11, size=(300, 10)).astype(float)
        diff = t.means - pts[:, None, :]
        lk = -0.5 * (diff**2).sum(axis=2) / t.variances
        f_ref = logsumexp(lk, axis=1)
        w = np.exp(lk - f_ref[:, None])
        grad_ref = (diff / t.variances[:, None] * w[:, :, None]).sum(axis=1)
        assert np.allclose(t.f_batch(pts), f_ref, rtol=1e-12, atol=0.0)
        scale = np.abs(grad_ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(t.grad_batch(pts) - grad_ref) <= 1e-12 * scale)
        assert t.f(pts[0]) == t.f_batch(pts[:1])[0]
        assert np.array_equal(t.grad_f(pts[0]), t.grad_batch(pts[:1])[0])

    def test_no_overflow_at_far_corner(self):
        t = quadratic_mixture()
        corner = np.full(10, 10.0)
        assert np.isfinite(t.f(corner))
        assert np.all(np.isfinite(t.grad_f(corner)))


class TestClockPotts:
    def test_aligned_spins(self):
        for side, q, coupling in ((3, 5, 1.0), (4, 7, -1.0)):
            t = clock_potts(side, q, coupling)
            s = np.full(side * side, 2.0)
            assert t.f(s) == pytest.approx(coupling * 2 * side * side, rel=1e-12)
            assert np.abs(t.grad_f(s)).max() == 0.0

    def test_benchmark_scale_shape(self):
        t = clock_potts(20, 7)
        assert t.lattice.dim == 400
        assert t._neighbors["right"].size + t._neighbors["down"].size == 800

    def test_small_lattice_matches_edge_enumeration(self):
        # 2x2 periodic lattice: right+down edge list double-counts each
        # physical pair, giving 8 edge terms
        t = clock_potts(2, 4, 1.0)
        s = np.array([0.0, 1.0, 2.0, 3.0])
        theta = 2 * np.pi * s / 4
        edges = [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (2, 0), (1, 3), (3, 1)]
        expected = sum(np.cos(theta[i] - theta[j]) for i, j in edges)
        assert t.f(s) == pytest.approx(expected, rel=1e-12)

    def test_global_shift_invariance(self, rng):
        t = clock_potts(3, 5, -1.0)
        for _ in range(10):
            s = t.lattice.random_point(rng)
            shifted = np.mod(s + rng.integers(1, 5), 5)
            assert t.f(shifted) == pytest.approx(t.f(s), rel=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        t = clock_potts(3, 5, 1.0)
        s = t.lattice.random_point(rng)
        assert np.allclose(t.grad_f(s), finite_diff_grad(t, s), rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: discrete_gaussian(4, 3, 2.0, 0.6),
        lambda: quadratic_mixture(d=3, k=4, M=3, means=[[-2.0] * 3, [0.5] * 3, [2.0] * 3], variances=[1.0, 2.0, 1.5]),
        lambda: clock_potts(3, 6, 1.0),
    ],
)
def test_gradient_check_100_points(factory, rng):
    target = factory()
    for _ in range(100):
        s = target.lattice.random_point(rng)
        grad = target.grad_f(s)
        fd = finite_diff_grad(target, s)
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)


def test_batch_evaluators_match_scalar(rng):
    for target in (
        discrete_gaussian(3, 3, 2.0, 0.4),
        quadratic_mixture(d=2, k=3, M=2, means=[[-1.0, 0.0], [1.0, 1.0]], variances=[1.0, 2.0]),
        clock_potts(2, 3, 1.0),
    ):
        pts = np.stack([target.lattice.random_point(rng) for _ in range(15)])
        assert np.array_equal(target.f_batch(pts), np.array([target.f(p) for p in pts]))
        assert np.array_equal(target.grad_batch(pts), np.stack([target.grad_f(p) for p in pts]))


class TestIndexedEvaluation:
    @pytest.mark.parametrize(
        "side, q, coupling",
        [(2, 3, 1.0), (3, 4, 0.5), (20, 7, 1.0), (4, 2, -1.0), (3, 200, 1.0)],
    )
    @pytest.mark.parametrize("store", ["index_dtype", "int16"])
    def test_clock_tables_match_batch_evaluators(self, side, q, coupling, store, rng):
        t = clock_potts(side, q, coupling)
        # the store dtype run_chains records (uint8 for these q), and int16;
        # at q = 200, (q - 1) * q wraps in either
        dtype = t.lattice.index_dtype if store == "index_dtype" else np.int16
        idx = rng.integers(0, q, size=(5, side * side)).astype(dtype)
        idx[0, 0] = q - 1
        S, F, G = t.evaluate_indices(idx)
        assert np.array_equal(S, t.lattice.values[idx])
        assert np.array_equal(F, t.f_batch(S))
        assert np.array_equal(G, t.grad_batch(S))

    def test_clock_above_table_limit_uses_batch_evaluators(self, rng):
        q = ClockPottsTarget.TABLE_MAX_Q + 1
        t = clock_potts(2, q)
        assert t._cos_table is None
        idx = rng.integers(0, q, size=(3, 4))
        S, F, G = t.evaluate_indices(idx)
        assert np.array_equal(F, t.f_batch(S))
        assert np.array_equal(G, t.grad_batch(S))

    @pytest.mark.parametrize(
        "target",
        [
            discrete_gaussian(3, 3, 2.0, 0.4),
            quadratic_mixture(d=2, k=3, M=2, means=[[-1.0, 0.0], [1.0, 1.0]], variances=[1.0, 2.0]),
            clock_potts(3, 5, 1.0),
        ],
    )
    def test_values_energies_and_gradients_at_indices(self, target, rng):
        idx = rng.integers(0, target.lattice.n_values, size=(6, target.lattice.dim))
        S, F, G = target.evaluate_indices(idx)
        assert np.array_equal(S, target.lattice.values[idx])
        assert np.array_equal(F, target.f_batch(S))
        assert np.array_equal(G, target.grad_batch(S))
        S2, F2, G2 = target.evaluate_indices(idx, grad=False)
        assert G2 is None
        assert np.array_equal(S2, S) and np.array_equal(F2, F)


class TestEnumerateJoint:
    def test_uniform_for_constant_potential(self):
        class Flat(QuadraticTarget):
            pass

        t = Flat(LatticeSpec(1, np.array([-1.0, 0.0, 1.0])), np.zeros((1, 1)), np.zeros(1))
        table = enumerate_joint(t)
        assert np.allclose(table, 1.0 / 3.0, atol=1e-15)

    def test_symmetric_marginal(self):
        t = discrete_gaussian(2, 3, 5.0, 0.9)
        marg = marginal(enumerate_joint(t), (0,))
        assert np.abs(marg - marg[::-1]).max() < 1e-14

    def test_matches_order_permuted_summation(self, rng):
        w = np.array([[-0.7, 0.2], [0.2, -0.5]])
        b = np.array([0.1, -0.3])
        t = QuadraticTarget(integer_lattice(2, 2), w, b)
        table = enumerate_joint(t)
        # independent oracle: accumulate unnormalized weights in reversed
        # iteration order
        vals = t.lattice.values
        points = list(itertools.product(range(5), repeat=2))
        energies = {p: t.f(vals[list(p)]) for p in points}
        peak = max(energies.values())
        acc = {}
        for p in reversed(points):
            acc[p] = np.exp(energies[p] - peak)
        total = sum(acc[p] for p in reversed(points))
        oracle = np.array([[acc[(i, j)] / total for j in range(5)] for i in range(5)])
        assert np.abs(table - oracle).max() < 1e-12

    def test_normalization_and_shift_invariance(self):
        t = QuadraticTarget(integer_lattice(2, 2), np.array([[-0.5, 0.1], [0.1, -0.4]]), np.zeros(2))
        table = enumerate_joint(t)
        assert abs(table.sum() - 1.0) < 1e-12

        class Shifted(QuadraticTarget):
            def f(self, s):
                return super().f(s) + 123.456

            def f_batch(self, pts):
                return super().f_batch(pts) + 123.456

        shifted = Shifted(t.lattice, t.W_true, t.b)
        assert np.abs(enumerate_joint(shifted) - table).max() < 1e-12

    def test_coordinate_order(self):
        t = QuadraticTarget(integer_lattice(2, 1), np.array([[-0.5, 0.3], [0.3, -0.4]]), np.array([0.2, 0.0]))
        ab = marginal(enumerate_joint(t), (0, 1))
        ba = marginal(enumerate_joint(t), (1, 0))
        assert np.abs(ab - ba.T).max() < 1e-15

    def test_budget_guard(self):
        t = discrete_gaussian(8, 10, 5.0, 0.9)  # 21^8 states
        with pytest.raises(EnumerationBudgetError):
            enumerate_joint(t)


def chunked_enumeration(target):
    """The table built in 32,768-state chunks of unravelled indices, then
    normalized out of place: the construction the blocked one replaced."""
    K, d = target.lattice.n_values, target.lattice.dim
    shape, total = (K,) * d, K**d
    energies = np.empty(total)
    chunk = 1 << 15
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.unravel_index(np.arange(start, stop), shape)
        energies[start:stop] = target.evaluate_indices(np.stack(idx, axis=1), grad=False)[1]
    table = np.exp(energies - energies.max()).reshape(shape)
    return table / table.sum()


def desk_target(name):
    return build_target(ExperimentConfig.from_yaml(CONFIGS / f"{name}.yaml").target)


class TestBlockedEnumeration:
    def assert_same_bits(self, target):
        table, oracle = enumerate_joint(target), chunked_enumeration(target)
        assert table.shape == oracle.shape and table.dtype == oracle.dtype
        assert table.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("name", DESK_CONFIGS)
    def test_desk_targets(self, name):
        self.assert_same_bits(desk_target(name))

    @pytest.mark.parametrize("d, k", [(1, 4), (3, 2), (4, 3), (5, 3), (6, 3)])
    def test_below_at_and_above_one_block(self, d, k, rng, monkeypatch):
        # K = 2k + 1 against 125-row blocks: 9 states (part of one block), 5^3 (one
        # block), 7^4, 7^5 and 7^6 (many)
        monkeypatch.setattr(targets, "ENUMERATION_BLOCK_ROWS", 125)
        w = rng.normal(size=(d, d))
        self.assert_same_bits(QuadraticTarget(integer_lattice(d, k), 0.1 * (w + w.T), rng.normal(size=d)))

    def test_one_coordinate(self):
        self.assert_same_bits(discrete_gaussian(1, 7, 2.0, 0.0))

    def test_more_values_than_block_rows(self, monkeypatch):
        # a block keeps every value of the last coordinate, past the row cap
        monkeypatch.setattr(targets, "ENUMERATION_BLOCK_ROWS", 8)
        self.assert_same_bits(quadratic_mixture(d=3, k=5, M=2, means=[[-1.0] * 3, [2.0] * 3], variances=[1.5, 2.5]))
        self.assert_same_bits(clock_potts(2, 9, -1.0))

    def test_more_values_than_block_rows_at_the_shipped_cap(self):
        k = targets.ENUMERATION_BLOCK_ROWS // 2 + 50
        self.assert_same_bits(discrete_gaussian(1, k, 400.0, 0.0))
        self.assert_same_bits(QuadraticTarget(integer_lattice(2, 30), np.array([[-0.02, 0.01], [0.01, -0.03]]), np.ones(2)))

    def test_peak_memory_is_the_table_plus_one_block(self):
        target = desk_target("clock_potts_desk")
        tracemalloc.start()
        try:
            table = enumerate_joint(target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes + 2**20
