import itertools

import numpy as np
import pytest

from latmc.diagnostics import (
    empirical_pmf,
    ess_multichain,
    exact_moments,
    index_pmf,
    moment_report,
    tv_distance,
)
from latmc.errors import SupportMismatchError
from latmc.targets import QuadraticTarget, enumerate_joint, integer_lattice, marginal


class TestTVDistance:
    def test_examples(self):
        assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert tv_distance([0.5, 0.5], [1.0, 0.0]) == 0.5
        assert tv_distance([0.25, 0.75], [0.5, 0.5]) == 0.25

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatchError):
            tv_distance(np.ones(3) / 3, np.ones(4) / 4)

    def test_metric_properties(self, rng):
        for _ in range(30):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            r = rng.dirichlet(np.ones(5))
            assert tv_distance(p, q) == pytest.approx(tv_distance(q, p), abs=1e-15)
            assert tv_distance(p, p) == 0.0
            assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12
            assert 0.0 <= tv_distance(p, q) <= 1.0


class TestEmpiricalPmf:
    @staticmethod
    def _tables(draws, lat, coords):
        """The table from lattice values and from lattice indices."""
        yield empirical_pmf(draws, lat, coords)
        yield index_pmf(lat.index_of(draws)[:, list(coords)], lat.n_values)

    def test_counts(self):
        lat = integer_lattice(2, 1)
        draws = np.array([[-1.0, 0.0], [-1.0, 0.0], [1.0, 1.0], [0.0, -1.0]])
        for table in self._tables(draws, lat, (0, 1)):
            assert table[0, 1] == 0.5
            assert table[2, 2] == 0.25
            assert table.sum() == pytest.approx(1.0)

    def test_coordinate_selection(self):
        lat = integer_lattice(3, 1)
        draws = np.array([[-1.0, 0.0, 1.0]] * 4)
        for marg in self._tables(draws, lat, (2,)):
            assert np.array_equal(marg, [0.0, 0.0, 1.0])


class TestESS:
    def test_hand_case_is_exactly_one(self):
        x = np.array([[0.0, 1.0], [1.0, 2.0]])
        assert ess_multichain(x) == 1.0

    def test_affine_invariance(self, rng):
        x = rng.standard_normal((5, 200))
        base = ess_multichain(x)
        assert ess_multichain(3.7 * x - 11.0) == pytest.approx(base, rel=1e-12)

    def test_constant_chains_undefined(self):
        assert ess_multichain(np.ones((3, 10))) is None

    def test_iid_sanity_band(self):
        # frozen-seed band check: ESS/T for iid noise stays within [0.2, 5]
        # across 100 replications (the estimator is a scaled chi-square
        # ratio; the band was verified empirically for this seed family)
        rng = np.random.default_rng(3)
        T = 10**4
        for _ in range(100):
            ratio = ess_multichain(rng.standard_normal((10, T))) / T
            assert 0.2 <= ratio <= 5.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ess_multichain(np.ones(10))
        with pytest.raises(ValueError):
            ess_multichain(np.ones((1, 10)))


class TestExactMoments:
    def test_cross_moments_match_every_ordered_pair(self, rng):
        w = rng.normal(size=(3, 3))
        t = QuadraticTarget(integer_lattice(3, 2), -np.eye(3) + 0.1 * (w + w.T), rng.normal(size=3))
        pmf, values = enumerate_joint(t), t.lattice.values
        exact = exact_moments(pmf, values)
        second, cross = exact["second"], exact["cross"]
        for i, j in itertools.product(range(3), repeat=2):
            # the loop over ordered pairs it replaced, summing the (i, j) marginal
            expected = second[i] if i == j else values @ marginal(pmf, (i, j)) @ values
            if i <= j:
                assert cross[i, j] == expected
            else:
                assert cross[i, j] == cross[j, i] == pytest.approx(expected, rel=1e-14, abs=1e-15)


class TestMomentReport:
    def _uniform_target(self):
        return QuadraticTarget(integer_lattice(2, 1), np.zeros((2, 2)), np.zeros(2))

    def test_exact_replay_has_zero_bias(self):
        # uniform pmf: chains replaying the full lattice hit the exact
        # moments, so the squared bias vanishes
        t = self._uniform_target()
        pmf = enumerate_joint(t)
        pts = np.array(list(itertools.product(t.lattice.values, repeat=2)))
        report = moment_report([pts, pts[::-1]], exact_moments(pmf, t.lattice.values))
        assert report["mean"]["bias2"] <= 1e-20
        assert report["second"]["bias2"] <= 1e-20
        assert report["cross"]["bias2"] <= 1e-20

    def test_symmetric_target_bias_equals_mean_square(self, rng):
        # exact first moments vanish by symmetry, so the squared bias of the
        # mean estimate equals the squared across-chain average
        t = QuadraticTarget(integer_lattice(2, 2), -0.5 * np.eye(2), np.zeros(2))
        pmf = enumerate_joint(t)
        exact = exact_moments(pmf, t.lattice.values)
        assert np.abs(exact["mean"]).max() < 1e-15
        chains = [t.lattice.values[rng.integers(0, 5, size=(40, 2))] for _ in range(4)]
        report = moment_report(chains, exact)
        across = np.stack([c.mean(axis=0) for c in chains]).mean(axis=0)
        assert report["mean"]["bias2"] == pytest.approx((across**2).mean(), rel=1e-12)

    def test_without_exact_moments(self, rng):
        chains = [rng.standard_normal((30, 3)) for _ in range(3)]
        report = moment_report(chains)
        assert report["mean"]["bias2"] is None
        assert report["mean"]["variance"] > 0


    @pytest.mark.parametrize("d", [1, 3])
    def test_one_chain_at_a_time_matches_the_list(self, rng, d):
        # the harness hands over a generator of per-chain draws; the
        # estimates are the same operations, so every bit agrees
        t = QuadraticTarget(integer_lattice(d, 2), -0.5 * np.eye(d), np.zeros(d))
        exact = exact_moments(enumerate_joint(t), t.lattice.values)
        idx = rng.integers(0, 5, size=(4, 50, d)).astype(t.lattice.index_dtype)
        chains = [t.lattice.values[c] for c in idx]
        for truth in (exact, None):
            expected = moment_report(chains, truth)
            assert moment_report((t.lattice.values[c] for c in idx), truth) == expected
            assert moment_report(t.lattice.values[idx], truth) == expected
        if d == 1:  # no index pairs
            assert expected["cross"] == {"bias2": None, "variance": None}

    def test_variance_is_numpys_ddof_1_variance_to_the_bit(self, rng):
        chains = [rng.standard_normal((40, 6)) for _ in range(5)]
        iu = np.triu_indices(6, k=1)
        estimates = {
            "mean": np.stack([x.mean(axis=0) for x in chains]),
            "second": np.stack([(x**2).mean(axis=0) for x in chains]),
            "cross": np.stack([(x.T @ x / len(x))[iu] for x in chains]),
        }
        report = moment_report(chains)
        for name, est in estimates.items():
            assert report[name]["variance"] == float(np.var(est, axis=0, ddof=1).mean()), name

    @pytest.mark.parametrize("n_chains", [0, 1])
    def test_fewer_than_two_chains_raise(self, rng, n_chains):
        with pytest.raises(ValueError, match="at least two chains"):
            moment_report(rng.standard_normal((30, 3)) for _ in range(n_chains))
