import json
import pickle

import numpy as np
import pytest

from latmc.errors import CalibrationError, RankDeficiencyError
from latmc.precondition import (
    CalibrationSample,
    Preconditioner,
    calibrate_w_energy_diff,
    calibrate_w_gradient_diff,
    exact_quadratic_preconditioner,
    factorize,
    first_order_preconditioner,
    lambda_shift,
    scaling_check,
)
from latmc.targets import QuadraticTarget, discrete_gaussian, integer_lattice, quadratic_mixture

from conftest import random_walk_states


def random_quadratic(d, rng, k=3):
    w = rng.normal(size=(d, d))
    w = 0.5 * (w + w.T)
    b = rng.normal(size=d)
    return QuadraticTarget(integer_lattice(d, k), w, b)


def walk_sample(target, n, rng):
    states = random_walk_states(target.lattice, n, rng)
    return CalibrationSample.from_states(target, states)


class TestGradientDiffCalibration:
    def test_scalar_case(self):
        t = QuadraticTarget(integer_lattice(1, 2), np.array([[-2.0]]), np.zeros(1))
        sample = CalibrationSample.from_states(t, np.array([[0.0], [1.0], [2.0]]))
        w = calibrate_w_gradient_diff(sample)
        assert w[0, 0] == pytest.approx(-2.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 5, 10])
    def test_quadratic_recovery(self, d, rng):
        t = random_quadratic(d, rng)
        sample = walk_sample(t, 20 * d, rng)
        w = calibrate_w_gradient_diff(sample)
        assert np.abs(w - t.W_true).max() < 1e-8

    def test_lyapunov_matches_kronecker(self, rng):
        t = random_quadratic(3, rng)
        # non-quadratic perturbation so the two solvers see a nontrivial fit
        states = random_walk_states(t.lattice, 30, rng)
        grads = t.grad_batch(states) + 0.05 * np.sin(states)
        sample = CalibrationSample(states, grads, t.f_batch(states))
        w_lyap = calibrate_w_gradient_diff(sample)
        # oracle: the stationarity equation as a dense Kronecker linear system
        ds, df, _ = sample.differences()
        gram, eye = ds.T @ ds, np.eye(3)
        w_kron = np.linalg.solve(np.kron(eye, gram) + np.kron(gram, eye), (ds.T @ df + df.T @ ds).reshape(-1))
        w_kron = w_kron.reshape(3, 3)
        assert np.abs(w_lyap - 0.5 * (w_kron + w_kron.T)).max() < 1e-9

    def test_stationarity_residual(self, rng):
        t = quadratic_mixture(d=3, k=3, M=2, means=[[-1.0] * 3, [1.5] * 3], variances=[1.5, 2.5])
        sample = walk_sample(t, 60, rng)
        w = calibrate_w_gradient_diff(sample)
        ds, df, _ = sample.differences()
        gram = ds.T @ ds
        rhs = ds.T @ df + df.T @ ds
        resid = np.linalg.norm(gram @ w + w @ gram - rhs)
        assert resid <= 1e-8 * np.linalg.norm(ds.T @ df)

    def test_rank_deficiency(self):
        t = QuadraticTarget(integer_lattice(2, 2), -np.eye(2), np.zeros(2))
        states = np.tile(np.array([1.0, 0.0]), (6, 1))
        sample = CalibrationSample.from_states(t, states)
        with pytest.raises(RankDeficiencyError):
            calibrate_w_gradient_diff(sample)
        # moves along a single direction cannot identify a 2x2 matrix
        states = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
        with pytest.raises(RankDeficiencyError):
            calibrate_w_gradient_diff(CalibrationSample.from_states(t, states))


def sample_with_gram_cond(d, cond, rng):
    """A sample of 3d moves whose Gram matrix Ds^T Ds has condition number
    ``cond``, with random gradient differences."""
    n = 3 * d
    q, _ = np.linalg.qr(rng.normal(size=(n, d)))
    v, _ = np.linalg.qr(rng.normal(size=(d, d)))
    ds = (q * np.sqrt(np.geomspace(1.0, cond, d))) @ v.T
    states = np.vstack([np.zeros(d), np.cumsum(ds, axis=0)])
    grads = np.vstack([np.zeros(d), np.cumsum(rng.normal(size=(n, d)), axis=0)])
    return CalibrationSample(states, grads, np.zeros(n + 1))


class TestGradientDiffOracles:
    # the eigenbasis solve against scipy's Bartels-Stewart solver and the dense Kronecker system
    @staticmethod
    def stationarity(sample):
        ds, df, _ = sample.differences()
        return ds.T @ ds, ds.T @ df + df.T @ ds

    @pytest.mark.parametrize("cond", [1e2, 1e5, 1e9])
    @pytest.mark.parametrize("d", [9, 55, 400])
    def test_matches_scipy_lyapunov(self, d, cond, rng):
        from scipy.linalg import solve_continuous_lyapunov

        ours, theirs = [], []
        for _ in range(3):
            sample = sample_with_gram_cond(d, cond, rng)
            gram, rhs = self.stationarity(sample)
            assert np.linalg.cond(gram) == pytest.approx(cond, rel=1e-3)
            w = calibrate_w_gradient_diff(sample)
            w_ref = solve_continuous_lyapunov(gram, rhs)
            w_ref = 0.5 * (w_ref + w_ref.T)
            assert np.abs(w - w_ref).max() <= 1e-14 * cond * np.abs(w_ref).max()
            residual = lambda m: np.linalg.norm(gram @ m + m @ gram - rhs) / np.linalg.norm(rhs)
            ours.append(residual(w))
            theirs.append(residual(w_ref))
        # the worst of three residuals, as either solver's varies from sample to sample
        assert max(ours) <= 4.0 * max(theirs)

    @pytest.mark.parametrize("cond", [1e2, 1e9])
    @pytest.mark.parametrize("d", [9, 55])
    def test_matches_kronecker_system(self, d, cond, rng):
        sample = sample_with_gram_cond(d, cond, rng)
        gram, rhs = self.stationarity(sample)
        eye = np.eye(d)
        w_kron = np.linalg.solve(np.kron(eye, gram) + np.kron(gram, eye), rhs.reshape(-1)).reshape(d, d)
        w_kron = 0.5 * (w_kron + w_kron.T)
        w = calibrate_w_gradient_diff(sample)
        assert np.abs(w - w_kron).max() <= 1e-14 * cond * np.abs(w_kron).max()

    def test_rank_deficiency_messages(self):
        t = QuadraticTarget(integer_lattice(2, 3), -np.eye(2), np.zeros(2))
        states = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(RankDeficiencyError, match="^only 1 distinct moves for dimension 2; sample more burn-in$"):
            calibrate_w_gradient_diff(CalibrationSample.from_states(t, states))
        states = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [0.0, 0.0]])
        singular = r"^state moves do not span the space \(Gram matrix numerically singular\)$"
        with pytest.raises(RankDeficiencyError, match=singular):
            calibrate_w_gradient_diff(CalibrationSample.from_states(t, states))


class TestCalibrationSample:
    @pytest.mark.parametrize("states, grads, energies, match", [
        (np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(1), "calibration needs at least two states"),
        (np.zeros((3, 2)), np.zeros((3, 3)), np.zeros(3), "grads must match states in shape"),
        (np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(2), "energies must match states in length"),
    ], ids=["one_state", "grads_shape", "energies_length"])
    def test_mismatched_fields_rejected(self, states, grads, energies, match):
        with pytest.raises(ValueError, match=match):
            CalibrationSample(states, grads, energies)


class TestEnergyDiffCalibration:
    def test_scalar_hand_case(self):
        # states (0, 1) under f = -s^2: residual a_1 = -1 against design 1/2
        t = QuadraticTarget(integer_lattice(1, 2), np.array([[-2.0]]), np.zeros(1))
        sample = CalibrationSample.from_states(t, np.array([[0.0], [1.0]]))
        w = calibrate_w_energy_diff(sample)
        assert w[0, 0] == pytest.approx(-2.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 5, 10])
    def test_quadratic_recovery(self, d, rng):
        t = random_quadratic(d, rng)
        sample = walk_sample(t, 15 * d * d, rng)
        w = calibrate_w_energy_diff(sample)
        assert np.abs(w - t.W_true).max() < 1e-8

    def test_degenerate_sample(self):
        t = QuadraticTarget(integer_lattice(2, 2), -np.eye(2), np.zeros(2))
        states = np.tile(np.array([1.0, 1.0]), (8, 1))
        with pytest.raises(RankDeficiencyError):
            calibrate_w_energy_diff(CalibrationSample.from_states(t, states))

    def test_moves_along_one_axis(self):
        # three distinct moves, enough in number for the three entries of a 2x2 W, span one direction
        t = QuadraticTarget(integer_lattice(2, 3), -np.eye(2), np.zeros(2))
        states = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [0.0, 0.0]])
        with pytest.raises(RankDeficiencyError, match="design matrix rank 1 < 3"):
            calibrate_w_energy_diff(CalibrationSample.from_states(t, states))


class TestEnergyDiffOracle:
    @pytest.mark.parametrize("d", [2, 5, 9])
    def test_matches_scipy_gelsy(self, d, rng):
        # a perturbed quadratic, so the residuals leave a nonzero least-squares misfit
        from scipy.linalg import lstsq

        t = random_quadratic(d, rng)
        states = random_walk_states(t.lattice, 15 * d * d, rng)
        grads = t.grad_batch(states) + 0.05 * np.sin(states)
        energies = t.f_batch(states) + 0.1 * np.cos(states).sum(axis=1)
        sample = CalibrationSample(states, grads, energies)
        ds, _, keep = sample.differences()
        rows, cols = np.triu_indices(d)
        a = (energies[1:] - energies[:-1])[keep] - (grads[:-1][keep] * ds).sum(axis=1)
        design = ds[:, rows] * ds[:, cols]
        design[:, rows == cols] *= 0.5
        solution, _, rank, _ = lstsq(design, a, lapack_driver="gelsy")
        assert rank == rows.size
        w_ref = np.zeros((d, d))
        w_ref[rows, cols] = solution
        w_ref[cols, rows] = solution
        w = calibrate_w_energy_diff(sample)
        assert np.abs(w - w_ref).max() <= 1e-12 * np.abs(w_ref).max()


class TestLambdaShift:
    def test_positive_spectrum_keeps_delta(self):
        w = np.diag([0.5, 2.0])
        assert lambda_shift(w, 0.1) == pytest.approx(0.1, abs=1e-15)

    def test_negative_spectrum_shifted_to_delta(self):
        w = np.diag([-0.4, 0.2])
        lam = lambda_shift(w, 0.058)
        assert lam == pytest.approx(0.458, abs=1e-12)
        assert np.linalg.eigvalsh(w + lam * np.eye(2))[0] == pytest.approx(0.058, abs=1e-8)

    def test_zero_matrix(self):
        assert lambda_shift(np.zeros((3, 3)), 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_delta_outside_open_half_line_rejected(self, delta):
        # nan used to reach eigvalsh (LinAlgError) and inf built a NaN factor
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            lambda_shift(np.zeros((3, 3)), delta)
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            first_order_preconditioner(3, delta)

    def test_floor_property(self, rng):
        for _ in range(25):
            d = rng.integers(2, 7)
            w = rng.normal(size=(d, d))
            w = 0.5 * (w + w.T)
            delta = float(rng.uniform(0.01, 2.0))
            lam = lambda_shift(w, delta)
            assert np.linalg.eigvalsh(w + lam * np.eye(d))[0] >= delta - 1e-8


class TestFactorize:
    def test_identity(self):
        pre = factorize(np.zeros((3, 3)), 1.0)
        assert pre.factorization_kind == "cholesky"
        assert np.abs(pre.L - np.eye(3)).max() < 1e-14

    def test_ill_conditioned_goes_eigen(self):
        w = np.diag([0.0, 9999.0])
        pre = factorize(w, 1.0)
        assert pre.factorization_kind == "eigen"
        assert np.abs(pre.L @ pre.L.T - (w + np.eye(2))).max() < 1e-10

    def test_residuals_both_kinds(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 8))
            w = rng.normal(size=(d, d))
            w = 0.5 * (w + w.T)
            lam = lambda_shift(w, float(rng.uniform(0.05, 1.0)))
            shifted = w + lam * np.eye(d)
            norm = np.linalg.norm(shifted)
            for threshold in (np.inf, 0.0):  # force each branch
                pre = factorize(w, lam, cond_threshold=threshold)
                resid = np.linalg.norm(pre.L @ pre.L.T - shifted)
                assert resid <= 1e-8 * norm
                assert np.abs(pre.L_inv_T @ pre.L.T - np.eye(d)).max() < 1e-8

    def test_not_positive_definite(self):
        with pytest.raises(CalibrationError):
            factorize(np.diag([-1.0, 0.0]), 0.5)

    def test_failed_cholesky_is_a_calibration_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        with pytest.raises(CalibrationError, match="Cholesky factorization failed: Matrix is not positive definite"):
            factorize(np.eye(2), 1.0)

    def test_first_order_preconditioner(self):
        pre = first_order_preconditioner(4, 0.3)
        assert pre.lam == pytest.approx(0.3)
        assert np.abs(pre.L - np.sqrt(0.3) * np.eye(4)).max() < 1e-14

    def test_exact_quadratic_requires_quadratic(self):
        t = quadratic_mixture(d=2, k=2, M=2, means=[[0.0, 0.0], [1.0, 1.0]], variances=[1.0, 2.0])
        with pytest.raises(CalibrationError):
            exact_quadratic_preconditioner(t, 0.1)

    def test_json_roundtrip(self, rng):
        from latmc.precondition import Preconditioner

        w = rng.normal(size=(3, 3))
        w = 0.5 * (w + w.T)
        pre = factorize(w, lambda_shift(w, 0.2))
        back = Preconditioner.from_dict(pre.to_dict())
        assert np.array_equal(back.W, pre.W)
        assert np.array_equal(back.L, pre.L)
        assert back.lam == pre.lam
        assert back.factorization_kind == pre.factorization_kind


class TestScaling:
    def test_identity_scale(self, rng):
        t = random_quadratic(3, rng)
        sample = walk_sample(t, 50, rng)
        w_s, w_y = scaling_check(t, 1.0, sample)
        assert np.array_equal(w_s, w_y)

    @pytest.mark.parametrize("method", ["gradient_diff", "energy_diff"])
    def test_quadratic_quarter_rule(self, method, rng):
        t = random_quadratic(2, rng)
        sample = walk_sample(t, 60, rng)
        w_s, w_y = scaling_check(t, 2.0, sample, method=method)
        assert np.abs(w_y - w_s / 4.0).max() < 1e-8 * max(1.0, np.abs(w_s).max())

    def test_mixture_hundredfold(self, rng):
        t = quadratic_mixture(d=2, k=4, M=2, means=[[-2.0, -2.0], [2.0, 2.0]], variances=[2.0, 3.0])
        sample = walk_sample(t, 80, rng)
        w_s, w_y = scaling_check(t, 10.0, sample, method="gradient_diff")
        ratio = w_s / w_y
        assert np.abs(ratio - 100.0).max() < 1e-6 * 100.0

    def test_zero_scale_rejected(self, rng):
        t = random_quadratic(2, rng)
        sample = walk_sample(t, 30, rng)
        with pytest.raises(ValueError):
            scaling_check(t, 0.0, sample)

    def test_unknown_method_rejected(self, rng):
        t = random_quadratic(2, rng)
        sample = walk_sample(t, 30, rng)
        with pytest.raises(ValueError, match="unknown calibration method 'bogus'"):
            scaling_check(t, 2.0, sample, method="bogus")


class TestDiagonalProducts:
    # every product the kernels take, by name, with its dense matrix
    DENSE = {
        "W": lambda pre: pre.W,
        "W_shifted": lambda pre: pre.W_shifted,
        "L": lambda pre: pre.L,
        "L_inv": lambda pre: pre.L_inv_T.T,
    }

    def check(self, pre, rng, diagonal):
        x = rng.normal(size=(7, pre.dim)) * 5.0
        for name, dense in self.DENSE.items():
            assert (pre._factors[name].ndim == 1) == (name in diagonal), name
            assert np.array_equal(pre.times(x, name), x @ dense(pre)), name
            assert np.array_equal(pre.times(x[0], name), x[0] @ dense(pre)), name

    def test_first_order_products_are_elementwise(self, rng):
        for d, delta in ((400, 15.5), (8, 0.058), (1, 2.0)):
            self.check(first_order_preconditioner(d, delta), rng, set(self.DENSE))

    def test_factorized_diagonal_w(self, rng):
        w = np.diag(rng.uniform(-1.0, 1.0, size=6))
        pre = factorize(w, lambda_shift(w, 0.3))
        assert pre.factorization_kind == "cholesky"
        self.check(pre, rng, set(self.DENSE))

    def test_gauss_exact_takes_the_dense_product(self, rng):
        pre = exact_quadratic_preconditioner(discrete_gaussian(8, 10, 3.0, 0.5), 0.058)
        self.check(pre, rng, set())

    def test_eigen_factor_of_a_diagonal_w_is_permuted(self, rng):
        # descending eigenvalues permute the factor of a diagonal W off the diagonal
        w = np.diag([1.0, 300.0, 2.0, 50.0])
        pre = factorize(w, lambda_shift(w, 0.5))
        assert pre.factorization_kind == "eigen"
        assert np.count_nonzero(pre.L - np.diag(np.diag(pre.L))) > 0
        self.check(pre, rng, {"W", "W_shifted"})

    def test_round_trip_keeps_the_diagonal_products(self, rng):
        pre = first_order_preconditioner(5, 0.7)
        self.check(Preconditioner.from_dict(pre.to_dict()), rng, set(self.DENSE))


class TestClosedFormFirstOrder:
    """``first_order_preconditioner`` builds diagonals in closed form, with the
    bits the factorization of a zero W gives."""

    NAMES = ("W", "W_shifted", "L", "L_inv")

    def assert_same(self, pre, ref, rng):
        for name in ("W", "W_shifted", "L", "L_inv_T"):
            a, b = getattr(pre, name), getattr(ref, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert pre.lam == ref.lam and type(pre.lam) is type(ref.lam)
        assert pre.logdet == ref.logdet and pre.factorization_kind == ref.factorization_kind
        assert json.dumps(pre.to_dict()) == json.dumps(ref.to_dict())
        x = rng.normal(size=(5, pre.dim)) * 4.0
        for name in self.NAMES:
            assert pre.times(x, name).tobytes() == ref.times(x, name).tobytes(), name

    @staticmethod
    def factorized(d, delta, threshold=100.0):
        w = np.zeros((d, d))
        return factorize(w, lambda_shift(w, delta), threshold)

    @pytest.mark.parametrize("d", [1, 3, 8, 400])
    def test_bits_of_the_factorized_zero_matrix(self, d, rng):
        for delta in (0.058, 0.3, 1.0, 2, 15.5, 7.123456789, 1e-300):
            self.assert_same(first_order_preconditioner(d, delta), self.factorized(d, delta), rng)
        self.assert_same(first_order_preconditioner(d, 0.4, 1.5), self.factorized(d, 0.4, 1.5), rng)

    def test_holds_no_square_array(self):
        pre = first_order_preconditioner(400, 15.5)
        stored = [v for v in vars(pre).values() if isinstance(v, np.ndarray)]
        stored += list(pre._factors.values())
        assert stored and all(a.shape == (400,) for a in stored)

    def test_pickle_round_trip(self, rng):
        # workers > 1 send the preconditioner to each worker process
        pre = first_order_preconditioner(8, 0.7)
        back = pickle.loads(pickle.dumps(pre))
        assert all(a.ndim == 1 for a in back._factors.values())
        self.assert_same(back, pre, rng)

    @pytest.mark.parametrize("threshold", [1.0, 0.5])
    def test_threshold_at_most_one_keeps_the_eigen_factor(self, threshold, rng):
        pre = first_order_preconditioner(4, 0.3, threshold)
        assert pre.factorization_kind == "eigen"
        assert np.count_nonzero(pre.L - np.diag(np.diag(pre.L))) > 0  # anti-diagonal
        self.assert_same(pre, self.factorized(4, 0.3, threshold), rng)

    def test_json_record_restores_the_stored_diagonals(self, rng):
        pre = first_order_preconditioner(400, 15.5)
        back = Preconditioner.from_dict(json.loads(json.dumps(pre.to_dict())))
        assert all(back._factors[name].shape == (400,) for name in self.NAMES)
        self.assert_same(back, pre, rng)


class TestRecordForm:
    """``to_dict`` records W and L as stored: a diagonal as its d entries, a
    dense matrix as rows."""

    def test_first_order_record_holds_diagonals(self):
        record = first_order_preconditioner(400, 15.5).to_dict()
        assert record["W"] == [0.0] * 400
        assert record["L"] == [float(np.sqrt(15.5))] * 400
        assert len(json.dumps(record)) < 20_000

    def test_dense_record_keeps_its_bytes(self):
        pre = exact_quadratic_preconditioner(discrete_gaussian(8, 10, 3.0, 0.5), 0.058)
        assert pre._factors["W"].ndim == pre._factors["L"].ndim == 2
        dense = {"W": pre.W.tolist(), "lambda": pre.lam, "L": pre.L.tolist(),
                 "kind": pre.factorization_kind, "logdet": pre.logdet}
        assert json.dumps(pre.to_dict()) == json.dumps(dense)
