"""Black-box model interface: MAP search and prior normalization."""

import numpy as np
import pytest

import evidkit as ek
from evidkit.exceptions import AccuracyFailure, ConvergenceFailure
from evidkit.generic import GRAD_STEP, HESS_STEP, _stencil_derivatives, log_trapezoid_integral

from helpers import logistic_model, random_glm_instance

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def polynomial_glm(seed, d, n=200, sigma=0.5):
    """Wrapped-GLM recipe of the benchmark: scaled polynomial design, unit prior."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    G = ek.scaled_polynomial_design(x, d - 1, float(np.std(x)))
    y = G @ rng.standard_normal(d) + sigma * rng.standard_normal(n)
    return ek.GaussianLinearSpec(G=G, sigma=sigma, lam=1.0), ek.ObservationSet(y=y)


def gaussian_prior_model(lam=1.0, bound=12.0, log_lik=None):
    return ek.GenericModelSpec(
        dim=1,
        log_lik=log_lik or (lambda theta: 0.0),
        regularizer=lambda theta: 0.5 * lam**2 * float(theta[0]) ** 2,
        support=[[-bound, bound]])


class TestFiniteDifferences:
    def test_gradient_on_cubic(self):
        def f(theta):
            return theta[0] ** 3 + 2.0 * theta[0] * theta[1] - theta[1] ** 2

        point = np.array([0.7, -1.3])
        grad = ek.finite_difference_gradient(f, point)
        expected = [3 * 0.7**2 + 2 * (-1.3), 2 * 0.7 - 2 * (-1.3)]
        np.testing.assert_allclose(grad, expected, atol=1e-7)

    def test_hessian_on_cubic(self):
        def f(theta):
            return theta[0] ** 3 + 2.0 * theta[0] * theta[1] - theta[1] ** 2

        point = np.array([0.7, -1.3])
        hess = ek.finite_difference_hessian(f, point)
        np.testing.assert_allclose(hess, [[6 * 0.7, 2.0], [2.0, -2.0]], atol=1e-5)


class TestStencil:
    @staticmethod
    def _f(theta):
        return float(np.sin(theta @ theta) + theta[0] ** 3 * np.exp(theta[-1]))

    @staticmethod
    def _reference_hessian(f, theta, step):
        # One point at a time, as written out in the textbook formulas.
        d = theta.size
        h = step * (1.0 + np.abs(theta))
        f0 = f(theta)
        hess = np.empty((d, d))
        for i in range(d):
            up, dn = theta.copy(), theta.copy()
            up[i] += h[i]
            dn[i] -= h[i]
            hess[i, i] = (f(up) - 2.0 * f0 + f(dn)) / (h[i] * h[i])
            for j in range(i + 1, d):
                corners = []
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    p = theta.copy()
                    p[i] += si * h[i]
                    p[j] += sj * h[j]
                    corners.append(f(p))
                hess[i, j] = hess[j, i] = (corners[0] - corners[1] - corners[2]
                                           + corners[3]) / (4.0 * h[i] * h[j])
        return hess

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_one_batch_matches_public_functions_exactly(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            theta = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 2)
            batch_calls = []

            def f_batch(points):
                batch_calls.append(len(points))
                return np.array([self._f(p) for p in points])

            grad, hess = _stencil_derivatives(f_batch, theta, GRAD_STEP, HESS_STEP)
            assert batch_calls == [1 + 2 * d + 2 * d * d]
            np.testing.assert_array_equal(grad, ek.finite_difference_gradient(self._f, theta))
            np.testing.assert_array_equal(hess, ek.finite_difference_hessian(self._f, theta))
            np.testing.assert_array_equal(
                hess, self._reference_hessian(self._f, theta, HESS_STEP))
            h = GRAD_STEP * (1.0 + np.abs(theta))
            reference_grad = [(self._f(theta + h[k] * e) - self._f(theta - h[k] * e))
                              / (2.0 * h[k]) for k, e in enumerate(np.eye(d))]
            np.testing.assert_array_equal(grad, reference_grad)


class TestMapOptimize:
    def test_wrapped_glm_matches_closed_form(self):
        rng = np.random.default_rng(7)
        spec, obs = random_glm_instance(rng, n=30, d=4, lam_range=(0.5, 3.0))
        model = ek.wrap_glm(spec, obs)
        theta = ek.map_optimize(model, np.zeros(spec.d))
        closed = ek.map_estimate(spec, obs)
        assert np.max(np.abs(theta - closed)) < 1e-6

    def test_two_quadratics(self):
        # maximizer of -(theta-3)^2/2 - theta^2/2 is 3/2
        model = ek.GenericModelSpec(
            dim=1,
            log_lik=lambda theta: -0.5 * (float(theta[0]) - 3.0) ** 2,
            regularizer=lambda theta: 0.5 * float(theta[0]) ** 2,
            support=[[-20.0, 20.0]])
        theta = ek.map_optimize(model, np.array([0.0]))
        assert theta[0] == pytest.approx(1.5, abs=1e-8)

    def test_logistic_against_dense_grid(self):
        model = logistic_model(seed=3)
        theta = ek.map_optimize(model, np.array([0.0]))
        grid = np.linspace(-10.0, 10.0, 1_000_000)
        points = grid[:, None]
        objective = model.log_lik(points) - model.regularizer(points)
        grid_argmax = grid[int(np.argmax(objective))]
        assert abs(theta[0] - grid_argmax) < 1e-4

    def test_invariant_under_constant_shift(self):
        model = logistic_model(seed=3)
        shifted = ek.GenericModelSpec(
            dim=1, log_lik=lambda pts: model.log_lik(pts) + 123.25,
            regularizer=model.regularizer, support=model.support, vectorized=True)
        theta = ek.map_optimize(model, np.array([0.5]))
        theta_shifted = ek.map_optimize(shifted, np.array([0.5]))
        assert abs(theta[0] - theta_shifted[0]) < 1e-6

    def test_no_interior_stationary_point(self):
        # Linear objective on a box: the maximum sits on the boundary.
        model = ek.GenericModelSpec(
            dim=1, log_lik=lambda theta: float(theta[0]),
            regularizer=lambda theta: 0.0, support=[[0.0, 1.0]])
        with pytest.raises(ConvergenceFailure) as excinfo:
            ek.map_optimize(model, np.array([0.5]), max_iter=25)
        assert excinfo.value.best_theta[0] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("seed,d", [(30, 3), (154, 2)])
    def test_newton_stall_converges_to_closed_form(self, seed, d):
        # Both cases end with Newton steps whose predicted gain is below the
        # objective's rounding.  (30, 3) raised ConvergenceFailure when the
        # likelihood formed the full residual; (154, 2) does without the
        # Newton-decrement test.
        spec, obs = polynomial_glm(seed, d)
        model = ek.wrap_glm(spec, obs)
        theta = ek.map_optimize(model, model.effective_box.mean(axis=1))
        assert np.max(np.abs(theta - ek.map_estimate(spec, obs))) < 1e-6

    def test_wrapped_glm_sweep_converges_from_box_centre(self):
        for seed in range(34):
            for d in (1, 2, 3):
                spec, obs = polynomial_glm(seed, d)
                model = ek.wrap_glm(spec, obs)
                theta = ek.map_optimize(model, model.effective_box.mean(axis=1))
                assert np.max(np.abs(theta - ek.map_estimate(spec, obs))) < 1e-6

    def test_start_outside_support_rejected(self):
        model = gaussian_prior_model()
        with pytest.raises(ValueError, match="outside"):
            ek.map_optimize(model, np.array([50.0]))


class TestMultistart:
    @staticmethod
    def _bimodal():
        # Two well-separated modes; the one at +3 is higher.
        def log_lik(theta):
            t = float(theta[0])
            return float(np.logaddexp(np.log(0.2) - 0.5 * ((t + 3.0) / 0.3) ** 2,
                                      np.log(0.8) - 0.5 * ((t - 3.0) / 0.3) ** 2))

        return ek.GenericModelSpec(
            dim=1, log_lik=log_lik, regularizer=lambda theta: 0.0,
            support=[[-6.0, 6.0]])

    def test_finds_global_mode_and_records_basins(self):
        model = self._bimodal()
        result = ek.map_optimize_multistart(model, seed=0)
        assert result.theta[0] == pytest.approx(3.0, abs=1e-4)
        assert len(result.basins) == 8
        solutions = np.array([theta[0] for _, theta, _ in result.basins])
        assert np.any(np.abs(solutions + 3.0) < 0.1)  # minor basin visited too

    def test_deterministic_given_seed(self):
        model = self._bimodal()
        first = ek.map_optimize_multistart(model, seed=4)
        second = ek.map_optimize_multistart(model, seed=4)
        assert first.theta[0] == second.theta[0]
        assert first.value == second.value

    def test_requires_finite_box(self):
        model = ek.GenericModelSpec(
            dim=1, log_lik=lambda t: -float(t[0]) ** 2,
            regularizer=lambda t: 0.0, effective_box=[[-2.0, 2.0]])
        with pytest.raises(ValueError, match="finite box"):
            ek.map_optimize_multistart(model, seed=0)
        result = ek.map_optimize_multistart(model, seed=0, box=[[-2.0, 2.0]])
        assert result.theta[0] == pytest.approx(0.0, abs=1e-6)


class TestNormalizePrior:
    def test_unit_gaussian(self):
        prior = ek.normalize_prior(gaussian_prior_model(), 2001)
        assert prior.log_norm_const == pytest.approx(HALF_LOG_2PI, abs=1e-8)
        assert prior.method == "grid-quadrature"

    def test_scaled_gaussian(self):
        prior = ek.normalize_prior(gaussian_prior_model(lam=2.0, bound=6.0), 2001)
        assert prior.log_norm_const == pytest.approx(0.5 * np.log(2 * np.pi / 4.0),
                                                     abs=1e-8)

    def test_double_exponential(self):
        # The kink at zero limits the trapezoid to O(h^2); a fine grid is needed.
        model = ek.GenericModelSpec(
            dim=1, log_lik=lambda theta: 0.0,
            regularizer=lambda theta: abs(float(theta[0])),
            support=[[-30.0, 30.0]])
        prior = ek.normalize_prior(model, 40001)
        assert prior.log_norm_const == pytest.approx(np.log(2.0), abs=1e-6)

    def test_richardson_error_estimate_bounds_refinement(self):
        model = ek.GenericModelSpec(
            dim=1, log_lik=lambda theta: 0.0,
            regularizer=lambda theta: abs(float(theta[0])),
            support=[[-30.0, 30.0]])
        coarse = ek.normalize_prior(model, 1001)
        fine = ek.normalize_prior(model, 2001)
        change = abs(fine.log_norm_const - coarse.log_norm_const)
        assert change < 4.0 * coarse.err_estimate + 1e-15

    def test_accuracy_failure_carries_both_values(self):
        model = ek.GenericModelSpec(
            dim=1, log_lik=lambda theta: 0.0,
            regularizer=lambda theta: abs(float(theta[0])),
            support=[[-30.0, 30.0]])
        with pytest.raises(AccuracyFailure) as excinfo:
            ek.normalize_prior(model, 101, max_err=1e-12)
        assert excinfo.value.value is not None
        assert excinfo.value.coarse_value is not None

    def test_unbounded_support_widens_declared_box(self):
        model = ek.GenericModelSpec(
            dim=1, log_lik=lambda theta: 0.0,
            regularizer=lambda theta: 0.5 * float(theta[0]) ** 2,
            support=None, effective_box=[[-1.0, 1.0]])
        prior = ek.normalize_prior(model, 4001)
        assert prior.box[0, 1] >= 8.0
        assert prior.log_norm_const == pytest.approx(HALF_LOG_2PI, abs=1e-6)

    def test_non_decaying_integrand_is_loud(self):
        model = ek.GenericModelSpec(
            dim=1, log_lik=lambda theta: 0.0,
            regularizer=lambda theta: 0.0,
            support=None, effective_box=[[-1.0, 1.0]])
        with pytest.raises(AccuracyFailure, match="boundary"):
            ek.normalize_prior(model, 101)

    def test_missing_effective_box_rejected(self):
        model = ek.GenericModelSpec(
            dim=1, log_lik=lambda theta: 0.0,
            regularizer=lambda theta: 0.5 * float(theta[0]) ** 2)
        with pytest.raises(ValueError, match="effective_box"):
            ek.normalize_prior(model, 101)

    def test_dimension_limit(self):
        model = ek.GenericModelSpec(
            dim=4, log_lik=lambda theta: 0.0,
            regularizer=lambda theta: 0.5 * float(np.sum(np.square(theta))),
            support=[[-5.0, 5.0]] * 4)
        with pytest.raises(ValueError, match="dim <= 3"):
            ek.normalize_prior(model, 101)

    def test_two_dimensional_gaussian(self):
        model = ek.GenericModelSpec(
            dim=2, log_lik=lambda theta: 0.0,
            regularizer=lambda theta: 0.5 * float(np.sum(np.square(theta))),
            support=[[-10.0, 10.0]] * 2)
        prior = ek.normalize_prior(model, 201)
        assert prior.log_norm_const == pytest.approx(np.log(2 * np.pi), abs=1e-8)


class TestWrapGlm:
    def test_wrapped_log_likelihood_matches(self):
        rng = np.random.default_rng(21)
        spec, obs = random_glm_instance(rng, n=12, d=2)
        model = ek.wrap_glm(spec, obs)
        theta = rng.standard_normal(2)
        wrapped = float(model.log_lik(theta[None, :])[0])
        assert wrapped == pytest.approx(ek.glm_log_likelihood(spec, obs, theta), abs=1e-10)

    @pytest.mark.parametrize("n,d", [(200, 1), (200, 3), (1000, 2), (25, 3)])
    def test_log_likelihood_matches_far_from_mode(self, n, d):
        spec, obs = polynomial_glm(n + d, d, n=n)
        model = ek.wrap_glm(spec, obs)
        theta_hat = ek.map_estimate(spec, obs)
        rng = np.random.default_rng(d)
        # Corners and random points out to ten prior sd (1/lam) from the mode.
        signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).reshape(d, -1).T
        offsets = np.vstack([10.0 * signs, rng.uniform(-10.0, 10.0, (50, d)), np.zeros((1, d))])
        points = theta_hat + offsets / spec.lam
        wrapped = model.log_lik(points)
        direct = [ek.glm_log_likelihood(spec, obs, p) for p in points]
        np.testing.assert_allclose(wrapped, direct, rtol=1e-12)

    def test_closed_form_prior_normalizer(self):
        spec = ek.GaussianLinearSpec(G=[[1.0]], sigma=1.0, lam=2.0)
        prior = ek.glm_normalized_prior(spec)
        assert prior.method == "closed-form"
        assert prior.err_estimate == 0.0
        assert prior.log_norm_const == pytest.approx(0.5 * np.log(2 * np.pi / 4.0))


class TestScalarAndVectorizedSpecs:
    @staticmethod
    def _pair():
        rng = np.random.default_rng(5)
        x = rng.standard_normal(25)
        y = (rng.uniform(size=25) < 1.0 / (1.0 + np.exp(-(0.3 + x)))).astype(float)

        def log_lik(points):
            eta = points[:, :1] + np.outer(points[:, 1], x)
            return (y * eta - np.logaddexp(0.0, eta)).sum(axis=1)

        def regularizer(points):
            return 0.5 * (points * points).sum(axis=1)

        support = [[-8.0, 8.0]] * 2
        vectorized = ek.GenericModelSpec(dim=2, log_lik=log_lik, regularizer=regularizer,
                                         support=support, vectorized=True)
        scalar = ek.GenericModelSpec(
            dim=2, log_lik=lambda t: float(log_lik(t[None, :])[0]),
            regularizer=lambda t: float(regularizer(t[None, :])[0]), support=support)
        return scalar, vectorized

    def test_same_evidence(self):
        results = []
        for model in self._pair():
            prior = ek.normalize_prior(model, 41)
            results.append((prior.log_norm_const,
                            ek.evidence_quadrature(model, prior, 41).log_evidence,
                            ek.evidence_laplace(model, prior, err_check_grid=21).log_evidence))
        np.testing.assert_allclose(results[0], results[1], rtol=0.0, atol=1e-12)


class TestRichardsonGrid:
    """One grid serves both resolutions of the Richardson error estimate."""

    GRIDS = {1: (41, 40), 2: (21, 20), 3: (11, 10)}

    @staticmethod
    def _model(d):
        spec, obs = polynomial_glm(3 + d, d, n=40)
        wrapped = ek.wrap_glm(spec, obs)
        # Bounded support keeps the box fixed, so only the grid differs.
        return ek.GenericModelSpec(dim=d, log_lik=wrapped.log_lik,
                                   regularizer=wrapped.regularizer,
                                   support=wrapped.effective_box, vectorized=True)

    @staticmethod
    def _two_grids(model, log_integrand, box, g):
        fine = log_trapezoid_integral(model, log_integrand, box, g)
        coarse = log_trapezoid_integral(model, log_integrand, box, (g + 1) // 2)
        return fine, abs(fine - coarse) / 3.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("odd", [True, False])
    def test_equal_to_two_separate_grids(self, d, odd):
        model = self._model(d)
        g = self.GRIDS[d][0 if odd else 1]

        prior = ek.normalize_prior(model, g)
        fine, err = self._two_grids(model, lambda p: -model.regularizer(p), prior.box, g)
        assert (prior.log_norm_const, prior.err_estimate) == (fine, err)

        def log_joint(points):
            return model.log_lik(points) - model.regularizer(points) - prior.log_norm_const

        dec = ek.evidence_quadrature(model, prior, g)
        fine, err = self._two_grids(model, log_joint, np.array(dec.info["box"]), g)
        assert (dec.log_evidence, dec.err_estimate) == (fine, err)

    @pytest.mark.parametrize("g, batches", [(21, {441: 1, 121: 0}), (20, {400: 1, 100: 1})])
    def test_odd_grid_is_evaluated_once(self, g, batches):
        base = self._model(2)
        prior = ek.normalize_prior(base, g)
        sizes = []

        def log_lik(points):
            sizes.append(len(points))
            return base.log_lik(points)

        model = ek.GenericModelSpec(dim=2, log_lik=log_lik, regularizer=base.regularizer,
                                    support=base.support, vectorized=True)
        ek.evidence_quadrature(model, prior, g)
        assert {size: sizes.count(size) for size in batches} == batches

    def test_accuracy_failure_from_quadrature_carries_both_values(self):
        model = self._model(1)
        prior = ek.normalize_prior(model, 41)
        with pytest.raises(AccuracyFailure, match="^quadrature error estimate") as excinfo:
            ek.evidence_quadrature(model, prior, 41, max_err=1e-300)
        failure = excinfo.value
        assert failure.err_estimate == abs(failure.value - failure.coarse_value) / 3.0
