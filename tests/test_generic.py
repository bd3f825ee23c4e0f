"""Black-box model interface: MAP search and prior normalization."""

import tracemalloc
import warnings

import numpy as np
import pytest

import evidkit as ek
import evidkit.generic
from evidkit.generic import ROUNDING_ULPS
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


def _zero(points):
    return np.zeros(len(points))


def _mixture(rng, dim):
    means = rng.uniform(-3.0, 3.0, size=(3, dim))
    scales = rng.uniform(0.4, 1.2, size=3)
    log_w = np.log(rng.dirichlet(np.ones(3)))

    def log_lik(points):
        sq = ((points[:, None, :] - means) / scales[:, None]) ** 2
        return np.logaddexp.reduce(log_w - 0.5 * sq.sum(axis=-1), axis=1)

    return ek.GenericModelSpec(dim=dim, log_lik=log_lik, regularizer=_zero,
                               support=[[-6.0, 6.0]] * dim, vectorized=True)


def _banana(rng):
    bend = rng.uniform(0.5, 2.0)

    def log_lik(points):
        x, y = points[:, 0], points[:, 1]
        return -0.5 * x**2 - 2.0 * (y - bend * (x**2 - 1.0)) ** 2

    return ek.GenericModelSpec(dim=2, log_lik=log_lik, regularizer=_zero,
                               support=[[-4.0, 4.0]] * 2, vectorized=True)


def _student_t_regression(rng, dim, n=12, nu=1.5):
    X = rng.standard_normal((n, dim))
    y = X @ rng.standard_normal(dim) + rng.standard_normal(n)
    y[:3] += rng.choice([-1.0, 1.0], 3) * rng.uniform(6.0, 12.0, 3)  # outliers

    def log_lik(points):
        return -0.5 * (nu + 1.0) * np.log1p((y - points @ X.T) ** 2 / nu).sum(axis=1)

    def regularizer(points):
        return 0.005 * np.einsum("ij,ij->i", points, points)

    return ek.GenericModelSpec(dim=dim, log_lik=log_lik, regularizer=regularizer,
                               support=[[-8.0, 8.0]] * dim, vectorized=True)


def non_concave_starts():
    """96 seeded ``(model, start)`` pairs on objectives with indefinite Hessians."""
    for seed in range(6):
        rng = np.random.default_rng(seed)
        for model in (_mixture(rng, 1), _mixture(rng, 2), _banana(rng),
                      _student_t_regression(rng, 1 + seed % 3)):
            box = model.bounds()
            for u in rng.uniform(size=(4, model.dim)):
                yield model, box[:, 0] + u * (box[:, 1] - box[:, 0])


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

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_stack_matches_its_rows_bit_for_bit(self, d):
        # Rows of mixed scale, one of them with a zero coordinate.
        rng = np.random.default_rng(10 + d)
        thetas = rng.standard_normal((6, d)) * 10.0 ** rng.uniform(-3, 2, size=(6, 1))
        thetas[2, 0] = 0.0
        batch_calls = []

        def f_batch(points):
            batch_calls.append(len(points))
            return np.array([self._f(p) for p in points])

        grads, hesses = _stencil_derivatives(f_batch, thetas, GRAD_STEP, HESS_STEP)
        assert batch_calls == [6 * (1 + 2 * d + 2 * d * d)]
        assert grads.shape == (6, d) and hesses.shape == (6, d, d)
        assert _stencil_derivatives(f_batch, thetas, hess_step=HESS_STEP)[1].tobytes() \
            == hesses.tobytes()
        for theta, grad, hess in zip(thetas, grads, hesses):
            row_grad, row_hess = _stencil_derivatives(f_batch, theta, GRAD_STEP, HESS_STEP)
            assert row_grad.shape == (d,) and row_hess.shape == (d, d)
            assert grad.tobytes() == row_grad.tobytes()
            assert hess.tobytes() == row_hess.tobytes()


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

    @pytest.mark.parametrize("hess", [[[-np.inf]], [[np.nan]], [[1.0]]],
                             ids=["infinite", "nan", "indefinite"])
    def test_unusable_hessian_takes_no_newton_step(self, monkeypatch, hess):
        # LAPACK's potrf factors [[inf]] and the solve gives a zero step, which
        # would pass as stationary; a non-finite Hessian must give no step at
        # all.  An indefinite one takes the shifted step, which ascends but
        # cannot converge in one iteration with this Hessian.
        derivatives = evidkit.generic._stencil_derivatives

        def bad_hessian(*args):  # the search asks for a stack of one point
            return derivatives(*args)[0], np.array([hess])

        monkeypatch.setattr(evidkit.generic, "_stencil_derivatives", bad_hessian)
        with pytest.raises(ConvergenceFailure) as excinfo:
            ek.map_optimize(gaussian_prior_model(), np.array([0.5]), max_iter=1)
        if hess == [[1.0]]:
            assert excinfo.value.best_value > -0.125

    def test_zero_gradient_minimum_start_reaches_a_maximum(self):
        # y = 2 ~ N(theta^2, 1) from theta = 0: the central-difference gradient
        # there is exactly 0, so only the curvature shows the way out.
        model = ek.GenericModelSpec(
            dim=1, log_lik=lambda pts: -0.5 * (2.0 - pts[:, 0] ** 2) ** 2,
            regularizer=_zero, support=[[-5.0, 5.0]], vectorized=True)
        theta = ek.map_optimize(model, np.array([0.0]))
        assert abs(theta[0]) == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_zero_gradient_saddle_start_reaches_a_maximum(self):
        # -(x^2 - 1)^2 - y^2 has a symmetric saddle at the origin and maxima at (+-1, 0).
        model = ek.GenericModelSpec(
            dim=2, log_lik=lambda pts: -(pts[:, 0] ** 2 - 1.0) ** 2 - pts[:, 1] ** 2,
            regularizer=_zero, support=[[-3.0, 3.0]] * 2, vectorized=True)
        theta = ek.map_optimize(model, np.zeros(2))
        np.testing.assert_allclose(np.abs(theta), [1.0, 0.0], atol=1e-6)

    def test_non_concave_starts_converge_to_maxima(self):
        # Seeded starts on mixtures, bananas and Student-t regressions with
        # outliers, where many starts see an indefinite Hessian.
        for model, start in non_concave_starts():
            psi = evidkit.generic._objective(model)
            theta = ek.map_optimize(model, start)
            hess = _stencil_derivatives(psi, theta, GRAD_STEP, HESS_STEP)[1]
            assert evidkit.generic._strictly_interior(theta, model.bounds())
            assert np.linalg.eigvalsh(hess).max() <= evidkit.generic.CURVATURE_TOL
            assert psi(theta[None, :])[0] >= psi(start[None, :])[0]

    def test_kinked_map_fails_at_once(self, monkeypatch):
        # N(theta; 1, 2^2) with the penalty |theta| peaks on the kink at 0,
        # where no stencil sees a stationary point and no step ascends.
        model = ek.GenericModelSpec(
            dim=1, log_lik=lambda pts: -0.125 * (pts[:, 0] - 1.0) ** 2,
            regularizer=lambda pts: np.abs(pts[:, 0]), support=[[-30.0, 30.0]],
            vectorized=True)
        derivatives = evidkit.generic._stencil_derivatives
        calls = []

        def counted(*args):
            calls.append(args)
            return derivatives(*args)

        monkeypatch.setattr(evidkit.generic, "_stencil_derivatives", counted)
        with pytest.raises(ConvergenceFailure, match="no ascent step was left at iteration") \
                as excinfo:
            ek.map_optimize(model, np.array([0.0]))
        assert len(calls) <= 3
        assert excinfo.value.best_theta[0] == pytest.approx(0.0, abs=1e-9)

    def test_a_failed_search_reports_its_last_iterate_as_its_best(self):
        # Newton converges only linearly on a quartic, so every budget ends at its limit.  Each
        # accepted step ascends, so the value reported rises with the budget, and it is the
        # objective at the reported theta itself.
        model = ek.GenericModelSpec(dim=1, log_lik=lambda pts: -(pts[:, 0] - 5.0) ** 4,
                                    regularizer=lambda pts: np.zeros(len(pts)),
                                    support=[[-20.0, 20.0]], vectorized=True)
        values = []
        for max_iter in range(1, 13):
            with pytest.raises(ConvergenceFailure,
                               match=f"the {max_iter}-iteration limit was reached") as excinfo:
                ek.map_optimize(model, np.array([0.0]), max_iter=max_iter)
            failure = excinfo.value
            assert failure.best_value == model.log_lik(failure.best_theta[None])[0]
            values.append(failure.best_value)
        assert all(earlier < later for earlier, later in zip(values, values[1:]))
        assert values[0] == pytest.approx(-123.45679, abs=1e-5)
        assert values[-1] == pytest.approx(-2.2057e-6, rel=1e-4)

    def test_start_outside_support_rejected(self):
        model = gaussian_prior_model()
        with pytest.raises(ValueError, match="outside"):
            ek.map_optimize(model, np.array([50.0]))

    @pytest.mark.parametrize("start", [1e-6, 1e-4, 0.5, 3.0, 49.9999])
    def test_a_start_near_a_finite_bound_reaches_the_mode(self, start):
        # 2 log theta - theta peaks at 2 and is -inf below 0.  A full stencil step at 1e-6
        # would reach past 0, so the step shrinks to half the gap and the stencil stays at theta.
        evaluated = []

        def log_lik(theta):
            evaluated.append(theta[0])
            return 2.0 * np.log(theta[0]) - theta[0] if theta[0] > 0 else -np.inf

        model = ek.GenericModelSpec(dim=1, log_lik=log_lik, regularizer=lambda theta: 0.0,
                                    support=[[0.0, 50.0]])
        assert ek.map_optimize(model, np.array([start]))[0] == pytest.approx(2.0, abs=1e-6)
        assert 0.0 <= min(evaluated) and max(evaluated) <= 50.0  # on the support

    @pytest.mark.parametrize("peak", [5e-5, 1.8e-4, 50.0 - 5e-5])
    def test_a_mode_near_a_bound_is_found_where_the_model_is_finite_past_it(self, peak):
        # Within one stencil step (~1.2e-4) of a bound the step shrinks to half the gap, and
        # the stencil, still centred at theta, puts the gradient's zero at the peak; beyond one
        # step the stencil keeps its full step.
        model = ek.GenericModelSpec(dim=1, log_lik=lambda theta: -0.5 * (theta[0] - peak) ** 2,
                                    regularizer=lambda theta: 0.0, support=[[0.0, 50.0]])
        assert ek.map_optimize(model, np.array([1.0]))[0] == pytest.approx(peak, abs=1e-8)

    @pytest.mark.parametrize("start", [1e-6, 1e-4, 2.9e-4])
    def test_a_support_narrower_than_a_stencil_reaches_the_mode(self, start):
        # log theta + log(3e-4 - theta) peaks at 1.5e-4 and is -inf off [0, 3e-4], a support
        # narrower than four full stencil steps.
        evaluated = []

        def log_lik(theta):
            evaluated.append(theta[0])
            inside = 0.0 < theta[0] < 3e-4
            return np.log(theta[0]) + np.log(3e-4 - theta[0]) if inside else -np.inf

        model = ek.GenericModelSpec(dim=1, log_lik=log_lik, regularizer=lambda theta: 0.0,
                                    support=[[0.0, 3e-4]])
        assert ek.map_optimize(model, np.array([start]))[0] == pytest.approx(1.5e-4, abs=1e-8)
        assert 0.0 <= min(evaluated) and max(evaluated) <= 3e-4  # on the support

    @pytest.mark.filterwarnings("error")
    def test_a_start_on_a_finite_bound_has_no_room_for_a_stencil(self):
        model = ek.GenericModelSpec(dim=1, log_lik=lambda theta: -0.5 * (theta[0] - 1.0) ** 2,
                                    regularizer=lambda theta: 0.0, support=[[0.0, 50.0]])
        with pytest.raises(ConvergenceFailure, match="iteration 1") as excinfo:
            ek.map_optimize(model, np.array([0.0]))
        assert excinfo.value.best_theta.tolist() == [0.0]

    def test_an_overflowing_shift_gives_no_step(self):
        # -hess + tau I is 0 at the first shift, and doubling tau overflows to inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evidkit.generic._ascent_step(np.array([1.0]), np.array([[1e308]])) is None


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

    def test_evaluates_only_inside_its_searches(self):
        # A basin's value is the one its search ended on: the model sees exactly
        # the points of the 8 searches run alone from the same starts.
        rows = []
        base = logistic_model(seed=3)

        def log_lik(points):
            rows.extend(point.tobytes() for point in points)
            return base.log_lik(points)

        model = ek.GenericModelSpec(dim=1, log_lik=log_lik, regularizer=base.regularizer,
                                    support=base.support, vectorized=True)
        result = ek.map_optimize_multistart(model, seed=2)
        in_multistart = sorted(rows)
        rows.clear()
        for start, theta, _ in result.basins:
            np.testing.assert_array_equal(ek.map_optimize(model, start), theta)
        assert in_multistart == sorted(rows)

    def test_failed_starts_keep_their_best_iterate(self):
        # The kinked model of TestMapOptimize: every start fails near the kink at 0.
        model = ek.GenericModelSpec(
            dim=1, log_lik=lambda pts: -0.125 * (pts[:, 0] - 1.0) ** 2,
            regularizer=lambda pts: np.abs(pts[:, 0]), effective_box=[[-5.0, 5.0]],
            vectorized=True)
        result = ek.map_optimize_multistart(model, seed=0, box=[[-5.0, 5.0]])
        assert len(result.basins) == 8
        for start, theta, value in result.basins:
            with pytest.raises(ConvergenceFailure) as excinfo:
                ek.map_optimize(model, start)
            assert np.array_equal(theta, excinfo.value.best_theta)
            assert value == excinfo.value.best_value
            assert theta.flags.owndata  # its own copy, not a view of the search's iterates
        best = max(result.basins, key=lambda basin: basin[2])
        assert np.array_equal(result.theta, best[1])
        assert result.value == best[2]
        assert result.theta[0] == pytest.approx(0.0, abs=1e-5)

    def test_one_stencil_batch_per_iteration_of_its_longest_start(self, monkeypatch):
        spec, obs = polynomial_glm(5, 3)
        model = ek.wrap_glm(spec, obs)
        derivatives = evidkit.generic._stencil_derivatives
        stacks = []

        def counted(f_batch, theta, *args):
            stacks.append(np.shape(theta))
            return derivatives(f_batch, theta, *args)

        monkeypatch.setattr(evidkit.generic, "_stencil_derivatives", counted)
        result = ek.map_optimize_multistart(model, seed=4, box=model.effective_box)
        in_multistart = list(stacks)
        iterations = []
        for start, theta, _ in result.basins:
            stacks.clear()
            np.testing.assert_array_equal(ek.map_optimize(model, start), theta)
            iterations.append(len(stacks))
        assert in_multistart[0] == (8, 3)
        assert len(in_multistart) == max(iterations) < sum(iterations)

    def test_scalar_callable_basins_match_their_solo_searches(self):
        model = self._bimodal()
        result = ek.map_optimize_multistart(model, seed=3)
        for start, theta, value in result.basins:
            mode = evidkit.generic._search(model, start)
            assert theta.tobytes() == mode.theta.tobytes()
            assert value == mode.value

    @pytest.mark.parametrize("box", [[[2.0, -2.0], [-2.0, 2.0]], [[-2.0, 2.0]],
                                     [[-2.0, 2.0, 0.0], [-2.0, 2.0, 0.0]]],
                             ids=["lower-above-upper", "one-row", "three-columns"])
    def test_rejects_a_malformed_box(self, box):
        model = ek.wrap_glm(*polynomial_glm(0, 2))
        with pytest.raises(ValueError, match="box"):
            ek.map_optimize_multistart(model, seed=0, box=box)

    def test_refuses_a_box_that_leaves_the_support(self):
        points = []

        def log_lik(theta):
            points.append(theta)
            return -float(theta[0]) ** 2

        model = ek.GenericModelSpec(dim=1, log_lik=log_lik, regularizer=lambda theta: 0.0,
                                    support=[[-1.0, 1.0]])
        with pytest.raises(ValueError, match="^box must lie inside the support$"):
            ek.map_optimize_multistart(model, seed=0, box=[[-1.0, 3.0]])
        assert points == []


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

    def test_probe_obeys_the_node_limit(self, monkeypatch):
        # The 17 x 17 probe is over a limit of 100 nodes: refused before any evaluation.
        monkeypatch.setattr(evidkit.generic, "MAX_GRID_NODES", 100)
        model = ek.GenericModelSpec(
            dim=2, log_lik=lambda theta: 0.0,
            regularizer=lambda theta: 0.5 * float(np.sum(np.square(theta))),
            support=None, effective_box=[[-1.0, 1.0]] * 2)
        calls = []

        def log_integrand(points):
            calls.append(len(points))
            return -0.5 * np.sum(np.square(points), axis=1)

        with pytest.raises(ValueError, match="exceeds the 100 node limit"):
            evidkit.generic.resolve_integration_box(model, log_integrand)
        assert calls == []

    @pytest.mark.parametrize("support, limits", [
        ([[0.0, 1.0]], [[0.0, 0.5]]),
        ([[0.0, np.inf]], [[0.25, np.inf]]),
    ], ids=["bounded", "half-bounded"])
    def test_the_default_box_stays_inside_the_limits(self, support, limits):
        model = ek.GenericModelSpec(dim=1, log_lik=lambda theta: 0.0,
                                    regularizer=lambda theta: 0.5 * float(theta[0]) ** 2,
                                    support=support, effective_box=[[-1.0, 1.0]])
        points = []

        def log_integrand(theta):
            points.extend(theta[:, 0])
            return -0.5 * theta[:, 0] ** 2

        box = evidkit.generic.resolve_integration_box(model, log_integrand, limits=limits)
        assert limits[0][0] == box[0, 0] < box[0, 1] <= limits[0][1]
        assert all(limits[0][0] <= theta <= limits[0][1] for theta in points)

    def test_two_dimensional_gaussian(self):
        model = ek.GenericModelSpec(
            dim=2, log_lik=lambda theta: 0.0,
            regularizer=lambda theta: 0.5 * float(np.sum(np.square(theta))),
            support=[[-10.0, 10.0]] * 2)
        prior = ek.normalize_prior(model, 201)
        assert prior.log_norm_const == pytest.approx(np.log(2 * np.pi), abs=1e-8)

    def test_the_prior_bar_is_floored_at_its_rounding(self):
        # The Richardson change is 1.5e-16 here, under the actual error of 8.0e-15.
        model = ek.GenericModelSpec(
            dim=2, log_lik=lambda theta: 0.0,
            regularizer=lambda theta: 0.5 * float(np.sum(np.square(theta))),
            support=[[-10.0, 10.0]] * 2)
        prior = ek.normalize_prior(model, 201)
        log_z = prior.log_norm_const
        assert prior.err_estimate == ROUNDING_ULPS * np.finfo(float).eps * log_z
        assert abs(log_z - np.log(2 * np.pi)) <= prior.err_estimate

    def test_a_long_one_dimensional_sum_is_within_its_bar(self):
        # On [-10, 10] at 2001 nodes, linspace's first neighbour difference is 2.1e-14 off
        # the step in relative terms; weighed by it, log Z was off by 2.18e-14, outside the
        # floored bar of 1.42e-14.  The step is the axis's extent over its intervals.
        prior = ek.normalize_prior(gaussian_prior_model(bound=10.0), 2001)
        assert abs(prior.log_norm_const - HALF_LOG_2PI) <= prior.err_estimate

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_probe_node_is_not_boundary_mass(self, bad):
        model = ek.GenericModelSpec(dim=1, log_lik=lambda theta: 0.0,
                                    regularizer=lambda theta: 0.0, effective_box=[[-1.0, 1.0]])

        def log_integrand(points):
            return np.where(points[:, 0] == 0.0, bad, -0.5 * points[:, 0] ** 2)

        with pytest.raises(ek.NumericFailure, match="NaN or \\+inf on the probe grid"):
            evidkit.generic.resolve_integration_box(model, log_integrand)


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

    GRIDS = {1: 41, 2: 21, 3: 11}

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
    @pytest.mark.parametrize("odd", [True])  # an even grid is refused: see test_evidence.py
    def test_equal_to_two_separate_grids(self, d, odd):
        model = self._model(d)
        g = self.GRIDS[d]

        prior = ek.normalize_prior(model, g)
        fine, err = self._two_grids(model, lambda p: -model.regularizer(p), prior.box, g)
        assert (prior.log_norm_const, prior.err_estimate) == (fine, err)

        def log_joint(points):
            return model.log_lik(points) - model.regularizer(points) - prior.log_norm_const

        dec = ek.evidence_quadrature(model, prior, g)
        fine, err = self._two_grids(model, log_joint, np.array(dec.info["box"]), g)
        # The quadrature estimate is floored at the value's rounding, and
        # carries the normalizer's error.
        floor = ROUNDING_ULPS * np.finfo(float).eps * max(1.0, abs(fine))
        assert (dec.log_evidence, dec.err_estimate) == \
            (fine, max(err, floor) + prior.err_estimate)

    @pytest.mark.parametrize("g, batches", [(21, {441: 1, 121: 0})])
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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nodes_are_the_meshgrid_rows_with_contiguous_columns(self, d):
        box = np.array([[-1.0, 2.0], [0.5, 3.0], [-4.0, -1.0]][:d])
        batches = []

        def log_integrand(points):
            batches.append(points)
            return np.zeros(len(points))

        axes, _ = evidkit.generic._evaluate_grid(self._model(d), log_integrand, box, 7)
        mesh = np.meshgrid(*axes, indexing="ij")
        assert np.array_equal(batches[0], np.column_stack([m.reshape(-1) for m in mesh]))
        assert all(batches[0][:, k].flags.c_contiguous for k in range(d))

    # One stacked node buffer peaks at 5.1, 5.0 and 6.0 buffers of N doubles here; a copy of
    # each axis's coordinates plus a column_stack of them peaked at 7.1, 7.0 and 9.0.
    @pytest.mark.parametrize("d, g", [(1, 2001), (2, 201), (3, 41)])
    def test_the_grid_path_peaks_below_six_and_a_half_node_buffers(self, d, g):
        model = ek.GenericModelSpec(dim=d, log_lik=_zero, regularizer=_zero, vectorized=True)
        log_integrand = evidkit.generic._objective(model)
        box = [[-1.0, 1.0]] * d
        log_trapezoid_integral(model, log_integrand, box, g)  # warm any lazy set-up
        tracemalloc.start()
        try:
            log_trapezoid_integral(model, log_integrand, box, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * g ** d * 8

    def test_accuracy_failure_from_quadrature_carries_both_values(self):
        model = self._model(1)
        prior = ek.normalize_prior(model, 41)
        with pytest.raises(AccuracyFailure, match="^quadrature error estimate") as excinfo:
            ek.evidence_quadrature(model, prior, 41, max_err=1e-300)
        failure = excinfo.value
        # The tolerance is checked against the reported bar: floored, plus the prior's error.
        floor = ROUNDING_ULPS * np.finfo(float).eps * max(1.0, abs(failure.value))
        assert failure.err_estimate == \
            max(abs(failure.value - failure.coarse_value) / 3.0, floor) + prior.err_estimate
