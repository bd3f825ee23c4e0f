"""Evidence estimators, decomposition arithmetic, and the penalty sweep."""

import re

import numpy as np
import pytest
from scipy.stats import norm

import evidkit as ek
import evidkit.evidence
import evidkit.generic
from evidkit.exceptions import AccuracyFailure, CurvatureFailure, DegeneracyFailure, NumericFailure

from helpers import logistic_model, random_glm_instance


def wrapped_instance(rng, **kwargs):
    spec, obs = random_glm_instance(rng, **kwargs)
    return spec, obs, ek.wrap_glm(spec, obs), ek.glm_normalized_prior(spec)


def counted_copy(wrapped, points):
    """``wrapped`` with the size of each batch it evaluates appended to ``points``."""
    def counted(fn):
        def batch(theta):
            points.append(len(theta))
            return fn(theta)
        return batch

    return ek.GenericModelSpec(
        dim=wrapped.dim, log_lik=counted(wrapped.log_lik),
        regularizer=counted(wrapped.regularizer), support=wrapped.support,
        effective_box=wrapped.effective_box, vectorized=True)


class TestQuadrature:
    def test_glm_oracle_d1(self):
        rng = np.random.default_rng(5)
        spec, obs, model, prior = wrapped_instance(rng, n=10, d=1, lam_range=(0.5, 2.0))
        exact = ek.glm_log_evidence(spec, obs)
        dec = ek.evidence_quadrature(model, prior, 2001)
        assert dec.log_evidence == pytest.approx(exact.log_evidence, abs=1e-6)
        assert dec.estimator == "quadrature"

    def test_glm_oracle_d2(self):
        rng = np.random.default_rng(9)
        spec, obs, model, prior = wrapped_instance(rng, n=15, d=2, lam_range=(0.5, 2.0))
        exact = ek.glm_log_evidence(spec, obs)
        dec = ek.evidence_quadrature(model, prior, 501)
        assert dec.log_evidence == pytest.approx(exact.log_evidence, abs=1e-4)

    def test_flat_likelihood(self):
        level = -3.25
        model = ek.GenericModelSpec(
            dim=1, log_lik=lambda theta: level,
            regularizer=lambda theta: 0.5 * float(theta[0]) ** 2,
            support=[[-12.0, 12.0]])
        prior = ek.normalize_prior(model, 2001)
        dec = ek.evidence_quadrature(model, prior, 2001)
        assert dec.log_evidence == pytest.approx(level, abs=1e-12)
        assert dec.flexibility == pytest.approx(0.0, abs=1e-12)

    def test_singular_curvature_keeps_the_declared_box(self):
        # The MAP is a ridge along theta_1, so there is no posterior sd to
        # size a box with; the integral stays on the support.
        model = ek.GenericModelSpec(
            dim=2, log_lik=lambda theta: -float(theta[0]) ** 2,
            regularizer=lambda theta: 0.0, support=[[-5.0, 5.0], [-4.0, 4.0]])
        prior = ek.NormalizedPrior(log_norm_const=np.log(80.0), method="closed-form",
                                   err_estimate=0.0)
        dec = ek.evidence_quadrature(model, prior, 41, start=np.array([0.3, 1.0]))
        assert dec.info["box"] == [[-5.0, 5.0], [-4.0, 4.0]]

        def log_joint(points):
            return -points[:, 0] ** 2 - np.log(80.0)

        value = evidkit.generic.log_trapezoid_integral(model, log_joint, model.support, 41)
        assert dec.log_evidence == value
        assert dec.log_evidence == pytest.approx(0.5 * np.log(np.pi / 100.0), abs=1e-6)

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_default_grid_on_a_logistic_posterior(self, seed):
        # A skewed, non-Gaussian posterior: intercept and slope, n = 30.
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(30), rng.standard_normal(30)])
        probs = 1.0 / (1.0 + np.exp(-X @ rng.standard_normal(2)))
        y = (rng.uniform(size=30) < probs).astype(float)

        def log_lik(points):
            eta = points @ X.T
            return (y * eta - np.logaddexp(0.0, eta)).sum(axis=1)

        def regularizer(points):
            return 0.5 * np.einsum("ij,ij->i", points, points)

        model = ek.GenericModelSpec(dim=2, log_lik=log_lik, regularizer=regularizer,
                                    support=[[-10.0, 10.0]] * 2, vectorized=True)
        prior = ek.NormalizedPrior(log_norm_const=np.log(2 * np.pi), method="closed-form",
                                   err_estimate=0.0)
        dec = ek.evidence_quadrature(model, prior, evidkit.evidence.DEFAULT_GRID[2])

        def log_joint(points):
            return log_lik(points) - regularizer(points) - prior.log_norm_const

        # A step of 0.05 over the whole support resolves the posterior.
        reference = evidkit.generic.log_trapezoid_integral(model, log_joint, model.support, 401)
        error = abs(dec.log_evidence - reference)
        assert error <= dec.err_estimate
        assert error < 1e-6

    def test_dimension_limit(self):
        model = ek.GenericModelSpec(
            dim=4, log_lik=lambda theta: 0.0,
            regularizer=lambda theta: float(np.sum(np.square(theta))),
            support=[[-3.0, 3.0]] * 4)
        prior = ek.NormalizedPrior(log_norm_const=0.0, method="closed-form",
                                   err_estimate=0.0)
        with pytest.raises(ValueError, match="dim <= 3"):
            ek.evidence_quadrature(model, prior, 101)


class TestLaplace:
    def test_exact_on_wrapped_glms(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            spec, obs, model, prior = wrapped_instance(
                rng, n=int(rng.integers(5, 25)), d=int(rng.integers(1, 5)),
                sigma_range=(0.4, 1.5), lam_range=(0.5, 3.0))
            exact = ek.glm_log_evidence(spec, obs)
            dec = ek.evidence_laplace(model, prior)
            assert dec.log_evidence == pytest.approx(exact.log_evidence, abs=1e-6)

    def test_logistic_close_to_quadrature(self):
        model = logistic_model(seed=3)
        prior = ek.normalize_prior(model, 4001)
        quad = ek.evidence_quadrature(model, prior, 4001)
        lap = ek.evidence_laplace(model, prior)
        assert abs(lap.log_evidence - quad.log_evidence) < 0.05

    def test_tight_prior_small_flexibility(self):
        rng = np.random.default_rng(23)
        G = rng.uniform(-1.0, 1.0, size=(5, 1))
        spec = ek.GaussianLinearSpec(G=G, sigma=2.0, lam=1e3)
        obs = ek.ObservationSet(y=rng.uniform(-1.0, 1.0, size=5))
        model = ek.wrap_glm(spec, obs)
        dec = ek.evidence_laplace(model, ek.glm_normalized_prior(spec))
        assert dec.flexibility < 1e-2
        exact = ek.glm_log_evidence(spec, obs)
        assert dec.log_evidence == pytest.approx(exact.log_evidence, abs=1e-6)

    def test_flat_direction_raises_curvature_failure(self):
        model = ek.GenericModelSpec(
            dim=2, log_lik=lambda theta: -float(theta[0]) ** 2,
            regularizer=lambda theta: 0.0,
            support=[[-5.0, 5.0], [-5.0, 5.0]])
        prior = ek.NormalizedPrior(log_norm_const=np.log(100.0), method="closed-form",
                                   err_estimate=0.0)
        with pytest.raises(CurvatureFailure):
            ek.evidence_laplace(model, prior, start=np.array([0.3, 0.0]))

    def test_one_map_search_and_reference_on_the_same_box(self, monkeypatch):
        rng = np.random.default_rng(29)
        spec, obs, model, prior = wrapped_instance(rng, n=20, d=2, lam_range=(0.5, 2.0))
        searches = []

        def counting(model, start, **kwargs):
            searches.append(start)
            return evidkit.generic._search(model, start, **kwargs)

        monkeypatch.setattr(evidkit.evidence, "_search", counting)
        dec = ek.evidence_laplace(model, prior, err_check_grid=101)
        assert len(searches) == 1
        assert dec.info["grid_points_per_dim"] == 101

        # The reference box is the quadrature's: the MAP +- 8 posterior sd.
        box = np.array(dec.info["box"])
        assert dec.info["box"] == ek.evidence_quadrature(model, prior, 101).info["box"]
        post = ek.gaussian_posterior(spec, obs)
        sd = np.sqrt(np.diag(np.linalg.inv(post.post_precision)))
        np.testing.assert_allclose(box, post.theta_hat[:, None] + np.outer(8.0 * sd, [-1, 1]),
                                   rtol=0.0, atol=1e-6)

        def log_joint(points):
            return model.log_lik(points) - model.regularizer(points) - prior.log_norm_const

        reference = evidkit.generic.log_trapezoid_integral(model, log_joint, box, 101)
        coarse = evidkit.generic.log_trapezoid_integral(model, log_joint, box, 51)
        floor = evidkit.generic.ROUNDING_ULPS * np.finfo(float).eps * max(1.0, abs(reference))
        assert dec.err_estimate == abs(dec.log_evidence - reference) \
            + max(abs(reference - coarse) / 3.0, floor)

    @pytest.mark.parametrize("grid", [3, 4])
    def test_reference_grid_below_five_rejected(self, grid):
        rng = np.random.default_rng(30)
        _, _, model, prior = wrapped_instance(rng, n=20, d=2, lam_range=(0.5, 2.0))
        with pytest.raises(ValueError, match="grid_points_per_dim must be >= 5"):
            ek.evidence_laplace(model, prior, err_check_grid=grid)

    def test_unknown_error_above_dim3(self):
        rng = np.random.default_rng(31)
        spec, obs, model, prior = wrapped_instance(rng, n=20, d=4,
                                                   lam_range=(0.5, 2.0))
        dec = ek.evidence_laplace(model, prior)
        assert np.isnan(dec.err_estimate)


class TestImportanceSampling:
    def test_glm_d2_accuracy(self):
        rng = np.random.default_rng(41)
        spec, obs, model, prior = wrapped_instance(rng, n=15, d=2, lam_range=(0.5, 2.0))
        exact = ek.glm_log_evidence(spec, obs)
        dec = ek.evidence_importance(model, prior, 100_000, seed=1)
        assert abs(dec.log_evidence - exact.log_evidence) < 0.05
        assert dec.info["ess"] > 0.2 * 100_000

    def test_start_resolves_no_integration_box(self, monkeypatch):
        rng = np.random.default_rng(44)
        spec, obs, model, prior = wrapped_instance(rng, n=15, d=2, lam_range=(0.5, 2.0))
        exact = ek.glm_log_evidence(spec, obs)

        def forbidden(model, *args):
            raise AssertionError("resolved an integration box although start was given")

        monkeypatch.setattr(evidkit.generic, "resolve_integration_box", forbidden)
        dec = ek.evidence_importance(model, prior, 2000, seed=1, start=exact.theta_hat + 0.1)
        np.testing.assert_allclose(dec.theta_hat, exact.theta_hat, atol=1e-6)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(42)
        _, _, model, prior = wrapped_instance(rng, n=10, d=2, lam_range=(0.5, 2.0))
        first = ek.evidence_importance(model, prior, 5000, seed=7)
        second = ek.evidence_importance(model, prior, 5000, seed=7)
        assert first.log_evidence == second.log_evidence
        assert first.err_estimate == second.err_estimate

    def test_exact_proposal_has_zero_weight_variance(self):
        rng = np.random.default_rng(43)
        spec, obs, model, prior = wrapped_instance(rng, n=10, d=2, lam_range=(0.5, 2.0))
        exact = ek.glm_log_evidence(spec, obs)
        post = ek.gaussian_posterior(spec, obs)
        dec = ek.evidence_importance(model, prior, 2000, seed=3, inflation=1.0,
                                     theta_hat=post.theta_hat,
                                     curvature=post.post_precision)
        assert dec.err_estimate < 1e-12
        assert dec.log_evidence == pytest.approx(exact.log_evidence, abs=1e-8)

    @staticmethod
    def _truncated_normal(log_lik):
        # Log-lik N(theta; 0.2, 0.2^2) under a flat prior on the support [0, 1]:
        # log E = log(Phi(4) - Phi(-1)), and about a quarter of the draws of a
        # proposal at the MAP fall outside the support.
        model = ek.GenericModelSpec(dim=1, log_lik=log_lik, regularizer=lambda theta: 0.0,
                                    support=[[0.0, 1.0]])
        return model, ek.normalize_prior(model, 2001), float(np.log(norm.cdf(4) - norm.cdf(-1)))

    @staticmethod
    def _normal_log_lik(theta):
        return float(norm.logpdf(theta[0], 0.2, 0.2))

    @pytest.mark.parametrize("seed", range(5))
    def test_draws_outside_the_support_weigh_nothing(self, seed):
        model, prior, exact = self._truncated_normal(self._normal_log_lik)
        dec = ek.evidence_importance(model, prior, 20_000, seed=seed)
        assert abs(dec.log_evidence - exact) <= 3.0 * dec.err_estimate

    def test_the_model_is_not_evaluated_outside_the_support(self):
        outside = []

        def log_lik(theta):
            if not 0.0 <= theta[0] <= 1.0:
                outside.append(theta[0])
                raise ValueError(f"log_lik evaluated outside the support at {theta[0]}")
            return self._normal_log_lik(theta)

        model, prior, exact = self._truncated_normal(log_lik)
        dec = ek.evidence_importance(model, prior, 2000, seed=1)
        assert outside == []
        assert abs(dec.log_evidence - exact) <= 3.0 * dec.err_estimate

    def test_grossly_overdispersed_proposal_degenerates(self):
        rng = np.random.default_rng(44)
        _, _, model, prior = wrapped_instance(rng, n=10, d=2, lam_range=(0.5, 2.0))
        with pytest.raises(DegeneracyFailure) as excinfo:
            ek.evidence_importance(model, prior, 20_000, seed=5, inflation=50.0)
        assert excinfo.value.ess < 200


class TestDecompose:
    def test_worked_values(self):
        fragment = ek.decompose(-2.265512, -1.418939)
        assert fragment.flexibility == pytest.approx(0.846573, abs=1e-6)
        assert fragment.note is None

    def test_flat_case(self):
        fragment = ek.decompose(-4.0, -4.0)
        assert fragment.flexibility == 0.0

    def test_negative_flexibility_flagged(self):
        fragment = ek.decompose(-1.0, -1.5)
        assert fragment.flexibility == pytest.approx(-0.5)
        assert "conflict" in fragment.note

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ek.decompose(np.inf, 0.0)


class TestPenalties:
    def test_bic_values(self):
        assert ek.bic_penalty(2, 100) == pytest.approx(np.log(100.0))
        assert ek.bic_penalty(1, 1) == 0.0
        assert ek.bic_penalty(3, 10_000) == pytest.approx(1.5 * np.log(10_000.0))

    def test_bic_validation(self):
        with pytest.raises(ValueError):
            ek.bic_penalty(0, 10)
        with pytest.raises(ValueError):
            ek.bic_penalty(1, 0)

    def test_pen_prime_cases(self):
        assert ek.pen_prime(0.846574, 0.846574) == 0.0
        assert ek.pen_prime(ek.bic_penalty(1, np.e**2), 0.846574) == pytest.approx(
            0.153426, abs=1e-6)
        assert ek.pen_prime(0.0, 0.846574) == pytest.approx(-0.846574)

    def test_comparison_record(self):
        record = ek.compare_penalties(flexibility=0.8, supplied_penalty=1.3, d=2, n=50)
        assert record.pen_prime == 1.3 - 0.8
        assert record.bic_penalty == pytest.approx(np.log(50.0))
        assert (record.d, record.n) == (2, 50)


class TestEstimatorAgreement:
    def test_all_routes_agree_on_one_glm(self):
        rng = np.random.default_rng(55)
        spec, obs, model, prior = wrapped_instance(rng, n=12, d=2, lam_range=(0.5, 2.0))
        exact = ek.glm_log_evidence(spec, obs)
        quad = ek.evidence_quadrature(model, prior, 501)
        lap = ek.evidence_laplace(model, prior)
        imp = ek.evidence_importance(model, prior, 100_000, seed=0)
        assert abs(quad.log_evidence - exact.log_evidence) < 1e-4
        assert abs(lap.log_evidence - exact.log_evidence) < 1e-6
        assert abs(imp.log_evidence - exact.log_evidence) < 0.05

    def test_decomposition_closure_everywhere(self):
        rng = np.random.default_rng(56)
        spec, obs, model, prior = wrapped_instance(rng, n=10, d=1, lam_range=(0.5, 2.0))
        decs = [
            ek.glm_log_evidence(spec, obs),
            ek.evidence_quadrature(model, prior, 801),
            ek.evidence_laplace(model, prior),
            ek.evidence_importance(model, prior, 10_000, seed=2),
        ]
        for dec in decs:
            scale = max(1.0, abs(dec.log_fit))
            assert abs(dec.log_evidence + dec.flexibility - dec.log_fit) < 1e-12 * scale

    def test_pen_prime_preserves_argmax(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            n = int(rng.integers(10, 30))
            y = rng.standard_normal(n)
            decs = []
            for _ in range(5):
                spec = ek.GaussianLinearSpec(
                    G=rng.standard_normal((n, int(rng.integers(1, 6)))),
                    sigma=float(rng.uniform(0.5, 1.5)),
                    lam=float(rng.uniform(0.5, 2.0)))
                decs.append(ek.glm_log_evidence(spec, ek.ObservationSet(y=y)))
            penalties = rng.uniform(0.0, 5.0, size=5)
            fit_scores = [dec.log_fit - pen for dec, pen in zip(decs, penalties)]
            evidence_scores = [dec.log_evidence - ek.pen_prime(pen, dec.flexibility)
                               for dec, pen in zip(decs, penalties)]
            assert int(np.argmax(fit_scores)) == int(np.argmax(evidence_scores))


class TestBicSweep:
    def test_all_ones_closed_form(self):
        def family(n, rng):
            return (ek.GaussianLinearSpec(G=np.ones((n, 1)), sigma=1.0, lam=1.0),
                    ek.ObservationSet(y=np.zeros(n)))

        ns = (100, 1000, 10_000, 100_000)
        sweep = ek.bic_sweep(family, ns, seed=0)
        for k, n in enumerate(ns):
            assert sweep.flexibilities[k] == pytest.approx(0.5 * np.log(1.0 + n),
                                                           abs=1e-12)
            assert sweep.gaps[k] == pytest.approx(
                0.5 * np.log(1.0 + n) - 0.5 * np.log(n), abs=1e-12)
        assert sweep.predicted_constant == pytest.approx(0.0, abs=1e-12)
        assert sweep.gaps[-1] < 5e-6

    def test_two_dim_sweep_stabilizes(self):
        family = ek.polynomial_sweep_family([1.0, -0.5], 1.0, 1.0)
        sweep = ek.bic_sweep(family, [100, 1000, 10_000], seed=13)
        diffs = np.abs(np.diff(sweep.gaps))
        assert np.all(np.diff(diffs) < 0)
        assert abs(sweep.gaps[-1] - sweep.predicted_constant) < 0.1

    def test_requires_increasing_ns(self):
        family = ek.polynomial_sweep_family([1.0], 1.0, 1.0)
        with pytest.raises(ValueError, match="increasing"):
            ek.bic_sweep(family, [100, 100], seed=0)

    def test_dimension_change_rejected(self):
        def family(n, rng):
            d = 1 if n < 50 else 2
            return (ek.GaussianLinearSpec(G=np.ones((n, d)), sigma=1.0, lam=1.0),
                    ek.ObservationSet(y=np.zeros(n)))

        with pytest.raises(ValueError, match="dimension"):
            ek.bic_sweep(family, [10, 100], seed=0)


class TestCurvatureFactor:
    @staticmethod
    def _counting_cholesky(monkeypatch):
        calls = []
        original = np.linalg.cholesky

        def counting(matrix):
            calls.append(np.array(matrix))
            return original(matrix)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        return calls

    def test_laplace_factors_once(self, monkeypatch):
        rng = np.random.default_rng(51)
        _, _, model, prior = wrapped_instance(rng, n=20, d=2, lam_range=(0.5, 2.0))
        calls = self._counting_cholesky(monkeypatch)
        dec = ek.evidence_laplace(model, prior, err_check_grid=21)
        assert len(calls) == 1
        sign, log_det = np.linalg.slogdet(calls[0])
        assert sign > 0
        assert dec.info["log_det_curvature"] == pytest.approx(log_det, rel=0.0, abs=1e-12)

    def test_importance_factors_once(self, monkeypatch):
        rng = np.random.default_rng(52)
        _, _, model, prior = wrapped_instance(rng, n=20, d=4, lam_range=(0.5, 2.0))
        calls = self._counting_cholesky(monkeypatch)
        ek.evidence_importance(model, prior, 500, seed=2)
        assert len(calls) == 1

    # numpy's Cholesky factors [[inf]] and [[nan]]; the draws' triangular solve would refuse them.
    @pytest.mark.parametrize("curvature", [-1.0, 0.0, np.inf, np.nan])
    def test_a_supplied_curvature_that_does_not_factor_is_a_curvature_failure(self, curvature):
        model = logistic_model()
        prior = ek.normalize_prior(model, 201)
        with pytest.raises(CurvatureFailure):
            ek.evidence_importance(model, prior, 100, seed=0, theta_hat=[0.0],
                                   curvature=[[curvature]])

    def test_a_given_map_near_a_bound_takes_its_stencil_inside_the_support(self):
        seen = []

        def log_lik(theta):  # -inf for theta <= 0, where the stencil must not go
            seen.append(float(theta[0]))
            return 2.0 * np.log(theta[0]) - theta[0] if theta[0] > 0 else -np.inf

        model = ek.GenericModelSpec(dim=1, log_lik=log_lik, regularizer=lambda theta: 0.0,
                                    support=[[0.0, 50.0]])
        prior = ek.NormalizedPrior(log_norm_const=0.0, method="closed-form",
                                   err_estimate=0.0, box=[[0.0, 50.0]])
        # The stencil stays at theta_hat, where -d2/dtheta2 is 2 / theta^2; near the bound its
        # step is half the gap, which puts it 15% high rather than 20 times low.
        near = ek.laplace_curvature(model, prior, [5e-5])
        assert near[0, 0] == pytest.approx(2.0 / 5e-5 ** 2, rel=0.2)
        assert min(seen) > 0.0 and max(seen) < 50.0
        seen.clear()
        # Away from the bound the stencil keeps its full step.
        assert ek.laplace_curvature(model, prior, [2.0])[0, 0] == pytest.approx(0.5, rel=1e-6)
        assert min(seen) < 2.0 < max(seen)

    @staticmethod
    def _cubic_near_a_bound():
        """-(theta - 5e-5)^2 (1 + theta / 1e-3) / 2 on [0, 50], with a flat prior."""
        model = ek.GenericModelSpec(
            dim=1, log_lik=lambda theta: -0.5 * (theta[0] - 5e-5) ** 2 * (1.0 + theta[0] / 1e-3),
            regularizer=lambda theta: 0.0, support=[[0.0, 50.0]])
        return model, ek.NormalizedPrior(log_norm_const=0.0, method="closed-form",
                                         err_estimate=0.0, box=[[0.0, 50.0]])

    @pytest.mark.parametrize("start", [1.0, 0.3])
    def test_a_map_near_a_bound_and_its_curvature_are_taken_at_the_map(self, start):
        # The curvature changes by 20% over a full stencil step here, so a stencil centred away
        # from theta put the mode at 8.5e-5 and the curvature 40% high.  At the MAP itself,
        # -d2/dtheta2 = (1 + theta / 1e-3) + 2 (theta - 5e-5) / 1e-3.
        model, prior = self._cubic_near_a_bound()
        assert ek.map_optimize(model, [start])[0] == pytest.approx(5e-5, abs=1e-6)
        dec = ek.evidence_laplace(model, prior, start=[start])
        theta = dec.theta_hat[0]
        exact = (1.0 + theta / 1e-3) + 2.0 * (theta - 5e-5) / 1e-3
        assert np.exp(dec.info["log_det_curvature"]) == pytest.approx(exact, rel=1e-6)
        assert ek.laplace_curvature(model, prior, [5e-5])[0, 0] == pytest.approx(1.05, rel=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_a_given_map_off_the_support_is_refused_and_one_on_a_bound_has_no_curvature(self):
        model = ek.GenericModelSpec(dim=1, log_lik=lambda theta: -0.5 * (theta[0] - 1.0) ** 2,
                                    regularizer=lambda theta: 0.0, support=[[0.0, 50.0]])
        prior = self._cubic_near_a_bound()[1]
        with pytest.raises(ValueError, match="outside the support"):
            ek.laplace_curvature(model, prior, [-1.0])
        with pytest.raises(CurvatureFailure):  # a step of 0 leaves a NaN curvature
            ek.laplace_curvature(model, prior, [0.0])


class TestLaplaceBox:
    def test_no_box_above_dim3_when_start_given(self, monkeypatch):
        rng = np.random.default_rng(53)
        spec, obs, model, prior = wrapped_instance(rng, n=20, d=4, lam_range=(0.5, 2.0))
        exact = ek.glm_log_evidence(spec, obs)
        resolved = []
        resolve = evidkit.generic.resolve_integration_box

        def counting(model, *args):
            resolved.append(model)
            return resolve(model, *args)

        monkeypatch.setattr(evidkit.generic, "resolve_integration_box", counting)
        dec = ek.evidence_laplace(model, prior, start=exact.theta_hat + 0.1)
        assert resolved == []
        assert np.isnan(dec.err_estimate)
        assert dec.log_evidence == pytest.approx(exact.log_evidence, abs=1e-6)


class TestIntegralBox:
    """One rule picks the box and grid of the quadrature and the Laplace reference."""

    ESTIMATES = [
        lambda model, prior, start: ek.evidence_quadrature(model, prior, 41, start=start),
        lambda model, prior, start: ek.evidence_laplace(model, prior, start=start),
    ]
    IDS = ["quadrature", "laplace"]

    @staticmethod
    def _unbounded():
        # log-lik -(theta - 1)^2 / 2 and penalty theta^2 / 2 on all of R, with no
        # effective box: log E = -1/4 - (1/2) log 2 under the normalized prior.
        model = ek.GenericModelSpec(
            dim=1, log_lik=lambda theta: -0.5 * (theta[:, 0] - 1.0) ** 2,
            regularizer=lambda theta: 0.5 * theta[:, 0] ** 2, vectorized=True)
        prior = ek.NormalizedPrior(log_norm_const=0.5 * np.log(2.0 * np.pi),
                                   method="closed-form", err_estimate=0.0)
        return model, prior

    @pytest.mark.parametrize("estimate", ESTIMATES, ids=IDS)
    def test_a_start_integrates_unbounded_support(self, estimate):
        model, prior = self._unbounded()
        dec = estimate(model, prior, np.array([0.0]))
        assert abs(dec.log_evidence - (-0.25 - 0.5 * np.log(2.0))) <= dec.err_estimate

    @pytest.mark.parametrize("estimate", ESTIMATES, ids=IDS)
    def test_no_start_needs_the_declared_box(self, estimate):
        model, prior = self._unbounded()
        with pytest.raises(ValueError, match="unbounded support; declare effective_box"):
            estimate(model, prior, None)

    @pytest.mark.parametrize("estimate", [
        lambda model, prior: ek.evidence_quadrature(model, prior, 4),
        lambda model, prior: ek.evidence_laplace(model, prior, err_check_grid=4),
    ], ids=IDS)
    def test_bad_grid_refused_before_the_search(self, estimate):
        calls = []

        def penalty(theta):
            calls.append(theta)
            return 0.5 * float(theta[0]) ** 2

        model = ek.GenericModelSpec(dim=1, log_lik=lambda theta: -penalty(theta),
                                    regularizer=penalty, support=[[-5.0, 5.0]])
        prior = ek.NormalizedPrior(log_norm_const=0.0, method="closed-form", err_estimate=0.0)
        with pytest.raises(ValueError, match="grid_points_per_dim must be >= 5"):
            estimate(model, prior)
        assert calls == []

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_laplace_reference_is_the_default_quadrature(self, d):
        rng = np.random.default_rng(60 + d)
        _, _, model, prior = wrapped_instance(rng, n=20, d=d, lam_range=(0.5, 2.0))
        reference = ek.evidence_laplace(model, prior).info
        quadrature = ek.evidence_quadrature(model, prior, evidkit.evidence.DEFAULT_GRID[d])
        assert {key: reference[key] for key in quadrature.info} == quadrature.info

    @pytest.mark.parametrize("box, message", [
        ([[5.0, -5.0], [-5.0, 5.0]], "must have lower < upper in every coordinate"),
        ([[-5.0, np.nan], [-5.0, 5.0]], "contains NaN"),
        ([[-5.0, 5.0], [-np.inf, 5.0]], "must be finite"),
        ([[-5.0, 5.0, 0.0], [-5.0, 5.0, 0.0]], r"must have shape \(2, 2\), got \(2, 3\)"),
        ([[-5.0, 5.0]], r"must have shape \(2, 2\), got \(1, 2\)"),
    ], ids=["lower-above-upper", "nan", "infinite", "three-columns", "one-row"])
    @pytest.mark.parametrize("estimate", ESTIMATES + [
        lambda model, prior, start: ek.evidence_importance(model, prior, 100, 0, start=start),
    ], ids=IDS + ["importance-sampling"])
    def test_a_malformed_prior_box_is_refused_by_name(self, estimate, box, message):
        _, _, wrapped, prior = wrapped_instance(np.random.default_rng(80), n=20, d=2)
        prior = ek.NormalizedPrior(log_norm_const=prior.log_norm_const, method="closed-form",
                                   err_estimate=0.0, box=box)
        points = []
        with pytest.raises(ValueError, match=f"^prior box {message}$"):
            estimate(counted_copy(wrapped, points), prior, None)
        assert points == []  # refused before the MAP search


class TestRegion:
    """Every evidence integral and importance draw stays in the support cut to ``prior.box``."""

    ESTIMATES = TestIntegralBox.ESTIMATES + [
        lambda model, prior, start: ek.evidence_importance(model, prior, 20_000, 0, start=start),
    ]
    IDS = TestIntegralBox.IDS + ["importance-sampling"]
    # Log-lik -((theta - 0.05) / 0.2)^2 / 2 under a flat prior on the support [0, 1]:
    # log E = log(0.2 sqrt(2 pi) (Phi(4.75) - Phi(-0.25))).
    EXACT = -1.2034851534418654

    @staticmethod
    def _near_a_face(points):
        """The model of ``EXACT``, appending every point it is given to ``points``."""
        def log_lik(theta):
            points.extend(theta[:, 0])
            return -0.5 * ((theta[:, 0] - 0.05) / 0.2) ** 2

        return ek.GenericModelSpec(dim=1, log_lik=log_lik, support=[[0.0, 1.0]],
                                   regularizer=lambda theta: np.zeros(len(theta)),
                                   vectorized=True)

    @staticmethod
    def _closed_form(box):
        return ek.NormalizedPrior(log_norm_const=0.0, method="closed-form", err_estimate=0.0,
                                  box=box)

    @pytest.mark.parametrize("estimate", ESTIMATES, ids=IDS)
    def test_a_prior_box_wider_than_the_support(self, estimate):
        points = []
        dec = estimate(self._near_a_face(points), self._closed_form([[-1.0, 2.0]]), [0.3])
        assert points and all(0.0 <= theta <= 1.0 for theta in points)
        assert abs(dec.log_evidence - self.EXACT) <= dec.err_estimate

    def test_quadrature_integrates_the_support_only(self):
        dec = ek.evidence_quadrature(self._near_a_face([]), self._closed_form([[-1.0, 2.0]]), 41,
                                     start=[0.3])
        assert abs(dec.log_evidence - self.EXACT) < 1e-3
        assert dec.info["box"] == [[0.0, 1.0]]

    def test_importance_sampling_keeps_its_value(self):
        # Its draws were already held to the support and the prior's box.
        dec = ek.evidence_importance(self._near_a_face([]), self._closed_form([[-1.0, 2.0]]),
                                     20_000, 0, start=[0.3])
        assert dec.log_evidence == -1.2024854546492847
        assert dec.err_estimate == 0.007354843254318229

    @pytest.mark.parametrize("box", [[[1.0, 2.0]], [[2.0, 3.0]]], ids=["face", "outside"])
    @pytest.mark.parametrize("estimate", ESTIMATES, ids=IDS)
    def test_a_prior_box_that_leaves_no_region_is_refused(self, estimate, box):
        points = []
        model = counted_copy(self._near_a_face([]), points)
        message = re.escape(f"prior box {box} does not overlap the support [[0.0, 1.0]]")
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate(model, self._closed_form(box), None)
        assert points == []  # refused before the MAP search

    @pytest.mark.filterwarnings("error")
    def test_no_draw_in_the_region_is_degenerate(self):
        with pytest.raises(DegeneracyFailure, match="no draw of 2000 has positive weight") \
                as excinfo:
            ek.evidence_importance(self._near_a_face([]), self._closed_form([[0.9, 0.9000001]]),
                                   2000, 0)
        assert excinfo.value.ess == 0.0


NODE_LIMIT = r"^grid of 301\^3 nodes exceeds the 20000000 node limit$"
ODD_RULE = r"^grid_points_per_dim must be odd, got %d$"


def _select(generic_estimator, grid):
    return lambda model, prior: ek.select(
        ek.ModelSet(members=(model,)), ek.ObservationSet(y=[0.0]),
        generic_estimator=generic_estimator, grid_points_per_dim=grid)


# Grids that are refused before the model's first evaluation: (d, call, message).
REFUSED_GRIDS = {
    "quadrature-node-limit": (
        3, lambda model, prior: ek.evidence_quadrature(model, prior, 301), NODE_LIMIT),
    "laplace-node-limit": (
        3, lambda model, prior: ek.evidence_laplace(model, prior, err_check_grid=301),
        NODE_LIMIT),
    "select-quadrature-node-limit": (3, _select("quadrature", 301), NODE_LIMIT),
    "select-laplace-node-limit": (3, _select("laplace", 301), NODE_LIMIT),
    "normalize-prior-node-limit": (
        3, lambda model, prior: ek.normalize_prior(model, 301), NODE_LIMIT),
    "laplace-grid-above-dim-3": (
        4, lambda model, prior: ek.evidence_laplace(model, prior, err_check_grid=21),
        r"^grid quadrature supports dim <= 3, got dim=4$"),
    "select-laplace-grid-below-5": (
        1, _select("laplace", 4), r"^grid_points_per_dim must be >= 5$"),
    # An even grid has no half grid among its nodes.
    "quadrature-even": (
        1, lambda model, prior: ek.evidence_quadrature(model, prior, 40), ODD_RULE % 40),
    "laplace-even": (
        2, lambda model, prior: ek.evidence_laplace(model, prior, err_check_grid=20),
        ODD_RULE % 20),
    "select-quadrature-even": (3, _select("quadrature", 10), ODD_RULE % 10),
    "select-laplace-even": (1, _select("laplace", 40), ODD_RULE % 40),
    "normalize-prior-even": (
        2, lambda model, prior: ek.normalize_prior(model, 20), ODD_RULE % 20),
}


class TestGridCheck:
    @pytest.mark.parametrize("d, call, message", list(REFUSED_GRIDS.values()),
                             ids=list(REFUSED_GRIDS))
    def test_refused_before_any_model_evaluation(self, d, call, message):
        _, _, wrapped, prior = wrapped_instance(np.random.default_rng(70), n=20, d=d)
        points = []
        with pytest.raises(ValueError, match=message):
            call(counted_copy(wrapped, points), prior)
        assert points == []


class TestImportanceInflation:
    @pytest.mark.parametrize("inflation", [-1.5, 0.0, float("nan"), float("inf")])
    def test_bad_inflation_rejected(self, inflation):
        model = logistic_model()
        prior = ek.normalize_prior(model, 201)
        with pytest.raises(ValueError, match="inflation"):
            ek.evidence_importance(model, prior, 100, seed=0, inflation=inflation)


class TestErrorBarSweep:
    """Every quadrature and Laplace ``err_estimate`` bounds the actual error, tightly.

    45 wrapped GLMs with known evidence: d in {1, 2, 3}, n in {25, 200, 1000},
    5 datasets each, sigma = 0.5 and lambda = 1, at the default grids.
    """

    SIGMA, LAM = 0.5, 1.0

    def test_errors_within_their_estimates(self):
        rng = np.random.default_rng(101)
        errors = {"quadrature": [], "laplace": []}
        for d in (1, 2, 3):
            for n in (25, 200, 1000):
                for _ in range(5):
                    x = rng.standard_normal(n)
                    G = ek.scaled_polynomial_design(x, d - 1, float(np.std(x)))
                    y = G @ (rng.standard_normal(d) / self.LAM) \
                        + self.SIGMA * rng.standard_normal(n)
                    spec = ek.GaussianLinearSpec(G=G, sigma=self.SIGMA, lam=self.LAM)
                    obs = ek.ObservationSet(y=y)
                    exact = ek.glm_log_evidence(spec, obs).log_evidence
                    model, prior = ek.wrap_glm(spec, obs), ek.glm_normalized_prior(spec)
                    grid = evidkit.evidence.DEFAULT_GRID[d]
                    for dec in (ek.evidence_quadrature(model, prior, grid),
                                ek.evidence_laplace(model, prior)):
                        errors[dec.estimator].append(
                            (abs(dec.log_evidence - exact), dec.err_estimate, d, n))
        for estimator, rows in errors.items():
            misses = [row for row in rows if not row[0] <= row[1]]
            assert misses == [], (estimator, misses)
            worst = max(rows)
            assert worst[0] < 1e-6, (estimator, worst)
            # The estimates are tight too, so a tolerance of 1e-6 would pass.
            loosest = max(rows, key=lambda row: row[1])
            assert loosest[1] < 1e-6, (estimator, loosest)


def _scalar_copy(model):
    """The same model through scalar callables, one point per call."""
    return ek.GenericModelSpec(
        dim=model.dim, log_lik=lambda theta: float(model.log_lik(theta[None, :])[0]),
        regularizer=lambda theta: float(model.regularizer(theta[None, :])[0]),
        support=model.support, effective_box=model.effective_box)


class TestModeRecord:
    """The estimators take the MAP's curvature from the search that found it."""

    @staticmethod
    def _models():
        rng = np.random.default_rng(101)
        for d in range(1, 7):
            for n in (25, 200, 1000):
                x = rng.standard_normal(n)
                G = ek.scaled_polynomial_design(x, d - 1, float(np.std(x)))
                y = G @ rng.standard_normal(d) + 0.5 * rng.standard_normal(n)
                spec = ek.GaussianLinearSpec(G=G, sigma=0.5, lam=1.0)
                yield f"glm-d{d}-n{n}", ek.wrap_glm(spec, ek.ObservationSet(y=y))
        for seed in (3, 4, 5):
            yield f"logistic-{seed}", logistic_model(seed=seed)
            yield f"logistic-{seed}-scalar", _scalar_copy(logistic_model(seed=seed))

    def test_search_hessian_is_the_laplace_curvature(self):
        # The record rests on this: the stencil the search's last iteration
        # took at the MAP is, bit for bit, the one a fresh stencil takes there.
        prior = ek.NormalizedPrior(log_norm_const=0.0, method="closed-form", err_estimate=0.0)
        for name, model in self._models():
            box = evidkit.generic._declared_box(model)
            mode = evidkit.generic._search(model, box.mean(axis=1))
            np.testing.assert_array_equal(
                -mode.hess, evidkit.evidence.laplace_curvature(model, prior, mode.theta),
                err_msg=name)

    @pytest.mark.parametrize("estimate", [
        lambda model, prior, start: ek.evidence_quadrature(model, prior, 21, start=start),
        lambda model, prior, start: ek.evidence_laplace(model, prior, start=start,
                                                        err_check_grid=21),
        lambda model, prior, start: ek.evidence_importance(model, prior, 500, seed=1,
                                                           start=start),
    ], ids=["quadrature", "laplace", "importance-sampling"])
    def test_no_stencil_beyond_the_search(self, monkeypatch, estimate):
        rng = np.random.default_rng(54)
        _, _, model, prior = wrapped_instance(rng, n=20, d=2, lam_range=(0.5, 2.0))
        start = np.array([0.3, -0.2])
        stencils = []
        derivatives = evidkit.generic._stencil_derivatives

        def counted(*args, **kwargs):
            stencils.append(args[1])
            return derivatives(*args, **kwargs)

        for module in (evidkit.generic, evidkit.evidence):
            monkeypatch.setattr(module, "_stencil_derivatives", counted)
        ek.map_optimize(model, start)
        iterations = len(stencils)
        assert iterations > 1
        stencils.clear()
        estimate(model, prior, start)
        assert len(stencils) == iterations

    def test_a_given_map_takes_the_searched_bits(self):
        # A theta_hat given without a curvature takes a fresh stencil there,
        # which equals the search's last one, so the draws land on the same points.
        rng = np.random.default_rng(55)
        _, _, model, prior = wrapped_instance(rng, n=20, d=3, lam_range=(0.5, 2.0))
        searched = ek.evidence_importance(model, prior, 500, seed=4)
        given = ek.evidence_importance(model, prior, 500, seed=4, theta_hat=searched.theta_hat)
        assert given.log_evidence == searched.log_evidence
        assert given.err_estimate == searched.err_estimate
        assert given.info == searched.info


class TestOneIntegralRule:
    """Every black-box integral reports one bar, checks it and refuses a non-finite sum."""

    @staticmethod
    def _kinked():
        return ek.GenericModelSpec(
            dim=1, log_lik=lambda theta: -0.5 * ((float(theta[0]) - 1.0) / 0.5) ** 2,
            regularizer=lambda theta: abs(float(theta[0])), support=[[-30.0, 30.0]])

    @staticmethod
    def _nan_band():
        def log_lik(theta):
            if 4.9 < float(theta[0]) < 5.1:
                return float("nan")
            return -((float(theta[0]) - 1.0) / 2.0) ** 2 / 2.0

        return ek.GenericModelSpec(dim=1, log_lik=log_lik, regularizer=lambda theta: 0.0,
                                   support=[[-30.0, 30.0]])

    def test_the_tolerance_is_checked_against_the_reported_bar(self):
        # The Richardson term alone is under 1e-3; the prior's kinked error is not.
        model = self._kinked()
        prior = ek.normalize_prior(model, 41)
        with pytest.raises(AccuracyFailure, match="^quadrature error estimate 1.132e-01") as info:
            ek.evidence_quadrature(model, prior, 41, max_err=1e-3)
        assert info.value.err_estimate == 0.11319306732854928
        assert ek.evidence_quadrature(model, prior, 41).err_estimate == 0.11319306732854928

    @pytest.mark.parametrize("estimate", [
        lambda model, prior: ek.evidence_quadrature(model, prior, 41),
        lambda model, prior: ek.evidence_quadrature(model, prior, 2001),
        lambda model, prior: ek.evidence_laplace(model, prior, err_check_grid=2001),
    ], ids=["quadrature-41", "quadrature-2001", "laplace-2001"])
    def test_a_nan_integrand_fails_loud(self, estimate):
        model = self._nan_band()
        prior = ek.normalize_prior(model, 41)
        with pytest.raises(NumericFailure, match="NaN or \\+inf on the probe grid"):
            estimate(model, prior)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_node_of_an_unprobed_box_fails_loud(self, bad):
        # Bounded support: the declared box is the support, so no probe runs
        # and the sums meet the value first.
        def regularizer(theta):
            return -bad if 4.9 < float(theta[0]) < 5.1 else 0.5 * float(theta[0]) ** 2

        model = ek.GenericModelSpec(dim=1, log_lik=lambda theta: 0.0,
                                    regularizer=regularizer, support=[[-30.0, 30.0]])
        with pytest.raises(NumericFailure, match="^prior normalizer is not finite"):
            ek.normalize_prior(model, 2001)

    def test_minus_inf_nodes_stay_legal(self):
        # Zero likelihood 6 sd below the peak: the box's lower nodes are -inf.
        def log_lik(theta):
            return -np.inf if float(theta[0]) < -3.0 else -0.5 * (float(theta[0]) - 3.0) ** 2

        model = ek.GenericModelSpec(dim=1, log_lik=log_lik, regularizer=lambda theta: 0.0,
                                    support=[[-30.0, 30.0]])
        prior = ek.normalize_prior(model, 41)
        dec = ek.evidence_quadrature(model, prior, 2001)
        assert dec.info["box"][0][0] < -3.0
        exact = np.log(np.sqrt(2.0 * np.pi) * norm.cdf(6.0)) - np.log(60.0)
        assert dec.log_evidence == pytest.approx(exact, abs=1e-6)
        assert np.isfinite(dec.err_estimate)

    def test_every_node_minus_inf_fails_loud(self):
        model = ek.GenericModelSpec(dim=1, log_lik=lambda theta: 0.0,
                                    regularizer=lambda theta: np.inf, support=[[-1.0, 1.0]])
        with pytest.raises(NumericFailure, match="^prior normalizer is not finite"):
            ek.normalize_prior(model, 41)

    def test_the_public_trapezoid_rule_still_passes_nan_on(self):
        model = self._nan_band()
        value = evidkit.generic.log_trapezoid_integral(
            model, lambda points: np.where(points[:, 0] == 5.0, np.nan, 0.0), [[4.0, 6.0]], 21)
        assert np.isnan(value)


class TestChunkedBatch:
    """A vectorized callable sees at most ``EVAL_CHUNK`` rows a call, with the same sums."""

    @staticmethod
    def _both_chunks(monkeypatch, run):
        """``run(points)`` at the default chunk, then at 1000 rows; its batch sizes at 1000."""
        default = run([])
        monkeypatch.setattr(evidkit.generic, "EVAL_CHUNK", 1000)
        points = []
        return default, run(points), points

    def test_quadrature_over_many_chunks_keeps_its_bits(self, monkeypatch):
        _, _, wrapped, prior = wrapped_instance(np.random.default_rng(81), n=20, d=2)

        def run(points):  # 201^2 = 40 401 nodes
            return ek.evidence_quadrature(counted_copy(wrapped, points), prior, 201)

        default, chunked, points = self._both_chunks(monkeypatch, run)
        assert max(points) == 1000 and len(points) > 40  # the grid alone takes 41 calls
        assert chunked.log_evidence == default.log_evidence
        assert chunked.err_estimate == default.err_estimate

    def test_a_normalizer_over_many_chunks_keeps_its_bits(self, monkeypatch):
        def run(points):
            def regularizer(theta):
                points.append(len(theta))
                return 0.5 * np.einsum("ij,ij->i", theta, theta) + 0.1 * theta[:, 0] ** 4

            model = ek.GenericModelSpec(dim=2, log_lik=lambda theta: np.zeros(len(theta)),
                                        regularizer=regularizer, support=[[-6.0, 6.0]] * 2,
                                        vectorized=True)
            return ek.normalize_prior(model, 201)

        default, chunked, points = self._both_chunks(monkeypatch, run)
        assert max(points) == 1000 and len(points) > 40  # the grid alone takes 41 calls
        assert chunked.log_norm_const == default.log_norm_const
        assert chunked.err_estimate == default.err_estimate
