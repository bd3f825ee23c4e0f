"""Evidence estimators, decomposition arithmetic, and the penalty sweep."""

import numpy as np
import pytest

import evidkit as ek
import evidkit.evidence
import evidkit.generic
from evidkit.exceptions import CurvatureFailure, DegeneracyFailure

from helpers import logistic_model, random_glm_instance


def wrapped_instance(rng, **kwargs):
    spec, obs = random_glm_instance(rng, **kwargs)
    return spec, obs, ek.wrap_glm(spec, obs), ek.glm_normalized_prior(spec)


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
        _, _, model, prior = wrapped_instance(rng, n=20, d=2, lam_range=(0.5, 2.0))
        searches = []

        def counting(model, start, **kwargs):
            searches.append(start)
            return evidkit.generic.map_optimize(model, start, **kwargs)

        monkeypatch.setattr(evidkit.evidence, "map_optimize", counting)
        dec = ek.evidence_laplace(model, prior, err_check_grid=101)
        assert len(searches) == 1

        def log_joint(points):
            return model.log_lik(points) - model.regularizer(points) - prior.log_norm_const

        box = evidkit.generic.resolve_integration_box(model, log_joint)
        reference = evidkit.generic.log_trapezoid_integral(model, log_joint, box, 101)
        assert dec.err_estimate == abs(dec.log_evidence - reference)

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

        def forbidden(model, log_integrand):
            raise AssertionError("resolved an integration box although start was given")

        monkeypatch.setattr(evidkit.evidence, "resolve_integration_box", forbidden)
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

    def test_supplied_indefinite_curvature_is_a_curvature_failure(self):
        model = logistic_model()
        prior = ek.normalize_prior(model, 201)
        with pytest.raises(CurvatureFailure):
            ek.evidence_importance(model, prior, 100, seed=0, theta_hat=[0.0],
                                   curvature=[[-1.0]])


class TestLaplaceBox:
    def test_no_box_above_dim3_when_start_given(self, monkeypatch):
        rng = np.random.default_rng(53)
        spec, obs, model, prior = wrapped_instance(rng, n=20, d=4, lam_range=(0.5, 2.0))
        exact = ek.glm_log_evidence(spec, obs)
        resolved = []

        def counting(model, log_integrand):
            resolved.append(model)
            return evidkit.generic.resolve_integration_box(model, log_integrand)

        monkeypatch.setattr(evidkit.evidence, "resolve_integration_box", counting)
        dec = ek.evidence_laplace(model, prior, start=exact.theta_hat + 0.1)
        assert resolved == []
        assert np.isnan(dec.err_estimate)
        assert dec.log_evidence == pytest.approx(exact.log_evidence, abs=1e-6)


class TestImportanceInflation:
    @pytest.mark.parametrize("inflation", [-1.5, 0.0, float("nan"), float("inf")])
    def test_bad_inflation_rejected(self, inflation):
        model = logistic_model()
        prior = ek.normalize_prior(model, 201)
        with pytest.raises(ValueError, match="inflation"):
            ek.evidence_importance(model, prior, 100, seed=0, inflation=inflation)
