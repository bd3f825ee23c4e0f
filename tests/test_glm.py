"""Closed-form Gaussian linear model routines against independent oracles."""

import numpy as np
import pytest
from scipy.stats import norm

import evidkit as ek
from evidkit.exceptions import NumericFailure

from helpers import marginal_log_evidence_oracle, random_glm_instance

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def _unit_spec(lam=1.0, sigma=1.0):
    return ek.GaussianLinearSpec(G=[[1.0]], sigma=sigma, lam=lam)


class TestValidation:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            ek.GaussianLinearSpec(G=[[1.0]], sigma=-1.0, lam=1.0)

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError, match="lam"):
            ek.GaussianLinearSpec(G=[[1.0]], sigma=1.0, lam=0.0)

    def test_non_finite_design_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ek.GaussianLinearSpec(G=[[np.inf]], sigma=1.0, lam=1.0)

    def test_y_finite_and_nonempty(self):
        with pytest.raises(ValueError):
            ek.ObservationSet(y=[])
        with pytest.raises(ValueError, match="non-finite"):
            ek.ObservationSet(y=[np.nan])

    def test_x_length_must_match(self):
        with pytest.raises(ValueError, match="length"):
            ek.ObservationSet(y=[1.0, 2.0], x=[0.5])

    def test_observation_length_checked(self):
        spec = ek.GaussianLinearSpec(G=[[1.0], [1.0]], sigma=1.0, lam=1.0)
        with pytest.raises(ValueError, match="length"):
            ek.map_estimate(spec, ek.ObservationSet(y=[1.0]))


class TestPosteriorPrecision:
    def test_identity_substitution(self):
        np.testing.assert_allclose(ek.posterior_precision(_unit_spec()), [[2.0]])

    def test_two_rows(self):
        spec = ek.GaussianLinearSpec(G=[[1.0], [1.0]], sigma=1.0, lam=1.0)
        np.testing.assert_allclose(ek.posterior_precision(spec), [[3.0]])

    def test_against_naive_triple_loop(self):
        rng = np.random.default_rng(0)
        G = rng.standard_normal((20, 3))
        spec = ek.GaussianLinearSpec(G=G, sigma=0.5, lam=2.0)
        n, d = G.shape
        gram = np.zeros((d, d))
        for i in range(d):
            for j in range(d):
                for k in range(n):
                    gram[i, j] += G[k, i] * G[k, j]
        expected = gram / 0.25 + 4.0 * np.eye(d)
        np.testing.assert_allclose(ek.posterior_precision(spec), expected, atol=1e-12)

    def test_overflow_names_offending_entry(self):
        spec = ek.GaussianLinearSpec(G=[[1e200, 0.0]], sigma=1.0, lam=1.0)
        with pytest.raises(NumericFailure, match=r"\[0,0\].*not finite"):
            ek.posterior_precision(spec)

    @pytest.mark.parametrize("closed_form", [
        ek.map_estimate, ek.glm_log_evidence, lambda spec, obs: ek.gram_eigen_range(spec)],
        ids=["map_estimate", "glm_log_evidence", "gram_eigen_range"])
    def test_overflow_raises_numeric_failure(self, closed_form):
        # G'G overflows; with RuntimeWarning an error, this also catches a G'G
        # formed outside the overflow guard.
        spec = ek.GaussianLinearSpec(G=[[1e200, 0.0]], sigma=1.0, lam=1.0)
        with pytest.raises(NumericFailure, match="not finite"):
            closed_form(spec, ek.ObservationSet(y=[1.0]))


class TestMapEstimate:
    def test_zero_responses_give_zero_fit(self):
        rng = np.random.default_rng(1)
        spec = ek.GaussianLinearSpec(G=rng.standard_normal((8, 3)), sigma=0.5, lam=2.0)
        theta = ek.map_estimate(spec, ek.ObservationSet(y=np.zeros(8)))
        np.testing.assert_allclose(theta, np.zeros(3))

    def test_scalar_case(self):
        theta = ek.map_estimate(_unit_spec(), ek.ObservationSet(y=[2.0]))
        np.testing.assert_allclose(theta, [1.0])


class TestLogLikelihood:
    def test_standard_normal_at_zero(self):
        value = ek.glm_log_likelihood(_unit_spec(), ek.ObservationSet(y=[0.0]), [0.0])
        assert value == pytest.approx(-HALF_LOG_2PI, abs=1e-12)

    def test_unit_residual(self):
        value = ek.glm_log_likelihood(_unit_spec(), ek.ObservationSet(y=[2.0]), [1.0])
        assert value == pytest.approx(-HALF_LOG_2PI - 0.5, abs=1e-12)

    def test_matches_per_coordinate_normal_densities(self):
        rng = np.random.default_rng(2)
        spec, obs = random_glm_instance(rng)
        theta = rng.standard_normal(spec.d)
        expected = norm.logpdf(obs.y, loc=spec.G @ theta, scale=spec.sigma).sum()
        value = ek.glm_log_likelihood(spec, obs, theta)
        assert value == pytest.approx(expected, abs=1e-12)


class TestFlexibility:
    def test_zero_data(self):
        value = ek.flexibility_exact(_unit_spec(), ek.ObservationSet(y=[0.0]))
        assert value == pytest.approx(0.5 * np.log(2.0), abs=1e-12)

    def test_unit_map(self):
        value = ek.flexibility_exact(_unit_spec(), ek.ObservationSet(y=[2.0]))
        assert value == pytest.approx(0.5 * np.log(2.0) + 0.5, abs=1e-12)

    def test_large_lambda_bound(self):
        # For huge lambda the penalty vanishes as O(1/lambda^2); the direct
        # bound is (tr(G'G/sigma^2) + ||G'y/sigma^2||^2) / (2 lambda^2).
        rng = np.random.default_rng(3)
        G = rng.uniform(-1.0, 1.0, size=(20, 2))
        y = rng.uniform(-1.0, 1.0, size=20)
        lam = 1e3
        spec = ek.GaussianLinearSpec(G=G, sigma=1.0, lam=lam)
        obs = ek.ObservationSet(y=y)
        value = ek.flexibility_exact(spec, obs)
        bound = (np.trace(G.T @ G) + float(np.sum((G.T @ y) ** 2))) / (2.0 * lam**2)
        assert 0.0 <= value <= bound
        assert value < 1e-2

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            spec, obs = random_glm_instance(rng)
            assert ek.flexibility_exact(spec, obs) >= 0.0

    def test_strictly_decreasing_past_gram_eigenvalue(self):
        rng = np.random.default_rng(5)
        G = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        sigma = 0.7
        obs = ek.ObservationSet(y=y)
        top = max(np.linalg.eigvalsh(G.T @ G / sigma**2))
        lams = np.sqrt(top) * np.array([1.05, 1.5, 3.0, 10.0, 100.0, 1e4])
        values = [ek.flexibility_exact(ek.GaussianLinearSpec(G=G, sigma=sigma, lam=lam), obs)
                  for lam in lams]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6
        huge = ek.flexibility_exact(ek.GaussianLinearSpec(G=G, sigma=sigma, lam=1e8), obs)
        assert huge < 1e-12


class TestLogEvidence:
    def test_worked_scalar_example(self):
        dec = ek.glm_log_evidence(_unit_spec(), ek.ObservationSet(y=[2.0]))
        assert dec.log_evidence == pytest.approx(-2.265512, abs=1e-6)
        assert dec.log_fit == pytest.approx(-HALF_LOG_2PI - 0.5, abs=1e-12)
        assert dec.flexibility == pytest.approx(0.846574, abs=1e-6)
        assert dec.estimator == "glm-exact"
        assert dec.err_estimate == 0.0
        oracle = norm.logpdf(2.0, loc=0.0, scale=np.sqrt(2.0))
        assert dec.log_evidence == pytest.approx(oracle, abs=1e-12)

    def test_zero_responses_kill_quadratic_terms(self):
        rng = np.random.default_rng(6)
        spec, _ = random_glm_instance(rng, n=12, d=4)
        obs = ek.ObservationSet(y=np.zeros(12))
        dec = ek.glm_log_evidence(spec, obs)
        p_star = ek.posterior_precision(spec)
        half_log_det_ratio = 0.5 * (np.linalg.slogdet(p_star)[1]
                                    - 2 * spec.d * np.log(spec.lam))
        expected = -0.5 * 12 * np.log(2 * np.pi * spec.sigma**2) - half_log_det_ratio
        assert dec.log_evidence == pytest.approx(expected, abs=1e-10)
        assert dec.flexibility == pytest.approx(half_log_det_ratio, abs=1e-12)

    def test_against_marginal_gaussian_oracle(self):
        rng = np.random.default_rng(11)
        spec, obs = random_glm_instance(rng, n=25, d=3)
        dec = ek.glm_log_evidence(spec, obs)
        assert dec.log_evidence == pytest.approx(
            marginal_log_evidence_oracle(spec, obs), abs=1e-8)

    def test_decomposition_identity_and_oracle_batch(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            spec, obs = random_glm_instance(rng)
            dec = ek.glm_log_evidence(spec, obs)
            assert dec.log_evidence + dec.flexibility == pytest.approx(
                dec.log_fit, abs=1e-12 * max(1.0, abs(dec.log_fit)))
            assert dec.log_evidence == pytest.approx(
                marginal_log_evidence_oracle(spec, obs), abs=1e-8)

    def test_rank_warning_for_collinear_design(self):
        x = np.linspace(0.0, 1.0, 10)
        G = np.column_stack([x, 2.0 * x])
        dec = ek.glm_log_evidence(ek.GaussianLinearSpec(G=G, sigma=1.0, lam=1.0),
                                  ek.ObservationSet(y=np.ones(10)))
        assert any("rank" in w for w in dec.warnings)

    def test_no_rank_warning_for_well_conditioned_design(self):
        rng = np.random.default_rng(8)
        spec, obs = random_glm_instance(rng, n=30, d=3)
        assert ek.glm_log_evidence(spec, obs).warnings == ()


class TestCandidateFormula:
    def test_at_map_equals_log_evidence(self):
        rng = np.random.default_rng(9)
        spec, obs = random_glm_instance(rng, n=15, d=3)
        dec = ek.glm_log_evidence(spec, obs)
        value = ek.evidence_via_candidate(spec, obs, dec.theta_hat)
        assert value == pytest.approx(dec.log_evidence, abs=1e-12)

    def test_at_origin(self):
        rng = np.random.default_rng(10)
        spec, obs = random_glm_instance(rng, n=15, d=3)
        dec = ek.glm_log_evidence(spec, obs)
        value = ek.evidence_via_candidate(spec, obs, np.zeros(spec.d))
        assert value == pytest.approx(dec.log_evidence, abs=1e-10)

    def test_invariant_over_random_points(self):
        rng = np.random.default_rng(12)
        spec, obs = random_glm_instance(rng, n=20, d=4)
        values = [ek.evidence_via_candidate(spec, obs, rng.standard_normal(spec.d))
                  for _ in range(10)]
        assert max(values) - min(values) < 1e-9

    def test_rejects_non_finite_point(self):
        spec, obs = _unit_spec(), ek.ObservationSet(y=[1.0])
        with pytest.raises(ValueError, match="non-finite"):
            ek.evidence_via_candidate(spec, obs, [np.inf])


class TestGaussianPosterior:
    def test_precision_gap_is_data_term(self):
        rng = np.random.default_rng(13)
        spec, obs = random_glm_instance(rng, n=18, d=3)
        post = ek.gaussian_posterior(spec, obs)
        np.testing.assert_allclose(
            post.post_precision - post.prior_precision,
            spec.G.T @ spec.G / spec.sigma**2, atol=1e-10)

    def test_rejects_indefinite_precision(self):
        with pytest.raises((ValueError, NumericFailure)):
            ek.GaussianPosterior(theta_hat=[0.0], post_precision=[[-1.0]],
                                 prior_precision=[[1.0]])

    def test_rejects_posterior_below_prior(self):
        with pytest.raises(ValueError, match="semidefinite"):
            ek.GaussianPosterior(theta_hat=[0.0], post_precision=[[1.0]],
                                 prior_precision=[[2.0]])


class TestEigenDiagnostics:
    def test_range_matches_numpy(self):
        rng = np.random.default_rng(14)
        spec, _ = random_glm_instance(rng, n=20, d=4)
        low, high = ek.gram_eigen_range(spec)
        eigs = np.linalg.eigvalsh(spec.G.T @ spec.G)
        assert low == pytest.approx(eigs[0])
        assert high == pytest.approx(eigs[-1])
