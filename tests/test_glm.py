"""Closed-form Gaussian linear model routines against independent oracles."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import norm

import evidkit as ek
import evidkit.glm
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


class TestAliasing:
    """A spec keeps an array uncopied only when nothing can write to its memory."""

    def test_writable_inputs_are_copied(self):
        G, y = np.ones((3, 2)), np.ones(3)
        spec, obs = ek.GaussianLinearSpec(G=G, sigma=1.0, lam=1.0), ek.ObservationSet(y=y, x=y)
        G[0, 0] = y[0] = 5.0
        assert spec.G[0, 0] == obs.y[0] == obs.x[0] == 1.0

    def test_read_only_view_of_a_writable_owner_is_copied(self):
        owner = np.ones((3, 4))
        view = owner[:, :2]
        view.setflags(write=False)
        spec = ek.GaussianLinearSpec(G=view, sigma=1.0, lam=1.0)
        obs = ek.ObservationSet(y=view[:, 0])
        owner[0] = 5.0
        assert spec.G[0, 0] == obs.y[0] == 1.0

    def test_buffer_of_bytes_is_copied(self):
        y = np.frombuffer(np.arange(1.0, 4.0).tobytes())
        assert not y.flags.writeable and y.base is not None
        G = np.frombuffer(np.ones(4).tobytes()).reshape(2, 2)
        obs = ek.ObservationSet(y=y)
        spec = ek.GaussianLinearSpec(G=G, sigma=1.0, lam=1.0)
        assert not np.shares_memory(obs.y, y) and not np.shares_memory(spec.G, G)

    def test_other_dtypes_are_copied(self):
        G = np.ones((3, 2), dtype=np.float32)
        G.setflags(write=False)
        assert ek.GaussianLinearSpec(G=G, sigma=1.0, lam=1.0).G.dtype == np.float64

    def test_read_only_view_of_a_read_only_owner_is_kept(self):
        owner = np.arange(12.0).reshape(3, 4)
        owner.setflags(write=False)  # but its own base, the 1-D range, stays writable
        assert ek.GaussianLinearSpec(G=owner, sigma=1.0, lam=1.0).G.base is None
        owner = owner.copy()
        owner.setflags(write=False)
        spec = ek.GaussianLinearSpec(G=owner[:, :2], sigma=1.0, lam=1.0)
        assert spec.G.base is owner
        assert ek.ObservationSet(y=owner[:, 1]).y.base is owner
        assert ek.GaussianLinearSpec(G=owner, sigma=1.0, lam=1.0).G is owner


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

    def test_right_hand_side_overflow_names_entry(self):
        # P* = 1e300 + 1 is finite, G'y = 1e350 is not; with RuntimeWarning an
        # error, this also catches G'y formed outside the overflow guard.
        spec = ek.GaussianLinearSpec(G=[[1e150]], sigma=1.0, lam=1.0)
        with pytest.raises(NumericFailure, match=r"^entry \[0\] of G'y / sigma\*\*2 is not "
                                                 r"finite$") as excinfo:
            ek.glm_log_evidence(spec, ek.ObservationSet(y=[1e200]))
        assert excinfo.value.row is None

    def test_right_hand_side_overflow_names_response_row(self):
        spec = ek.GaussianLinearSpec(G=[[1e150]], sigma=1.0, lam=1.0)
        with pytest.raises(NumericFailure, match=r"not finite in response row 2$") as excinfo:
            evidkit.glm._log_evidences(spec, np.array([[1.0], [2.0], [1e200], [1e200]]))
        assert excinfo.value.row == 2

    @pytest.mark.parametrize("g", [1.0, 1e-100], ids=["theta-norm", "residual"])
    def test_fit_overflow_names_response_row(self, g):
        # P* and G'y are finite.  With G = 1, theta_hat'theta_hat = 2.5e399
        # overflows; with G = 1e-100, only the residual sum of squares does.
        spec = ek.GaussianLinearSpec(G=[[g]], sigma=1.0, lam=1.0)
        with pytest.raises(NumericFailure, match=r"^log-evidence is not finite$") as excinfo:
            ek.glm_log_evidence(spec, ek.ObservationSet(y=[1e200]))
        assert excinfo.value.row is None
        with pytest.raises(NumericFailure, match=r"^log-evidence is not finite in response "
                                                 r"row 1$") as excinfo:
            evidkit.glm._log_evidences(spec, np.array([[1.0], [1e200], [2.0]]))
        assert excinfo.value.row == 1

    @pytest.mark.parametrize("entry_point", [
        lambda spec, obs: ek.glm_log_evidence(spec, obs),
        lambda spec, obs: ek.map_estimate(spec, obs),
        lambda spec, obs: ek.posterior_precision(spec),
        lambda spec, obs: ek.gaussian_posterior(spec, obs),
        lambda spec, obs: ek.evidence_via_candidate(spec, obs, [0.1]),
        lambda spec, obs: ek.gram_eigen_range(spec),
        lambda spec, obs: ek.flexibility_exact(spec, obs),
        lambda spec, obs: ek.wrap_glm(spec, obs),
        lambda spec, obs: ek.glm_log_likelihood(spec, obs, [0.1]),
    ], ids=["glm_log_evidence", "map_estimate", "posterior_precision", "gaussian_posterior",
            "evidence_via_candidate", "gram_eigen_range", "flexibility_exact", "wrap_glm",
            "glm_log_likelihood"])
    def test_sigma_squared_underflow_raises_numeric_failure(self, entry_point):
        # sigma**2 underflows to 0: G'G / sigma**2 and the residual term divide
        # by zero.  With RuntimeWarning an error, a division outside the guards
        # escapes as a bare warning instead of the typed failure.
        spec = ek.GaussianLinearSpec(G=[[1.0]], sigma=1e-200, lam=1.0)
        with pytest.raises(NumericFailure, match="not finite"):
            entry_point(spec, ek.ObservationSet(y=[0.5]))


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

    def test_densities_reuse_the_validation_factors(self, monkeypatch):
        rng = np.random.default_rng(15)
        spec, obs = random_glm_instance(rng, n=20, d=3)
        post = ek.gaussian_posterior(spec, obs)
        thetas = rng.standard_normal((5, 3))
        # The reference factors each precision afresh; the kept factors must match it bit for bit.
        logpdf, factor = evidkit.glm._gaussian_logpdf, evidkit.glm._factor
        prior_factor = np.tril(factor(post.prior_precision, "prior"))
        post_factor = np.tril(factor(post.post_precision, "post"))
        expected = [(logpdf(theta, np.zeros(3), prior_factor),
                     logpdf(theta, post.theta_hat, post_factor)) for theta in thetas]
        calls = []

        def counting(matrix, *args):
            calls.append(matrix)
            return factor(matrix, *args)

        monkeypatch.setattr(evidkit.glm, "_factor", counting)
        got = [(post.log_prior_density(theta), post.log_posterior_density(theta))
               for theta in thetas]
        assert calls == []
        assert got == expected

    def test_rejects_indefinite_precision(self):
        with pytest.raises(NumericFailure, match="^post_precision factorization failed: "
                                                 "leading minor 1 is not positive$"):
            ek.GaussianPosterior(theta_hat=[0.0], post_precision=[[-1.0]],
                                 prior_precision=[[1.0]])

    @pytest.mark.parametrize("post, prior, message", [
        (np.eye(3), np.eye(3), r"post_precision must have shape \(2, 2\) to match theta_hat, "
                               r"got \(3, 3\)"),
        ([[2.0, 0.0]], np.eye(2), r"post_precision must have shape \(2, 2\) to match theta_hat, "
                                  r"got \(1, 2\)"),
        (np.eye(2), np.eye(3), r"prior_precision must have shape \(2, 2\) to match theta_hat, "
                               r"got \(3, 3\)"),
    ], ids=["both-3x3", "post-1x2", "prior-3x3"])
    def test_rejects_a_precision_of_the_wrong_shape(self, post, prior, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ek.GaussianPosterior(theta_hat=[0.0, 0.0], post_precision=post,
                                 prior_precision=prior)

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


class TestCandidateFactorization:
    def test_reads_the_one_posterior_factor(self, monkeypatch):
        rng = np.random.default_rng(15)
        spec, obs = random_glm_instance(rng, n=20, d=4)
        theta0 = rng.standard_normal(spec.d)
        calls = {"_cholesky_solve": 0, "_factor": 0, "eigvalsh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(evidkit.glm, "_cholesky_solve",
                            counted("_cholesky_solve", evidkit.glm._cholesky_solve))
        monkeypatch.setattr(evidkit.glm, "_factor", counted("_factor", evidkit.glm._factor))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        ek.evidence_via_candidate(spec, obs, theta0)
        # The one factorization is the posterior's: the prior's factor is lam * I, unfactored.
        assert calls == {"_cholesky_solve": 1, "_factor": 1, "eigvalsh": 0}


class TestCholeskySolve:
    """The direct LAPACK route against scipy's ``cho_factor`` and ``cho_solve``, bit for bit."""

    @pytest.mark.parametrize("d", range(1, 13))
    def test_matches_scipy_wrappers(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(20):
            A = rng.standard_normal((d + 3, d)) * rng.uniform(0.1, 10.0)
            matrix = A.T @ A + rng.uniform(1e-3, 2.0) * np.eye(d)
            factor = cho_factor(matrix, lower=True)
            rhs = rng.standard_normal(d)
            L, solution = evidkit.glm._cholesky_solve(matrix, rhs, "m")
            assert np.array_equal(L, factor[0])
            assert np.array_equal(solution, cho_solve(factor, rhs))
            # One response per row, more rows than one solve block holds.
            stack = rng.standard_normal((2 * evidkit.glm._SOLVE_BLOCK + 7, d))
            _, solutions = evidkit.glm._cholesky_solve(matrix, stack, "m")
            assert solutions.shape == stack.shape
            assert np.array_equal(solutions, cho_solve(factor, stack.T).T)

    def test_not_positive_definite_raises_numeric_failure(self):
        matrix = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericFailure, match="^m factorization failed: leading minor 2 "):
            evidkit.glm._cholesky_solve(matrix, np.ones(2), "m")


class TestDesignStacks:
    """The private closed form on designs stacked as (m, n, d), one per response row."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_evidence_terms_match_each_design_alone(self, d):
        rng = np.random.default_rng(200 + d)
        m, n, sigma, lam = 6, 40, 0.7, 1.3
        wide = rng.standard_normal((m, n, 10)) * rng.uniform(0.5, 3.0, size=10)
        Y = rng.standard_normal((m, n))
        # Leading columns of a wider design, as a view and as a copy.
        for G in (wide[..., :d], np.ascontiguousarray(wide[..., :d])):
            spec = SimpleNamespace(G=G, n=n, sigma=sigma, lam=lam)
            gram, theta_hat, log_fit, flexibility = evidkit.glm._evidence_terms(spec, Y)
            assert theta_hat.shape == (m, d) and log_fit.shape == flexibility.shape == (m,)
            for r in range(m):
                single = ek.GaussianLinearSpec(G=G[r], sigma=sigma, lam=lam)
                dec = ek.glm_log_evidence(single, ek.ObservationSet(y=Y[r]))
                assert np.array_equal(gram[r], evidkit.glm._precision(single)[1])
                assert np.array_equal(theta_hat[r], dec.theta_hat)
                assert log_fit[r] == dec.log_fit
                assert flexibility[r] == dec.flexibility
                assert log_fit[r] - flexibility[r] == dec.log_evidence

    def test_non_finite_precision_names_its_row(self):
        G = np.ones((3, 2, 1))
        G[1, 0, 0] = 1e200
        spec = SimpleNamespace(G=G, n=2, sigma=1.0, lam=1.0)
        with pytest.raises(NumericFailure, match=r"^entry \[0,0\] of posterior precision is not "
                                                 r"finite in response row 1$") as excinfo:
            evidkit.glm._evidence_terms(spec, np.ones((3, 2)))
        assert excinfo.value.row == 1


class TestCholeskySolveStack:
    """``_cholesky_solve`` on an (m, d, d) stack with one right-hand side per matrix."""

    def test_each_matrix_solved_as_if_alone(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((5, 9, 4))
        matrices = np.swapaxes(A, -1, -2) @ A + np.eye(4)
        rhs = rng.standard_normal((5, 4))
        factors, solutions = evidkit.glm._cholesky_solve(matrices, rhs, "m")
        for r in range(5):
            L, solution = evidkit.glm._cholesky_solve(matrices[r], rhs[r], "m")
            assert np.array_equal(factors[r], L)
            assert np.array_equal(solutions[r], solution)

    def test_failure_names_its_row(self):
        matrices = np.array([np.eye(2), np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(NumericFailure, match="^m factorization failed: leading minor 2 ") \
                as excinfo:
            evidkit.glm._cholesky_solve(matrices, np.ones((3, 2)), "m")
        assert excinfo.value.row == 2
