"""Selection rules, risk experiments, polynomial families, and the crossover."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import norm

import evidkit as ek
import evidkit.glm
import evidkit.selection
from evidkit.exceptions import EvidkitError, SelectionFailure

from helpers import random_glm_instance, reference_sweet_spot


def shared_response_set(rng, k=5, n=25):
    """Model set of k random designs scored on one shared response vector."""
    y = rng.standard_normal(n)
    members = []
    for _ in range(k):
        members.append(ek.GaussianLinearSpec(
            G=rng.standard_normal((n, int(rng.integers(1, 6)))),
            sigma=float(rng.uniform(0.5, 1.5)),
            lam=float(rng.uniform(0.5, 2.0))))
    return ek.ModelSet(members=tuple(members)), ek.ObservationSet(y=y)


def l1_member(m=2.0, s=0.5):
    """A black-box member with likelihood N(theta; m, s^2) and the kinked penalty |theta|.

    Returns the member and its exact log-evidence, the log of
    (1/2) int N(theta; m, s^2) exp(-|theta|) dtheta split at the kink.
    """
    member = ek.GenericModelSpec(
        dim=1, vectorized=True,
        log_lik=lambda t: -0.5 * np.log(2 * np.pi * s**2) - (t[:, 0] - m) ** 2 / (2 * s**2),
        regularizer=lambda t: np.abs(t[:, 0]), effective_box=[[-30.0, 30.0]])
    positive = s**2 / 2 - m + norm.logcdf((m - s**2) / s)
    negative = s**2 / 2 + m + norm.logcdf(-(m + s**2) / s)
    return member, np.log(0.5) + np.logaddexp(positive, negative)


class TestModelSet:
    def test_weights_default_uniform(self):
        model_set, _ = shared_response_set(np.random.default_rng(0), k=4)
        np.testing.assert_allclose(model_set.weights, 0.25)

    def test_weights_must_sum_to_one(self):
        spec = ek.GaussianLinearSpec(G=[[1.0]], sigma=1.0, lam=1.0)
        with pytest.raises(ValueError, match="sum"):
            ek.ModelSet(members=(spec, spec), weights=[0.6, 0.6])

    def test_weights_must_be_positive(self):
        spec = ek.GaussianLinearSpec(G=[[1.0]], sigma=1.0, lam=1.0)
        with pytest.raises(ValueError, match="positive"):
            ek.ModelSet(members=(spec, spec), weights=[1.0, 0.0])

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ek.ModelSet(members=())


class TestSelect:
    def test_uniform_weights_rules_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            model_set, obs = shared_response_set(rng)
            by_evidence = ek.select(model_set, obs, "max-evidence")
            by_posterior = ek.select(model_set, obs, "max-posterior")
            assert by_evidence.chosen == by_posterior.chosen

    def test_dimension_above_3_refused_alike_with_and_without_a_grid(self):
        model = ek.GenericModelSpec(dim=4, log_lik=lambda theta: 0.0,
                                    regularizer=lambda theta: 0.5 * float(theta @ theta))
        model_set, obs = ek.ModelSet(members=(model,)), ek.ObservationSet(y=[0.0])
        messages = []
        for grid in (None, 11):
            with pytest.raises(ValueError) as excinfo:
                ek.select(model_set, obs, grid_points_per_dim=grid)
            messages.append(str(excinfo.value))
        assert messages == ["grid quadrature supports dim <= 3, got dim=4"] * 2

    def test_response_overflow_names_the_member(self):
        # Member 0 fits y = 2^600 exactly, so its residual sum of squares stays
        # finite; member 1's G'G = 2^900 is finite and its G'y = 2^1050 is not.
        fits = ek.GaussianLinearSpec(G=[[2.0**300]], sigma=1.0, lam=1.0)
        spec = ek.GaussianLinearSpec(G=[[2.0**450]], sigma=1.0, lam=1.0)
        model_set = ek.ModelSet(members=(fits, spec))
        with pytest.raises(SelectionFailure, match=r"^evidence evaluation failed for member 1: "
                                                   r"entry \[0\] of G'y / sigma\*\*2") as excinfo:
            ek.select(model_set, ek.ObservationSet(y=[2.0**600]))
        assert excinfo.value.index == 1
        assert excinfo.value.replicate is None

    def test_identical_members_tie_break(self):
        spec = ek.GaussianLinearSpec(G=[[1.0], [0.5]], sigma=1.0, lam=1.0)
        model_set = ek.ModelSet(members=(spec, spec))
        outcome = ek.select(model_set, ek.ObservationSet(y=[1.0, -0.2]))
        assert outcome.chosen == 0
        assert outcome.tie_broken

    def test_nested_models_prefer_true_generator(self):
        # Dimension-1 vs dimension-3 members, data simulated from the first;
        # the selection should recover it in the majority of replicates.
        rng = np.random.default_rng(21)
        x = rng.standard_normal(50)
        family = ek.polynomial_family(x, [0, 2], sigma=1.0, lam=1.0)
        true_member = family.members[0]

        def generator(rep_rng):
            theta = rep_rng.standard_normal(true_member.d) / true_member.lam
            y = true_member.G @ theta + true_member.sigma * rep_rng.standard_normal(50)
            return 0, ek.ObservationSet(y=y)

        report = ek.risk_mc(family, generator, 100, ["max-evidence"], seed=21)
        assert report.per_true_model[0, 0] < 0.5

    def test_unknown_rule_rejected(self):
        model_set, obs = shared_response_set(np.random.default_rng(2))
        with pytest.raises(ValueError, match="rule"):
            ek.select(model_set, obs, "max-likelihood")

    def test_member_failure_names_index(self):
        good = ek.GaussianLinearSpec(G=[[1.0]], sigma=1.0, lam=1.0)
        bad = ek.GaussianLinearSpec(G=[[1e200]], sigma=1.0, lam=1.0)
        model_set = ek.ModelSet(members=(good, bad))
        with pytest.raises(SelectionFailure) as excinfo:
            ek.select(model_set, ek.ObservationSet(y=[1.0]))
        assert excinfo.value.index == 1

    @pytest.mark.parametrize("with_black_box", [False, True], ids=["gaussian", "mixed"])
    def test_unknown_generic_estimator_rejected_before_any_evaluation(self, monkeypatch,
                                                                      with_black_box):
        evaluated = []
        monkeypatch.setattr(evidkit.selection, "glm_log_evidence",
                            lambda spec, obs: evaluated.append(spec))
        spec = ek.GaussianLinearSpec(G=[[1.0]], sigma=1.0, lam=1.0)
        black_box = ek.GenericModelSpec(
            dim=1, log_lik=lambda t: 0.0, regularizer=lambda t: 0.5 * float(t[0]) ** 2,
            support=[[-5.0, 5.0]])
        members = (spec, black_box) if with_black_box else (spec, spec)
        with pytest.raises(ValueError, match="unknown generic estimator 'bogus'"):
            ek.select(ek.ModelSet(members=members), ek.ObservationSet(y=[1.0]),
                      generic_estimator="bogus")
        assert evaluated == []

    def test_pen_prime_selection_identity(self):
        # Selecting by (log_fit - flexibility) is selecting by log-evidence.
        rng = np.random.default_rng(3)
        for _ in range(10):
            model_set, obs = shared_response_set(rng)
            outcome = ek.select(model_set, obs, "max-evidence")
            fits_minus_flex = [dec.log_fit - dec.flexibility
                               for dec in outcome.decompositions]
            assert int(np.argmax(fits_minus_flex)) == outcome.chosen

    @pytest.mark.parametrize("grid", [None, 5, 43])
    def test_laplace_reference_takes_the_given_grid(self, grid):
        spec, obs = random_glm_instance(np.random.default_rng(16), n=20, d=2)
        outcome = ek.select(ek.ModelSet(members=(ek.wrap_glm(spec, obs),)), obs,
                            generic_estimator="laplace", grid_points_per_dim=grid)
        info = outcome.decompositions[0].info
        assert info["grid_points_per_dim"] == (41 if grid is None else grid)

    @pytest.mark.parametrize("estimator", ["quadrature", "laplace"])
    def test_kinked_prior_member_normalized_at_prior_scale(self, estimator):
        # On a 41-node prior grid log Z of exp(-|theta|) is 0.17 nats off;
        # the prior-scale grid keeps the member's log-evidence within 1e-4.
        member, exact = l1_member()
        gaussian = ek.GaussianLinearSpec(G=[[1.0]], sigma=1.0, lam=1.0)
        outcome = ek.select(ek.ModelSet(members=(gaussian, member)),
                            ek.ObservationSet(y=[0.5]), generic_estimator=estimator)
        dec = outcome.decompositions[1]
        assert abs(dec.log_evidence - exact) < 1e-4
        # The normalizer's error is carried in the member's estimate.
        assert dec.err_estimate >= ek.normalize_prior(member, 2001).err_estimate


def reference_risk(model_set, generator, reps, rules, seed):
    """``risk_mc``'s report rebuilt from ``select`` on each replicate's data."""
    if generator is None:
        generator = ek.prior_predictive_generator(model_set)
    errors = np.zeros((len(model_set), len(rules)))
    true_counts = np.zeros(len(model_set))
    for child in np.random.SeedSequence(seed).spawn(reps):
        true_index, obs = generator(np.random.default_rng(child))
        true_counts[true_index] += 1
        for r, rule in enumerate(rules):
            errors[true_index, r] += ek.select(model_set, obs, rule).chosen != true_index
    with np.errstate(invalid="ignore", divide="ignore"):
        return errors.sum(axis=0) / reps, errors / true_counts[:, None], true_counts


@pytest.fixture
def factored_orders(monkeypatch):
    """The order of every ``P*`` that ``_cholesky_solve`` factors during the test."""
    orders = []
    factor = evidkit.glm._cholesky_solve

    def counting(matrix, *args, **kwargs):
        orders.append(matrix.shape[0])
        return factor(matrix, *args, **kwargs)

    monkeypatch.setattr(evidkit.glm, "_cholesky_solve", counting)
    return orders


def assert_report_matches(report, reference):
    risks, per_true, true_counts = reference
    assert np.array_equal(report.risks, risks)
    assert np.array_equal(report.per_true_model, per_true, equal_nan=True)
    assert np.array_equal(report.true_counts, true_counts)


class TestRiskMc:
    def test_singleton_risk_zero(self):
        spec = ek.GaussianLinearSpec(G=np.ones((10, 1)), sigma=1.0, lam=1.0)
        report = ek.risk_mc(ek.ModelSet(members=(spec,)), None, 50,
                            ["max-evidence", "max-posterior"], seed=0)
        np.testing.assert_array_equal(report.risks, [0.0, 0.0])

    def test_identical_pair_risk_near_half(self):
        # Ties always resolve to index 0, which is correct whenever the fair
        # true-index coin lands on 0.
        spec = ek.GaussianLinearSpec(G=np.ones((5, 1)), sigma=1.0, lam=1.0)
        model_set = ek.ModelSet(members=(spec, spec))
        report = ek.risk_mc(model_set, None, 500, ["max-evidence"], seed=11)
        assert report.per_true_model[0, 0] == 0.0
        assert report.per_true_model[1, 0] == 1.0
        assert 0.4 < report.risks[0] < 0.6

    def test_well_separated_pair_beats_coin(self):
        # Dimension-1 vs dimension-5 members at low noise are easy to tell apart.
        rng = np.random.default_rng(2)
        x = rng.standard_normal(100)
        family = ek.polynomial_family(x, [0, 4], sigma=0.3, lam=1.0)
        report = ek.risk_mc(family, None, 200, ["max-evidence"], seed=2)
        assert report.risks[0] < 0.5

    def test_reproducible_bit_for_bit(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(30)
        family = ek.polynomial_family(x, [0, 2], sigma=1.0, lam=1.0)
        first = ek.risk_mc(family, None, 100, ["max-evidence", "max-posterior"], seed=9)
        second = ek.risk_mc(family, None, 100, ["max-evidence", "max-posterior"], seed=9)
        assert np.array_equal(first.risks, second.risks)
        assert np.array_equal(first.per_true_model, second.per_true_model,
                              equal_nan=True)
        assert np.array_equal(first.true_counts, second.true_counts)

    def test_each_member_factored_once_for_all_replicates_and_rules(self, factored_orders):
        x = np.random.default_rng(6).standard_normal(20)
        family = ek.polynomial_family(x, [0, 1, 2], sigma=0.5, lam=1.0)
        ek.risk_mc(family, None, 7, ["max-evidence", "max-posterior"], seed=3)
        assert factored_orders == [1, 2, 3]

    def test_large_n_factors_each_member_once_per_batch(self, factored_orders):
        n, reps = 20_000, 30
        x = np.random.default_rng(7).standard_normal(n)
        family = ek.polynomial_family(x, [0, 2], sigma=1.0, lam=1.0)
        rules = ["max-evidence", "max-posterior"]
        reference = reference_risk(family, None, reps, rules, 4)
        factored_orders.clear()
        report = ek.risk_mc(family, None, reps, rules, 4)
        batches = -(-reps // (evidkit.selection._CHUNK_FLOATS // n))
        assert batches > 1
        assert factored_orders == [1, 3] * batches
        assert_report_matches(report, reference)

    def test_risks_within_unit_interval(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(20)
        family = ek.polynomial_family(x, [0, 1, 2], sigma=1.0, lam=1.0)
        report = ek.risk_mc(family, None, 60, ["max-evidence"], seed=3)
        assert np.all(report.risks >= 0.0) and np.all(report.risks <= 1.0)

    def test_generic_member_cannot_simulate(self):
        generic = ek.GenericModelSpec(
            dim=1, log_lik=lambda t: 0.0,
            regularizer=lambda t: 0.5 * float(t[0]) ** 2,
            support=[[-5.0, 5.0]])
        model_set = ek.ModelSet(members=(generic,))
        with pytest.raises(ValueError, match="simulate"):
            ek.prior_predictive_generator(model_set)


class TestRiskMcMatchesPerReplicateSelection:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("degrees, weights", [
        (range(6), None),
        (range(6), [0.3, 0.25, 0.2, 0.1, 0.1, 0.05]),
        (range(10), None),
        (range(10), [0.02, 0.03, 0.05, 0.1, 0.3, 0.2, 0.1, 0.1, 0.05, 0.05]),
    ], ids=["risk-uniform", "risk-weighted", "poly-demo-uniform", "poly-demo-weighted"])
    def test_polynomial_family(self, seed, degrees, weights):
        # The ``risk`` command's family: x ~ N(0, 1) from the seed, n = 100, sigma = 0.3.
        x = np.random.default_rng(seed).standard_normal(100)
        family = ek.polynomial_family(x, degrees, sigma=0.3, lam=1.0)
        if weights is not None:
            family = ek.ModelSet(members=family.members, weights=weights)
        rules = ["max-evidence", "max-posterior"]
        report = ek.risk_mc(family, None, 40, rules, seed)
        assert_report_matches(report, reference_risk(family, None, 40, rules, seed))

    def test_custom_generator_mixing_gaussian_and_black_box_members(self):
        G = np.random.default_rng(1).standard_normal((30, 2))
        gaussian = ek.GaussianLinearSpec(G=G, sigma=1.0, lam=1.0)
        black_box = ek.GenericModelSpec(
            dim=1, vectorized=True,
            log_lik=lambda t: -0.5 * 30 * np.log(2 * np.pi * 1.5**2) - 15.0 * t[:, 0] ** 2,
            regularizer=lambda t: 0.5 * t[:, 0] ** 2, effective_box=[[-5.0, 5.0]])
        model_set = ek.ModelSet(members=(gaussian, black_box), weights=[0.4, 0.6])

        def generate(rng):
            true_index = int(rng.integers(2))
            scale = 1.0 if true_index == 0 else 1.6
            return true_index, ek.ObservationSet(y=scale * rng.standard_normal(30))

        rules = ["max-evidence", "max-posterior"]
        report = ek.risk_mc(model_set, generate, 30, rules, 5)
        reference = reference_risk(model_set, generate, 30, rules, 5)
        assert_report_matches(report, reference)
        assert 0 < reference[0][0] < 1


class TestRiskMcBlackBoxMembers:
    def test_black_box_member_evaluated_once_per_run(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return ek.evidence_laplace(*args, **kwargs)

        monkeypatch.setattr(evidkit.selection, "evidence_laplace", counting)
        gaussian = ek.GaussianLinearSpec(G=np.ones((3, 1)), sigma=1.0, lam=1.0)
        black_box = ek.GenericModelSpec(
            dim=1, vectorized=True, log_lik=lambda t: -2.0 * t[:, 0] ** 2,
            regularizer=lambda t: 0.5 * t[:, 0] ** 2, effective_box=[[-5.0, 5.0]])
        model_set = ek.ModelSet(members=(gaussian, black_box))

        def generate(rng):
            return 0, ek.ObservationSet(y=rng.standard_normal(3))

        first = ek.risk_mc(model_set, generate, 200, ["max-evidence"], 1)
        assert len(calls) == 1
        second = ek.risk_mc(model_set, generate, 200, ["max-evidence"], 1)
        assert len(calls) == 2
        assert np.array_equal(first.risks, second.risks)

    def test_kinked_prior_member(self, monkeypatch):
        decs = []

        def recording(*args, **kwargs):
            decs.append(ek.evidence_laplace(*args, **kwargs))
            return decs[-1]

        monkeypatch.setattr(evidkit.selection, "evidence_laplace", recording)
        member, exact = l1_member()
        gaussian = ek.GaussianLinearSpec(G=[[1.0]], sigma=1.0, lam=1.0)
        model_set = ek.ModelSet(members=(gaussian, member))

        def generate(rng):
            true_index = int(rng.integers(2))
            scale = 1.0 if true_index == 0 else 2.5
            return true_index, ek.ObservationSet(y=[scale * rng.standard_normal()])

        report = ek.risk_mc(model_set, generate, 40, ["max-evidence"], 2)
        assert abs(decs[0].log_evidence - exact) < 1e-4
        monkeypatch.undo()
        reference = reference_risk(model_set, generate, 40, ["max-evidence"], 2)
        assert_report_matches(report, reference)
        assert 0 < reference[0][0] < 1

    def test_normalizer_failure_names_replicate_0_and_member(self):
        gaussian = ek.GaussianLinearSpec(G=np.ones((3, 1)), sigma=1.0, lam=1.0)
        # Zero regularizer on unbounded support: exp(-R) is not integrable.
        flat = ek.GenericModelSpec(
            dim=1, vectorized=True, log_lik=lambda t: np.zeros(len(t)),
            regularizer=lambda t: np.zeros(len(t)), effective_box=[[-1.0, 1.0]])
        model_set = ek.ModelSet(members=(gaussian, flat))
        with pytest.raises(SelectionFailure, match="replicate 0 failed: evidence evaluation "
                                                   "failed for member 1") as excinfo:
            ek.risk_mc(model_set, lambda rng: (0, ek.ObservationSet(y=[1.0, 2.0, 3.0])), 5,
                       ["max-evidence"], 0)
        assert excinfo.value.replicate == 0
        assert excinfo.value.index == 1


class TestRiskMcFailures:
    def test_member_failure_names_replicate_and_index(self):
        good = ek.GaussianLinearSpec(G=[[1.0]], sigma=1.0, lam=1.0)
        bad = ek.GaussianLinearSpec(G=[[1e200]], sigma=1.0, lam=1.0)
        model_set = ek.ModelSet(members=(good, bad, good))
        with pytest.raises(SelectionFailure, match="replicate 0") as excinfo:
            ek.risk_mc(model_set, lambda rng: (0, ek.ObservationSet(y=[1.0])), 5,
                       ["max-evidence"], 0)
        assert excinfo.value.replicate == 0
        assert excinfo.value.index == 1

    def test_response_overflow_names_its_own_replicate(self):
        # One batch stacks replicates 0..4; only the third response overflows
        # member 1's G'y, and member 0 fits every response exactly.
        fits = ek.GaussianLinearSpec(G=[[2.0**300]], sigma=1.0, lam=1.0)
        spec = ek.GaussianLinearSpec(G=[[2.0**450]], sigma=1.0, lam=1.0)
        model_set = ek.ModelSet(members=(fits, spec))
        draws = iter([1.0, 2.0, 2.0**600, 3.0, 4.0])
        with pytest.raises(SelectionFailure, match="^replicate 2 failed: evidence evaluation "
                                                   "failed for member 1: entry \\[0\\]") as excinfo:
            ek.risk_mc(model_set, lambda rng: (0, ek.ObservationSet(y=[next(draws)])), 5,
                       ["max-evidence"], 0)
        assert excinfo.value.replicate == 2
        assert excinfo.value.index == 1

    def test_fit_overflow_names_its_own_replicate(self):
        # Every G'y is finite; the third response's theta_hat'theta_hat is not.
        spec = ek.GaussianLinearSpec(G=[[1.0]], sigma=1.0, lam=1.0)
        draws = iter([1.0, 2.0, 1e200, 3.0, 4.0])
        with pytest.raises(SelectionFailure, match="^replicate 2 failed: evidence evaluation "
                                                   "failed for member 0: log-evidence is not "
                                                   "finite") as excinfo:
            ek.risk_mc(ek.ModelSet(members=(spec, spec)),
                       lambda rng: (0, ek.ObservationSet(y=[next(draws)])), 5,
                       ["max-evidence"], 0)
        assert excinfo.value.replicate == 2
        assert excinfo.value.index == 0

    def test_several_failures_name_the_first_replicate(self):
        # In one batch, replicate 3's G'y overflows, which the stack checks before the
        # log-evidence that fails for replicate 1.  A per-replicate loop meets replicate 1 first.
        spec = ek.GaussianLinearSpec(G=[[1e10]], sigma=1.0, lam=1.0)
        draws = iter([1.0, 1e200, 2.0, 1e300, 3.0])
        with pytest.raises(SelectionFailure, match="^replicate 1 failed: evidence evaluation "
                                                   "failed for member 0: log-evidence is not "
                                                   "finite$") as excinfo:
            ek.risk_mc(ek.ModelSet(members=(spec,)),
                       lambda rng: (0, ek.ObservationSet(y=[next(draws)])), 5,
                       ["max-evidence"], 0)
        assert excinfo.value.replicate == 1
        assert excinfo.value.index == 0

    @pytest.mark.parametrize("true_index", [-1, 2])
    def test_out_of_range_true_index(self, true_index):
        spec = ek.GaussianLinearSpec(G=[[1.0]], sigma=1.0, lam=1.0)
        model_set = ek.ModelSet(members=(spec, spec))
        with pytest.raises(ValueError, match=f"^replicate 0 failed: generator returned "
                                             f"out-of-range true index {true_index}$"):
            ek.risk_mc(model_set, lambda rng: (true_index, ek.ObservationSet(y=[1.0])), 5,
                       ["max-evidence"], 0)

    def test_observation_length_mismatch(self):
        spec = ek.GaussianLinearSpec(G=np.ones((3, 1)), sigma=1.0, lam=1.0)
        model_set = ek.ModelSet(members=(spec,))
        with pytest.raises(ValueError, match="^replicate 0 failed: "
                                             "observation length 2 does not match model rows 3$"):
            ek.risk_mc(model_set, lambda rng: (0, ek.ObservationSet(y=[1.0, 2.0])), 5,
                       ["max-evidence"], 0)

    def test_generator_failure_names_its_replicate(self):
        spec = ek.GaussianLinearSpec(G=np.ones((3, 1)), sigma=1.0, lam=1.0)
        model_set = ek.ModelSet(members=(spec, spec))
        calls = []

        def generate(rng):
            calls.append(rng)
            if len(calls) == 4:
                raise EvidkitError("simulation diverged")
            return 0, ek.ObservationSet(y=rng.standard_normal(3))

        with pytest.raises(SelectionFailure, match="replicate 3 failed: simulation diverged") \
                as excinfo:
            ek.risk_mc(model_set, generate, 6, ["max-evidence"], 0)
        assert excinfo.value.replicate == 3
        assert excinfo.value.index is None


def bic_sweep_or_error(spec, obs):
    """``bic_sweep`` of the one model ``(spec, obs)``, or its ``ValueError`` message."""
    try:
        return ek.bic_sweep(lambda n, rng: (spec, obs), [spec.n], 0)
    except ValueError as exc:
        return str(exc)


class TestPolynomialFamily:
    def test_intercept_only(self):
        family = ek.polynomial_family(np.array([0.3, -0.5, 1.2]), [0], 1.0, 1.0)
        np.testing.assert_allclose(family.members[0].G, np.ones((3, 1)))

    def test_vandermonde_widths_and_scaling(self):
        x = np.array([-1.0, 0.0, 1.0])
        with pytest.warns(UserWarning):  # degree 3 on three points is prior-dominated
            family = ek.polynomial_family(x, [0, 1, 2, 3], 1.0, 1.0)
        assert [m.d for m in family.members] == [1, 2, 3, 4]
        sd = np.std(x)
        expected = np.column_stack([np.ones(3), x / sd, x**2 / sd**2, x**3 / sd**3])
        np.testing.assert_allclose(family.members[3].G, expected, atol=1e-14)
        assert family.labels == ("degree-0", "degree-1", "degree-2", "degree-3")
        assert family.info["x_std"] == pytest.approx(sd)

    def test_high_degrees_keep_posterior_precision_pd(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(40)
        family = ek.polynomial_family(x, range(10), 1.0, 1.0)
        for member in family.members:
            np.linalg.cholesky(ek.posterior_precision(member))

    def test_design_columns_are_running_products(self):
        rng = np.random.default_rng(12)
        for n in (1, 7, 100, 1000):
            x = rng.standard_normal(n) * rng.uniform(0.1, 3.0)
            scale = float(np.std(x)) if n > 1 else 1.0
            design = ek.scaled_polynomial_design(x, 9, scale)
            expected = np.column_stack([x**k / scale**k for k in range(10)])
            # x**0, x**1 and x**2 = x * x are exact products either way.
            assert np.array_equal(design[:, :3], expected[:, :3])
            np.testing.assert_allclose(design, expected, rtol=8 * np.finfo(float).eps, atol=0.0)

    def test_stacked_rows_match_np_vander(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((5, 40)) * rng.uniform(0.1, 3.0, size=(5, 1))
        scale = np.std(x, axis=1, keepdims=True)
        designs = ek.scaled_polynomial_design(x, 9, scale)
        assert designs.shape == (5, 40, 10)
        for row, s in zip(x, scale[:, 0]):
            expected = np.vander(row, 10, increasing=True) / [s**k for k in range(10)]
            assert np.array_equal(ek.scaled_polynomial_design(row, 9, s), expected)
        assert np.array_equal(designs, [ek.scaled_polynomial_design(row, 9, s)
                                        for row, s in zip(x, scale[:, 0])])

    def test_members_are_read_only_views_of_one_design(self):
        x = np.random.default_rng(14).standard_normal(50)
        members = ek.polynomial_family(x, [3, 0, 9, 5], 1.0, 1.0).members
        design = members[2].G
        assert design.shape == (50, 10) and not design.flags.writeable
        for member in members:
            assert np.shares_memory(member.G, design)
            assert member.G.base is design.base
            assert np.array_equal(member.G, design[:, :member.d])
            with pytest.raises(ValueError, match="WRITEABLE"):
                member.G.setflags(write=True)

    @pytest.mark.parametrize("n", [7, 100, 10**4])
    def test_views_evaluate_as_contiguous_copies(self, n):
        # Every product that sums over rows reads the view's C-order copy, so each
        # member's results equal those of its own contiguous design, bit for bit.
        rng = np.random.default_rng(n)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        obs = ek.ObservationSet(y=y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # degree 9 on 7 points
            family = ek.polynomial_family(x, range(10), 0.7, 1.3)
        for view in family.members:
            copy = ek.GaussianLinearSpec(G=np.ascontiguousarray(view.G), sigma=0.7, lam=1.3)
            assert not view.G.flags.c_contiguous or view.d == 10
            a, b = ek.glm_log_evidence(view, obs), ek.glm_log_evidence(copy, obs)
            assert (a.log_evidence, a.log_fit, a.flexibility) == \
                (b.log_evidence, b.log_fit, b.flexibility)
            assert np.array_equal(a.theta_hat, b.theta_hat)
            assert np.array_equal(ek.map_estimate(view, obs), ek.map_estimate(copy, obs))
            points = a.theta_hat + 0.1 * rng.standard_normal((5, view.d))
            assert np.array_equal(ek.wrap_glm(view, obs).log_lik(points),
                                  ek.wrap_glm(copy, obs).log_lik(points))
            sweeps = [bic_sweep_or_error(spec, obs) for spec in (view, copy)]
            if isinstance(sweeps[0], str):  # G'G / n is singular once d > n
                assert view.d > n and sweeps[0] == sweeps[1]
                continue
            for name in ("gaps", "flexibilities", "H_hat", "m_hat", "predicted_constant"):
                assert np.array_equal(getattr(sweeps[0], name), getattr(sweeps[1], name)), name

    def test_family_memory_is_one_design(self):
        x = np.random.default_rng(15).standard_normal(10**5)
        tracemalloc.start()
        try:
            family = ek.polynomial_family(x, range(10), 1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        design_bytes = x.size * 10 * 8  # 8 MB, the degree-9 design
        assert len(family) == 10
        assert peak <= 1.25 * design_bytes

    @pytest.mark.parametrize("x", [[1.0, np.nan], [1.0, np.inf], [1e200, 1.0]])
    def test_non_finite_design_entry_rejected(self, x):
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="design for degree 2 has non-finite entries"):
            ek.scaled_polynomial_design(np.array(x), 2, 1.0)

    def test_duplicate_degrees_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ek.polynomial_family(np.array([0.0, 1.0]), [1, 1], 1.0, 1.0)

    def test_warns_when_degree_exceeds_data(self):
        with pytest.warns(UserWarning, match="columns"):
            ek.polynomial_family(np.array([0.0, 1.0, 2.0]), [0, 4], 1.0, 1.0)


@pytest.fixture
def evidence_stacks(monkeypatch):
    """The design shape of every ``_evidence_terms`` evaluation during the test."""
    shapes = []
    terms = evidkit.glm._evidence_terms

    def counting(spec, y):
        shapes.append(spec.G.shape)
        return terms(spec, y)

    monkeypatch.setattr(evidkit.glm, "_evidence_terms", counting)
    monkeypatch.setattr(evidkit.selection, "_evidence_terms", counting)
    return shapes


def assert_sweet_spot_matches(report, reference):
    for name, value in reference.items():
        assert np.array_equal(getattr(report, name), value), name


class TestSweetSpot:
    # The ``poly-demo`` benchmark's settings at three seeds, a prior-dominated
    # n = 10 with degrees 0..11, and n = 1000.
    @pytest.mark.parametrize("degrees, n, reps, seed", [
        (range(10), 100, 200, 501), (range(10), 100, 200, 502), (range(10), 100, 200, 503),
        (range(12), 10, 100, 1), (range(12), 10, 100, 2), (range(12), 10, 100, 3),
        (range(10), 1000, 20, 4), (range(10), 1000, 20, 5),
    ])
    def test_matches_per_replicate_selection(self, degrees, n, reps, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # degree 11 on 10 points
            reference = reference_sweet_spot(3, degrees, n, 0.3, 1.0, reps, seed)
            report = ek.sweet_spot_experiment(3, degrees, n, 0.3, 1.0, reps, seed)
        assert_sweet_spot_matches(report, reference)

    @pytest.mark.parametrize("per_chunk", [1, 7])
    def test_chunks_match_per_replicate_selection(self, monkeypatch, evidence_stacks,
                                                  per_chunk):
        n, reps = 30, 23
        monkeypatch.setattr(evidkit.selection, "_CHUNK_FLOATS", 10 * n * 6 * per_chunk)
        reference = reference_sweet_spot(2, range(6), n, 0.5, 1.0, reps, 7)
        evidence_stacks.clear()
        report = ek.sweet_spot_experiment(2, range(6), n, 0.5, 1.0, reps, 7)
        assert_sweet_spot_matches(report, reference)
        sizes = [min(per_chunk, reps - start) for start in range(0, reps, per_chunk)]
        assert evidence_stacks == [(m, n, p + 1) for m in sizes for p in range(6)]

    def test_each_degree_evaluated_once_per_chunk(self, evidence_stacks):
        ek.sweet_spot_experiment(3, range(10), 100, 0.3, 1.0, reps=200, seed=0)
        width = evidkit.selection._CHUNK_FLOATS // (10 * 100 * 10)
        assert width == 26
        sizes = [min(width, 200 - start) for start in range(0, 200, width)]
        assert evidence_stacks == [(m, 100, p + 1) for m in sizes for p in range(10)]

    def test_failure_inside_a_chunk_names_its_replicate_and_member(self, evidence_stacks):
        # One chunk holds all 12 replicates; only replicate 3's degree-20 P* fails to factor.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # degree 20 on 10 points
            with pytest.raises(SelectionFailure, match="^replicate 3 failed: evidence "
                                                       "evaluation failed for member 1: "
                                                       "posterior precision factorization "
                                                       "failed") as excinfo:
                ek.sweet_spot_experiment(0, [0, 20], n=10, sigma=1.0, lam=1.0, reps=12,
                                         seed=0)
        assert excinfo.value.replicate == 3
        assert excinfo.value.index == 1
        # The stack, then replicates 0..3 alone, in (replicate, member) order.
        assert evidence_stacks == [(12, 10, 1), (12, 10, 21)] + [(10, 1), (10, 21)] * 4

    def test_several_failures_name_the_first_replicate(self, evidence_stacks):
        # Replicate 0's degree-300 P* fails to factor, and replicate 5's overflows, which the
        # stack checks first.  A per-replicate loop meets replicate 0 first.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # degree 300 on 5 points
            with pytest.raises(SelectionFailure, match="^replicate 0 failed: evidence "
                                                       "evaluation failed for member 1: "
                                                       "posterior precision factorization "
                                                       "failed: leading minor ") as excinfo:
                ek.sweet_spot_experiment(0, [0, 300], n=5, sigma=1, lam=1, reps=8, seed=9)
        assert excinfo.value.replicate == 0
        assert excinfo.value.index == 1
        assert evidence_stacks == [(8, 5, 1), (8, 5, 301), (5, 1), (5, 301)]

    def test_prior_dominated_warning_emitted_once(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ek.sweet_spot_experiment(1, [0, 1, 4], n=4, sigma=1.0, lam=1.0, reps=5, seed=0)
        assert [str(w.message) for w in caught] == [
            "largest degree 4 needs 5 columns but only 4 observations are available; "
            "the fit is prior-dominated"]
        assert caught[0].category is UserWarning

    @pytest.mark.parametrize("name, sigma, lam", [("sigma", 0.0, 1.0), ("lam", 1.0, np.inf)])
    def test_scales_validated(self, name, sigma, lam):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
            ek.sweet_spot_experiment(1, [0, 1], n=10, sigma=sigma, lam=lam, reps=3, seed=0)

    def test_near_noiseless_recovers_true_degree(self):
        report = ek.sweet_spot_experiment(3, range(10), 100, 1e-6, 1.0,
                                          reps=60, seed=8)
        assert report.selection_frequency[3] >= 0.95

    def test_intercept_truth_recovered(self):
        report = ek.sweet_spot_experiment(0, range(6), 80, 1.0, 1.0,
                                          reps=40, seed=8)
        assert report.modal_degree == 0

    def test_true_degree_must_be_candidate(self):
        with pytest.raises(ValueError, match="among"):
            ek.sweet_spot_experiment(4, [0, 1, 2], 50, 1.0, 1.0, reps=10, seed=0)

    def test_maps_come_from_the_selection(self, monkeypatch):
        def forbidden(spec, obs):
            raise AssertionError("map_estimate re-solved a MAP the selection returned")

        monkeypatch.setattr(evidkit.glm, "map_estimate", forbidden)
        monkeypatch.setattr(evidkit.selection, "map_estimate", forbidden, raising=False)
        report = ek.sweet_spot_experiment(1, [0, 1, 2], 20, 0.5, 1.0, reps=3, seed=0)
        assert report.counts.sum() == 3

    def test_member_failure_names_replicate_and_index(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # degree 400 is prior-dominated
            with pytest.raises(SelectionFailure, match="replicate 0 failed: evidence "
                                                       "evaluation failed for member 1") \
                    as excinfo:
                ek.sweet_spot_experiment(0, [0, 400], n=50, sigma=1.0, lam=1.0, reps=3,
                                         seed=0)
        assert excinfo.value.replicate == 0
        assert excinfo.value.index == 1

    def test_report_shapes(self):
        report = ek.sweet_spot_experiment(1, [0, 1, 2], 40, 1.0, 1.0, reps=12, seed=5)
        assert report.counts.sum() == 12
        assert report.rmse.shape == (12, 3)
        assert report.mean_regret >= 0.0
        assert 0.0 < report.mean_best_rmse


class TestCrossover:
    def _pair(self):
        simple = ek.GaussianLinearSpec(G=[[1.0]], sigma=1.0, lam=10.0)
        flexible = ek.GaussianLinearSpec(G=[[1.0]], sigma=1.0, lam=0.1)
        return simple, flexible

    def test_two_crossovers_with_correct_regions(self):
        simple, flexible = self._pair()
        report = ek.mackay_crossover(simple, flexible, np.linspace(-25.0, 25.0, 1001))
        assert len(report.crossovers) == 2
        assert report.marginal_variance_simple == pytest.approx(1.01)
        assert report.marginal_variance_complex == pytest.approx(101.0)
        center = np.argmin(np.abs(report.y_grid))
        assert report.diff[center] > 0          # stiff model wins at the center
        assert report.diff[0] < 0               # flexible model wins in the tails
        assert report.diff[-1] < 0

    def test_crossover_residual_tiny(self):
        simple, flexible = self._pair()
        report = ek.mackay_crossover(simple, flexible, np.linspace(-25.0, 25.0, 1001))
        for y_star in report.crossovers:
            obs = ek.ObservationSet(y=[y_star])
            residual = abs(ek.glm_log_evidence(simple, obs).log_evidence
                           - ek.glm_log_evidence(flexible, obs).log_evidence)
            assert residual < 1e-8

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 2.7])
    @pytest.mark.parametrize("row", [[1.0], [0.7, -1.3, 2.2]], ids=["d1", "d3"])
    def test_grid_values_equal_per_point_evidence(self, sigma, row):
        simple = ek.GaussianLinearSpec(G=[row], sigma=sigma, lam=10.0)
        flexible = ek.GaussianLinearSpec(G=[row], sigma=sigma, lam=0.1)
        y_grid = np.linspace(-25.0 * sigma, 25.0 * sigma, 1001)
        report = ek.mackay_crossover(simple, flexible, y_grid)
        for spec, values in ((simple, report.log_evidence_simple),
                             (flexible, report.log_evidence_complex)):
            per_point = [ek.glm_log_evidence(spec, ek.ObservationSet(y=[y])).log_evidence
                         for y in y_grid]
            assert np.array_equal(values, per_point)

    def test_no_single_point_is_evaluated(self, monkeypatch):
        points = []

        def recording(spec, obs):
            points.append(float(obs.y[0]))
            return evidkit.glm.glm_log_evidence(spec, obs)

        monkeypatch.setattr(evidkit.selection, "glm_log_evidence", recording)
        simple, flexible = self._pair()
        y_grid = np.linspace(-25.0, 25.0, 1001)
        report = ek.mackay_crossover(simple, flexible, y_grid)
        brackets = [(y_grid[i], y_grid[i + 1]) for i in np.flatnonzero(
            report.diff[:-1] * report.diff[1:] < 0)]
        assert len(brackets) == 2
        assert points == []
        assert all(any(lo < y < hi for lo, hi in brackets) for y in report.crossovers)
        spec = ek.GaussianLinearSpec(G=[[1.0]], sigma=1.0, lam=2.0)
        ek.mackay_crossover(spec, spec, y_grid)
        assert points == []

    @pytest.mark.parametrize("sigma, lam_simple, lam_complex, y_max", [
        (1.0, 10.0, 0.1, 25.0), (2.7, 3.0, 0.05, 60.0), (2.0, 10.0, 0.1, 25.0)])
    def test_roots_are_exact_and_symmetric(self, sigma, lam_simple, lam_complex, y_max):
        simple = ek.GaussianLinearSpec(G=[[1.0]], sigma=sigma, lam=lam_simple)
        flexible = ek.GaussianLinearSpec(G=[[1.0]], sigma=sigma, lam=lam_complex)
        y_grid = np.linspace(-y_max, y_max, 1001)
        report = ek.mackay_crossover(simple, flexible, y_grid)
        low, high = report.crossovers
        assert low == -high
        for y_star in report.crossovers:
            obs = ek.ObservationSet(y=[y_star])
            assert abs(ek.glm_log_evidence(simple, obs).log_evidence
                       - ek.glm_log_evidence(flexible, obs).log_evidence) <= 1e-12
        swapped = ek.mackay_crossover(flexible, simple, y_grid)
        assert swapped.crossovers == report.crossovers

    def test_only_bracketed_roots_are_reported(self):
        simple, flexible = self._pair()
        both = ek.mackay_crossover(simple, flexible, np.linspace(-25.0, 25.0, 1001))
        right = ek.mackay_crossover(simple, flexible, np.linspace(0.0, 25.0, 501))
        assert right.crossovers == both.crossovers[1:]
        # With the flexible model first no region is required, and a grid
        # between the roots brackets neither.
        inner = ek.mackay_crossover(flexible, simple, np.linspace(-1.0, 1.0, 21))
        assert inner.crossovers == ()

    def test_equal_variances_have_no_crossover(self):
        # Both marginal variances are sigma^2 + 1, so the grid difference is
        # rounding noise whose sign changes many times.
        stretched = ek.GaussianLinearSpec(G=[[3.0]], sigma=1.0, lam=3.0)
        unit = ek.GaussianLinearSpec(G=[[1.0]], sigma=1.0, lam=1.0)
        y_grid = np.linspace(-25.0, 25.0, 1001)
        for pair in ((stretched, unit), (unit, stretched)):
            report = ek.mackay_crossover(*pair, y_grid)
            assert report.marginal_variance_simple == report.marginal_variance_complex
            assert np.abs(report.diff).max() < 1e-13
            assert np.any(report.sign_pattern[:-1] * report.sign_pattern[1:] < 0)
            assert report.crossovers == ()

    def test_identical_specs_no_crossover(self):
        spec = ek.GaussianLinearSpec(G=[[1.0]], sigma=1.0, lam=2.0)
        report = ek.mackay_crossover(spec, spec, np.linspace(-10.0, 10.0, 101))
        np.testing.assert_array_equal(report.diff, 0.0)
        assert report.crossovers == ()

    def test_requires_scalar_observation_models(self):
        simple, _ = self._pair()
        two_row = ek.GaussianLinearSpec(G=[[1.0], [1.0]], sigma=1.0, lam=0.1)
        with pytest.raises(ValueError, match="single observation"):
            ek.mackay_crossover(simple, two_row, np.linspace(-5.0, 5.0, 11))

    def test_narrow_grid_missing_region_is_loud(self):
        simple, flexible = self._pair()
        with pytest.raises(ValueError, match="widen"):
            ek.mackay_crossover(simple, flexible, np.linspace(-0.5, 0.5, 21))
