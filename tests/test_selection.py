"""Selection rules, risk experiments, polynomial families, and the crossover."""

import numpy as np
import pytest

import evidkit as ek
import evidkit.glm
import evidkit.selection
from evidkit.exceptions import SelectionFailure

from helpers import random_glm_instance


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

    def test_pen_prime_selection_identity(self):
        # Selecting by (log_fit - flexibility) is selecting by log-evidence.
        rng = np.random.default_rng(3)
        for _ in range(10):
            model_set, obs = shared_response_set(rng)
            outcome = ek.select(model_set, obs, "max-evidence")
            fits_minus_flex = [dec.log_fit - dec.flexibility
                               for dec in outcome.decompositions]
            assert int(np.argmax(fits_minus_flex)) == outcome.chosen


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

    def test_each_member_evaluated_once_per_replicate(self, monkeypatch):
        calls = []

        def counting(spec, obs):
            calls.append(spec)
            return evidkit.glm.glm_log_evidence(spec, obs)

        monkeypatch.setattr(evidkit.selection, "glm_log_evidence", counting)
        x = np.random.default_rng(6).standard_normal(20)
        family = ek.polynomial_family(x, [0, 1, 2], sigma=0.5, lam=1.0)
        ek.risk_mc(family, None, 7, ["max-evidence", "max-posterior"], seed=3)
        assert len(calls) == 7 * 3

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

    def test_duplicate_degrees_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ek.polynomial_family(np.array([0.0, 1.0]), [1, 1], 1.0, 1.0)

    def test_warns_when_degree_exceeds_data(self):
        with pytest.warns(UserWarning, match="columns"):
            ek.polynomial_family(np.array([0.0, 1.0, 2.0]), [0, 4], 1.0, 1.0)


class TestSweetSpot:
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
