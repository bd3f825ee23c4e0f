"""Input checks that no other test reaches: each refuses its bad input by name."""

import numpy as np
import pytest

import evidkit as ek
import evidkit.generic
from evidkit.records import EvidenceDecomposition


def _line(**kwargs):
    return ek.GenericModelSpec(dim=1, log_lik=lambda theta: 0.0,
                               regularizer=lambda theta: 0.5 * float(theta[0]) ** 2, **kwargs)


def _spec():
    return ek.GaussianLinearSpec(G=[[1.0], [2.0]], sigma=1.0, lam=1.0)


CASES = {
    "model-dim-below-1": (
        lambda: ek.GenericModelSpec(dim=0, log_lik=abs, regularizer=abs),
        ValueError, "dim must be >= 1"),
    "normalizer-method": (
        lambda: ek.NormalizedPrior(log_norm_const=0.0, method="guess", err_estimate=0.0),
        ValueError, "unknown normalizer method 'guess'"),
    "search-start-shape": (
        lambda: ek.map_optimize(_line(support=[[-1.0, 1.0]]), [0.0, 0.0]),
        ValueError, "start has shape \\(2,\\), expected \\(1,\\)"),
    "search-start-not-finite": (
        lambda: ek.map_optimize(ek.GenericModelSpec(
            dim=1, log_lik=lambda theta: -np.inf, regularizer=lambda theta: 0.0), [0.0]),
        ValueError, "objective is not finite at the start point"),
    "declared-box-empty": (
        lambda: ek.normalize_prior(
            _line(support=[[20.0, np.inf]], effective_box=[[-10.0, 10.0]]), 41),
        ValueError, "integration box has lower >= upper"),
    "trapezoid-two-points": (
        lambda: evidkit.generic.log_trapezoid_integral(_line(), abs, [[-1.0, 1.0]], 2),
        ValueError, "points_per_dim must be >= 3"),
    "frozen-array-ndim": (
        lambda: ek.ObservationSet(y=[[1.0, 2.0]]),
        ValueError, "y must be 1-dimensional, got shape \\(1, 2\\)"),
    "posterior-not-symmetric": (
        lambda: ek.GaussianPosterior(theta_hat=[0.0, 0.0],
                                     post_precision=[[2.0, 1.0], [0.0, 2.0]],
                                     prior_precision=np.eye(2)),
        ValueError, "post_precision is not symmetric"),
    "log-likelihood-theta-shape": (
        lambda: ek.glm_log_likelihood(_spec(), ek.ObservationSet(y=[1.0, 2.0]), [1.0, 2.0]),
        ValueError, "theta has shape \\(2,\\), expected \\(1,\\)"),
    "decomposition-estimator": (
        lambda: EvidenceDecomposition(log_evidence=0.0, log_fit=0.0, flexibility=0.0,
                                      estimator="guess", err_estimate=0.0, theta_hat=[0.0]),
        ValueError, "unknown estimator 'guess'"),
    "model-set-member-type": (
        lambda: ek.ModelSet(members=[_spec(), "linear"]),
        TypeError, "member 1 has unsupported type str"),
    "model-set-labels": (
        lambda: ek.ModelSet(members=[_spec()], labels=["a", "b"]),
        ValueError, "labels length does not match members"),
    "degrees-empty": (
        lambda: ek.polynomial_family([1.0, 2.0], [], sigma=1.0, lam=1.0),
        ValueError, "degrees must be nonempty"),
    "family-x-empty": (
        lambda: ek.polynomial_family([], [0, 1], sigma=1.0, lam=1.0),
        ValueError, "x must be a nonempty vector"),
    "sample-sizes-empty": (
        lambda: ek.bic_sweep(ek.polynomial_sweep_family([1.0], 1.0, 1.0), [], seed=0),
        ValueError, "ns must be nonempty"),
    "sweep-family-empty": (
        lambda: ek.polynomial_sweep_family([], sigma=1.0, lam=1.0),
        ValueError, "theta_true must be a nonempty vector"),
}


@pytest.mark.parametrize("case", list(CASES), ids=list(CASES))
def test_bad_input_is_refused_by_name(case):
    build, error, message = CASES[case]
    with pytest.raises(error, match=f"^{message}"):
        build()


def _wrapped():
    return ek.wrap_glm(_spec(), ek.ObservationSet(y=[1.0, 2.0])), ek.glm_normalized_prior(_spec())


FRACTIONS = {
    "model-dim": (lambda: ek.GenericModelSpec(dim=1.5, log_lik=abs, regularizer=abs),
                  "dim", 1.5),
    "bic-penalty-d": (lambda: ek.bic_penalty(2.5, 10), "d", 2.5),
    "normalize-prior-grid": (lambda: ek.normalize_prior(_line(support=[[-1.0, 1.0]]), 41.5),
                             "grid_points_per_dim", 41.5),
    "quadrature-grid": (lambda: ek.evidence_quadrature(*_wrapped(), 41.5),
                        "grid_points_per_dim", 41.5),
    "importance-samples": (lambda: ek.evidence_importance(*_wrapped(), samples=2000.5, seed=0),
                           "samples", 2000.5),
    "risk-reps": (lambda: ek.risk_mc(ek.ModelSet(members=(_spec(),)), None, 10.5,
                                     ["max-evidence"], seed=0), "reps", 10.5),
    "bic-sweep-ns": (lambda: ek.bic_sweep(ek.polynomial_sweep_family([1.0, 0.5], 1.0, 1.0),
                                          [100.5, 1000], seed=0), "ns", 100.5),
    "compare-penalties-n": (lambda: ek.compare_penalties(0.8, 1.3, d=2, n=50.5), "n", 50.5),
}


@pytest.mark.parametrize("case", list(FRACTIONS), ids=list(FRACTIONS))
def test_a_fractional_count_is_refused_not_truncated(case):
    build, name, value = FRACTIONS[case]
    with pytest.raises(ValueError, match=f"^{name} must be a whole number, got {value}$"):
        build()


def test_a_whole_float_or_numpy_count_is_accepted():
    model, prior = _wrapped()
    dec = ek.evidence_importance(model, prior, samples=1e4, seed=0)
    assert dec.info["samples"] == 10_000 and type(dec.info["samples"]) is int
    line = _line(support=[[-1.0, 1.0]])
    given, whole = ek.normalize_prior(line, np.int64(41)), ek.normalize_prior(line, 41)
    assert given.grid_points_per_dim == 41 and type(given.grid_points_per_dim) is int
    assert given.log_norm_const == whole.log_norm_const
    spec = ek.GenericModelSpec(dim=np.int64(2), log_lik=abs, regularizer=abs)
    assert spec.dim == 2 and type(spec.dim) is int
    assert ek.bic_penalty(2.0, 10) == ek.bic_penalty(2, 10)
