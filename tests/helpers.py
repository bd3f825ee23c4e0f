"""Shared oracles and instance generators for the test suite."""

import numpy as np
from scipy.stats import multivariate_normal

import evidkit as ek


def random_glm_instance(rng, n=None, d=None, sigma_range=(0.2, 2.0),
                        lam_range=(0.1, 10.0)):
    """Random Gaussian linear model with responses on a matching scale."""
    if n is None:
        n = int(rng.integers(5, 51))
    if d is None:
        d = int(rng.integers(1, 9))
    G = rng.standard_normal((n, d))
    sigma = float(rng.uniform(*sigma_range))
    lam = float(rng.uniform(*lam_range))
    y = rng.standard_normal(n) * (1.0 + sigma)
    return ek.GaussianLinearSpec(G=G, sigma=sigma, lam=lam), ek.ObservationSet(y=y)


def marginal_log_evidence_oracle(spec, obs):
    """Independent evidence oracle: the prior-predictive Gaussian density.

    Integrating the likelihood against the prior gives
    ``y ~ N(0, sigma^2 I + G G' / lam^2)``; evaluating that density at the
    observations never touches the posterior-precision route used by the
    implementation.
    """
    cov = spec.sigma**2 * np.eye(spec.n) + spec.G @ spec.G.T / spec.lam**2
    dist = multivariate_normal(mean=np.zeros(spec.n), cov=cov)
    return float(dist.logpdf(obs.y))


def logistic_model(seed=3, n_points=10, bound=10.0):
    """One-parameter logistic regression with a unit Gaussian penalty.

    Vectorized over parameter batches so dense grids are cheap.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n_points)
    probs = 1.0 / (1.0 + np.exp(-x))
    y = (rng.uniform(size=n_points) < probs).astype(float)

    def log_lik(points):
        theta = np.asarray(points)[:, 0]
        eta = np.outer(theta, x)
        return (y[None, :] * eta - np.logaddexp(0.0, eta)).sum(axis=1)

    def regularizer(points):
        theta = np.asarray(points)[:, 0]
        return 0.5 * theta**2

    return ek.GenericModelSpec(
        dim=1, log_lik=log_lik, regularizer=regularizer,
        support=[[-bound, bound]], vectorized=True)


def reference_sweet_spot(true_degree, degrees, n, sigma, lam, reps, seed):
    """``sweet_spot_experiment``'s figures rebuilt one replicate at a time.

    Each replicate gets its own ``polynomial_family`` and ``select``, and its
    test design comes from ``np.vander``.  Returns the report's ``counts``,
    ``chosen_degrees``, ``best_degrees``, ``rmse``, ``mean_regret`` and
    ``mean_best_rmse``.
    """
    degrees = list(degrees)
    true_pos = degrees.index(true_degree)
    chosen = np.empty(reps, dtype=int)
    rmse = np.empty((reps, len(degrees)))
    for rep, child in enumerate(np.random.SeedSequence(seed).spawn(reps)):
        rng = np.random.default_rng(child)
        x = rng.standard_normal(n)
        family = ek.polynomial_family(x, degrees, sigma, lam)
        true_member = family.members[true_pos]
        theta_true = rng.standard_normal(true_member.d) / lam
        y = true_member.G @ theta_true + sigma * rng.standard_normal(n)
        outcome = ek.select(family, ek.ObservationSet(y=y, x=x), "max-evidence")
        chosen[rep] = outcome.chosen

        x_test = rng.standard_normal(10 * n)
        scale = family.info["x_std"]
        test_design = np.vander(x_test, max(degrees) + 1, increasing=True)
        test_design /= [scale**k if scale > 0 else 1.0 for k in range(max(degrees) + 1)]
        y_test = (test_design[:, :true_degree + 1] @ theta_true
                  + sigma * rng.standard_normal(10 * n))
        for i, (p, dec) in enumerate(zip(degrees, outcome.decompositions)):
            pred = test_design[:, :p + 1] @ dec.theta_hat
            rmse[rep, i] = float(np.sqrt(np.mean((pred - y_test) ** 2)))

    rows, best = np.arange(reps), rmse.argmin(axis=1)
    return {"counts": np.bincount(chosen, minlength=len(degrees)),
            "chosen_degrees": np.array(degrees)[chosen],
            "best_degrees": np.array(degrees)[best], "rmse": rmse,
            "mean_regret": float((rmse[rows, chosen] - rmse[rows, best]).mean()),
            "mean_best_rmse": float(rmse[rows, best].mean())}
