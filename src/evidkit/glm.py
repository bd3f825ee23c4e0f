"""Closed-form inference for the ridge-regularized Gaussian linear model.

The model is ``y = G theta + e`` with IID Gaussian noise of scale ``sigma``
and the quadratic parameter penalty ``(lam**2 / 2) * ||theta||**2``, which is
equivalent to a zero-mean Gaussian prior with precision ``lam**2 * I``.  For
this conjugate pair everything is available exactly:

* posterior precision   ``P* = G'G / sigma**2 + lam**2 * I``
* MAP / posterior mean  ``theta_hat = (P*)^-1 G'y / sigma**2``
* flexibility           ``0.5 * log(det P* / det P) + (lam**2 / 2) * ||theta_hat||**2``
* log-evidence          ``log f(y; theta_hat) - flexibility``

All densities carry their normalization constants, because evidence values
are compared across models of different dimension.  Linear solves and log
determinants go through Cholesky factors; no matrix is ever inverted
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .exceptions import NumericFailure
from .records import EvidenceDecomposition

__all__ = [
    "ObservationSet",
    "GaussianLinearSpec",
    "GaussianPosterior",
    "posterior_precision",
    "map_estimate",
    "glm_log_likelihood",
    "flexibility_exact",
    "glm_log_evidence",
    "evidence_via_candidate",
    "gaussian_posterior",
    "gram_eigen_range",
]

LOG_2PI = float(np.log(2.0 * np.pi))

# Smallest/largest eigenvalue of G'G below this ratio triggers a rank warning.
RANK_WARNING_RATIO = 1e-10


def _frozen_array(value, ndim, name):
    arr = np.array(value, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """Observed response vector, plus an optional scalar covariate column.

    Parameters
    ----------
    y : array_like, shape (n,)
        Responses every likelihood is evaluated on.
    x : array_like, shape (n,), optional
        Scalar covariate, used by polynomial model families.
    """

    y: np.ndarray
    x: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "y", _frozen_array(self.y, 1, "y"))
        if self.x is not None:
            x = _frozen_array(self.x, 1, "x")
            if x.shape != self.y.shape:
                raise ValueError(f"x has length {x.size} but y has length {self.y.size}")
            object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.y.size


@dataclass(frozen=True, eq=False)
class GaussianLinearSpec:
    """Gaussian linear model: model matrix, noise scale, regularizer scale.

    Parameters
    ----------
    G : array_like, shape (n, d)
        Model matrix.  Rank deficiency is allowed; the prior precision
        ``lam**2 * I`` keeps the posterior precision positive definite.
    sigma : float
        Observation noise scale, > 0.  Treated as known, never estimated.
    lam : float
        Regularizer scale, > 0.  Prior precision is ``lam**2 * I``.
    """

    G: np.ndarray
    sigma: float
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "G", _frozen_array(self.G, 2, "G"))
        sigma = float(self.sigma)
        lam = float(self.lam)
        if not (np.isfinite(sigma) and sigma > 0):
            raise ValueError("sigma must be positive and finite")
        if not (np.isfinite(lam) and lam > 0):
            raise ValueError("lam must be positive and finite")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def d(self) -> int:
        return self.G.shape[1]

    @property
    def prior_precision(self) -> np.ndarray:
        return self.lam**2 * np.eye(self.d)


@dataclass(frozen=True, eq=False)
class GaussianPosterior:
    """Exact Gaussian posterior ``N(theta_hat, (P*)^-1)`` and its prior.

    Provides the prior and posterior log-densities needed by the
    basic marginal likelihood identity.
    """

    theta_hat: np.ndarray
    post_precision: np.ndarray
    prior_precision: np.ndarray

    def __post_init__(self):
        theta_hat = _frozen_array(self.theta_hat, 1, "theta_hat")
        post = _frozen_array(self.post_precision, 2, "post_precision")
        prior = _frozen_array(self.prior_precision, 2, "prior_precision")
        for name, mat in (("post_precision", post), ("prior_precision", prior)):
            scale = np.abs(mat).max()
            if not np.allclose(mat, mat.T, atol=1e-10 * max(scale, 1.0)):
                raise ValueError(f"{name} is not symmetric")
            _spd_cholesky(mat, name)
        gap = post - prior
        min_eig = float(np.linalg.eigvalsh((gap + gap.T) / 2.0).min())
        if min_eig < -1e-8 * max(np.abs(post).max(), 1.0):
            raise ValueError("post_precision - prior_precision is not positive semidefinite")
        object.__setattr__(self, "theta_hat", theta_hat)
        object.__setattr__(self, "post_precision", post)
        object.__setattr__(self, "prior_precision", prior)

    @property
    def d(self) -> int:
        return self.theta_hat.size

    def log_prior_density(self, theta) -> float:
        return _gaussian_logpdf(np.asarray(theta, dtype=float),
                                np.zeros(self.d), self.prior_precision)

    def log_posterior_density(self, theta) -> float:
        return _gaussian_logpdf(np.asarray(theta, dtype=float),
                                self.theta_hat, self.post_precision)


def _spd_cholesky(matrix, name):
    """Lower Cholesky factor of a symmetric positive definite matrix."""
    try:
        return np.linalg.cholesky(matrix)
    except LinAlgError as exc:
        raise NumericFailure(f"{name} is not positive definite: {exc}") from exc


def _check_finite_matrix(matrix, name):
    if not np.all(np.isfinite(matrix)):
        bad = np.argwhere(~np.isfinite(np.atleast_2d(matrix)))[0]
        idx = ",".join(str(k) for k in bad)
        raise NumericFailure(f"entry [{idx}] of {name} is not finite")


def _gaussian_logpdf(theta, mean, precision):
    """Multivariate normal log-density parameterized by its precision."""
    L = _spd_cholesky(precision, "precision")
    log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
    dev = theta - mean
    quad = float(np.dot(L.T @ dev, L.T @ dev))
    return 0.5 * (log_det - theta.size * LOG_2PI - quad)


def _check_dims(spec: GaussianLinearSpec, obs: ObservationSet):
    if obs.n != spec.n:
        raise ValueError(f"observation length {obs.n} does not match model rows {spec.n}")


def _precision(spec: GaussianLinearSpec) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(over="ignore", invalid="ignore"):
        gram = spec.G.T @ spec.G
        p_star = gram / spec.sigma**2 + spec.prior_precision
    _check_finite_matrix(p_star, "posterior precision")
    return gram, p_star


def _posterior(spec: GaussianLinearSpec, obs: ObservationSet) -> tuple:
    """``(G'G, P*, cho_factor(P*), theta_hat)``: the one factorization of ``P*`` per model.

    Factored by scipy's ``cho_factor``: numpy's ``cholesky`` can round
    differently from d = 5 on, and seeded outputs hold MAPs solved with scipy's.
    """
    _check_dims(spec, obs)
    gram, p_star = _precision(spec)
    rhs = spec.G.T @ obs.y / spec.sigma**2
    try:
        factor = cho_factor(p_star, lower=True)
    except LinAlgError as exc:
        raise NumericFailure(f"posterior precision factorization failed: {exc}") from exc
    return gram, p_star, factor, cho_solve(factor, rhs)


def posterior_precision(spec: GaussianLinearSpec) -> np.ndarray:
    """Posterior precision ``P* = G'G / sigma**2 + lam**2 * I``.

    Raises
    ------
    NumericFailure
        If the accumulation overflows, naming the offending entry.
    """
    return _precision(spec)[1]


def map_estimate(spec: GaussianLinearSpec, obs: ObservationSet) -> np.ndarray:
    """MAP estimate ``theta_hat = (P*)^-1 G'y / sigma**2``, via Cholesky solve."""
    return _posterior(spec, obs)[3]


def glm_log_likelihood(spec: GaussianLinearSpec, obs: ObservationSet, theta) -> float:
    """Exact Gaussian log-likelihood ``log N(y; G theta, sigma**2 I)``.

    All constants are included; evidence comparisons across models require
    fully normalized densities.
    """
    _check_dims(spec, obs)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.d,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({spec.d},)")
    resid = obs.y - spec.G @ theta
    n = spec.n
    return -0.5 * n * (LOG_2PI + 2.0 * np.log(spec.sigma)) \
        - float(resid @ resid) / (2.0 * spec.sigma**2)


def flexibility_exact(spec: GaussianLinearSpec, obs: ObservationSet) -> float:
    """Exact flexibility ``0.5 log(det P*/det P) + (lam**2/2) ||theta_hat||**2``.

    Both summands are nonnegative for this model, so the result is >= 0.
    The determinant ratio is evaluated in log space from Cholesky diagonals.
    """
    return glm_log_evidence(spec, obs).flexibility


def gram_eigen_range(spec: GaussianLinearSpec) -> tuple[float, float]:
    """Smallest and largest eigenvalue of ``G'G``.

    Exposed as a conditioning diagnostic; a tiny ratio means the data alone
    barely identify some parameter directions and the regularizer is doing
    the work.
    """
    eigs = np.linalg.eigvalsh(_precision(spec)[0])
    return float(eigs[0]), float(eigs[-1])


def glm_log_evidence(spec: GaussianLinearSpec, obs: ObservationSet) -> EvidenceDecomposition:
    """Exact log-evidence decomposition for the Gaussian linear model.

    Returns
    -------
    EvidenceDecomposition
        With ``log_fit`` the log-likelihood at the MAP, ``flexibility`` the
        closed-form penalty, ``log_evidence`` their difference, estimator
        tag ``glm-exact`` and error estimate 0.  A rank warning is attached
        when the smallest eigenvalue of ``G'G`` falls below
        ``1e-10`` times the largest.
    """
    gram, _, factor, theta_hat = _posterior(spec, obs)
    log_fit = glm_log_likelihood(spec, obs, theta_hat)
    log_det_post = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    log_det_prior = 2.0 * spec.d * np.log(spec.lam)
    flexibility = 0.5 * (log_det_post - log_det_prior) \
        + 0.5 * spec.lam**2 * float(theta_hat @ theta_hat)
    warnings: tuple[str, ...] = ()
    eigs = np.linalg.eigvalsh(gram)
    low, high = float(eigs[0]), float(eigs[-1])
    if low < RANK_WARNING_RATIO * high:
        warnings = (
            f"model matrix is numerically rank deficient "
            f"(eigenvalue range of G'G: {low:.3e} .. {high:.3e}); "
            f"the regularizer determines the weak directions",
        )
    return EvidenceDecomposition(
        log_evidence=log_fit - flexibility,
        log_fit=log_fit,
        flexibility=flexibility,
        estimator="glm-exact",
        err_estimate=0.0,
        theta_hat=theta_hat,
        warnings=warnings,
        info={"n": spec.n, "d": spec.d},
    )


def gaussian_posterior(spec: GaussianLinearSpec, obs: ObservationSet) -> GaussianPosterior:
    """Exact posterior ``N(theta_hat, (P*)^-1)`` paired with its prior."""
    _, p_star, _, theta_hat = _posterior(spec, obs)
    return GaussianPosterior(
        theta_hat=theta_hat,
        post_precision=p_star,
        prior_precision=spec.prior_precision,
    )


def evidence_via_candidate(spec: GaussianLinearSpec, obs: ObservationSet, theta0) -> float:
    """Log-evidence through the basic marginal likelihood identity.

    ``log E = log f(y; theta0) + log prior(theta0) - log posterior(theta0)``
    holds for every point with positive posterior density, which for a
    Gaussian posterior is every finite ``theta0``.  The value is constant in
    ``theta0`` up to rounding, a useful cross-check on the closed forms.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (spec.d,):
        raise ValueError(f"theta0 has shape {theta0.shape}, expected ({spec.d},)")
    if not np.all(np.isfinite(theta0)):
        raise ValueError("theta0 contains non-finite entries")
    post = gaussian_posterior(spec, obs)
    return glm_log_likelihood(spec, obs, theta0) \
        + post.log_prior_density(theta0) - post.log_posterior_density(theta0)
