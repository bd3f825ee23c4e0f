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

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

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
# Right-hand sides per solve.  OpenBLAS splits a wider solve across threads, and
# with d = 4 and 500 sides that hand-off took 24 ms against 0.05 ms of work on a
# 2-CPU machine whose other CPU was busy.
_SOLVE_BLOCK = 64


def _frozen_array(value, ndim, name):
    arr = value if _unwritable(value) else np.array(value, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _unwritable(value) -> bool:
    """A read-only float64 ndarray whose ``base`` chain ends in a read-only owner of its data."""
    if type(value) is not np.ndarray or value.dtype != np.float64:
        return False
    while not value.flags.writeable and isinstance(value.base, np.ndarray):
        value = value.base
    return not value.flags.writeable and value.flags.owndata


def _check_scale(value, name) -> float:
    """A noise, regularizer or proposal scale as a float: positive and finite."""
    value = float(value)
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite")
    return value


def _check_count(value, name, low: int = 1) -> int:
    """A count, size or seed as an int: a whole number (a fraction is refused), >= ``low``."""
    count = int(value)
    if count != value:
        raise ValueError(f"{name} must be a whole number, got {value}")
    if count < low:
        raise ValueError(f"{name} must be >= {low}")
    return count


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """Observed response vector, plus an optional scalar covariate column.

    Parameters
    ----------
    y : array_like, shape (n,)
        Responses every likelihood is evaluated on, copied as ``GaussianLinearSpec`` copies ``G``.
    x : array_like, shape (n,), optional
        Scalar covariate, used by polynomial model families; copied likewise.
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
        Kept as given, a view included, when nothing can write to it: a read-only
        float64 array whose ``base`` chain ends in a read-only owner.  Copied otherwise.
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
        object.__setattr__(self, "sigma", _check_scale(self.sigma, "sigma"))
        object.__setattr__(self, "lam", _check_scale(self.lam, "lam"))

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
    _post_factor: np.ndarray = field(init=False, repr=False)
    _prior_factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        theta_hat = _frozen_array(self.theta_hat, 1, "theta_hat")
        post = _frozen_array(self.post_precision, 2, "post_precision")
        prior = _frozen_array(self.prior_precision, 2, "prior_precision")
        d = theta_hat.size
        for name, mat, factor in (("post_precision", post, "_post_factor"),
                                  ("prior_precision", prior, "_prior_factor")):
            if mat.shape != (d, d):
                raise ValueError(
                    f"{name} must have shape ({d}, {d}) to match theta_hat, got {mat.shape}")
            scale = np.abs(mat).max()
            if not np.allclose(mat, mat.T, atol=1e-10 * max(scale, 1.0)):
                raise ValueError(f"{name} is not symmetric")
            try:
                object.__setattr__(self, factor, np.linalg.cholesky(mat))
            except LinAlgError as exc:
                raise NumericFailure(f"{name} is not positive definite: {exc}") from exc
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
        return _gaussian_logpdf(np.asarray(theta, dtype=float), np.zeros(self.d),
                                self._prior_factor)

    def log_posterior_density(self, theta) -> float:
        return _gaussian_logpdf(np.asarray(theta, dtype=float), self.theta_hat,
                                self._post_factor)


def _gaussian_logpdf(theta, mean, L):
    """Multivariate normal log-density whose precision has the lower Cholesky factor ``L``."""
    log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
    dev = theta - mean
    quad = float(np.dot(L.T @ dev, L.T @ dev))
    return 0.5 * (log_det - theta.size * LOG_2PI - quad)


def _check_dims(spec: GaussianLinearSpec, y: np.ndarray):
    if y.shape[-1] != spec.n:
        raise ValueError(f"observation length {y.shape[-1]} does not match model rows {spec.n}")


def _matvec(A, x):
    """``A @ x`` per vector on ``x``'s last axis; ``matmul`` computes each as if it were alone."""
    return (A @ x[..., None])[..., 0]


def _precision(spec: GaussianLinearSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The evaluation's one copy of a view, in C order: BLAS sums a view otherwise.
    G = np.ascontiguousarray(spec.G)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gram = G.swapaxes(-1, -2) @ G
        p_star = gram / spec.sigma**2
    np.einsum("...ii->...i", p_star)[...] += spec.lam**2  # each diagonal, through a view
    _require_finite(p_star, "posterior precision", axes=2)
    return G, gram, p_star


# LAPACK's Cholesky routines as scipy's wrappers call them, minus checks that cost twice the
# work at d = 6.  numpy's ``cholesky`` rounds differently from d = 5 on; seeded MAPs use these.
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def _cholesky_solve(matrix, rhs, name):
    """``(L, matrix^-1 rhs)`` for a finite SPD ``matrix``; ``rhs`` is a vector or rows of them.

    A stack of matrices (m, d, d) takes a vector each as a row; a failure names its row.  Each
    caller tests that its ``rhs`` is finite and names what is not, so no test is made here.
    """
    if matrix.ndim == 2:
        return _factor_solve(matrix, rhs, name)
    pairs = [_factor_solve(a, b, name, row) for row, (a, b) in enumerate(zip(matrix, rhs))]
    return np.array([factor for factor, _ in pairs]), np.array([sol for _, sol in pairs])


def _factor_solve(matrix, rhs, name, row=None):
    factor, info = _POTRF(matrix, lower=True, clean=False)
    if info > 0:
        raise NumericFailure(f"{name} factorization failed: leading minor {info} is not positive",
                             row=row)
    if rhs.ndim == 1:
        return factor, _POTRS(factor, rhs, lower=True)[0]
    blocks = np.split(rhs, range(_SOLVE_BLOCK, len(rhs), _SOLVE_BLOCK))
    return factor, np.concatenate([_POTRS(factor, b.T, lower=True)[0].T for b in blocks])


def _posterior(spec: GaussianLinearSpec, y: np.ndarray) -> tuple:
    """``(G, G'G, P*, L, theta_hat)``: ``P*`` factored once per model, by ``_cholesky_solve``.

    ``y`` may stack responses as the rows of an (m, n) matrix: ``theta_hat``
    then has a row each, bit for bit the MAP of that row alone.  ``G`` may stack one
    design per row, (m, n, d), in any ``spec`` with ``G``, ``n``, ``sigma`` and ``lam``.
    """
    _check_dims(spec, y)
    G, gram, p_star = _precision(spec)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rhs = _matvec(G.swapaxes(-1, -2), y) / spec.sigma**2
    _require_finite(rhs, "G'y / sigma**2", axes=1)
    return G, gram, p_star, *_cholesky_solve(p_star, rhs, "posterior precision")


def _require_finite(values, name: str, axes: int = 0):
    """Raise ``NumericFailure`` naming a non-finite entry, by its last ``axes`` indices, and row."""
    if np.isfinite(values).all():
        return
    bad = np.argwhere(~np.isfinite(values))[0]
    row = int(bad[0]) if values.ndim > axes else None  # a stack has a leading row axis
    entry = f"entry [{','.join(str(k) for k in bad[len(bad) - axes:])}] of " if axes else ""
    where = "" if row is None else f" in response row {row}"
    raise NumericFailure(f"{entry}{name} is not finite{where}", row=row)


def _log_fit(spec: GaussianLinearSpec, resid):
    """Gaussian log-likelihood of the residuals ``resid``, or of each row of a stack."""
    rss = _matvec(resid[..., None, :], resid)[..., 0]
    return -0.5 * spec.n * (LOG_2PI + 2.0 * np.log(spec.sigma)) - rss / (2.0 * spec.sigma**2)


def _evidence_terms(spec: GaussianLinearSpec, y: np.ndarray) -> tuple:
    """``(G'G, theta_hat, log_fit, flexibility)`` of ``y``, or of each row of a stack."""
    G, gram, _, factor, theta_hat = _posterior(spec, y)
    log_det_post = 2.0 * np.sum(np.log(np.diagonal(factor, axis1=-2, axis2=-1)), axis=-1)
    log_det_prior = 2.0 * spec.G.shape[-1] * np.log(spec.lam)
    # An overflow of theta_hat'theta_hat or of the residual sum of squares makes it non-finite.
    with np.errstate(over="ignore", invalid="ignore"):
        flexibility = 0.5 * (log_det_post - log_det_prior) \
            + 0.5 * spec.lam**2 * _matvec(theta_hat[..., None, :], theta_hat)[..., 0]
        log_fit = _log_fit(spec, y - _matvec(G, theta_hat))
        _require_finite(log_fit - flexibility, "log-evidence")
    return gram, theta_hat, log_fit, flexibility


def _log_evidences(spec: GaussianLinearSpec, Y: np.ndarray) -> np.ndarray:
    """Log-evidence of each row of the (m, n) response stack ``Y``, from one factorization."""
    _, _, log_fit, flexibility = _evidence_terms(spec, Y)
    return log_fit - flexibility


def posterior_precision(spec: GaussianLinearSpec) -> np.ndarray:
    """Posterior precision ``P* = G'G / sigma**2 + lam**2 * I``.

    Raises
    ------
    NumericFailure
        If the accumulation overflows, naming the offending entry.
    """
    return _precision(spec)[2]


def map_estimate(spec: GaussianLinearSpec, obs: ObservationSet) -> np.ndarray:
    """MAP estimate ``theta_hat = (P*)^-1 G'y / sigma**2``, via Cholesky solve."""
    return _posterior(spec, obs.y)[4]


def glm_log_likelihood(spec: GaussianLinearSpec, obs: ObservationSet, theta) -> float:
    """Exact Gaussian log-likelihood ``log N(y; G theta, sigma**2 I)``.

    All constants are included; evidence comparisons across models require
    fully normalized densities.
    """
    _check_dims(spec, obs.y)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.d,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({spec.d},)")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_lik = _log_fit(spec, obs.y - spec.G @ theta)
        _require_finite(log_lik, "log-likelihood")
    return log_lik


def flexibility_exact(spec: GaussianLinearSpec, obs: ObservationSet) -> float:
    """Exact flexibility ``0.5 log(det P*/det P) + (lam**2/2) ||theta_hat||**2``.

    Both summands are nonnegative for this model, so the result is >= 0.
    The determinant ratio is evaluated in log space from Cholesky diagonals.
    """
    return _evidence_terms(spec, obs.y)[3]


def gram_eigen_range(spec: GaussianLinearSpec) -> tuple[float, float]:
    """Smallest and largest eigenvalue of ``G'G``.

    Exposed as a conditioning diagnostic; a tiny ratio means the data alone
    barely identify some parameter directions and the regularizer is doing
    the work.
    """
    eigs = np.linalg.eigvalsh(_precision(spec)[1])
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
    gram, theta_hat, log_fit, flexibility = _evidence_terms(spec, obs.y)
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
    _, _, p_star, _, theta_hat = _posterior(spec, obs.y)
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
    if not np.all(np.isfinite(theta0)):
        raise ValueError("theta0 contains non-finite entries")
    log_lik = glm_log_likelihood(spec, obs, theta0)
    _, _, _, factor, theta_hat = _posterior(spec, obs.y)
    # ``lam * I`` factors the prior precision; ``P*`` comes factored by ``_posterior``.
    return log_lik + _gaussian_logpdf(theta0, np.zeros(spec.d), spec.lam * np.eye(spec.d)) \
        - _gaussian_logpdf(theta0, theta_hat, np.tril(factor))
