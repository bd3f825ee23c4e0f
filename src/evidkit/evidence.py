"""Evidence estimation for black-box models, and penalty arithmetic.

Three estimators share one output record: dense trapezoid quadrature (the
workhorse at dimension <= 3), a first-order Laplace approximation around the
MAP, and self-normalized-free importance sampling from a Gaussian proposal
centered at the MAP.  Each reports the same fit-minus-flexibility
decomposition, with flexibility defined as ``log_fit - log_evidence``.

The penalty helpers relate flexibility to conventional criteria: the
``(d/2) log n`` penalty, and the induced penalty on log-evidence when a
criterion other than flexibility is applied to the maximized log-likelihood.
Everything is computed in log space end to end; raw evidence values are
never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, solve_triangular

from .exceptions import CurvatureFailure, DegeneracyFailure
from .generic import (
    GenericModelSpec,
    NormalizedPrior,
    HESS_STEP,
    _objective,
    _stencil_derivatives,
    _richardson_log_integral,
    _value_at,
    log_trapezoid_integral,
    map_optimize,
    resolve_integration_box,
)
from .glm import LOG_2PI, GaussianLinearSpec, ObservationSet, glm_log_evidence
from .records import EvidenceDecomposition

__all__ = [
    "Decomposition",
    "PenaltyComparison",
    "AsymptoticSweepResult",
    "evidence_quadrature",
    "evidence_laplace",
    "evidence_importance",
    "decompose",
    "bic_penalty",
    "pen_prime",
    "compare_penalties",
    "bic_sweep",
    "polynomial_sweep_family",
]

# Default quadrature grid sizes per dimension, for selection and the Laplace check.
DEFAULT_GRID = {1: 2001, 2: 201, 3: 41}

MIN_ESS_FRACTION = 0.01
DEFAULT_INFLATION = 1.5


def _require_finite(name, value):
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _log_joint_fn(model: GenericModelSpec, prior: NormalizedPrior):
    psi, log_z = _objective(model), prior.log_norm_const
    return lambda points: psi(points) - log_z


def _prior_box(model: GenericModelSpec, prior: NormalizedPrior) -> np.ndarray:
    """The prior's integration box, or a freshly resolved one when it is closed form."""
    return prior.box if prior.box is not None else \
        resolve_integration_box(model, _log_joint_fn(model, prior))


def _map_search(model: GenericModelSpec, prior: NormalizedPrior, start, box=None):
    """The MAP searched from ``start``, or from the centre of ``box`` (default: the prior box)."""
    if start is None:
        box = _prior_box(model, prior) if box is None else box
        bounds = model.bounds()
        start = np.clip(box.mean(axis=1), bounds[:, 0], bounds[:, 1])
    return map_optimize(model, np.asarray(start, dtype=float))


def evidence_quadrature(model: GenericModelSpec, prior: NormalizedPrior,
                        grid_points_per_dim: int, *, start=None,
                        max_err: float | None = None) -> EvidenceDecomposition:
    """Log-evidence by dense trapezoid quadrature in log space, dim <= 3.

    Integrates ``exp(log_lik - R) / Z_R`` over the prior's integration box
    (or a freshly resolved box when the prior is closed form).  The error
    estimate is a half-resolution Richardson comparison, as in
    :func:`evidkit.generic.normalize_prior`.  The MAP search follows the
    integral.
    """
    box, log_e, err = _richardson_log_integral(
        model, _log_joint_fn(model, prior), grid_points_per_dim, max_err, "quadrature",
        box=prior.box)
    theta_hat = _map_search(model, prior, start, box)
    log_fit = _value_at(model._log_lik_batch, theta_hat)
    return EvidenceDecomposition(
        log_evidence=log_e, log_fit=log_fit, flexibility=log_fit - log_e,
        estimator="quadrature", err_estimate=err, theta_hat=theta_hat,
        info={"grid_points_per_dim": int(grid_points_per_dim), "box": np.asarray(box).tolist()})


def _laplace_factor(model: GenericModelSpec, theta_hat, curvature=None):
    """The Laplace curvature at the MAP (computed when None) and its lower Cholesky factor.

    The factorization is the positive-definiteness test: a curvature that
    fails it raises :class:`CurvatureFailure`.
    """
    if curvature is None:
        curvature = -_stencil_derivatives(_objective(model), theta_hat, hess_step=HESS_STEP)[1]
    try:
        return curvature, np.linalg.cholesky(curvature)
    except LinAlgError as exc:
        raise CurvatureFailure(
            "Hessian at the MAP is not positive definite (saddle or ridge); "
            "the Laplace approximation is undefined here") from exc


def laplace_curvature(model: GenericModelSpec, prior: NormalizedPrior, theta_hat) -> np.ndarray:
    """Negative Hessian of ``log_lik + log prior`` at the MAP.

    The prior's normalizer is constant, so this is the negative Hessian of
    ``log_lik - R``.  Raises :class:`CurvatureFailure` when the result is
    not positive definite.
    """
    return _laplace_factor(model, theta_hat)[0]


def evidence_laplace(model: GenericModelSpec, prior: NormalizedPrior, *, start=None,
                     err_check_grid: int | None = None) -> EvidenceDecomposition:
    """First-order Laplace approximation to the log-evidence.

    ``log E ~ log f(theta_hat) + log prior(theta_hat) + (d/2) log 2 pi
    - 0.5 log det A`` with ``A`` the curvature of the negative log posterior
    at the MAP.  Exact when the posterior is Gaussian, which is what the
    closed-form tests exploit.

    When ``dim <= 3`` the error estimate is the absolute difference from
    trapezoid quadrature over the same integration box (grid size
    ``err_check_grid`` or a dimension-based default); above that no estimate
    is available and NaN is reported.
    """
    # The box serves the reference quadrature and a search from its centre only.
    box = _prior_box(model, prior) if model.dim <= 3 else None
    theta_hat = _map_search(model, prior, start, box)
    chol_lower = _laplace_factor(model, theta_hat)[1]
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol_lower))))

    log_fit = _value_at(model._log_lik_batch, theta_hat)
    log_prior_at_map = -_value_at(model._regularizer_batch, theta_hat) - prior.log_norm_const
    log_e = log_fit + log_prior_at_map + 0.5 * model.dim * LOG_2PI - 0.5 * log_det

    if model.dim <= 3:
        grid = err_check_grid or DEFAULT_GRID[model.dim]
        err = abs(log_e - log_trapezoid_integral(model, _log_joint_fn(model, prior), box, grid))
    else:
        err = float("nan")

    return EvidenceDecomposition(
        log_evidence=log_e, log_fit=log_fit, flexibility=log_fit - log_e,
        estimator="laplace", err_estimate=err, theta_hat=theta_hat,
        info={"log_det_curvature": log_det})


def evidence_importance(model: GenericModelSpec, prior: NormalizedPrior,
                        samples: int, seed: int, *, inflation: float = DEFAULT_INFLATION,
                        start=None, theta_hat=None, curvature=None) -> EvidenceDecomposition:
    """Importance-sampling estimate of the log-evidence.

    The proposal is a Gaussian at the MAP whose covariance is the inverse
    Laplace curvature inflated by ``inflation`` (default 1.5, guarding
    against an underdispersed proposal).  The estimate is the log-mean-exp
    of ``log_lik + log prior - log proposal`` over the draws; the error
    estimate maps the weight standard error to the log scale by the delta
    method.  ``theta_hat`` and ``curvature`` override the computed proposal
    center and precision, e.g. to propose from a known exact posterior.

    Draws come from a counter-based Philox stream keyed by ``seed``, so the
    result is reproducible bit for bit and independent of evaluation order.

    Raises
    ------
    CurvatureFailure
        When the curvature, computed or supplied, is not positive definite.
    DegeneracyFailure
        When the effective sample size falls below 1% of ``samples`` or is
        not a number.
    """
    samples = int(samples)
    if samples < 2:
        raise ValueError("samples must be >= 2")
    inflation = float(inflation)
    if not (np.isfinite(inflation) and inflation > 0):
        raise ValueError(f"inflation must be finite and > 0, got {inflation}")
    theta_hat = _map_search(model, prior, start) if theta_hat is None \
        else np.asarray(theta_hat, dtype=float)
    chol_lower = _laplace_factor(model, theta_hat, curvature)[1]
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol_lower))))
    d = model.dim

    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal((samples, d))
    # theta = theta_hat + inflation * L^-T z  has covariance inflation^2 A^-1.
    points = theta_hat[None, :] + inflation * solve_triangular(
        chol_lower, z.T, lower=True, trans="T").T
    log_proposal = (-0.5 * d * LOG_2PI + 0.5 * log_det - d * np.log(inflation)
                    - 0.5 * np.einsum("ij,ij->i", z, z))

    log_joint = _log_joint_fn(model, prior)
    log_ratios = log_joint(points) - log_proposal
    top = float(np.max(log_ratios))
    weights = np.exp(log_ratios - top)
    mean_w = float(weights.mean())
    ess = float(weights.sum() ** 2 / (weights @ weights))
    if not ess >= MIN_ESS_FRACTION * samples:  # a NaN ESS fails too
        raise DegeneracyFailure(
            f"importance weights degenerate: ESS {ess:.1f} of {samples} draws", ess=ess)

    log_e = top + float(np.log(mean_w))
    err = float(weights.std(ddof=1) / (mean_w * np.sqrt(samples)))
    log_fit = _value_at(model._log_lik_batch, theta_hat)
    return EvidenceDecomposition(
        log_evidence=log_e, log_fit=log_fit, flexibility=log_fit - log_e,
        estimator="importance-sampling", err_estimate=err, theta_hat=theta_hat,
        info={"samples": samples, "seed": int(seed), "inflation": float(inflation),
              "ess": ess})


# ---------------------------------------------------------------------------
# Decomposition and penalty arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """Fit/flexibility split of an externally supplied evidence value.

    ``note`` flags the pathological case of negative flexibility, which
    signals a conflict between the prior and the likelihood (the posterior
    density at the MAP fell below the prior density).
    """

    log_evidence: float
    log_fit: float
    flexibility: float
    note: str | None = None


def decompose(log_evidence: float, log_fit: float) -> Decomposition:
    """Flexibility implied by an evidence value: ``log_fit - log_evidence``."""
    log_evidence = _require_finite("log_evidence", log_evidence)
    log_fit = _require_finite("log_fit", log_fit)
    flexibility = log_fit - log_evidence
    note = None
    if flexibility < 0:
        note = ("negative flexibility: prior-likelihood conflict "
                "(posterior density at the MAP is below the prior density)")
    return Decomposition(log_evidence=log_evidence, log_fit=log_fit,
                         flexibility=flexibility, note=note)


def bic_penalty(d: int, n) -> float:
    """The ``(d/2) log n`` complexity penalty.

    ``n`` may be any real >= 1 so the penalty can be evaluated at analytic
    sample sizes; real uses pass the integer count of observations.
    """
    d = int(d)
    n = float(n)
    if d < 1:
        raise ValueError("d must be >= 1")
    if not n >= 1:
        raise ValueError("n must be >= 1")
    return 0.5 * d * float(np.log(n))


def pen_prime(supplied_penalty: float, flexibility: float) -> float:
    """Penalty induced on log-evidence by a non-flexibility fit penalty.

    Penalizing maximized log-likelihood with ``supplied_penalty`` is
    algebraically identical to penalizing log-evidence with
    ``supplied_penalty - flexibility``.
    """
    return _require_finite("supplied_penalty", supplied_penalty) \
        - _require_finite("flexibility", flexibility)


@dataclass(frozen=True)
class PenaltyComparison:
    """A supplied penalty next to flexibility and the ``(d/2) log n`` value."""

    flexibility: float
    supplied_penalty: float
    d: int
    n: int
    bic_penalty: float
    pen_prime: float


def compare_penalties(flexibility: float, supplied_penalty: float,
                      d: int, n: int) -> PenaltyComparison:
    """Full penalty comparison record for one model."""
    flexibility = _require_finite("flexibility", flexibility)
    supplied_penalty = _require_finite("supplied_penalty", supplied_penalty)
    return PenaltyComparison(
        flexibility=flexibility, supplied_penalty=supplied_penalty,
        d=int(d), n=int(n), bic_penalty=bic_penalty(d, n),
        pen_prime=pen_prime(supplied_penalty, flexibility))


# ---------------------------------------------------------------------------
# Asymptotic sweep: flexibility against the (d/2) log n penalty
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AsymptoticSweepResult:
    """Gap between flexibility and ``(d/2) log n`` along a sample-size sweep.

    ``predicted_constant`` is the large-sample limit of the gap,
    ``0.5 * (-d (log sigma^2 + log lam^2) + log det H + lam^2 ||m||^2)``
    with ``H`` and ``m`` estimated from the largest sample size.
    """

    ns: tuple[int, ...]
    gaps: np.ndarray
    flexibilities: np.ndarray
    H_hat: np.ndarray
    m_hat: np.ndarray
    predicted_constant: float
    d: int
    seed: int


def bic_sweep(family_generator, ns, seed: int) -> AsymptoticSweepResult:
    """Evaluate the flexibility-vs-penalty gap over increasing sample sizes.

    Parameters
    ----------
    family_generator : callable
        ``(n, rng) -> (GaussianLinearSpec, ObservationSet)`` producing a
        fresh draw at the requested sample size.  Covariates are regenerated
        independently at each n (derived child seeds, not nested data).
    ns : sequence of int
        Strictly increasing sample sizes.
    seed : int
        Root seed; each n receives a spawned child stream.
    """
    ns = tuple(int(n) for n in ns)
    if len(ns) < 1:
        raise ValueError("ns must be nonempty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("ns must be strictly increasing")

    children = np.random.SeedSequence(seed).spawn(len(ns))
    gaps = np.empty(len(ns))
    flexibilities = np.empty(len(ns))
    d = None
    last = None
    for k, n in enumerate(ns):
        spec, obs = family_generator(n, np.random.default_rng(children[k]))
        if d is None:
            d = spec.d
        elif spec.d != d:
            raise ValueError(f"family dimension changed from {d} to {spec.d} at n={n}")
        exact = glm_log_evidence(spec, obs)
        flexibilities[k] = exact.flexibility
        gaps[k] = flexibilities[k] - bic_penalty(spec.d, n)
        last = (spec, exact.theta_hat)

    spec, m_hat = last
    H_hat = spec.G.T @ spec.G / spec.n
    sign, log_det_h = np.linalg.slogdet(H_hat)
    if sign <= 0:
        raise ValueError("empirical design moment matrix is not positive definite")
    predicted = 0.5 * (-d * (2.0 * np.log(spec.sigma) + 2.0 * np.log(spec.lam))
                       + log_det_h + spec.lam**2 * float(m_hat @ m_hat))
    return AsymptoticSweepResult(
        ns=ns, gaps=gaps, flexibilities=flexibilities, H_hat=H_hat, m_hat=m_hat,
        predicted_constant=predicted, d=d, seed=int(seed))


def polynomial_sweep_family(theta_true, sigma: float, lam: float):
    """Family generator for :func:`bic_sweep` with IID standard-normal covariates.

    The design at size n has columns ``1, x, x**2, ...`` up to width
    ``len(theta_true)`` and responses ``G theta_true + sigma * noise``, so
    the empirical moment matrix converges and the MAP estimate tends to
    ``theta_true``.
    """
    theta_true = np.asarray(theta_true, dtype=float)
    if theta_true.ndim != 1 or theta_true.size < 1:
        raise ValueError("theta_true must be a nonempty vector")

    def generate(n, rng):
        x = rng.standard_normal(int(n))
        G = np.column_stack([x**k for k in range(theta_true.size)])
        y = G @ theta_true + sigma * rng.standard_normal(int(n))
        return GaussianLinearSpec(G=G, sigma=sigma, lam=lam), ObservationSet(y=y)

    return generate
