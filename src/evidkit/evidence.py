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

import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .exceptions import DegeneracyFailure
from .generic import (
    GenericModelSpec,
    NormalizedPrior,
    DEFAULT_GRID,
    _check_grid,
    _laplace_mode,
    _objective,
    _region,
    _richardson_log_integral,
    _value_at,
)
from .glm import (LOG_2PI, GaussianLinearSpec, ObservationSet, _check_count, _check_scale,
                  _evidence_terms)
from .records import EvidenceDecomposition

__all__ = [
    "Decomposition",
    "PenaltyComparison",
    "AsymptoticSweepResult",
    "evidence_quadrature",
    "evidence_laplace",
    "laplace_curvature",
    "evidence_importance",
    "decompose",
    "bic_penalty",
    "pen_prime",
    "compare_penalties",
    "bic_sweep",
    "polynomial_sweep_family",
]

MIN_ESS_FRACTION = 0.01
DEFAULT_INFLATION = 1.5


def _check_finite(value, name):
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _check_sample_sizes(ns) -> tuple[int, ...]:
    """Sample sizes as ints: nonempty, each a whole number >= 1, strictly increasing."""
    ns = tuple(_check_count(n, "ns") for n in ns)
    if len(ns) < 1:
        raise ValueError("ns must be nonempty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("ns must be strictly increasing")
    return ns


def _log_joint_fn(model: GenericModelSpec, prior: NormalizedPrior):
    psi, log_z = _objective(model), prior.log_norm_const
    return lambda points: operator.isub(psi(points), log_z)  # psi's array is fresh: shift in place


def evidence_quadrature(model: GenericModelSpec, prior: NormalizedPrior,
                        grid_points_per_dim: int, *, start=None,
                        max_err: float | None = None) -> EvidenceDecomposition:
    """Log-evidence by dense trapezoid quadrature in log space, dim <= 3.

    The MAP search (from ``start``, or the declared box's centre) comes
    first.  ``exp(log_lik - R) / Z_R`` is then integrated over the MAP +- 8
    posterior sd of the Laplace curvature, the negative of the search's last
    stencil Hessian, clipped to the region (the support cut to ``prior.box``,
    where the normalizer holds), and widened while mass sits at a face short
    of it.  A curvature that is not positive definite leaves the declared box
    within the region, resolved.  A second mode outside the widened box is
    not integrated.  The error estimate is the Richardson one of
    :func:`evidkit.generic.normalize_prior`, floored at 64 roundings of log E,
    plus ``prior.err_estimate``; ``max_err`` is checked against that sum.  A
    NaN or +inf integrand raises :class:`~evidkit.exceptions.NumericFailure`.
    """
    grid_points_per_dim = _check_grid(grid_points_per_dim, model.dim)  # before the search
    region = _region(model, prior)
    theta_hat, _, chol_lower = _laplace_mode(model, start, strict=False)
    log_e, err, info = _richardson_log_integral(
        model, _log_joint_fn(model, prior), region, grid_points_per_dim, max_err, "quadrature",
        theta_hat, chol_lower, prior.err_estimate)
    log_fit = _value_at(model._log_lik_batch, theta_hat)
    return EvidenceDecomposition(
        log_evidence=log_e, log_fit=log_fit, flexibility=log_fit - log_e,
        estimator="quadrature", err_estimate=err, theta_hat=theta_hat, info=info)


def laplace_curvature(model: GenericModelSpec, prior: NormalizedPrior, theta_hat) -> np.ndarray:
    """Negative Hessian of ``log_lik + log prior`` at the MAP.

    The prior's normalizer is constant, so this is the negative Hessian of ``log_lik - R`` from
    a stencil centred at ``theta_hat``; within a step of a finite bound, the step is half the
    gap.  Raises ValueError for a ``theta_hat`` outside the support, and
    :class:`CurvatureFailure` when the result is not positive definite, as on a finite bound.
    """
    return _laplace_mode(model, theta_hat=theta_hat)[1]


def evidence_laplace(model: GenericModelSpec, prior: NormalizedPrior, *, start=None,
                     err_check_grid: int | None = None) -> EvidenceDecomposition:
    """First-order Laplace approximation to the log-evidence.

    ``log E ~ log f(theta_hat) + log prior(theta_hat) + (d/2) log 2 pi
    - 0.5 log det A`` with ``A`` the curvature of the negative log posterior
    at the MAP, from the search's last stencil.  Exact when the posterior is
    Gaussian, which is what the closed-form tests exploit.

    When ``dim <= 3`` the error estimate is ``|log E - reference|`` plus the
    reference's error, both as :func:`evidence_quadrature` finds them from the
    same MAP and factor, on ``err_check_grid`` points per axis (at least 5;
    default: the evidence size of ``DEFAULT_GRID``'s row); ``info`` records the
    reference's box and grid.  Above that NaN is reported and a given grid is refused.
    """
    if model.dim in DEFAULT_GRID or err_check_grid is not None:  # refuse before the search
        err_check_grid = _check_grid(err_check_grid, model.dim)
    region = _region(model, prior)
    theta_hat, _, chol_lower = _laplace_mode(model, start)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol_lower))))

    log_fit = _value_at(model._log_lik_batch, theta_hat)
    log_prior_at_map = -_value_at(model._regularizer_batch, theta_hat) - prior.log_norm_const
    log_e = log_fit + log_prior_at_map + 0.5 * model.dim * LOG_2PI - 0.5 * log_det

    err = float("nan")  # no reference quadrature above dim 3
    info = {"log_det_curvature": log_det}
    if err_check_grid is not None:
        reference, reference_err, reference_info = _richardson_log_integral(
            model, _log_joint_fn(model, prior), region, err_check_grid, None,
            "Laplace reference", theta_hat, chol_lower, prior.err_estimate)
        err = abs(log_e - reference) + reference_err
        info.update(reference_info)

    return EvidenceDecomposition(
        log_evidence=log_e, log_fit=log_fit, flexibility=log_fit - log_e,
        estimator="laplace", err_estimate=err, theta_hat=theta_hat, info=info)


def evidence_importance(model: GenericModelSpec, prior: NormalizedPrior,
                        samples: int, seed: int, *, inflation: float = DEFAULT_INFLATION,
                        start=None, theta_hat=None, curvature=None) -> EvidenceDecomposition:
    """Importance-sampling estimate of the log-evidence.

    The proposal is a Gaussian at the MAP whose covariance is the inverse Laplace curvature
    inflated by ``inflation`` (default 1.5, guarding against an underdispersed proposal).  The
    estimate is the log-mean-exp of ``log_lik + log prior - log proposal`` over the draws,
    where a draw outside :func:`evidence_quadrature`'s region weighs 0 and is not evaluated;
    the error estimate maps the weight standard error to the log scale by the delta method.
    ``theta_hat`` and ``curvature`` override the searched MAP and its last stencil's curvature,
    e.g. to propose from a known exact posterior.  A given ``theta_hat`` must lie in the
    support (else ValueError), and alone takes a stencil there, as :func:`laplace_curvature`.

    Draws come from a counter-based Philox stream keyed by ``seed``, so the
    result is reproducible bit for bit and independent of evaluation order.

    Raises
    ------
    CurvatureFailure
        When the curvature, computed or supplied, is not positive definite.
    DegeneracyFailure
        When the effective sample size falls below 1% of ``samples`` or is
        not a number, and with ``ess == 0`` when no draw has positive weight.
    """
    samples = _check_count(samples, "samples", 2)  # two at least, so the weights have a spread
    inflation = _check_scale(inflation, "inflation")
    region = _region(model, prior)
    theta_hat, _, chol_lower = _laplace_mode(model, start, theta_hat, curvature)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol_lower))))
    d = model.dim

    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal((samples, d))
    # theta = theta_hat + inflation * L^-T z  has covariance inflation^2 A^-1.
    points = theta_hat[None, :] + inflation * solve_triangular(
        chol_lower, z.T, lower=True, trans="T").T
    log_proposal = (-0.5 * d * LOG_2PI + 0.5 * log_det - d * np.log(inflation)
                    - 0.5 * np.einsum("ij,ij->i", z, z))

    # Only the region's bounded columns, one at a time: faster than one (samples, d) comparison.
    inside = np.ones(samples, dtype=bool)
    for j in np.flatnonzero(np.isfinite(region).any(axis=1)):
        inside &= (region[j, 0] <= points[:, j]) & (points[:, j] <= region[j, 1])
    log_joint = _log_joint_fn(model, prior)
    if inside.all():  # a copy and a scatter cost ~10% of a wrapped GLM's 20 000-draw call
        log_ratios = log_joint(points) - log_proposal
    else:
        log_ratios = np.full(samples, -np.inf)
        log_ratios[inside] = log_joint(points[inside]) - log_proposal[inside]
    top = float(np.max(log_ratios))
    if top == -np.inf:  # every weight is 0, and scaling by the top one would give 0 / 0
        raise DegeneracyFailure(
            f"importance weights degenerate: no draw of {samples} has positive weight", ess=0.0)
    weights = np.exp(log_ratios - top)
    mean_w = float(weights.mean())
    # A numpy sum, not a BLAS dot, so that the ESS does not depend on the thread count.
    ess = float(weights.sum() ** 2 / np.square(weights).sum())
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
    log_evidence = _check_finite(log_evidence, "log_evidence")
    log_fit = _check_finite(log_fit, "log_fit")
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
    d = _check_count(d, "d")
    n = float(n)
    if not n >= 1:
        raise ValueError("n must be >= 1")
    return 0.5 * d * float(np.log(n))


def pen_prime(supplied_penalty: float, flexibility: float) -> float:
    """Penalty induced on log-evidence by a non-flexibility fit penalty.

    Penalizing maximized log-likelihood with ``supplied_penalty`` is
    algebraically identical to penalizing log-evidence with
    ``supplied_penalty - flexibility``.
    """
    return _check_finite(supplied_penalty, "supplied_penalty") \
        - _check_finite(flexibility, "flexibility")


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
    flexibility = _check_finite(flexibility, "flexibility")
    supplied_penalty = _check_finite(supplied_penalty, "supplied_penalty")
    n = _check_count(n, "n")  # the record's n is the one its penalty is taken at
    return PenaltyComparison(
        flexibility=flexibility, supplied_penalty=supplied_penalty,
        d=int(d), n=n, bic_penalty=bic_penalty(d, n),
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
        Strictly increasing sample sizes, each >= 1.
    seed : int
        Root seed; each n receives a spawned child stream.
    """
    ns = _check_sample_sizes(ns)

    children = np.random.SeedSequence(seed).spawn(len(ns))
    gaps = np.empty(len(ns))
    flexibilities = np.empty(len(ns))
    for k, n in enumerate(ns):
        spec, obs = family_generator(n, np.random.default_rng(children[k]))
        if k and spec.d != d:
            raise ValueError(f"family dimension changed from {d} to {spec.d} at n={n}")
        d = spec.d
        gram, m_hat, _, flexibilities[k] = _evidence_terms(spec, obs.y)
        gaps[k] = flexibilities[k] - bic_penalty(spec.d, n)

    H_hat = gram / spec.n  # the closed form's own G'G, at the largest sample size, as m_hat
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
