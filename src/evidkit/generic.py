"""Black-box models: a user-supplied log-likelihood plus a regularizer.

A model is two scalar functions over a box-bounded parameter space.  The
regularizer plays the role of an unnormalized negative log prior; the
normalizer over the box is computed by composite trapezoid quadrature in
log space, so everything downstream can use a proper prior density.

The MAP search is a safeguarded Newton iteration on finite-difference
derivatives, with a coordinate-wise golden-section fallback when the local
curvature is unusable.  Gradients are never requested from the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import logsumexp

from .exceptions import AccuracyFailure, ConvergenceFailure
from .glm import LOG_2PI, GaussianLinearSpec, ObservationSet, _posterior

__all__ = [
    "GenericModelSpec",
    "NormalizedPrior",
    "MultistartResult",
    "map_optimize",
    "map_optimize_multistart",
    "normalize_prior",
    "wrap_glm",
    "glm_normalized_prior",
    "finite_difference_gradient",
    "finite_difference_hessian",
]

GRAD_STEP = 1e-5
HESS_STEP = float(np.finfo(float).eps ** 0.25)  # ~1.2e-4, balances truncation vs roundoff
MAX_ITER = 500
GRAD_TOL = 1e-6
CURVATURE_TOL = 1e-4
# A Newton decrement this many ulps of the objective is below its rounding.
STALL_ULPS = 16.0

BOUNDARY_MASS_RATIO = 1e-12
MAX_BOX_DOUBLINGS = 6
# Probe resolution for the widening decision only; undersampling the peak
# just makes the boundary-mass check more conservative.
PROBE_POINTS_PER_DIM = 17
MAX_GRID_NODES = 20_000_000
EVAL_CHUNK = 262_144


def _as_box(value, dim, name, require_finite):
    box = np.array(value, dtype=float)
    if box.shape != (dim, 2):
        raise ValueError(f"{name} must have shape ({dim}, 2), got {box.shape}")
    if np.any(np.isnan(box)):
        raise ValueError(f"{name} contains NaN")
    if require_finite and not np.all(np.isfinite(box)):
        raise ValueError(f"{name} must be finite")
    if np.any(box[:, 0] >= box[:, 1]):
        raise ValueError(f"{name} must have lower < upper in every coordinate")
    box.setflags(write=False)
    return box


@dataclass(frozen=True, eq=False)
class GenericModelSpec:
    """Model defined by two scalar functions of the parameter vector.

    Parameters
    ----------
    dim : int
        Parameter dimension.
    log_lik : callable
        ``theta -> log f(y_obs; theta)``; the observations are captured at
        construction time.
    regularizer : callable
        ``theta -> R(theta)``.  ``exp(-R)`` must be integrable over the
        support; the normalizer diverging (mass piling up at the integration
        boundary) is reported as an accuracy failure.
    support : array_like (dim, 2), optional
        Hard box constraints; entries may be ``+-inf``.  ``None`` means all
        of R^dim.
    effective_box : array_like (dim, 2), optional
        Finite box used for integration along unbounded coordinates.  The
        box is widened automatically (doubling, at most 6 times) until the
        integrand at the boundary is below 1e-12 of its peak.
    vectorized : bool
        When True the two callables accept an ``(m, dim)`` array and return
        an ``(m,)`` array, which is dramatically faster on dense grids.

    Notes
    -----
    Everything here is pure given the two callables; supplying functions
    that are safe to call concurrently is part of the interface contract.
    The estimators only ever evaluate batches of points: scalar callables
    are wrapped into batch callables once, here.
    """

    dim: int
    log_lik: Callable
    regularizer: Callable
    support: np.ndarray | None = None
    effective_box: np.ndarray | None = None
    vectorized: bool = False
    _log_lik_batch: Callable = field(init=False, repr=False)
    _regularizer_batch: Callable = field(init=False, repr=False)

    def __post_init__(self):
        dim = int(self.dim)
        if dim < 1:
            raise ValueError("dim must be >= 1")
        object.__setattr__(self, "dim", dim)
        batch = _chunked_batch if self.vectorized else _scalar_batch
        object.__setattr__(self, "_log_lik_batch", partial(batch, self.log_lik))
        object.__setattr__(self, "_regularizer_batch", partial(batch, self.regularizer))
        if self.support is not None:
            object.__setattr__(
                self, "support", _as_box(self.support, dim, "support", require_finite=False))
        if self.effective_box is not None:
            object.__setattr__(
                self, "effective_box",
                _as_box(self.effective_box, dim, "effective_box", require_finite=True))

    def bounds(self) -> np.ndarray:
        """Hard bounds as a (dim, 2) array, infinite where unconstrained."""
        if self.support is None:
            return np.column_stack([np.full(self.dim, -np.inf), np.full(self.dim, np.inf)])
        return np.asarray(self.support)


@dataclass(frozen=True, eq=False)
class NormalizedPrior:
    """Log normalizing constant of ``exp(-R)`` over the integration box.

    ``method`` is ``grid-quadrature`` when computed here or ``closed-form``
    when supplied analytically.  ``box`` records the resolved integration
    box so evidence quadrature can reuse the identical region.
    """

    log_norm_const: float
    method: str
    err_estimate: float
    box: np.ndarray | None = None
    grid_points_per_dim: int | None = None

    def __post_init__(self):
        if self.method not in ("grid-quadrature", "closed-form"):
            raise ValueError(f"unknown normalizer method {self.method!r}")
        if self.box is not None:
            box = np.array(self.box, dtype=float)
            box.setflags(write=False)
            object.__setattr__(self, "box", box)


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------

def _scalar_batch(fn, points) -> np.ndarray:
    """A scalar callable over the rows of ``points``."""
    return np.array([float(fn(p)) for p in points])


def _chunked_batch(fn, points) -> np.ndarray:
    """A vectorized callable over ``points``, ``EVAL_CHUNK`` rows at a time."""
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], EVAL_CHUNK):
        out[start:start + EVAL_CHUNK] = fn(points[start:start + EVAL_CHUNK])
    return out


def _objective(model: GenericModelSpec) -> Callable:
    """Batch ``log_lik - regularizer``."""
    return lambda points: model._log_lik_batch(points) - model._regularizer_batch(points)


def _value_at(batch_fn, theta) -> float:
    """One point through a batch callable."""
    return float(batch_fn(np.asarray(theta, dtype=float)[None, :])[0])


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def _stencil_derivatives(f_batch, theta, grad_step=None, hess_step=None):
    """Central-difference gradient and Hessian from one batch of evaluations.

    The points and formulas are those of :func:`finite_difference_gradient`
    (step ``grad_step``) and :func:`finite_difference_hessian` (step
    ``hess_step``); a step of None leaves that derivative out and returns
    None in its place.
    """
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    eye = np.eye(d)
    i, j = np.triu_indices(d, k=1)
    offsets = []
    if grad_step is not None:
        hg = grad_step * (1.0 + np.abs(theta))
        offsets += [eye * hg, -eye * hg]
    if hess_step is not None:
        h = hess_step * (1.0 + np.abs(theta))
        offsets += [np.zeros((1, d)), eye * h, -eye * h] + [
            (si * eye[i] + sj * eye[j]) * h
            for si, sj in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))]
    parts = np.split(f_batch(theta + np.concatenate(offsets)),
                     np.cumsum([len(o) for o in offsets])[:-1])

    grad = hess = None
    if grad_step is not None:
        grad = (parts[0] - parts[1]) / (2.0 * hg)
    if hess_step is not None:
        f0, f_up, f_dn, f_pp, f_pm, f_mp, f_mm = parts[-7:]
        hess = np.diag((f_up - 2.0 * f0 + f_dn) / h ** 2)
        hess[i, j] = hess[j, i] = (f_pp - f_pm - f_mp + f_mm) / (4.0 * h[i] * h[j])
    return grad, hess


def finite_difference_gradient(f, theta, step=GRAD_STEP) -> np.ndarray:
    """Central-difference gradient with per-coordinate step ``step*(1+|theta_k|)``."""
    return _stencil_derivatives(partial(_scalar_batch, f), theta, grad_step=step)[0]


def finite_difference_hessian(f, theta, step=HESS_STEP) -> np.ndarray:
    """Central-difference Hessian, symmetric by construction.

    Uses a larger step than the gradient (fourth root of machine epsilon)
    because second differences divide by ``h**2``.
    """
    return _stencil_derivatives(partial(_scalar_batch, f), theta, hess_step=step)[1]


# ---------------------------------------------------------------------------
# MAP optimization
# ---------------------------------------------------------------------------

def _golden_section_max(f, lo, hi, tol):
    """Golden-section maximizer of a scalar function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _coordinate_golden_sweep(psi, theta, bounds):
    """One pass of coordinate-wise golden-section ascent within the bounds."""
    theta = theta.copy()
    for k in range(theta.size):
        radius = 1.0 + abs(theta[k])
        lo = max(bounds[k, 0], theta[k] - radius)
        hi = min(bounds[k, 1], theta[k] + radius)

        def along(t, k=k):
            trial = theta.copy()
            trial[k] = t
            return psi(trial)

        # Expand toward an unconstrained side while the edge keeps improving.
        center_val = along(theta[k])
        for _ in range(8):
            grew = False
            if lo > bounds[k, 0] and along(lo) > center_val:
                lo = max(bounds[k, 0], lo - (hi - lo))
                grew = True
            if hi < bounds[k, 1] and along(hi) > center_val:
                hi = min(bounds[k, 1], hi + (hi - lo))
                grew = True
            if not grew:
                break
        theta[k] = _golden_section_max(along, lo, hi, tol=1e-9 * (1.0 + abs(theta[k])))
    return theta


def _strictly_interior(theta, bounds):
    pad = 1e-12 * (1.0 + np.abs(theta))
    lo_ok = np.isinf(bounds[:, 0]) | (theta > bounds[:, 0] + pad)
    hi_ok = np.isinf(bounds[:, 1]) | (theta < bounds[:, 1] - pad)
    return bool(np.all(lo_ok & hi_ok))


def map_optimize(model: GenericModelSpec, start, *, max_iter=MAX_ITER,
                 grad_tol=GRAD_TOL, curvature_tol=CURVATURE_TOL) -> np.ndarray:
    """Local maximizer of ``log_lik(theta) - regularizer(theta)``.

    Safeguarded Newton with backtracking on finite-difference derivatives;
    when the Hessian is not usable (indefinite or non-finite) the iteration
    falls back to a coordinate-wise golden-section sweep.  Box constraints
    are handled by projection.

    Each iteration evaluates the gradient and Hessian stencils as one batch.
    Convergence requires an interior point whose Hessian is negative
    semidefinite within ``curvature_tol`` and which is stationary: its
    central-difference gradient has sup-norm below ``grad_tol``, or its
    Newton decrement ``grad @ step`` is at most ``16 eps max(1, |value|)``.
    The second test stops the search once the gain a Newton step predicts
    is below the rounding of the objective, where the line search could
    only accept steps of a few ulps.

    Raises
    ------
    ConvergenceFailure
        If no interior stationary point is found within ``max_iter``
        iterations; the error carries the best iterate.
    """
    bounds = model.bounds()
    theta = np.asarray(start, dtype=float).copy()
    if theta.shape != (model.dim,):
        raise ValueError(f"start has shape {theta.shape}, expected ({model.dim},)")
    if np.any(theta < bounds[:, 0]) or np.any(theta > bounds[:, 1]):
        raise ValueError("start lies outside the support box")

    psi_batch = _objective(model)
    psi = partial(_value_at, psi_batch)
    value = psi(theta)
    if not np.isfinite(value):
        raise ValueError("objective is not finite at the start point")
    best_theta, best_value = theta.copy(), value
    stall = STALL_ULPS * np.finfo(float).eps

    for _ in range(max_iter):
        grad, hess = _stencil_derivatives(psi_batch, theta, GRAD_STEP, HESS_STEP)

        try:  # Cholesky fails on an indefinite or non-finite Hessian
            step = cho_solve(cho_factor(-hess, lower=True), grad)
        except (LinAlgError, ValueError):
            step = None
        newton = step is not None and bool(np.all(np.isfinite(step)))
        decrement = float(grad @ step) if newton else np.inf
        stationary = np.max(np.abs(grad)) < grad_tol or decrement <= stall * max(1.0, abs(value))
        if stationary and _strictly_interior(theta, bounds) \
                and float(np.linalg.eigvalsh(hess).max()) <= curvature_tol:
            return theta

        moved = False
        if newton:
            t = 1.0
            while t > 1e-12:
                trial = np.clip(theta + t * step, bounds[:, 0], bounds[:, 1])
                trial_value = psi(trial)
                if np.isfinite(trial_value) and trial_value >= value + 1e-4 * t * decrement:
                    theta, value, moved = trial, trial_value, True
                    break
                t /= 2.0

        if not moved:
            trial = _coordinate_golden_sweep(psi, theta, bounds)
            trial_value = psi(trial)
            if np.isfinite(trial_value) and trial_value > value:
                theta, value = trial, trial_value
            # A sweep that does not improve still counts as an iteration;
            # the convergence test above decides whether we are done.

        if value > best_value:
            best_theta, best_value = theta.copy(), value

    raise ConvergenceFailure(
        f"no interior stationary point found within {max_iter} iterations "
        f"(best objective {best_value:.6g})",
        best_theta=best_theta, best_value=best_value)


@dataclass(frozen=True, eq=False)
class MultistartResult:
    """Best local maximizer over several starts, with every basin recorded.

    ``basins`` holds one ``(start, theta, value)`` triple per start;
    failed starts keep their best iterate with the value reached.
    """

    theta: np.ndarray
    value: float
    basins: tuple[tuple[np.ndarray, np.ndarray, float], ...]


def map_optimize_multistart(model: GenericModelSpec, seed: int, *, n_starts: int = 8,
                            box=None, **optimize_kwargs) -> MultistartResult:
    """MAP search restarted from seeded Latin-hypercube points.

    :func:`map_optimize` is a local method; multimodal objectives need
    several starts.  Starts are a Latin-hypercube sample over ``box`` (the
    support box by default, which must then be finite), one stratum per
    start in every coordinate.  The best local maximum wins; all basins are
    returned for inspection.
    """
    if box is None:
        box = model.bounds()
    box = np.asarray(box, dtype=float)
    if not np.all(np.isfinite(box)):
        raise ValueError("multistart needs a finite box; pass one for unbounded support")
    n_starts = int(n_starts)
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")

    rng = np.random.default_rng(seed)
    strata = (rng.permuted(np.tile(np.arange(n_starts), (model.dim, 1)), axis=1).T
              + rng.uniform(size=(n_starts, model.dim))) / n_starts
    starts = box[:, 0] + strata * (box[:, 1] - box[:, 0])

    psi_batch = _objective(model)
    basins = []
    best_theta, best_value = None, -np.inf
    for start in starts:
        try:
            theta = map_optimize(model, start, **optimize_kwargs)
            value = _value_at(psi_batch, theta)
        except ConvergenceFailure as failure:
            theta, value = failure.best_theta, failure.best_value
        basins.append((start, theta, float(value)))
        if value > best_value:
            best_theta, best_value = theta, float(value)
    return MultistartResult(theta=best_theta, value=best_value, basins=tuple(basins))


# ---------------------------------------------------------------------------
# Integration boxes and trapezoid quadrature in log space
# ---------------------------------------------------------------------------

def _declared_box(model: GenericModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Initial finite integration box and a per-side widenable mask."""
    bounds = model.bounds()
    box = np.empty((model.dim, 2))
    widenable = np.zeros((model.dim, 2), dtype=bool)
    for k in range(model.dim):
        for side in (0, 1):
            if np.isfinite(bounds[k, side]):
                box[k, side] = bounds[k, side]
            else:
                if model.effective_box is None:
                    raise ValueError(
                        f"coordinate {k} has unbounded support; declare effective_box")
                box[k, side] = model.effective_box[k, side]
                widenable[k, side] = True
    if np.any(box[:, 0] >= box[:, 1]):
        raise ValueError("integration box has lower >= upper")
    return box, widenable


def _grid_nodes(box, points_per_dim):
    axes = [np.linspace(box[k, 0], box[k, 1], points_per_dim) for k in range(box.shape[0])]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.reshape(-1) for m in mesh])
    return axes, points


def _log_trapezoid_sum(axes, values) -> float:
    """Log trapezoid sum over the grid ``axes`` of ``exp(values)``, values in grid order."""
    total = np.zeros(1)  # tensor product of the per-axis log weights, in grid order
    for nodes in axes:
        w = np.full(nodes.size, np.log(nodes[1] - nodes[0]))
        w[0] += np.log(0.5)
        w[-1] += np.log(0.5)
        total = (total[:, None] + w[None, :]).reshape(-1)
    return float(logsumexp(values + total))


def _evaluate_grid(model: GenericModelSpec, log_integrand, box, points_per_dim):
    """Grid axes over ``box`` and the integrand's values at every node, in grid order."""
    if points_per_dim < 3:
        raise ValueError("points_per_dim must be >= 3")
    if points_per_dim ** model.dim > MAX_GRID_NODES:
        raise ValueError(
            f"grid of {points_per_dim}^{model.dim} nodes exceeds the "
            f"{MAX_GRID_NODES} node limit")
    axes, points = _grid_nodes(np.asarray(box, dtype=float), points_per_dim)
    return axes, log_integrand(points)


def log_trapezoid_integral(model: GenericModelSpec, log_integrand, box, points_per_dim) -> float:
    """``log integral exp(log_integrand)`` by composite trapezoid in log space.

    ``log_integrand`` maps an ``(m, dim)`` batch of points to ``m`` values.
    """
    return _log_trapezoid_sum(*_evaluate_grid(model, log_integrand, box, points_per_dim))


def resolve_integration_box(model: GenericModelSpec, log_integrand) -> np.ndarray:
    """Finite box covering the integrand mass.

    Starts from the declared support/effective box and doubles the width of
    unbounded coordinates until the integrand at every widenable boundary
    node is below 1e-12 of the grid peak, at most 6 doublings.  Truncation
    that cannot be cured this way (an integrand that does not decay) raises
    instead of silently returning a too-small box.
    """
    box, widenable = _declared_box(model)
    if not np.any(widenable):
        return box
    for attempt in range(MAX_BOX_DOUBLINGS + 1):
        axes, points = _grid_nodes(box, PROBE_POINTS_PER_DIM)
        values = log_integrand(points).reshape(
            [PROBE_POINTS_PER_DIM] * model.dim)
        peak = float(values.max())
        boundary_max = -np.inf
        for k in range(model.dim):
            face_lo = np.take(values, 0, axis=k)
            face_hi = np.take(values, -1, axis=k)
            if widenable[k, 0]:
                boundary_max = max(boundary_max, float(face_lo.max()))
            if widenable[k, 1]:
                boundary_max = max(boundary_max, float(face_hi.max()))
        if boundary_max - peak < np.log(BOUNDARY_MASS_RATIO):
            return box
        if attempt == MAX_BOX_DOUBLINGS:
            break
        for k in range(model.dim):
            width = box[k, 1] - box[k, 0]
            if widenable[k, 0]:
                box[k, 0] -= width / 2.0
            if widenable[k, 1]:
                box[k, 1] += width / 2.0
    raise AccuracyFailure(
        f"integrand mass remains at the integration boundary after "
        f"{MAX_BOX_DOUBLINGS} box doublings; exp(-R) may not be integrable",
        err_estimate=float(np.exp(boundary_max - peak)))


def _richardson_log_integral(model: GenericModelSpec, log_integrand, grid_points_per_dim,
                            max_err, what, box=None):
    """``(box, fine, err)``: the trapezoid log-integral and its Richardson error estimate.

    ``box`` is resolved from the integrand when None.  The half-resolution
    rule has ``(g + 1) // 2`` points per axis: an odd ``g`` grid holds it as
    its even-indexed nodes, so the integrand is evaluated once; an even
    ``g`` has no such nodes and needs a second grid.  :class:`AccuracyFailure`
    names the integral by ``what``.
    """
    if model.dim > 3:
        raise ValueError("grid quadrature supports dim <= 3")
    g = int(grid_points_per_dim)
    if g < 5:
        raise ValueError("grid_points_per_dim must be >= 5")

    box = resolve_integration_box(model, log_integrand) if box is None else box
    axes, values = _evaluate_grid(model, log_integrand, box, g)
    fine = _log_trapezoid_sum(axes, values)
    if g % 2:
        even_nodes = values.reshape([g] * model.dim)[(slice(None, None, 2),) * model.dim]
        coarse = _log_trapezoid_sum([nodes[::2] for nodes in axes], even_nodes.reshape(-1))
    else:
        coarse = log_trapezoid_integral(model, log_integrand, box, (g + 1) // 2)
    err = abs(fine - coarse) / 3.0
    if max_err is not None and err > max_err:
        raise AccuracyFailure(
            f"{what} error estimate {err:.3e} exceeds tolerance {max_err:.3e} "
            f"(fine {fine:.12g}, half-resolution {coarse:.12g})",
            value=fine, coarse_value=coarse, err_estimate=err)
    return box, fine, err


def normalize_prior(model: GenericModelSpec, grid_points_per_dim: int,
                    max_err: float | None = None) -> NormalizedPrior:
    """Log normalizer of ``exp(-R)`` by trapezoid quadrature in log space, dim <= 3.

    The error estimate is a Richardson comparison against the same rule at
    half resolution (trapezoid error scales as the squared step, so a third
    of the observed change bounds the fine-grid error).

    Raises
    ------
    AccuracyFailure
        When ``max_err`` is given and the estimate exceeds it; the error
        carries both resolutions' values.
    """
    def neg_reg(points):
        return -model._regularizer_batch(points)

    box, log_z, err = _richardson_log_integral(
        model, neg_reg, grid_points_per_dim, max_err, "prior normalizer")
    return NormalizedPrior(
        log_norm_const=log_z, method="grid-quadrature", err_estimate=err,
        box=box, grid_points_per_dim=int(grid_points_per_dim))


# ---------------------------------------------------------------------------
# Bridging from the closed-form Gaussian linear model
# ---------------------------------------------------------------------------

def wrap_glm(spec: GaussianLinearSpec, obs: ObservationSet) -> GenericModelSpec:
    """Expose a Gaussian linear model through the black-box interface.

    The returned spec is vectorized and carries an effective integration box
    covering ten standard deviations of both the prior and the posterior in
    every coordinate, so the generic estimators can be validated against the
    closed forms.

    The log-likelihood reads sufficient statistics only, at O(d^2) per
    point: with ``delta = theta - theta_hat`` and ``r = y - G theta_hat``,
    ``||y - G theta||^2 = ||r||^2 - 2 delta'G'r + delta'G'G delta``.
    Expanding about the posterior mean rather than 0 keeps every term small
    near the mode, so no ``y'y``-sized terms cancel.
    """
    G = spec.G
    sigma2 = spec.sigma**2
    lam2 = spec.lam**2
    const = -0.5 * spec.n * (LOG_2PI + np.log(sigma2))
    gram, _, factor, theta_hat = _posterior(spec, obs)
    resid = obs.y - G @ theta_hat
    rss, g_resid = float(resid @ resid), G.T @ resid

    def log_lik(points):
        delta = points - theta_hat
        sq = rss - 2.0 * (delta @ g_resid) + np.einsum("ij,ij->i", delta @ gram, delta)
        return const - sq / (2.0 * sigma2)

    def regularizer(points):
        return 0.5 * lam2 * np.einsum("ij,ij->i", points, points)

    post_sd = np.sqrt(np.diag(cho_solve(factor, np.eye(spec.d))))
    prior_sd = 1.0 / spec.lam
    lo = np.minimum(-10.0 * prior_sd, theta_hat - 10.0 * post_sd)
    hi = np.maximum(10.0 * prior_sd, theta_hat + 10.0 * post_sd)
    return GenericModelSpec(
        dim=spec.d, log_lik=log_lik, regularizer=regularizer,
        support=None, effective_box=np.column_stack([lo, hi]), vectorized=True)


def glm_normalized_prior(spec: GaussianLinearSpec) -> NormalizedPrior:
    """Closed-form normalizer of the quadratic regularizer's Gaussian prior."""
    log_z = 0.5 * spec.d * (LOG_2PI - 2.0 * np.log(spec.lam))
    return NormalizedPrior(log_norm_const=log_z, method="closed-form", err_estimate=0.0)
